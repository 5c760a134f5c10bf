#include "sim/simulator.h"

#include <algorithm>

#include "obs/prof.h"

namespace helix::sim {

using core::CompiledSchedule;
using core::OpId;
using core::OpKind;
using core::Schedule;

const SimResult& Simulator::run(
    const CompiledSchedule& cs, SimWorkspace& ws,
    const std::vector<std::int64_t>& base_memory) const {
  HELIX_PROF_SCOPE("sim.run");
  const std::size_t n = cs.num_ops();
  const auto ns = static_cast<std::size_t>(cs.num_stages);

  // Workspace realloc canary: when re-running a schedule this workspace has
  // already hosted, every buffer is provably large enough, so any capacity
  // change is a reuse bug. Counted (not assumed) and surfaced via prof.
  const bool steady = ws.last == &cs;
  std::int64_t ws_reallocs = 0;
  const auto track = [&](std::size_t before, std::size_t after) {
    if (steady && after != before) ++ws_reallocs;
  };

  SimResult& res = ws.result;
  {
    const std::size_t cap_times = res.op_times.capacity();
    const std::size_t cap_stages = res.stages.capacity();
    res.makespan = 0;
    res.op_times.assign(n, {});
    res.stages.assign(ns, {});
    track(cap_times, res.op_times.capacity());
    track(cap_stages, res.stages.capacity());
  }

  // Relaxation in precompiled topological order: every predecessor's end
  // time is final by the time an op is visited, so start times are direct
  // maxes over the CSR edge lists — no ready queue, no in-degree bookkeeping.
  {
    HELIX_PROF_SCOPE("sim.relax");
    OpTime* times = res.op_times.data();
    double makespan = 0;
    for (const OpId id : cs.topo) {
      const std::size_t ui = static_cast<std::size_t>(id);
      double start = 0;
      const OpId sp = cs.stream_pred[ui];
      if (sp != core::kNoOp) start = times[static_cast<std::size_t>(sp)].end;
      const OpId* it = cs.deps_begin(id);
      const OpId* dend = cs.deps_end(id);
      for (; it != dend; ++it) {
        start = std::max(start, times[static_cast<std::size_t>(*it)].end);
      }

      // Price from the op record: a Send occupies its comm stream for the
      // transfer, a Recv ends at data arrival (zero intrinsic cost), and a
      // compute op costs its (kind, combines_w) price.
      const core::Op& op = cs.op(id);
      const OpKind kind = op.kind;
      double end;
      auto& st = res.stages[static_cast<std::size_t>(op.stage)];
      if (kind == OpKind::kSend) {
        end = start + cost_.transfer_seconds(op.comm_elems);
        st.comm_busy += end - start;
      } else if (kind == OpKind::kRecv) {
        end = std::max(start,
                       times[static_cast<std::size_t>(cs.matching_send[ui])].end);
        st.recv_wait += end - start;
      } else {
        end = start + cost_.compute_seconds(kind, op.combines_w);
        st.compute_busy += end - start;
      }
      times[ui] = {start, end};
      makespan = std::max(makespan, end);
    }
    res.makespan = makespan;
  }

  // Bubble per stage.
  for (auto& st : res.stages) st.bubble = res.makespan - st.compute_busy;

  // Memory timelines. The per-stage event vectors are reserved exactly from
  // the compiled per-stage counts before any append, so the append loop
  // never reallocates mid-run — the "sim.mem_events.reallocs" counter proves
  // it (asserted zero in tests and surfaced by bench_selfperf).
  HELIX_PROF_SCOPE("sim.memory_timeline");
  using MemEvent = SimWorkspace::MemEvent;
  {
    const std::size_t cap_events = ws.events.capacity();
    ws.events.resize(ns);
    track(cap_events, ws.events.capacity());
    std::int64_t total = 0;
    for (std::size_t s = 0; s < ns; ++s) {
      auto& ev = ws.events[s];
      const std::size_t cap = ev.capacity();
      ev.clear();
      ev.reserve(cs.mem_count[s]);
      track(cap, ev.capacity());
      total += cs.mem_count[s];
    }
    HELIX_PROF_COUNT("sim.mem_events.appended", total);
  }
  std::int64_t reallocs = 0;
  for (const core::Op& op : cs.schedule().ops) {
    const std::int64_t acquire = op.alloc_bytes + op.transient_bytes;
    const std::int64_t release = op.free_bytes + op.transient_bytes;
    if (acquire == 0 && release == 0) continue;
    const OpTime& ot = res.op_times[static_cast<std::size_t>(op.id)];
    auto& ev = ws.events[static_cast<std::size_t>(op.stage)];
    const std::size_t cap = ev.capacity();
    if (acquire != 0) ev.push_back({ot.start, acquire});
    if (release != 0) ev.push_back({ot.end, -release});
    if (ev.capacity() != cap) ++reallocs;
  }
  HELIX_PROF_COUNT("sim.mem_events.reallocs", reallocs);
  for (std::size_t s = 0; s < ns; ++s) {
    auto& ev = ws.events[s];
    std::stable_sort(ev.begin(), ev.end(),
                     [](const MemEvent& a, const MemEvent& b) { return a.t < b.t; });
    std::int64_t base =
        s < base_memory.size() ? base_memory[s] : 0;
    std::int64_t cur = base;
    std::int64_t peak = base;
    for (const MemEvent& e : ev) {
      cur += e.delta;
      peak = std::max(peak, cur);
    }
    res.stages[s].peak_memory = peak;
    res.stages[s].final_memory = cur;
  }
  HELIX_PROF_COUNT("sim.workspace.reallocs", ws_reallocs);
  ws.last = &cs;
  return res;
}

SimResult Simulator::run(const Schedule& sched,
                         const std::vector<std::int64_t>& base_memory) const {
  const CompiledSchedule cs = CompiledSchedule::build(sched);  // a copy
  SimWorkspace ws;
  run(cs, ws, base_memory);
  return std::move(ws.result);
}

}  // namespace helix::sim
