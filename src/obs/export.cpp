#include "obs/export.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "core/compiled.h"
#include "obs/memory.h"

namespace helix::obs {

namespace {

/// Identity of a compute op within one stage's single-iteration program.
using OpIdentity = std::tuple<core::OpKind, int, int>;  // (kind, mb, layer)

std::string span_event_name(const Span& s) {
  core::Op op;
  op.kind = s.kind;
  op.mb = s.mb;
  op.layer = s.layer;
  op.stage = s.stage;
  return sim::op_event_name(op);
}

}  // namespace

std::string to_chrome_trace(const TraceCollector& trace) {
  std::vector<sim::ChromeEvent> events;
  const std::int64_t epoch = trace.epoch_ns();
  for (int r = 0; r < trace.num_ranks(); ++r) {
    for (const Span& s : trace.recorder(r).spans()) {
      events.push_back(
          {span_event_name(s), s.stage,
           core::is_comm(s.kind) ? sim::kChromeCommTid : sim::kChromeComputeTid,
           static_cast<double>(s.start_ns - epoch) / 1e3,
           static_cast<double>(s.duration_ns()) / 1e3});
    }
  }
  std::vector<sim::ChromeCounterEvent> counters;
  if (trace.memory_enabled()) {
    for (int r = 0; r < trace.num_ranks(); ++r) {
      const MemoryTracker* tracker = trace.memory(r);
      if (tracker == nullptr) continue;
      for (const MemoryEvent& me : tracker->events()) {
        const double ts = static_cast<double>(me.t_ns - epoch) / 1e3;
        counters.push_back(
            {"mem bytes", r, ts,
             {{"allocated", static_cast<double>(me.ev.stats.allocated_bytes)},
              {"reserved", static_cast<double>(me.ev.stats.reserved_bytes)}}});
        counters.push_back(
            {"mem fragmentation", r, ts,
             {{"frac", me.ev.stats.fragmentation()}}});
      }
    }
  }
  return sim::chrome_trace_json(events, counters);
}

MeasuredRun measured_stats(const TraceCollector& trace) {
  MeasuredRun run;
  run.stages.resize(static_cast<std::size_t>(trace.num_ranks()));
  std::int64_t first_start = 0;
  std::int64_t last_end = 0;
  bool any = false;
  for (int r = 0; r < trace.num_ranks(); ++r) {
    auto& st = run.stages[static_cast<std::size_t>(r)];
    for (const Span& s : trace.recorder(r).spans()) {
      if (!any || s.start_ns < first_start) first_start = s.start_ns;
      if (!any || s.end_ns > last_end) last_end = s.end_ns;
      any = true;
      if (s.kind == core::OpKind::kSend) {
        st.send_busy_s += static_cast<double>(s.duration_ns()) / 1e9;
      } else if (s.kind != core::OpKind::kRecv) {
        st.compute_busy_s += static_cast<double>(s.duration_ns()) / 1e9;
      }
    }
    const CommMetrics& cm = trace.comm(r);
    st.recv_wait_exposed_s =
        static_cast<double>(cm.recv_wait_exposed_ns.value) / 1e9;
    st.recv_wait_hidden_s =
        static_cast<double>(cm.recv_wait_hidden_ns.value) / 1e9;
    st.bytes_sent = cm.bytes_sent.value;
    st.bytes_received = cm.bytes_received.value;
    st.mailbox_depth_peak = cm.mailbox_depth.high_water;
    st.live_peak_bytes = trace.live_peak(r);
  }
  run.makespan_s = any ? static_cast<double>(last_end - first_start) / 1e9 : 0.0;
  for (auto& st : run.stages) {
    st.bubble_s = std::max(0.0, run.makespan_s - st.compute_busy_s);
  }
  return run;
}

namespace {

/// hidden / (hidden + exposed); a stage with no recv latency at all is
/// trivially fully overlapped.
double overlap_frac(double hidden, double exposed) {
  const double denom = hidden + exposed;
  return denom > 0 ? hidden / denom : 1.0;
}

}  // namespace

ReconciliationReport reconcile(const core::Schedule& sched,
                               const sim::SimResult& predicted,
                               const TraceCollector& trace,
                               const std::vector<std::int64_t>& model_stage_bytes) {
  ReconciliationReport report;
  report.predicted_makespan_s = predicted.makespan;
  const core::CompiledSchedule cs = core::CompiledSchedule::build(sched);
  report.critical = sim::critical_path(cs, predicted);
  const MeasuredRun measured = measured_stats(trace);
  report.measured_makespan_s = measured.makespan_s;

  for (int s = 0; s < sched.num_stages; ++s) {
    StageReconciliation rec;
    rec.stage = s;

    // IR program order of the stage's compute ops, and the simulator's
    // predicted execution order (sorted by predicted start; simulators and
    // runtimes both honour per-stage program order, so these should agree).
    std::vector<OpIdentity> ir_order;
    std::vector<std::pair<double, OpIdentity>> sim_starts;
    for (const core::OpId* it = cs.compute_begin(s); it != cs.compute_end(s); ++it) {
      const core::Op& op = cs.op(*it);
      const OpIdentity id{op.kind, op.mb, op.layer};
      ir_order.push_back(id);
      sim_starts.push_back(
          {predicted.op_times[static_cast<std::size_t>(op.id)].start, id});
    }
    std::stable_sort(sim_starts.begin(), sim_starts.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    rec.compute_ops = static_cast<int>(ir_order.size());

    std::vector<OpIdentity> measured_order;
    if (s < trace.num_ranks()) {
      for (const Span& sp : trace.recorder(s).spans()) {
        if (core::is_comm(sp.kind)) continue;
        measured_order.push_back({sp.kind, sp.mb, sp.layer});
      }
    }
    rec.order_matches_ir = measured_order == ir_order;

    // Spearman rank correlation of measured position vs predicted position.
    std::map<OpIdentity, int> sim_pos;
    for (std::size_t i = 0; i < sim_starts.size(); ++i) {
      sim_pos.emplace(sim_starts[i].second, static_cast<int>(i));
    }
    double d2 = 0;
    int n = 0;
    bool all_found = true;
    for (std::size_t i = 0; i < measured_order.size(); ++i) {
      const auto it = sim_pos.find(measured_order[i]);
      if (it == sim_pos.end()) {
        all_found = false;
        continue;
      }
      const double d = static_cast<double>(i) - static_cast<double>(it->second);
      d2 += d * d;
      ++n;
    }
    if (n >= 2) {
      rec.order_rank_correlation =
          1.0 - 6.0 * d2 / (static_cast<double>(n) *
                            (static_cast<double>(n) * static_cast<double>(n) - 1.0));
    } else {
      rec.order_rank_correlation = (n >= 1 && all_found && d2 == 0) ? 1.0 : 0.0;
    }

    const double pm = report.predicted_makespan_s;
    const double mm = report.measured_makespan_s;
    if (pm > 0) {
      const auto& ps = predicted.stages[static_cast<std::size_t>(s)];
      rec.predicted_busy_frac = ps.compute_busy / pm;
      rec.predicted_bubble_frac = ps.bubble / pm;
    }
    if (mm > 0 && s < static_cast<int>(measured.stages.size())) {
      const auto& ms = measured.stages[static_cast<std::size_t>(s)];
      rec.measured_busy_frac = ms.compute_busy_s / mm;
      rec.measured_bubble_frac = ms.bubble_s / mm;
    }

    // Predicted exposed wait: for each compute op with Recv dependencies,
    // the part of its predicted start delay attributable to the recvs —
    // start = max(other_ready, recv_end), so the recv-bound stall is
    // max(0, recv_end - other_ready) where other_ready covers the compute
    // stream (previous compute op) and every non-Recv dependency. The
    // remainder of the stage's comm-stream recv_wait proceeded alongside
    // compute: that is the hidden share the schedule's overlap design (e.g.
    // two-fold FILO) claims.
    {
      double exposed = 0;
      double prev_compute_end = 0;
      for (const core::OpId* it = cs.compute_begin(s); it != cs.compute_end(s); ++it) {
        const core::OpId id = *it;
        double other_ready = prev_compute_end;
        double recv_end = 0;
        bool has_recv = false;
        for (const core::OpId* d = cs.deps_begin(id); d != cs.deps_end(id); ++d) {
          const double end = predicted.op_times[static_cast<std::size_t>(*d)].end;
          if (cs.op(*d).kind == core::OpKind::kRecv) {
            has_recv = true;
            recv_end = std::max(recv_end, end);
          } else {
            other_ready = std::max(other_ready, end);
          }
        }
        if (has_recv) exposed += std::max(0.0, recv_end - other_ready);
        prev_compute_end = predicted.op_times[static_cast<std::size_t>(id)].end;
      }
      const double total = predicted.stages[static_cast<std::size_t>(s)].recv_wait;
      rec.predicted_exposed_wait_s = exposed;
      rec.predicted_hidden_wait_s = std::max(0.0, total - exposed);
      rec.predicted_overlap_frac =
          overlap_frac(rec.predicted_hidden_wait_s, rec.predicted_exposed_wait_s);
    }
    if (s < static_cast<int>(measured.stages.size())) {
      const auto& ms = measured.stages[static_cast<std::size_t>(s)];
      rec.measured_exposed_wait_s = ms.recv_wait_exposed_s;
      rec.measured_hidden_wait_s = ms.recv_wait_hidden_s;
      rec.measured_overlap_frac =
          overlap_frac(ms.recv_wait_hidden_s, ms.recv_wait_exposed_s);
    }
    report.stages.push_back(rec);
  }
  {
    double pe = 0, ph = 0, me = 0, mh = 0;
    for (const auto& rec : report.stages) {
      pe += rec.predicted_exposed_wait_s;
      ph += rec.predicted_hidden_wait_s;
      me += rec.measured_exposed_wait_s;
      mh += rec.measured_hidden_wait_s;
    }
    report.predicted_overlap_frac = overlap_frac(ph, pe);
    report.measured_overlap_frac = overlap_frac(mh, me);
  }

  if (trace.memory_enabled()) {
    auto& mem = report.memory;
    mem.available = true;
    for (int s = 0; s < sched.num_stages; ++s) {
      StageMemoryReconciliation rec;
      rec.stage = s;
      if (s < trace.num_ranks()) {
        if (const MemoryTracker* tracker = trace.memory(s)) {
          const auto& stats = tracker->allocator().stats();
          rec.measured_peak_bytes = stats.peak_allocated;
          rec.measured_reserved_peak = stats.peak_reserved;
          if (stats.peak_reserved > 0) {
            rec.measured_fragmentation =
                1.0 - static_cast<double>(stats.peak_allocated) /
                          static_cast<double>(stats.peak_reserved);
          }
        }
      }
      if (s < static_cast<int>(model_stage_bytes.size())) {
        rec.model_bytes = model_stage_bytes[static_cast<std::size_t>(s)];
      }
      if (s < static_cast<int>(predicted.stages.size())) {
        rec.sim_bytes = predicted.stages[static_cast<std::size_t>(s)].peak_memory;
      }
      if (rec.model_bytes > 0) {
        rec.vs_model = static_cast<double>(rec.measured_peak_bytes) /
                       static_cast<double>(rec.model_bytes);
      }
      if (rec.sim_bytes > 0) {
        rec.vs_sim = static_cast<double>(rec.measured_peak_bytes) /
                     static_cast<double>(rec.sim_bytes);
      }
      mem.stages.push_back(rec);
    }

    const auto imbalance = [](auto&& peak_of, const auto& stages) {
      std::int64_t lo = 0, hi = 0;
      bool any = false;
      for (const auto& s : stages) {
        const std::int64_t p = peak_of(s);
        if (p <= 0) continue;
        if (!any || p < lo) lo = p;
        if (!any || p > hi) hi = p;
        any = true;
      }
      return (any && lo > 0) ? static_cast<double>(hi) / static_cast<double>(lo)
                             : 0.0;
    };
    mem.measured_imbalance = imbalance(
        [](const StageMemoryReconciliation& s) { return s.measured_peak_bytes; },
        mem.stages);
    mem.model_imbalance = imbalance(
        [](const StageMemoryReconciliation& s) { return s.model_bytes; },
        mem.stages);

    // Ordering check only makes sense with a model prediction for every stage.
    bool model_complete = !mem.stages.empty();
    for (const auto& s : mem.stages) model_complete &= s.model_bytes > 0;
    if (model_complete) {
      std::vector<int> by_measured(mem.stages.size());
      std::iota(by_measured.begin(), by_measured.end(), 0);
      std::vector<int> by_model = by_measured;
      std::stable_sort(by_measured.begin(), by_measured.end(), [&](int a, int b) {
        return mem.stages[static_cast<std::size_t>(a)].measured_peak_bytes >
               mem.stages[static_cast<std::size_t>(b)].measured_peak_bytes;
      });
      std::stable_sort(by_model.begin(), by_model.end(), [&](int a, int b) {
        return mem.stages[static_cast<std::size_t>(a)].model_bytes >
               mem.stages[static_cast<std::size_t>(b)].model_bytes;
      });
      mem.imbalance_order_matches_model = by_measured == by_model;
    }
  }
  return report;
}

std::string render_reconciliation(const ReconciliationReport& report) {
  std::ostringstream os;
  os << "sim-vs-measured reconciliation (fractions of each makespan)\n";
  char line[160];
  std::snprintf(line, sizeof(line), "  predicted makespan %.6g s (modeled)  |  measured %.6g s (wall)\n",
                report.predicted_makespan_s, report.measured_makespan_s);
  os << line;
  os << "  stage  ops   busy% pred / meas   bubble% pred / meas   order\n";
  for (const auto& s : report.stages) {
    std::snprintf(line, sizeof(line),
                  "  P%-4d %5d   %8.1f / %-8.1f %8.1f / %-8.1f  %s (rho=%.3f)\n",
                  s.stage, s.compute_ops, 100 * s.predicted_busy_frac,
                  100 * s.measured_busy_frac, 100 * s.predicted_bubble_frac,
                  100 * s.measured_bubble_frac,
                  s.order_matches_ir ? "== IR" : "DIVERGED", s.order_rank_correlation);
    os << line;
  }
  os << (report.all_orders_match_ir()
             ? "  every stage executed its IR program order (same-IR claim holds)\n"
             : "  WARNING: some stage diverged from its IR program order\n");
  os << "comm overlap: recv wait hidden behind compute vs exposed "
        "(stalling it)\n";
  os << "  stage   exposed pred-s / meas-ms    hidden pred-s / meas-ms   "
        "overlap% pred / meas\n";
  for (const auto& s : report.stages) {
    std::snprintf(line, sizeof(line),
                  "  P%-4d %12.4g / %-10.3f %12.4g / %-10.3f %8.1f / %-8.1f\n",
                  s.stage, s.predicted_exposed_wait_s,
                  1e3 * s.measured_exposed_wait_s, s.predicted_hidden_wait_s,
                  1e3 * s.measured_hidden_wait_s,
                  100 * s.predicted_overlap_frac, 100 * s.measured_overlap_frac);
    os << line;
  }
  std::snprintf(line, sizeof(line),
                "  aggregate overlap fraction: predicted %.1f%%, measured "
                "%.1f%% (same schedule IR)\n",
                100 * report.predicted_overlap_frac,
                100 * report.measured_overlap_frac);
  os << line;
  if (report.memory.available) {
    os << "memory: measured allocator peak vs closed-form model vs simulator\n";
    os << "  stage   measured B   reserved B  frag%      model B  m/mod"
          "        sim B  m/sim\n";
    for (const auto& s : report.memory.stages) {
      std::snprintf(line, sizeof(line),
                    "  P%-4d %12lld %12lld  %5.1f %12lld  %5.2f %12lld  %5.2f\n",
                    s.stage, static_cast<long long>(s.measured_peak_bytes),
                    static_cast<long long>(s.measured_reserved_peak),
                    100 * s.measured_fragmentation,
                    static_cast<long long>(s.model_bytes), s.vs_model,
                    static_cast<long long>(s.sim_bytes), s.vs_sim);
      os << line;
    }
    std::snprintf(line, sizeof(line),
                  "  cross-stage imbalance (max/min peak): measured %.2f, "
                  "model %.2f%s\n",
                  report.memory.measured_imbalance, report.memory.model_imbalance,
                  report.memory.imbalance_order_matches_model
                      ? " (stage ordering matches model)"
                      : "");
    os << line;
  }
  os << sim::render_critical_path(report.critical);
  return os.str();
}

std::string render_memory_attribution(const TraceCollector& trace) {
  if (!trace.memory_enabled()) return {};
  std::ostringstream os;
  char line[160];
  for (int r = 0; r < trace.num_ranks(); ++r) {
    const MemoryTracker* tracker = trace.memory(r);
    if (tracker == nullptr) continue;
    const std::int64_t peak = tracker->peak_allocated();
    std::snprintf(line, sizeof(line),
                  "rank %d peak attribution (%lld B at peak)\n", r,
                  static_cast<long long>(peak));
    os << line;
    for (const AttributionRow& row : tracker->peak_attribution()) {
      const double pct =
          peak > 0 ? 100.0 * static_cast<double>(row.bytes) /
                         static_cast<double>(peak)
                   : 0.0;
      std::snprintf(line, sizeof(line), "  %-14s l%-4d %12lld B  %5.1f%%\n",
                    core::to_string(row.kind), row.layer,
                    static_cast<long long>(row.bytes), pct);
      os << line;
    }
  }
  return os.str();
}

std::string render_pool_stats(const par::PoolStats& stats) {
  std::ostringstream os;
  char line[160];
  std::snprintf(line, sizeof(line),
                "kernel thread pool: %d threads, %lld pooled regions "
                "(%.6g s), %lld inline regions\n",
                stats.threads, static_cast<long long>(stats.regions),
                static_cast<double>(stats.region_ns) * 1e-9,
                static_cast<long long>(stats.inline_regions));
  os << line;
  std::snprintf(line, sizeof(line), "  caller threads executed %lld chunks\n",
                static_cast<long long>(stats.caller_chunks));
  os << line;
  for (std::size_t w = 0; w < stats.workers.size(); ++w) {
    const auto& wk = stats.workers[w];
    const double busy = static_cast<double>(wk.busy_ns) * 1e-9;
    const double idle = static_cast<double>(wk.idle_ns) * 1e-9;
    const double denom = busy + idle;
    std::snprintf(line, sizeof(line),
                  "  worker %-3zu %8lld chunks   busy %10.6g s   idle %10.6g s"
                  "   (%.1f%% busy)\n",
                  w, static_cast<long long>(wk.chunks), busy, idle,
                  denom > 0 ? 100.0 * busy / denom : 0.0);
    os << line;
  }
  return os.str();
}

}  // namespace helix::obs
