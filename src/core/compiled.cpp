#include "core/compiled.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/prof.h"

namespace helix::core {

CompiledSchedule CompiledSchedule::build(Schedule sched) {
  HELIX_PROF_SCOPE("core.compile");
  if (sched.num_micro_batches < 0 || sched.num_micro_batches > kMaxShape ||
      sched.num_layers < 0 || sched.num_layers > kMaxShape) {
    throw std::logic_error(
        "num_micro_batches " + std::to_string(sched.num_micro_batches) +
        " or num_layers " + std::to_string(sched.num_layers) + " outside [0, " +
        std::to_string(kMaxShape) + "]");
  }
  if (std::string fault = store_fault(sched); !fault.empty()) {
    throw std::logic_error(std::move(fault));
  }
  CompiledSchedule cs;
  cs.num_stages = sched.num_stages;
  cs.num_micro_batches = sched.num_micro_batches;
  cs.num_layers = sched.num_layers;
  const std::vector<Op>& ops = sched.ops;
  const std::size_t n = ops.size();

  std::int32_t max_tag = -1;
  for (const Op& op : ops) {
    if (!is_comm(op.kind)) continue;
    if (op.tag < 0 || static_cast<std::size_t>(op.tag) >= n) {
      throw std::logic_error(describe(op) + ": tag " + std::to_string(op.tag) +
                             " outside [0, " + std::to_string(n) + ")");
    }
    max_tag = std::max(max_tag, op.tag);
  }

  // Incoming explicit dependencies, CSR-packed in id order.
  DepLists deps = pack_deps(sched);
  cs.dep_offset = std::move(deps.offset);
  cs.dep_edges = std::move(deps.edges);

  // Dense tag tables. ScheduleBuilder assigns tags densely from 0, so the
  // tables are ~one slot per transfer; sizing by max_tag (< n, checked
  // above) also tolerates hand-built sparse tags.
  cs.send_of_tag.assign(static_cast<std::size_t>(max_tag + 1), kNoOp);
  cs.recv_of_tag.assign(static_cast<std::size_t>(max_tag + 1), kNoOp);
  for (const Op& op : ops) {
    if (!is_comm(op.kind)) continue;
    auto& table = op.kind == OpKind::kSend ? cs.send_of_tag : cs.recv_of_tag;
    OpId& slot = table[static_cast<std::size_t>(op.tag)];
    if (slot != kNoOp) {
      throw std::logic_error(describe(ops[static_cast<std::size_t>(slot)]) + " and " +
                             describe(op) + " share tag " + std::to_string(op.tag));
    }
    slot = op.id;
  }
  cs.matching_send.assign(n, kNoOp);
  for (const Op& op : ops) {
    if (!is_comm(op.kind)) continue;
    const auto t = static_cast<std::size_t>(op.tag);
    const bool send = op.kind == OpKind::kSend;
    if ((send ? cs.recv_of_tag : cs.send_of_tag)[t] == kNoOp) {
      throw std::logic_error(describe(op) + ": no " + (send ? "Recv" : "Send") +
                             " carries tag " + std::to_string(t));
    }
    if (!send) cs.matching_send[static_cast<std::size_t>(op.id)] = cs.send_of_tag[t];
  }

  // Per-stage chains: the compute-stream subsequence, the same-stream
  // predecessor of every op, and the exact memory-event count (the
  // simulator's exact-reserve contract).
  const auto ns = static_cast<std::size_t>(sched.num_stages);
  cs.compute_offset.assign(ns + 1, 0);
  cs.mem_count.assign(ns, 0);
  for (std::size_t s = 0; s < ns; ++s) {
    std::uint32_t compute = 0;
    for (const OpId id : sched.programs[s]) {
      const Op& op = ops[static_cast<std::size_t>(id)];
      if (is_compute(op.kind)) ++compute;
      if (op.alloc_bytes + op.transient_bytes != 0) ++cs.mem_count[s];
      if (op.free_bytes + op.transient_bytes != 0) ++cs.mem_count[s];
    }
    cs.compute_offset[s + 1] = cs.compute_offset[s] + compute;
  }
  cs.compute_chain.resize(cs.compute_offset[ns]);
  cs.stream_pred.assign(n, kNoOp);
  for (std::size_t s = 0; s < ns; ++s) {
    std::uint32_t cat = cs.compute_offset[s];
    OpId prev_compute = kNoOp;
    OpId prev_comm = kNoOp;
    for (const OpId id : sched.programs[s]) {
      const bool comm = is_comm(ops[static_cast<std::size_t>(id)].kind);
      OpId& prev = comm ? prev_comm : prev_compute;
      cs.stream_pred[static_cast<std::size_t>(id)] = prev;
      prev = id;
      if (!comm) cs.compute_chain[cat++] = id;
    }
  }

  // Outgoing adjacency over dependency + stream + rendezvous edges,
  // CSR-packed. The three passes run in the same global order the previous
  // per-run ScheduleGraph used (dependencies in id order, then stream edges
  // in program order, then tag edges in id order), so per-source successor
  // order — and with it the Kahn order below and every accumulation that
  // follows it — is reproduced exactly.
  std::vector<std::uint32_t> count(n, 0);
  std::vector<std::uint32_t> preds(n, 0);
  const auto count_edge = [&](OpId from, OpId to) {
    ++count[static_cast<std::size_t>(from)];
    ++preds[static_cast<std::size_t>(to)];
    ++cs.num_edges;
  };
  for (std::size_t i = 0; i < n; ++i) {
    for (const OpId* d = cs.deps_begin(static_cast<OpId>(i));
         d != cs.deps_end(static_cast<OpId>(i)); ++d) {
      count_edge(*d, static_cast<OpId>(i));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const OpId sp = cs.stream_pred[i];
    if (sp != kNoOp) count_edge(sp, static_cast<OpId>(i));
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (cs.matching_send[i] != kNoOp) {
      count_edge(cs.matching_send[i], static_cast<OpId>(i));
    }
  }
  cs.succ_offset.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    cs.succ_offset[i + 1] = cs.succ_offset[i] + count[i];
  }
  cs.succ_edges.resize(cs.succ_offset[n]);
  std::vector<std::uint32_t> cursor(cs.succ_offset.begin(),
                                    cs.succ_offset.end() - 1);
  const auto fill_edge = [&](OpId from, OpId to) {
    cs.succ_edges[cursor[static_cast<std::size_t>(from)]++] = to;
  };
  for (std::size_t i = 0; i < n; ++i) {
    for (const OpId* d = cs.deps_begin(static_cast<OpId>(i));
         d != cs.deps_end(static_cast<OpId>(i)); ++d) {
      fill_edge(*d, static_cast<OpId>(i));
    }
  }
  for (std::size_t s = 0; s < ns; ++s) {
    for (const OpId id : sched.programs[s]) {
      const OpId sp = cs.stream_pred[static_cast<std::size_t>(id)];
      if (sp != kNoOp) fill_edge(sp, id);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (cs.matching_send[i] != kNoOp) {
      fill_edge(cs.matching_send[i], static_cast<OpId>(i));
    }
  }

  // Topological order: the same FIFO Kahn walk the simulator used to run
  // per call, hoisted to compile time. Cycle detection happens here, once.
  cs.topo.reserve(n);
  std::size_t head = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (preds[i] == 0) cs.topo.push_back(static_cast<OpId>(i));
  }
  while (head < cs.topo.size()) {
    const OpId id = cs.topo[head++];
    const OpId* it = cs.succ_begin(id);
    const OpId* end = cs.succ_end(id);
    for (; it != end; ++it) {
      if (--preds[static_cast<std::size_t>(*it)] == 0) cs.topo.push_back(*it);
    }
  }
  if (cs.topo.size() != n) {
    const auto stuck = static_cast<std::size_t>(
        std::find_if(preds.begin(), preds.end(),
                     [](std::uint32_t p) { return p != 0; }) -
        preds.begin());
    throw std::logic_error("schedule has a dependency cycle (" +
                           std::to_string(n - cs.topo.size()) +
                           " ops stuck, e.g. " + describe(ops[stuck]) + ")");
  }
  HELIX_PROF_COUNT("core.compiled.edges", cs.num_edges);
  cs.sched_ = std::move(sched);
  return cs;
}

}  // namespace helix::core
