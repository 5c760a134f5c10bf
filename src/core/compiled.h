#pragma once

#include <cstdint>
#include <vector>

#include "core/ir.h"

// Compiled schedule: a Schedule store plus the graph structure derived from
// it once and shared by every consumer that previously re-derived it per
// call (the simulator's relaxation, the critical-path analyzer, the
// validators and the runtime interpreter's program walk). It is the only
// code that turns a Schedule into its dependency + stream + rendezvous
// graph, and so the only structural gate: build() rejects every schedule the
// consumers could not index safely (see build() for the list).
//
// The compiled form owns the store it was built from: op(id) returns that
// store's record, and each stage's program is the store's own row. What
// compile adds is derived structure only:
//
//  * the dependency arena CSR-packed by op id, each op's deps in the order
//    they were added;
//  * a dense tag -> Send/Recv table (ScheduleBuilder assigns tags densely
//    from 0, so the match is an array index, not a map lookup);
//  * the compute-stream subsequence of every stage as CSR spans, plus the
//    same-stream predecessor of every op;
//  * CSR-packed successor lists over dependency + stream + rendezvous edges;
//  * a topological order over those edges, so the simulator's relaxation is
//    a single array walk with no ready queue (cycle detection happens here,
//    once), and the exact per-stage memory-event count.
namespace helix::core {

struct CompiledSchedule {
  int num_stages = 0;
  int num_micro_batches = 0;
  int num_layers = 0;
  std::size_t num_edges = 0;  ///< dependency + stream + rendezvous edges

  // --------------------------------------- CSR edges (indexed by op id)
  /// Incoming explicit dependencies: deps of op i are
  /// dep_edges[dep_offset[i] .. dep_offset[i+1]).
  std::vector<std::uint32_t> dep_offset;
  std::vector<OpId> dep_edges;
  /// All outgoing edges (dependency + stream + rendezvous), the adjacency
  /// the validators and analyzers walk forward.
  std::vector<std::uint32_t> succ_offset;
  std::vector<OpId> succ_edges;

  // ------------------------------------------------- streams & rendezvous
  std::vector<OpId> stream_pred;    ///< same-stream predecessor (else kNoOp)
  std::vector<OpId> matching_send;  ///< Recv -> its Send (else kNoOp)
  std::vector<OpId> send_of_tag;    ///< dense tag table: tag -> Send id
  std::vector<OpId> recv_of_tag;    ///< dense tag table: tag -> Recv id

  /// Compute-stream chain of each stage (comm ops skipped), program order:
  /// compute_chain[compute_offset[s] .. compute_offset[s+1]).
  std::vector<std::uint32_t> compute_offset;
  std::vector<OpId> compute_chain;
  /// Exact per-stage memory-event count (ops with a nonzero acquire plus
  /// ops with a nonzero release) — the simulator's exact-reserve contract.
  std::vector<std::uint32_t> mem_count;

  /// Topological order over dependency + stream + rendezvous edges; every
  /// op appears after all of its predecessors.
  std::vector<OpId> topo;

  // ------------------------------------------------------------- accessors
  /// The store this form was built from.
  const Schedule& schedule() const noexcept { return sched_; }
  std::size_t num_ops() const noexcept { return sched_.ops.size(); }
  const Op& op(OpId id) const noexcept {
    return sched_.ops[static_cast<std::size_t>(id)];
  }
  /// Incoming explicit dependencies of `id` (begin/end into dep_edges).
  const OpId* deps_begin(OpId id) const noexcept {
    return dep_edges.data() + dep_offset[static_cast<std::size_t>(id)];
  }
  const OpId* deps_end(OpId id) const noexcept {
    return dep_edges.data() + dep_offset[static_cast<std::size_t>(id) + 1];
  }
  /// Outgoing edges of `id` (begin/end into succ_edges).
  const OpId* succ_begin(OpId id) const noexcept {
    return succ_edges.data() + succ_offset[static_cast<std::size_t>(id)];
  }
  const OpId* succ_end(OpId id) const noexcept {
    return succ_edges.data() + succ_offset[static_cast<std::size_t>(id) + 1];
  }
  /// Full program of `s` in program order: the store's row.
  const OpId* program_begin(int s) const noexcept {
    return sched_.programs[static_cast<std::size_t>(s)].data();
  }
  const OpId* program_end(int s) const noexcept {
    return program_begin(s) + program_size(s);
  }
  std::size_t program_size(int s) const noexcept {
    return sched_.programs[static_cast<std::size_t>(s)].size();
  }
  /// Compute-stream chain of `s` (begin/end into compute_chain).
  const OpId* compute_begin(int s) const noexcept {
    return compute_chain.data() + compute_offset[static_cast<std::size_t>(s)];
  }
  const OpId* compute_end(int s) const noexcept {
    return compute_chain.data() + compute_offset[static_cast<std::size_t>(s) + 1];
  }

  /// Compile `sched`, taking it over (pass a copy to keep the original).
  /// Throws std::logic_error, naming the op, tag or stage, on malformed IR:
  ///  * num_micro_batches or num_layers outside [0, kMaxShape];
  ///  * every fault core::store_fault reports: an op stored at another
  ///    index than its id, a program count other than num_stages, a program
  ///    entry outside [0, num_ops), an op whose `stage` field is not the
  ///    index of the program holding it, an op in no program or in two, a
  ///    dependency naming an unknown op;
  ///  * a Send or Recv tag outside [0, num_ops);
  ///  * two Sends, or two Recvs, sharing a tag;
  ///  * a Send with no Recv, or a Recv with no Send, on its tag;
  ///  * a dependency cycle over dependency + stream + rendezvous edges.
  static CompiledSchedule build(Schedule sched);

 private:
  Schedule sched_;
};

}  // namespace helix::core
