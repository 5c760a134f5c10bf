#pragma once

#include <cstdint>
#include <vector>

#include "core/ir.h"

// Compiled schedule: a one-shot lowering of the pointer-rich Schedule IR
// into flat structure-of-arrays storage, built once and shared by every
// consumer that previously re-derived it per call (the simulator's
// relaxation, the critical-path analyzer, the validators and the runtime
// interpreter's program walk). It is the only code that turns a Schedule
// into its dependency + stream + rendezvous graph, and so the only
// structural gate: build() rejects every schedule the consumers could not
// index safely (see build() for the list).
//
// A Schedule is a per-stage vector<Op> with heap-allocated `deps` vectors
// and tag-matched Send/Recv pairs; evaluating it repeatedly — the capacity
// planner sweeps ~10^5 (cluster, model, schedule) configs — paid for an
// op_index() allocation, a vector-of-vectors successor graph and a
// std::map tag match on every call. CompiledSchedule pays those costs once:
//
//  * SoA op fields (kind/stage/mb/layer/tag/comm_elems/combines_w/memory
//    deltas) indexed by dense op id, each one contiguous allocation;
//  * CSR-packed dependency and successor edge lists (two flat arrays per
//    direction instead of n little vectors);
//  * a dense tag -> Send/Recv table (ScheduleBuilder assigns tags densely
//    from 0, so the match is an array index, not a map lookup);
//  * per-stage stream chains: the full program and the compute-stream
//    subsequence of every stage as CSR spans, plus the same-stream
//    predecessor of every op;
//  * a topological order over dependency + stream + rendezvous edges, so
//    the simulator's relaxation is a single array walk with no ready queue
//    (cycle detection happens here, once).
//
// The compiled form BORROWS the Schedule (`source` and the `ops` locator
// point into it): the Schedule must outlive the CompiledSchedule and must
// not be mutated while compiled views exist.
namespace helix::core {

struct CompiledSchedule {
  const Schedule* source = nullptr;
  int num_stages = 0;
  int num_micro_batches = 0;
  int num_layers = 0;
  std::size_t num_edges = 0;  ///< dependency + stream + rendezvous edges

  // ------------------------------------------------- SoA op fields (by id)
  std::vector<OpKind> kind;
  std::vector<std::int16_t> stage;
  std::vector<std::int16_t> mb;
  std::vector<std::int16_t> layer;
  std::vector<std::int32_t> tag;
  std::vector<std::int64_t> comm_elems;
  std::vector<std::uint8_t> combines_w;   ///< Op::combines_w (prices the op)
  std::vector<std::int64_t> mem_acquire;  ///< alloc + transient, at op start
  std::vector<std::int64_t> mem_release;  ///< free + transient, at op end
  /// Flat locator: id -> the op inside source->stage_ops (for consumers
  /// that need the full record — interpreter routing, renderers, errors).
  std::vector<const Op*> ops;

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

  // ------------------------------------------- per-stage chains (CSR)
  /// Full program of each stage in program order:
  /// stage_program[stage_offset[s] .. stage_offset[s+1]).
  std::vector<std::uint32_t> stage_offset;
  std::vector<OpId> stage_program;
  /// Compute-stream chain of each stage (comm ops skipped), program order.
  std::vector<std::uint32_t> compute_offset;
  std::vector<OpId> compute_chain;
  /// Exact per-stage memory-event count (ops with a nonzero acquire plus
  /// ops with a nonzero release) — the simulator's exact-reserve contract.
  std::vector<std::uint32_t> mem_count;

  /// Topological order over dependency + stream + rendezvous edges; every
  /// op appears after all of its predecessors.
  std::vector<OpId> topo;

  // ------------------------------------------------------------- accessors
  std::size_t num_ops() const noexcept { return kind.size(); }
  const Op& op(OpId id) const noexcept {
    return *ops[static_cast<std::size_t>(id)];
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
  /// Full program of `s` in program order (begin/end into stage_program).
  const OpId* program_begin(int s) const noexcept {
    return stage_program.data() + stage_offset[static_cast<std::size_t>(s)];
  }
  const OpId* program_end(int s) const noexcept {
    return stage_program.data() + stage_offset[static_cast<std::size_t>(s) + 1];
  }
  std::size_t program_size(int s) const noexcept {
    return stage_offset[static_cast<std::size_t>(s) + 1] -
           stage_offset[static_cast<std::size_t>(s)];
  }
  /// Compute-stream chain of `s` (begin/end into compute_chain).
  const OpId* compute_begin(int s) const noexcept {
    return compute_chain.data() + compute_offset[static_cast<std::size_t>(s)];
  }
  const OpId* compute_end(int s) const noexcept {
    return compute_chain.data() + compute_offset[static_cast<std::size_t>(s) + 1];
  }

  /// Lower `sched` (which must outlive the result). Throws std::logic_error,
  /// naming the op, tag or stage, on malformed IR:
  ///  * num_micro_batches or num_layers outside [0, kMaxShape];
  ///  * stage_ops.size() != num_stages;
  ///  * op ids that are not a permutation of [0, num_ops);
  ///  * an op whose `stage` field is not the index of the program holding it;
  ///  * a Send or Recv tag outside [0, num_ops);
  ///  * two Sends, or two Recvs, sharing a tag;
  ///  * a Send with no Recv, or a Recv with no Send, on its tag;
  ///  * a dependency on an unknown op id;
  ///  * a dependency cycle over dependency + stream + rendezvous edges.
  static CompiledSchedule build(const Schedule& sched);
};

}  // namespace helix::core
