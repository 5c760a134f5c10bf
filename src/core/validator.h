#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/ir.h"

// Schedule validation over one lowering. CompiledSchedule::build is the
// structural gate (compiled.h lists what it rejects); the validators compile
// once and check the compiled form, adding only what compile does not:
// payload sizes, peers and memory balance. The semantic check proves the
// invariant the paper relies on for convergence (Section 4.1): however ops
// are interleaved across stages, the graph keeps each micro batch's
// sequential program order (MicroBatchOrder), so a scheduled iteration
// computes exactly what a sequential one does.
namespace helix::core {

struct CompiledSchedule;

struct ValidationResult {
  bool ok = true;
  std::vector<std::string> errors;

  void fail(std::string msg) {
    ok = false;
    errors.push_back(std::move(msg));
  }
};

/// The per-micro-batch program order, written once here and read by
/// validate_semantics, validate_coverage and semantic_order_edges. The chain
///   EmbedFwd(0) -> [FwdPre(l) -> FwdAttn(l) -> FwdPost(l)]_{l asc} ->
///   LmHeadLoss(L-1) -> [BwdPost(l) -> BwdAttn(l) -> BwdPre(l)]_{l desc} ->
///   EmbedBwd(0)
/// gives each op one position, 0 .. chain_length()-1, in chain order.
/// Followers sit outside the chain but must run after one chain position,
/// their anchor: a decoupled BwdWPost(l) / BwdWPre(l) after BwdPost(l) /
/// BwdPre(l), by ascending l, and then the deferred LM-head backward-W flush
/// (a decoupled EmbedBwd, ZB1P Section 5.4) after LmHeadLoss. They hold
/// positions chain_length() .. size()-1 in that order.
class MicroBatchOrder {
 public:
  struct Entry {
    OpKind kind = OpKind::kEmbedFwd;
    int layer = 0;
    int anchor = -1;  ///< chain position a follower must follow; -1 in the chain
  };

  /// Throws std::invalid_argument when num_layers is outside [0, kMaxShape].
  explicit MicroBatchOrder(int num_layers);

  int chain_length() const noexcept { return chain_length_; }
  int size() const noexcept { return static_cast<int>(entries_.size()); }
  const Entry& at(int pos) const noexcept {
    return entries_[static_cast<std::size_t>(pos)];
  }

  /// Position of an op with these fields, or -1 when the order does not hold
  /// it (comm, recompute and OptimStep ops, or a kind at a layer the chain
  /// does not visit). The deferred flush is found by its flag, at any layer:
  /// at L == 1 its layer (L-1) is also the regular EmbedBwd's 0.
  int position(OpKind kind, int layer, bool combines_w) const noexcept {
    if (kind == OpKind::kEmbedBwd && !combines_w) return flush_;
    if (kind > OpKind::kOptimStep || layer < -1 || layer > num_layers_) {
      return -1;
    }
    return index_[static_cast<std::size_t>(kind) *
                      static_cast<std::size_t>(num_layers_ + 2) +
                  static_cast<std::size_t>(layer + 1)];
  }

 private:
  int add(OpKind kind, int layer, int anchor);

  int num_layers_;
  int chain_length_ = 0;
  int flush_ = -1;
  std::vector<Entry> entries_;
  std::vector<int> index_;  ///< (kind, layer + 1) -> position, else -1
};

/// CompiledSchedule::build's checks, plus matched Send/Recv peers and
/// payload sizes, non-empty payloads, non-negative memory deltas, and
/// balanced alloc/free per stage.
ValidationResult validate_structure(const Schedule& sched);

/// validate_structure, then the per-micro-batch order: no two ops share a
/// (micro batch, kind, layer), the graph holds every per-micro-batch edge of
/// semantic_order_edges, and each stage's OptimStep comes after every
/// gradient producer in its compute stream. Near-linear in the schedule: an
/// order edge is certified by a path of at most four edges found walking
/// back from its later op, and only a micro batch with an edge no such walk
/// certifies costs a pass over the topological order, which judges all its
/// edges (prof counter `core.validate.order_passes`).
ValidationResult validate_semantics(const Schedule& sched);

/// The same checks on a schedule already compiled, for callers that keep
/// the compiled form (the tuner gates and then simulates one compile per
/// candidate). The Schedule overload compiles and forwards here, so both
/// report the same errors in the same order for a schedule that compiles.
ValidationResult validate_semantics(const CompiledSchedule& cs);

/// Exactly-once coverage check: every (mb, layer, op-kind) of a full
/// training iteration appears exactly once — no dropped and no duplicated
/// work whatever the interleaving. Enforced rules:
///  * per micro batch: every op of the MicroBatchOrder chain exactly once,
///    LmHeadLoss iff the schedule models the LM head (all-or-no micro
///    batches);
///  * a follower exists iff its anchor carries combines_w == false: a
///    decoupled backward-W after its backward-B, and the deferred
///    LM-head/embedding backward-W (at layer L-1) after a decoupled
///    LmHeadLoss;
///  * recompute ops appear at most once per (mb, layer, kind);
///  * exactly one OptimStep per stage.
/// Reads the stage programs, so an op in no program is not counted. Rejects
/// a negative num_stages, a num_micro_batches or num_layers outside
/// [0, kMaxShape], a schedule with too few ops for its shape, and a program
/// entry outside [0, ops.size()).
ValidationResult validate_coverage(const Schedule& sched);

/// The orderings validate_semantics enforces, as (before, after) op-id
/// pairs: per micro batch the chain edges, then the follower edges, then per
/// stage every gradient producer before the stage's last OptimStep. The chain
/// links the ops present, skipping missing ones; a follower without its
/// anchor has no edge; the first op in program order wins a duplicated
/// (micro batch, position). Linear time: the ops are grouped by (micro
/// batch, position) with a counting sort. Generators encode most of these
/// through stream order alone, so a transformation that reorders a stage
/// program (tune::Table swaps, list re-scheduling) must honour them
/// explicitly. Reads the stage programs. Throws std::invalid_argument when
/// num_layers is outside [0, kMaxShape] or a program entry outside
/// [0, ops.size()).
std::vector<std::pair<OpId, OpId>> semantic_order_edges(const Schedule& sched);

}  // namespace helix::core
