#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

// Schedule intermediate representation.
//
// A Schedule is a per-stage program: every pipeline stage runs an ordered
// list of ops, held as one flat store (see Schedule below). Execution
// semantics (shared by the discrete-event simulator in src/sim and the
// numerical runtime in src/runtime):
//
//  * Compute ops on one stage execute in list order on the stage's compute
//    stream (an in-order CUDA stream in the real system).
//  * Send/Recv ops execute in list order on the stage's communication
//    stream. A transfer is a rendezvous: it starts once the Send is at the
//    head of the sender's comm stream with its producer finished AND the
//    matching Recv is at the head of the receiver's comm stream; it occupies
//    both comm streams for the transfer duration. This models NCCL p2p on a
//    dedicated stream and reproduces the serialization bottleneck of the
//    naive FILO schedule (paper Fig. 6a).
//  * Dependencies add cross-stream edges: a compute op consuming received
//    data depends on the Recv op; a Send depends on the producing compute op.
//
// Memory semantics: `alloc_bytes` is charged when the op starts and
// `free_bytes` credited when it ends; `transient_bytes` is working memory
// held only for the duration of the op. Running peak per stage is tracked by
// the simulator.
namespace helix::core {

using OpId = std::int32_t;
inline constexpr OpId kNoOp = -1;
/// Op::mb and Op::layer are 16-bit, so a schedule addresses at most this
/// many micro batches and layers.
inline constexpr int kMaxShape = 1 << 15;

enum class OpKind : std::uint8_t {
  kEmbedFwd,        ///< input word+position embedding (first pipeline layer)
  kFwdPre,          ///< forward of pre-attention part
  kFwdAttn,         ///< forward of attention part (incl. QKV GEMM if shipped)
  kFwdPost,         ///< forward of post-attention part
  kLmHeadLoss,      ///< LM head + loss + dlogits, executed in backward (4.6)
  kBwdPost,         ///< backward-B of post-attention
  kBwdAttn,         ///< backward-B of attention (flash-style, recomputes internally)
  kBwdPre,          ///< backward-B of pre-attention
  kBwdWPre,         ///< backward-W of pre-attention (decoupled, ZB1P)
  kBwdWPost,        ///< backward-W of post-attention (decoupled, ZB1P)
  kEmbedBwd,        ///< embedding gradient
  kRecomputePre,    ///< re-run pre-attention forward before its backward
  kRecomputeAttn,   ///< re-run attention forward (full-layer recompute only)
  kRecomputePost,   ///< re-run post-attention forward before its backward
  kSend,
  kRecv,
  kOptimStep,       ///< per-stage optimizer step (end-of-iteration sync)
};

constexpr bool is_comm(OpKind k) noexcept {
  return k == OpKind::kSend || k == OpKind::kRecv;
}
constexpr bool is_compute(OpKind k) noexcept { return !is_comm(k); }
constexpr bool is_backward_b(OpKind k) noexcept {
  return k == OpKind::kBwdPost || k == OpKind::kBwdAttn || k == OpKind::kBwdPre;
}
constexpr bool is_backward_w(OpKind k) noexcept {
  return k == OpKind::kBwdWPre || k == OpKind::kBwdWPost;
}
constexpr bool is_forward(OpKind k) noexcept {
  return k == OpKind::kFwdPre || k == OpKind::kFwdAttn || k == OpKind::kFwdPost ||
         k == OpKind::kEmbedFwd;
}
constexpr bool is_recompute(OpKind k) noexcept {
  return k == OpKind::kRecomputePre || k == OpKind::kRecomputeAttn ||
         k == OpKind::kRecomputePost;
}
/// Ops that accumulate a gradient the stage's OptimStep must wait for.
constexpr bool produces_grad(OpKind k) noexcept {
  return is_backward_b(k) || is_backward_w(k) || k == OpKind::kEmbedBwd ||
         k == OpKind::kLmHeadLoss;
}
const char* to_string(OpKind k) noexcept;

/// Which logical value a Send/Recv moves; consumed by the numerical runtime
/// to route real tensors (the simulator only needs sizes).
enum class DataSlot : std::uint8_t {
  kNone,
  kPreToAttn,    ///< {residual x_l, ln1_l, Wqkv_l} (Section 4.2 shipping)
  kAttnToPost,   ///< {residual x_l, attention output ctx_l}
  kGradToAttn,   ///< {d x_l, d ctx_l}
  kGradToPre,    ///< {d x_l, d ln1_l, d Wqkv_l}
  kFwdBoundary,  ///< layer-wise pipelines: layer input y
  kBwdBoundary,  ///< layer-wise pipelines: gradient of layer input
};

struct Op {
  OpId id = kNoOp;
  OpKind kind = OpKind::kFwdPre;
  std::int16_t stage = 0;
  std::int16_t mb = -1;     ///< micro batch index, -1 if not applicable
  std::int16_t layer = -1;  ///< transformer layer index, -1 if not applicable
  std::int16_t peer = -1;   ///< peer stage for Send/Recv
  std::int32_t tag = -1;    ///< rendezvous key matching a Send with its Recv
  DataSlot slot = DataSlot::kNone;  ///< payload routing for Send/Recv
  std::int64_t comm_elems = 0;     ///< payload elements for Send/Recv
  std::int64_t alloc_bytes = 0;    ///< charged at op start, held until freed
  std::int64_t free_bytes = 0;     ///< credited at op end
  std::int64_t transient_bytes = 0;  ///< working memory during the op only
  bool combines_w = true;  ///< backward-B op also performs backward-W (1F1B style)
};

/// "Kind(id=.., stage=.., mb=.., layer=..)": names an op in error messages.
std::string describe(const Op& op);

/// One dependency: `op` may start only after `dep` has finished.
struct Dep {
  OpId op = kNoOp;
  OpId dep = kNoOp;
};

/// A schedule is one flat store of three parts: the op records by id, every
/// dependency in the order it was added, and each stage's program as a row
/// of op ids. An op's dependencies, in order, are its pairs in `deps`.
struct Schedule {
  std::string name;
  int num_stages = 0;
  int num_micro_batches = 0;
  int num_layers = 0;
  std::vector<Op> ops;                   ///< ops[i].id == i
  std::vector<Dep> deps;                 ///< in insertion order
  std::vector<std::vector<OpId>> programs;  ///< per stage, in program order

  /// The ops the stage programs hold.
  std::size_t total_ops() const noexcept {
    std::size_t n = 0;
    for (const auto& row : programs) n += row.size();
    return n;
  }
};

/// Each op's dependencies CSR-packed by op id, in the order they were added:
/// op i's are edges[offset[i] .. offset[i + 1]). Pairs naming an op outside
/// [0, ops.size()) are skipped.
struct DepLists {
  std::vector<std::uint32_t> offset;
  std::vector<OpId> edges;
};
DepLists pack_deps(const Schedule& sched);

/// Why `sched` is not a well-formed store, naming the op or stage; empty
/// when it is one. Checks that ops[i].id == i, that the schedule holds
/// num_stages programs, that every program entry is in [0, ops.size()) and
/// names an op whose `stage` is that program's, that every op sits in
/// exactly one program, and that every dependency names known ops.
std::string store_fault(const Schedule& sched);

/// Incrementally builds a Schedule, keeping ids dense and tags unique.
class ScheduleBuilder {
 public:
  ScheduleBuilder(std::string name, int num_stages, int num_micro_batches,
                  int num_layers);

  /// Append an op to `stage`'s program, depending on `deps` in order;
  /// returns its id.
  OpId add(OpKind kind, int stage, int mb, int layer,
           std::span<const OpId> deps = {});
  OpId add(OpKind kind, int stage, int mb, int layer,
           std::initializer_list<OpId> deps) {
    return add(kind, stage, mb, layer, std::span<const OpId>(deps.begin(), deps.size()));
  }
  /// Make the already added `op` depend on `dep` too, after its other deps.
  void add_dep(OpId op, OpId dep);

  /// Set memory effects on the most recently added op.
  ScheduleBuilder& with_memory(std::int64_t alloc, std::int64_t free_bytes,
                               std::int64_t transient = 0);
  /// Mark the most recently added backward-B op as decoupled from backward-W.
  ScheduleBuilder& decoupled();

  /// A transfer in two halves, so each lands at its own program position:
  /// add_send appends the Send on `src` (depending on `producer`); add_recv
  /// appends the matching Recv on `dst` later, at the receiver's position.
  struct PendingTransfer {
    OpId send = kNoOp;
    std::int32_t tag = -1;
    int src = -1;
    int dst = -1;
    std::int64_t elems = 0;
    int mb = -1;
    int layer = -1;
    DataSlot slot = DataSlot::kNone;
  };
  PendingTransfer add_send(int src, int dst, std::int64_t elems, OpId producer,
                           int mb = -1, int layer = -1,
                           DataSlot slot = DataSlot::kNone);
  OpId add_recv(const PendingTransfer& t);

  /// A value produced on one stage and consumed on (possibly) another:
  /// either a local op id or a pending transfer whose Recv the consumer
  /// posts just-in-time at its own program position (posting early would
  /// head-of-line-block later sends on the consumer's comm stream).
  struct Handoff {
    OpId local = kNoOp;
    PendingTransfer xfer;
    bool is_xfer = false;

    static Handoff of(OpId id) { return {.local = id, .xfer = {}, .is_xfer = false}; }
    static Handoff of(PendingTransfer t) {
      return {.local = kNoOp, .xfer = t, .is_xfer = true};
    }
    /// Post the Recv (if remote) and return the op id to depend on.
    OpId consume(ScheduleBuilder& b) const {
      return is_xfer ? b.add_recv(xfer) : local;
    }
  };

  /// Append the end-of-iteration OptimStep on `stage`, depending on every
  /// gradient-producing op already emitted there (backward-B/-W, LmHeadLoss,
  /// EmbedBwd). The explicit deps make the dependency graph self-describing:
  /// any topological linearization — e.g. reorder_stage_programs's — applies
  /// the optimizer only after the full gradient sum is accumulated, instead
  /// of relying on the emitter's program order.
  OpId add_optim_step(int stage);

  Schedule finish() &&;

 private:
  /// The most recently added op; throws std::out_of_range before any add.
  Op& last();

  Schedule sched_;
  std::int32_t next_tag_ = 0;
};

}  // namespace helix::core
