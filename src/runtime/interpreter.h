#pragma once

#include "comm/world.h"
#include "core/compiled.h"
#include "core/ir.h"
#include "nn/parts.h"
#include "obs/recorder.h"

namespace helix::obs {
class HealthCollector;  // obs/health.h
}  // namespace helix::obs

// Numerical execution of a schedule IR: every rank walks its per-stage op
// program, moving real tensors through the same Send/Recv pairs the
// simulator times. One Interpreter instance runs one rank of one iteration;
// runtime::Trainer wires p of them onto a comm::World.
//
// This is the semantics-preservation proof of paper Section 4.1: whatever
// the schedule (1F1B, GPipe, HelixPipe naive / two-fold, with or without
// recomputation-without-attention or chunked MLP), gradients and losses
// match the sequential reference exactly up to float addition order — and
// bit-exactly here, because gradients are accumulated per micro batch and
// summed canonically.
namespace helix::runtime {

using nn::Tensor;

/// recv_lookahead value meaning "post every Recv in the program up front".
inline constexpr int kUnboundedLookahead = -1;

struct InterpreterOptions {
  int mlp_chunks = 1;
  /// When set, OptimStep runs Adam with this rank's persistent state
  /// (covering the parameters this rank owns) instead of SGD.
  nn::AdamState* adam = nullptr;

  /// Drive Send/Recv ops through the asynchronous comm engine instead of
  /// executing them inline and blocking at their program position:
  ///   * each Send is posted (Endpoint::isend, fire-and-forget through the
  ///     rank's comm worker) as soon as the compute op producing its value
  ///     slot finishes — possibly before the Send's own program position,
  ///     so boundary transfers depart while this rank keeps computing;
  ///   * each Recv is prefetched (Endpoint::irecv) up to `recv_lookahead`
  ///     program positions ahead and its handle drained only when a compute
  ///     op actually consumes the slot.
  /// Compute ops still execute in exact program order and channels stay
  /// FIFO, so numerics are bit-identical to the blocking engine.
  bool async_comm = false;
  /// Recv prefetch window in program positions (>= 0), or
  /// kUnboundedLookahead to post every Recv up front. Ignored unless
  /// async_comm.
  int recv_lookahead = kUnboundedLookahead;

  // Observers (normally the Trainer's). Both optional and independent; when
  // null — the default — do_op skips each behind one pointer test. They read
  // clocks, counters and sizes, never tensor data, so results are
  // bit-identical with them on or off.
  /// This rank's op spans with their exposed recv wait, its live-byte peak
  /// and, after TraceCollector::enable_memory(), its memory tracker.
  obs::TraceCollector* trace = nullptr;
  /// Flight op-start/op-retire events and the progress cell the watchdog
  /// samples (plus a kLivePeak event per new live peak while `trace` is
  /// also attached).
  obs::HealthCollector* health = nullptr;
};

struct IterationMetrics {
  std::vector<double> micro_batch_losses;  ///< filled by the LM-head rank
  /// One entry per rank (busy/wait/bytes/live-peak), filled by Trainer when
  /// a TraceCollector is attached; empty otherwise.
  std::vector<obs::RankSummary> rank_summaries;
  double mean_loss() const {
    double s = 0;
    for (const double l : micro_batch_losses) s += l;
    return micro_batch_losses.empty() ? 0 : s / static_cast<double>(micro_batch_losses.size());
  }
};

class Interpreter {
 public:
  /// `params` is this rank's parameter replica; only the parameters whose
  /// gradients this rank produces are updated at OptimStep (ownership is
  /// implied by the schedule's op placement). Weight shipping (Section 4.2)
  /// sends Wqkv inside kPreToAttn messages and returns dWqkv inside
  /// kGradToPre messages, so attention stages never read the owner's
  /// parameter storage.
  /// `schedule` is the compiled form (core::CompiledSchedule::build); the
  /// interpreter walks its per-stage program span — shared across ranks,
  /// steps and the simulator — instead of re-deriving per-op lookups. The
  /// compiled schedule must outlive the interpreter.
  Interpreter(const core::CompiledSchedule& schedule, int rank,
              comm::Endpoint& comm, nn::ModelParams& params,
              const nn::Batch& batch, InterpreterOptions options);

  /// Execute this rank's program for one training iteration.
  IterationMetrics run();

 private:
  struct Key {
    int mb;
    int layer;
    bool operator<(const Key& o) const {
      return mb != o.mb ? mb < o.mb : layer < o.layer;
    }
  };

  void exec(const core::Op& op);
  /// Snapshot the live slots and stashes (one walk of the containers) and
  /// sync them onto `tracker`'s allocator, tagging the transition with `op`.
  void sync_memory(obs::MemoryTracker& tracker, const core::Op& op) const;
  comm::Message take_slot(core::DataSlot slot, int mb, int layer);
  void put_slot(core::DataSlot slot, int mb, int layer, comm::Message msg);
  /// Every value entering or leaving a slot or stash container goes through
  /// put/take, which keep live_bytes_.
  template <class Map>
  void put(Map& map, const typename Map::key_type& key,
           typename Map::mapped_type value, const char* what);
  template <class Map>
  typename Map::mapped_type take(Map& map, const typename Map::key_type& key,
                                 const char* what);

  // Asynchronous engine (opt_.async_comm): comm ops execute at their post
  // moment, not their program position; run() drives these around every op.
  /// Index the program's Send/Recv positions (fills recv_queue_ /
  /// pending_sends_).
  void prepare_async();
  /// Post irecv for every not-yet-posted Recv op within `recv_lookahead`
  /// positions of program index `i` (all of them when unbounded).
  void prefetch_recvs(std::size_t i);
  /// Post isend for every not-yet-posted Send op whose value slot has been
  /// produced, in program order.
  void post_ready_sends();
  /// Execute one program op and report it to the attached observers.
  void do_op(const core::Op& op);

  const core::CompiledSchedule& compiled_;
  int rank_;
  comm::Endpoint& comm_;
  nn::ModelParams& params_;
  const nn::Batch& batch_;
  InterpreterOptions opt_;
  /// The program was generated with recomputation without attention: it has
  /// RecomputePre/RecomputePost ops, so forward keeps only the minimal
  /// stashes and those ops restore the intermediates.
  bool recompute_;
  /// Bytes held in value slots and stashes (live activations).
  std::int64_t live_bytes_ = 0;
  std::uint64_t tid_ = 0;  ///< hash of the rank thread's id, for spans

  // Logical value slots keyed (slot kind, mb, layer); written by producers
  // or Recv ops, consumed exactly once.
  std::map<std::tuple<core::DataSlot, int, int>, comm::Message> slots_;
  // Async engine state: prefetched recv handles keyed like slots_ (drained
  // by take_slot at consumption), the program indices of Recv ops not yet
  // posted (ascending; next_recv_ is the cursor) and of Send ops not yet
  // posted.
  std::map<std::tuple<core::DataSlot, int, int>, comm::RecvHandle> recv_handles_;
  std::vector<std::size_t> recv_queue_;
  std::size_t next_recv_ = 0;
  std::vector<std::size_t> pending_sends_;
  // Stashes.
  std::map<Key, nn::PreStash> pre_stash_;
  std::map<Key, nn::AttnStash> attn_stash_;
  std::map<Key, nn::PostStash> post_stash_;
  // Decoupled backward-W stashes (ZB1P): gradients kept between a
  // backward-B and its deferred backward-W.
  std::map<Key, nn::PostWStash> post_w_stash_;
  std::map<Key, Tensor> dqkv_stash_;
  std::map<Key, Tensor> pre_dln1_stash_;
  std::map<int, std::pair<Tensor, Tensor>> head_w_stash_;  ///< mb -> (hidden, dlogits)

  nn::GradStore grads_;
  IterationMetrics metrics_;
};

}  // namespace helix::runtime
