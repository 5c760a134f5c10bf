#pragma once

#include <memory>
#include <stdexcept>

#include "core/filo.h"
#include "nn/reference.h"
#include "obs/health.h"
#include "runtime/interpreter.h"
#include "schedules/layerwise.h"

// End-to-end numerical pipeline training: builds the schedule for the chosen
// parallelism, spawns one thread per pipeline stage, and executes training
// iterations with real tensors. Used by tests and examples to demonstrate
// that every schedule trains identically to the sequential reference.
namespace helix::runtime {

enum class ScheduleFamily {
  kSequential,  ///< p = 1, plain order (ground truth through the same IR)
  k1F1B,
  kZb1p,        ///< decoupled backward-B / backward-W (greedy zero-bubble)
  kZb2p,        ///< zero-bubble with exact W placement, 2x activation cap
  kCoExec,      ///< 1F1B with the sibling's backward-W filling each grad wait
  kInterleaved, ///< interleaved 1F1B with 2 virtual chunks per stage
  kGPipe,
  kHelixNaive,
  kHelixTwoFold,
  kHelixTuned,  ///< two-fold + list-scheduling refinement (reorder_stage_programs)
};

enum class OptimizerKind { kSgd, kAdam };

struct TrainerOptions {
  ScheduleFamily family = ScheduleFamily::kHelixTwoFold;
  int pipeline_stages = 2;
  bool recompute_without_attention = false;
  int mlp_chunks = 1;
  OptimizerKind optimizer = OptimizerKind::kSgd;
  /// Intra-rank kernel parallelism: resize the process-global thread pool
  /// (par::set_global_threads) to this many threads before training. 0 (the
  /// default) leaves the pool at its current size — HELIX_THREADS or an
  /// earlier explicit setting. The pool is shared by all rank threads, so
  /// total CPU concurrency stays bounded by this value regardless of
  /// pipeline_stages; kernel results are bit-identical for every setting.
  int threads = 0;
  /// Run pipeline Send/Recv through the asynchronous comm engine: sends are
  /// posted from a per-rank comm worker as soon as their value is produced
  /// and recvs are prefetched and drained at consumption (see
  /// InterpreterOptions::async_comm). Numerics are bit-identical to the
  /// blocking engine. The HELIX_COMM_ASYNC environment variable (any value
  /// other than "" / "0") force-enables this, so existing suites can be
  /// re-run under the async engine without code changes.
  bool async_comm = false;
  /// Recv prefetch window in program positions for the async engine;
  /// kUnboundedLookahead (the default) posts every recv up front.
  /// Overridable via the HELIX_COMM_LOOKAHEAD environment variable.
  int comm_lookahead = kUnboundedLookahead;
  /// Optional observability sink (caller-owned, must outlive the Trainer).
  /// When set, every train_step records per-op wall-clock spans, comm
  /// counters and each rank's live-byte peak into it (resetting it first via
  /// begin_iteration), and IterationMetrics::rank_summaries is filled.
  /// After trace->enable_memory(), each step also shadow-allocates every
  /// rank's live tensor state on an instrumented mem::CachingAllocator
  /// (obs/memory.h): tagged allocator timelines, peak attribution and the
  /// memory section of the reconciliation report. Must have one shard per
  /// pipeline stage. When null (the default) no instrumentation runs and
  /// execution is untouched; numerics are bit-identical either way.
  obs::TraceCollector* trace = nullptr;
  /// Live-run health (obs/health.h): per-rank flight recorders, progress
  /// watchdog and post-mortem dumps. Disabled by default — a detached run is
  /// bit-identical and does zero extra work. The HELIX_HEALTH environment
  /// variable (any value other than "" / "0") force-enables it;
  /// HELIX_HEALTH_WINDOW_MS, HELIX_HEALTH_POLL_MS, HELIX_HEALTH_CAPACITY and
  /// HELIX_HEALTH_DUMP_DIR override the matching fields. `health.faults`
  /// (seeded fault injection) is applied whenever set, independent of
  /// `health.enabled`.
  obs::HealthOptions health{};
  /// Execute this exact schedule instead of generating one from `family`
  /// (check::check_schedule's path: train a tuned schedule and compare
  /// bitwise against the sequential reference). Borrowed — must outlive
  /// Trainer construction — and must match the model configuration (stages
  /// / micro batches / layers and one LmHeadLoss per micro batch are
  /// validated). `mlp_chunks` must still match how the schedule's ops were
  /// generated; recomputation without attention is read off the schedule's
  /// RecomputePre / RecomputePost ops.
  const core::Schedule* schedule = nullptr;
};

/// Thrown by Trainer::train_step when the progress watchdog declared the
/// iteration hung (deadlock or straggler). The analyzed wait-graph and every
/// rank's recorder tail are available via Trainer::last_post_mortem().
class HangDetected : public std::runtime_error {
 public:
  explicit HangDetected(const std::string& what) : std::runtime_error(what) {}
};

class Trainer {
 public:
  /// `params` is shared by all stages; stages update disjoint parameter
  /// subsets (their own combos / layers), mirroring distributed ownership.
  Trainer(nn::ModelParams& params, TrainerOptions options);

  const core::Schedule& schedule() const noexcept { return compiled_.schedule(); }

  /// Run one training iteration over `batch`; returns per-micro-batch
  /// losses from the LM-head stage.
  IterationMetrics train_step(const nn::Batch& batch);

  /// Per-rank Adam state (empty maps under SGD). Ranks own disjoint
  /// parameter subsets, so the union over ranks is the full optimizer state;
  /// the equivalence harness compares it bitwise across schedule families.
  const std::vector<nn::AdamState>& adam_states() const noexcept {
    return adam_states_;
  }

  /// Post-mortem of the most recent failed train_step (watchdog trip,
  /// injected fault or rank crash); null while every step has succeeded.
  /// Reset at the start of each step.
  const obs::PostMortem* last_post_mortem() const noexcept {
    return post_mortem_.get();
  }
  /// The per-rank health cells/recorders, non-null once a health-enabled
  /// step has run. Safe to read concurrently with a running step (live
  /// progress tables).
  const obs::HealthCollector* health_collector() const noexcept {
    return health_.get();
  }

 private:
  nn::ModelParams& params_;
  TrainerOptions opt_;
  /// The schedule, compiled once at construction; shared by every rank's
  /// Interpreter across steps.
  core::CompiledSchedule compiled_;
  /// Per-rank Adam state, persistent across iterations (ranks own disjoint
  /// parameter subsets, so states never overlap).
  std::vector<nn::AdamState> adam_states_;
  /// Health state, lazily created on the first health-enabled step. The
  /// collector persists across steps (cumulative progress counters, rolling
  /// rings); each step gets a fresh World wired onto it.
  std::unique_ptr<obs::HealthCollector> health_;
  std::unique_ptr<obs::PostMortem> post_mortem_;
  int step_ = 0;  ///< 0-based train_step counter (KillFault::step matching)
};

/// The schedule a Trainer would use, exposed for inspection/validation.
core::Schedule build_numeric_schedule(const nn::MiniGptConfig& cfg,
                                      const TrainerOptions& options);

/// Closed-form per-stage activation-peak prediction (bytes, fp32) for the
/// numeric mini-GPT under `options`' schedule family: the src/model/memory
/// Table 1 / Eq. 2 formulas plus the shipped-Wqkv stash each outstanding
/// (micro batch, layer) holds. This is what the memory section of
/// obs::reconcile compares measured allocator peaks against.
std::vector<std::int64_t> predict_stage_peak_bytes(const nn::MiniGptConfig& cfg,
                                                   const TrainerOptions& options);

}  // namespace helix::runtime
