#pragma once

#include <string>
#include <vector>

#include "core/ir.h"
#include "obs/recorder.h"
#include "par/thread_pool.h"
#include "sim/critical_path.h"
#include "sim/simulator.h"
#include "sim/trace.h"

// Exporters for measured (wall-clock) execution traces, and the
// reconciliation of a measured run against the simulator's prediction for
// the same schedule IR. The Chrome trace uses the exact event vocabulary of
// sim::to_chrome_trace (shared helpers in sim/trace.h), so a simulated and a
// measured trace of the same schedule diff cleanly in chrome://tracing or
// Perfetto.
namespace helix::obs {

/// Chrome trace-event JSON of the recorded spans: pid = stage/rank, tid 0 =
/// compute stream, tid 1 = comm ops, timestamps µs since the collector's
/// epoch. Same field names and event naming as sim::to_chrome_trace. When
/// the collector has memory tracking enabled, per-rank counter tracks
/// ("mem bytes" with allocated/reserved series and "mem fragmentation") are
/// appended next to the span tracks; without memory tracking the output is
/// byte-identical to the span-only export.
std::string to_chrome_trace(const TraceCollector& trace);

/// Per-stage aggregates of one measured iteration, the runtime analogue of
/// sim::StageStats (seconds are wall-clock here, modeled time there).
struct MeasuredStageStats {
  double compute_busy_s = 0;  ///< total wall time of non-comm op spans
  double send_busy_s = 0;     ///< total wall time of Send op spans
  /// Recv wait that blocked the rank's compute thread (blocking recvs and
  /// async handle drains) / wait retired while the thread computed
  /// (prefetched handles only; zero for a blocking run).
  double recv_wait_exposed_s = 0;
  double recv_wait_hidden_s = 0;
  double bubble_s = 0;  ///< makespan - compute_busy_s
  std::int64_t bytes_sent = 0;
  std::int64_t bytes_received = 0;
  std::int64_t live_peak_bytes = 0;      ///< interpreter slot/stash high water
  std::int64_t mailbox_depth_peak = 0;   ///< queued-message high water
};

struct MeasuredRun {
  double makespan_s = 0;  ///< global last span end - first span start
  std::vector<MeasuredStageStats> stages;
};

MeasuredRun measured_stats(const TraceCollector& trace);

/// Sim-vs-measured comparison for one pipeline stage. Fractions are of the
/// respective makespan, so modeled and wall-clock units compare directly.
struct StageReconciliation {
  int stage = 0;
  int compute_ops = 0;  ///< compute ops in the stage's IR program
  double predicted_busy_frac = 0;
  double measured_busy_frac = 0;
  double predicted_bubble_frac = 0;
  double measured_bubble_frac = 0;
  /// Spearman rank correlation between the simulator's predicted start order
  /// and the measured execution order of this stage's compute ops (1.0 when
  /// both executed the IR program order, as the shared-IR claim requires).
  double order_rank_correlation = 0;
  /// Measured compute-op sequence (kind, mb, layer) equals the stage's IR
  /// program order exactly.
  bool order_matches_ir = false;

  // Comm-overlap reconciliation: how much recv latency stalled the compute
  // stream (exposed) vs proceeded alongside it (hidden), simulator
  // prediction (modeled seconds, comm-stream recv_wait split by compute-op
  // stall attribution) against the measured run (wall seconds, from the
  // exposed/hidden CommMetrics counters). overlap_frac = hidden / (hidden +
  // exposed), defined as 1.0 when the stage had no recv latency at all.
  double predicted_exposed_wait_s = 0;
  double predicted_hidden_wait_s = 0;
  double measured_exposed_wait_s = 0;
  double measured_hidden_wait_s = 0;
  double predicted_overlap_frac = 1.0;
  double measured_overlap_frac = 1.0;
};

/// Three-way memory comparison for one pipeline stage: the measured peak of
/// the rank's instrumented allocator vs the closed-form prediction
/// (src/model/memory, via runtime::predict_stage_peak_bytes) vs the
/// simulator's StageStats::peak_memory for the same schedule IR.
struct StageMemoryReconciliation {
  int stage = 0;
  std::int64_t measured_peak_bytes = 0;     ///< allocator peak_allocated
  std::int64_t measured_reserved_peak = 0;  ///< allocator peak_reserved
  double measured_fragmentation = 0;        ///< 1 - allocated/reserved at peak
  std::int64_t model_bytes = 0;  ///< closed-form prediction (0 = not provided)
  std::int64_t sim_bytes = 0;    ///< simulator peak for the same IR
  double vs_model = 0;  ///< measured / model (0 when no model prediction)
  double vs_sim = 0;    ///< measured / sim (0 when sim predicts no memory)
};

/// Memory section of the reconciliation report: the Figure 4 cross-stage
/// imbalance, reproduced from a measured run and compared against the
/// analytical model and the simulator.
struct MemoryReconciliation {
  bool available = false;  ///< trace had memory tracking enabled
  std::vector<StageMemoryReconciliation> stages;
  /// Cross-stage imbalance ratio, max/min of per-stage measured peaks (the
  /// paper's Figure 4 shape: early 1F1B stages hold more microbatches).
  double measured_imbalance = 0;
  double model_imbalance = 0;  ///< same ratio over the model predictions
  /// Stages sorted by measured peak descending visit the same order as when
  /// sorted by the model prediction — the measured run reproduces the
  /// closed-form imbalance ordering.
  bool imbalance_order_matches_model = false;
};

struct ReconciliationReport {
  double predicted_makespan_s = 0;  ///< modeled seconds (simulator units)
  double measured_makespan_s = 0;   ///< wall-clock seconds
  std::vector<StageReconciliation> stages;
  /// Whole-run overlap fractions (per-stage exposed/hidden waits summed).
  double predicted_overlap_frac = 1.0;
  double measured_overlap_frac = 1.0;
  MemoryReconciliation memory;  ///< populated only with memory tracking on
  /// Critical-path analysis of the simulator's prediction: the chain of ops
  /// binding the predicted makespan and each stage's bubble decomposed by
  /// cause — the "why" behind the predicted bubble fractions above.
  sim::CriticalPathReport critical;

  bool all_orders_match_ir() const noexcept {
    for (const auto& s : stages) {
      if (!s.order_matches_ir) return false;
    }
    return !stages.empty();
  }
};

/// Reconcile one measured iteration of `sched` (recorded in `trace`) against
/// the simulator's prediction `predicted` for the same schedule. Assumes the
/// collector holds exactly one iteration (Trainer calls begin_iteration()
/// per train_step). When the collector has memory tracking enabled, the
/// report's memory section compares each rank's measured allocator peak with
/// the simulator's per-stage peak and, if `model_stage_bytes` is non-empty
/// (one closed-form prediction per stage, e.g. from
/// runtime::predict_stage_peak_bytes), with the analytical model.
ReconciliationReport reconcile(const core::Schedule& sched,
                               const sim::SimResult& predicted,
                               const TraceCollector& trace,
                               const std::vector<std::int64_t>& model_stage_bytes = {});

/// Fixed-width side-by-side table of the report (plus the memory section
/// when available), for terminals and logs.
std::string render_reconciliation(const ReconciliationReport& report);

/// Per-rank peak-attribution tables: at each rank's measured allocated peak,
/// which (op kind, layer) produced the live bytes — "whose bytes" the peak
/// is. Empty string when the collector has no memory tracking.
std::string render_memory_attribution(const TraceCollector& trace);

/// Fixed-width table of the intra-rank thread pool's counters (regions run,
/// inline fallbacks, and per-worker chunk/busy/idle figures) — typically fed
/// from par::global_pool_stats() next to the reconciliation table so a
/// traced run also shows how well the kernel parallelism was utilised.
std::string render_pool_stats(const par::PoolStats& stats);

}  // namespace helix::obs
