#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/compiled.h"
#include "core/cost.h"
#include "core/problem.h"

// Batched capacity-planning sweeps: evaluate a grid of (schedule family,
// pipeline problem, cost model) configurations — build the schedule, compile
// it, simulate it — fanned over the src/par thread pool, with a memoised
// result cache so repeated queries (interactive planners, nested grids that
// share configurations) cost a hash lookup. Already-compiled schedules (the
// autotuner's candidates) take a second, unmemoised entry point.
//
// Determinism contract: results are returned in item order and each result
// is a pure function of its item alone (schedule construction, compilation
// and simulation are all deterministic, and per-item work shares no mutable
// state), so the output is bit-identical for every thread count — including
// serial — and for warm vs cold cache.
namespace helix::sim {

/// One configuration to evaluate. `cost` is borrowed for the duration of
/// the run() call only: the memo keys on a copy of its price bits, never on
/// its address, so the model may be destroyed, rebuilt or changed between
/// calls without a stale hit.
struct SweepItem {
  std::string family;  ///< schedules::family_registry key ("zb2p", ...)
  core::PipelineProblem problem;
  const core::CostModel* cost = nullptr;
  std::vector<std::int64_t> base_memory;  ///< per-stage resident bytes
};

/// One ad-hoc schedule to evaluate (the autotuner's scoring path): the
/// schedule is already built and compiled — simulate only. `compiled` and
/// `cost` must outlive the call.
struct ScheduleItem {
  const core::CompiledSchedule* compiled = nullptr;
  const core::CostModel* cost = nullptr;
  std::vector<std::int64_t> base_memory;  ///< per-stage resident bytes
};

struct SweepOutcome {
  bool ok = false;
  /// Why the configuration failed: unknown family, or the builder's
  /// validation message ("helix-two-fold: m=4 micro batches is not ...").
  std::string error;
  double makespan = 0;
  double total_bubble = 0;
  double total_recv_wait = 0;
  std::int64_t max_peak_memory = 0;
  std::vector<std::int64_t> stage_peak_memory;
};

struct SweepStats {
  std::int64_t items = 0;       ///< items submitted across all runs
  std::int64_t evaluated = 0;   ///< cache misses: configurations simulated
  std::int64_t cache_hits = 0;  ///< run() only
  std::int64_t failed = 0;      ///< evaluated items that produced ok == false
};

/// run() outcomes are memoised across calls, keyed by memo_key. A hit
/// returns the bits a fresh evaluation would, so the cache only skips
/// recomputation; clear_cache() forces re-evaluation.
class Sweep {
 public:
  /// Evaluate every item; results[i] corresponds to items[i]. Inapplicable
  /// or unknown configurations come back ok == false with the builder's
  /// message — a planner can submit the full grid unfiltered.
  std::vector<SweepOutcome> run(const std::vector<SweepItem>& items);

  /// Simulate already-compiled schedules (no family builder, no compile),
  /// with run()'s determinism contract. Not memoised: every item is
  /// evaluated, so scoring one compiled schedule twice simulates it twice.
  /// The autotuner dedups its candidates before scoring, so a memo here
  /// never hits. A null schedule or cost model comes back ok == false.
  std::vector<SweepOutcome> run_schedules(const std::vector<ScheduleItem>& items);

  SweepStats stats() const;
  void clear_cache();

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, SweepOutcome> cache_;  ///< key: memo_key()
  SweepStats stats_;
};

/// The memo key: the family name, every PipelineProblem field, the per-stage
/// base memory, and the cost model's price bits (core::CostModel::Prices).
/// A model is its prices, so two distinct instances with equal prices share
/// entries, and a model rebuilt at a recycled address with any changed
/// price misses. Exposed for the determinism and cache-staleness tests.
std::string memo_key(const SweepItem& item);

}  // namespace helix::sim
