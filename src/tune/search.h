#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/cost.h"
#include "core/problem.h"
#include "sim/sweep.h"
#include "tune/mutate.h"

// Schedule search over the tabular abstraction (DESIGN §15): a seeded beam
// with an evolutionary inner loop.
//
//  * Seeding: every applicable family in schedules::family_registry() (or
//    the caller's subset) is built and lifted, so the search starts from the
//    best hand-built schedules *and* can be restricted to a naive seed to
//    prove it rediscovers the good ones.
//  * Generations: each beam parent spawns children by 1..2 random mutations
//    (tune/mutate.h); a child copies its parent's op order and shares its
//    lift. Children are deduped by table fingerprint, then each is lowered
//    and compiled once: the helix_check IR gate (validate_structure /
//    semantics / coverage — mutations are safe by construction, so this is
//    a backstop, and regeneration mutations go through the family builders)
//    checks that compiled form, and one sim::Sweep::run_schedules batch,
//    parallel over the src/par pool, simulates it. Nothing is memoised:
//    dedup already keeps every scored candidate distinct.
//  * Selection: parents + children, best `beam_width` by score survive.
//    Score is simulated makespan, plus a proportional penalty above the
//    caller's peak-memory cap so an infeasible beam still has a gradient
//    toward feasibility.
//
// Deterministic: one seeded RNG drives every random choice, scoring is
// bit-identical at any thread count (the Sweep contract), and ties break by
// insertion order.
namespace helix::tune {

struct TuneOptions {
  int beam_width = 6;  ///< >= 1
  int generations = 24;
  int children_per_parent = 8;
  /// Stop early after this many generations without improving the best
  /// score (0 = never stop early).
  int patience = 8;
  std::uint64_t seed = 1;
  /// Reject-above-this per-stage peak (simulated bytes); 0 = unconstrained.
  std::int64_t memory_cap_bytes = 0;
  /// Registry keys to seed from; empty = every applicable family.
  std::vector<std::string> seed_families;
};

/// One scored schedule with its mutation history.
struct TunedCandidate {
  core::Schedule schedule;
  std::string lineage;
  /// Seed family + regeneration-knob state (the differential gate needs
  /// `prov.recompute` to configure the interpreter).
  Provenance prov;
  sim::SweepOutcome outcome;
  double score = 0;
};

struct FamilyBaseline {
  std::string family;
  sim::SweepOutcome outcome;
};

struct TuneReport {
  TunedCandidate best;
  /// Unmutated per-family results for the seeded families, in registry
  /// order (the CLI's comparison table; the two-fold baseline for the
  /// Table 2 acceptance check).
  std::vector<FamilyBaseline> baselines;
  int generations_run = 0;
  std::int64_t candidates_scored = 0;
  std::int64_t candidates_deduped = 0;
  std::int64_t candidates_invalid = 0;  ///< rejected by the IR gate
};

/// Search for the best schedule for (problem, cost). `sweep` is the scoring
/// oracle — pass a caller-owned instance to read its stats across tune()
/// calls (cluster_planner does); null uses a private one.
/// `base_memory` is forwarded to the simulator (per-stage resident bytes).
/// Throws std::invalid_argument naming the field when beam_width < 1 or
/// generations, children_per_parent, patience or memory_cap_bytes is
/// negative, and when no seed family is applicable.
///
/// Profiling sites (obs/prof.h), all inside tune.search: tune.mutate (one
/// child's mutations), tune.fingerprint (its dedup hash), tune.gate (lower,
/// the one compile and the IR gate, per candidate), and the counters
/// tune.legality.checks and tune.legality.visited (ops the bounded swap
/// checks and the order repairs touched). Each gated candidate runs
/// core.compile once, so a search's core.compile count is sweep.evaluated
/// plus candidates_invalid.
TuneReport tune(const core::PipelineProblem& problem,
                const core::CostModel& cost, const TuneOptions& opt,
                sim::Sweep* sweep = nullptr,
                const std::vector<std::int64_t>& base_memory = {});

}  // namespace helix::tune
