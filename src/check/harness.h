#pragma once

#include <string>
#include <vector>

#include "check/config.h"

// Differential-equivalence harness: the helix_check tool's engine and
// helix_tune's numeric gate.
//
// run_config trains one CheckConfig under every applicable schedule family,
// and check_schedule trains it under one given schedule. Both check each
// run the same way:
//  1. IR invariants on the exact schedule the trainer executes: structure
//     (matched byte-equal Send/Recv pairs, balanced memory, acyclicity),
//     per-micro-batch semantic order, and exactly-once (mb, layer, op-kind)
//     coverage (core::validate_*).
//  2. Simulator leak detector on the same IR: StageStats::final_memory must
//     return to base on every stage.
//  3. Numeric equivalence, bit-identical (see DESIGN.md "Equivalence
//     contract" for why no family needs a tolerance in this codebase):
//     per-step micro-batch losses, final weights, and — under Adam — the
//     union of per-rank optimizer moments and step counters against the
//     sequential reference.
//  4. Blocking vs async comm engines agree bit-identically (the async
//     rerun's losses and weights are compared against the blocking run, its
//     Adam state against the reference).
namespace helix::check {

struct FamilyReport {
  std::string family;               ///< family name, or the schedule's name
  std::vector<std::string> errors;  ///< empty = the run passed
  bool ok() const { return errors.empty(); }
};

struct ConfigReport {
  CheckConfig config;
  std::vector<FamilyReport> families;
  bool ok() const {
    for (const auto& f : families) {
      if (!f.ok()) return false;
    }
    return !families.empty();
  }
};

/// Train `cfg` under every applicable family and report all divergences
/// (never throws on divergence; builder/runtime exceptions are captured as
/// errors so one bad family cannot mask the others).
ConfigReport run_config(const CheckConfig& cfg);

/// Train `cfg` under `schedule`, injected through TrainerOptions::schedule,
/// and check it as run_config checks one family. The schedule's shape must
/// match cfg's p/m/L and cfg.mlp_chunks how its ops were generated;
/// recomputation is read off its ops, so cfg.recompute is not consulted.
/// Keep cfg.threads = 0 to leave the global pool at the size it has.
FamilyReport check_schedule(const CheckConfig& cfg,
                            const core::Schedule& schedule);

/// Render a one-line (ok) or multi-line (divergent) human-readable summary.
std::string render_report(const ConfigReport& report);

}  // namespace helix::check
