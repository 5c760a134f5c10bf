#include "tune/search.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "core/compiled.h"
#include "core/validator.h"
#include "obs/prof.h"
#include "schedules/registry.h"

namespace helix::tune {

namespace {

/// Each child applies 1..this many mutations.
constexpr int kMaxMutationsPerChild = 2;

/// A beam entrant: genome + its scored outcome.
struct Scored {
  Genome genome;
  sim::SweepOutcome outcome;
  double score = 0;
};

/// Throws std::invalid_argument naming the first out-of-range field.
void check_options(const TuneOptions& opt) {
  const auto require = [](bool ok, const char* field, long long v, const char* range) {
    if (!ok) {
      throw std::invalid_argument(std::string("tune: TuneOptions::") + field + " = " +
                                  std::to_string(v) + " must be " + range);
    }
  };
  require(opt.beam_width >= 1, "beam_width", opt.beam_width, ">= 1");
  require(opt.generations >= 0, "generations", opt.generations, ">= 0");
  require(opt.children_per_parent >= 0, "children_per_parent",
          opt.children_per_parent, ">= 0");
  require(opt.patience >= 0, "patience", opt.patience, ">= 0");
  require(opt.memory_cap_bytes >= 0, "memory_cap_bytes", opt.memory_cap_bytes, ">= 0");
}

double score_outcome(const sim::SweepOutcome& out, std::int64_t cap) {
  if (!out.ok) return 1e300;
  double s = out.makespan;
  if (cap > 0 && out.max_peak_memory > cap) {
    // Graded penalty: dominated by any feasible candidate, but still ordered
    // among infeasible ones so the beam can descend toward the cap.
    const double over = static_cast<double>(out.max_peak_memory - cap) /
                        static_cast<double>(cap);
    s += out.makespan * (1.0 + 10.0 * over) + 1e9;
  }
  return s;
}

/// helix_check's IR gate on one compile of `sched`: structure (compile plus
/// validate_semantics' own structural checks) + per-micro-batch semantic
/// order + exactly-once coverage. Mutations preserve these by construction;
/// the gate is the backstop that makes "every accepted candidate is
/// executable and trains the same math" an invariant of the search, not a
/// property of the mutation set. Returns the compiled form for scoring, or
/// nullopt when the gate refuses the schedule.
std::optional<core::CompiledSchedule> ir_gate(core::Schedule sched) {
  try {
    core::CompiledSchedule cs = core::CompiledSchedule::build(std::move(sched));
    if (core::validate_semantics(cs).ok && core::validate_coverage(cs.schedule()).ok) {
      return cs;
    }
  } catch (const std::logic_error&) {  // compile refused the schedule
  }
  return std::nullopt;
}

Provenance seed_provenance(const core::PipelineProblem& pr,
                           const std::string& family) {
  Provenance prov;
  prov.problem = pr;
  prov.family = family;
  prov.recompute = family == "helix_two_fold_rc";
  prov.virtual_chunks = 2;  // the registry's interleaved default
  return prov;
}

/// Gate and score `genomes` in one batched sweep call; appends Scored
/// entries (dropping IR-gate failures) to `out`. Each candidate is lowered
/// and compiled once, and the gate's compiled form is what the sweep
/// simulates.
void score_batch(std::vector<Genome>&& genomes, sim::Sweep& sweep,
                 const core::CostModel& cost,
                 const std::vector<std::int64_t>& base_memory,
                 std::int64_t memory_cap, TuneReport& report,
                 std::vector<Scored>& out) {
  std::vector<core::CompiledSchedule> compiled;
  std::vector<Genome> kept;
  compiled.reserve(genomes.size());
  kept.reserve(genomes.size());
  for (Genome& g : genomes) {
    HELIX_PROF_SCOPE("tune.gate");
    std::optional<core::CompiledSchedule> cs = ir_gate(g.table.lower());
    if (!cs) {
      ++report.candidates_invalid;
      continue;
    }
    compiled.push_back(std::move(*cs));
    kept.push_back(std::move(g));
  }
  std::vector<sim::ScheduleItem> items;
  items.reserve(compiled.size());
  for (const core::CompiledSchedule& cs : compiled) {
    items.push_back(sim::ScheduleItem{&cs, &cost, base_memory});
  }
  const std::vector<sim::SweepOutcome> outcomes = sweep.run_schedules(items);
  report.candidates_scored += static_cast<std::int64_t>(outcomes.size());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    Scored sc;
    sc.genome = std::move(kept[i]);
    sc.outcome = outcomes[i];
    sc.score = score_outcome(outcomes[i], memory_cap);
    out.push_back(std::move(sc));
  }
}

}  // namespace

TuneReport tune(const core::PipelineProblem& problem,
                const core::CostModel& cost, const TuneOptions& opt,
                sim::Sweep* sweep, const std::vector<std::int64_t>& base_memory) {
  check_options(opt);
  HELIX_PROF_SCOPE("tune.search");
  TuneReport report;
  sim::Sweep local_sweep;
  sim::Sweep& oracle = sweep != nullptr ? *sweep : local_sweep;
  std::mt19937_64 rng(opt.seed);

  // ---- Seed population: lift every requested (applicable) family. --------
  std::vector<Genome> seeds;
  for (const schedules::FamilySpec& fam : schedules::family_registry()) {
    if (!opt.seed_families.empty() &&
        std::find(opt.seed_families.begin(), opt.seed_families.end(),
                  fam.key) == opt.seed_families.end()) {
      continue;
    }
    if (!fam.applicable(problem)) continue;
    Genome g;
    g.prov = seed_provenance(problem, fam.key);
    g.table = Table::lift(fam.build(problem, cost));
    g.lineage = fam.key;
    seeds.push_back(std::move(g));
  }
  if (seeds.empty()) {
    throw std::invalid_argument(
        "tune: no applicable seed family for p=" + std::to_string(problem.p) +
        " m=" + std::to_string(problem.m) + " L=" + std::to_string(problem.L));
  }

  std::vector<Scored> beam;
  std::unordered_set<std::uint64_t> seen;
  score_batch(std::move(seeds), oracle, cost, base_memory, opt.memory_cap_bytes,
              report, beam);
  for (const Scored& s : beam) {
    report.baselines.push_back(FamilyBaseline{s.genome.prov.family, s.outcome});
    HELIX_PROF_SCOPE("tune.fingerprint");
    seen.insert(s.genome.table.fingerprint());
  }

  if (beam.empty()) {
    throw std::runtime_error("tune: every seed schedule failed the IR gate");
  }

  const auto better = [](const Scored& a, const Scored& b) {
    return a.score < b.score;
  };
  std::stable_sort(beam.begin(), beam.end(), better);
  if (static_cast<int>(beam.size()) > opt.beam_width) {
    beam.resize(static_cast<std::size_t>(opt.beam_width));
  }

  // ---- Evolutionary beam loop. ------------------------------------------
  double best_score = beam.front().score;
  int stale = 0;
  for (int gen = 0; gen < opt.generations; ++gen) {
    std::vector<Genome> children;
    children.reserve(beam.size() *
                     static_cast<std::size_t>(opt.children_per_parent));
    for (const Scored& parent : beam) {
      for (int c = 0; c < opt.children_per_parent; ++c) {
        Genome child = parent.genome;
        bool changed = false;
        {
          HELIX_PROF_SCOPE("tune.mutate");
          const int muts =
              1 + static_cast<int>(rng() % static_cast<std::uint64_t>(kMaxMutationsPerChild));
          for (int k = 0; k < muts; ++k) {
            const auto kind = static_cast<MutationKind>(
                rng() % static_cast<std::uint64_t>(kNumMutationKinds));
            changed |= apply_mutation(child, kind, rng, cost);
          }
        }
        if (!changed) continue;
        bool fresh = false;
        {
          HELIX_PROF_SCOPE("tune.fingerprint");
          fresh = seen.insert(child.table.fingerprint()).second;
        }
        if (!fresh) {
          ++report.candidates_deduped;
          continue;
        }
        children.push_back(std::move(child));
      }
    }
    ++report.generations_run;
    if (!children.empty()) {
      score_batch(std::move(children), oracle, cost, base_memory,
                  opt.memory_cap_bytes, report, beam);
      std::stable_sort(beam.begin(), beam.end(), better);
      if (static_cast<int>(beam.size()) > opt.beam_width) {
        beam.resize(static_cast<std::size_t>(opt.beam_width));
      }
    }
    if (beam.front().score < best_score) {
      best_score = beam.front().score;
      stale = 0;
    } else if (opt.patience > 0 && ++stale >= opt.patience) {
      break;
    }
  }

  Scored& winner = beam.front();
  report.best.schedule = winner.genome.table.lower();
  report.best.lineage = winner.genome.lineage;
  report.best.prov = winner.genome.prov;
  report.best.outcome = winner.outcome;
  report.best.score = winner.score;
  return report;
}

}  // namespace helix::tune
