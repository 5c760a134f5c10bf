// tune_search: a seeded sequence of fixed-budget tune::tune searches on the
// paper's Table 2 shapes, comm priced as helix_tune prices it by default
// (10 elements per boundary at 0.1 s/elem, 1:3:2 unit costs). Each search is
// seeded from helix_naive only and gets a fresh sim::Sweep, so every
// candidate is a cold compile + simulate of a distinct small schedule.
//
// Traced, each job runs twice — untraced and with obs::prof attached, in
// alternating order — and the seed and winner schedules go once more
// through Table::lift/lower and the three validators, timed per call.
#include <cstring>
#include <map>
#include <optional>
#include <utility>

#include "core/cost.h"
#include "core/validator.h"
#include "gen.h"
#include "obs/prof.h"
#include "par/thread_pool.h"
#include "schedules/registry.h"
#include "sim/sweep.h"
#include "tune/search.h"
#include "tune/table.h"
#include "workloads.h"

namespace perfbench {

using namespace helix;

namespace {

/// The library's default pool (HELIX_THREADS unset): the search itself is
/// serial, and scoring is ~3% of it.
constexpr int kPoolThreads = 1;
constexpr int kSetupReps = 15;

core::PipelineProblem tune_problem(const TuneShape& s) {
  core::PipelineProblem pr;
  pr.p = s.p;
  pr.m = 2 * s.p;
  pr.L = s.L;
  pr.comm.boundary = 10;
  pr.comm.pre_to_attn = 10;
  pr.comm.attn_to_post = 10;
  pr.include_lm_head = true;
  pr.act.pre = 2;
  pr.act.attn = 3;
  pr.act.post = 11;
  pr.act.attn_recompute = 2;
  pr.act.post_recompute = 2;
  return pr;
}

core::UnitCostModel tune_cost() {
  core::UnitCostModel::Units u;
  u.pre = 1.0;
  u.attn = 3.0;
  u.post = 2.0;
  u.seconds_per_elem = 0.1;
  return core::UnitCostModel{u};
}

tune::TuneOptions tune_options(std::uint64_t tune_seed, int generations) {
  tune::TuneOptions opt;
  opt.beam_width = 4;
  opt.generations = generations;
  opt.children_per_parent = 6;
  opt.patience = 0;  // every generation runs: the budget is fixed
  opt.seed = tune_seed;
  opt.seed_families = {"helix_naive"};
  return opt;
}

/// 30 candidates per search: ~55 searches in a 10 s run, enough that the
/// median and the tail (~p80) land inside one shape's cost range, not on
/// the edge between two.
constexpr int kGenerations = 2;

bool validates(const core::Schedule& s) {
  return core::validate_structure(s).ok && core::validate_semantics(s).ok &&
         core::validate_coverage(s).ok;
}

/// What must repeat exactly across searches of one (shape, tune seed).
struct Fingerprint {
  std::int64_t scored, deduped, invalid;
  int generations;
  double best_makespan;
  bool operator==(const Fingerprint& o) const {
    return scored == o.scored && deduped == o.deduped && invalid == o.invalid &&
           generations == o.generations &&
           std::memcmp(&best_makespan, &o.best_makespan, sizeof(double)) == 0;
  }
};

Fingerprint fingerprint(const tune::TuneReport& rep) {
  return {rep.candidates_scored, rep.candidates_deduped, rep.candidates_invalid,
          rep.generations_run, rep.best.outcome.makespan};
}

std::string describe(const TuneJob& j) {
  const TuneShape& s = kTuneShapes[j.shape];
  return "p=" + std::to_string(s.p) + " L=" + std::to_string(s.L) +
         " tune_seed=" + std::to_string(j.tune_seed);
}

struct TuneLayers {
  std::vector<double> root, run_schedules, outside, compile, lift_lower, validate,
      scored, deduped, invalid, scored_ratio, traced, untraced;
};

}  // namespace

Result run_tune(const Args& args, Trace* trace) {
  par::set_global_threads(kPoolThreads);
  check_thread_budget(0, 0, kPoolThreads);
  Result r;

  // Set-up: cost model, problems, the hand-built two-fold baselines and a
  // one-generation warm-up search, several times.
  std::vector<double> setup_s;
  std::vector<core::PipelineProblem> problems;
  std::vector<double> two_fold;
  std::unique_ptr<core::UnitCostModel> cost;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    cost = std::make_unique<core::UnitCostModel>(tune_cost());
    problems.clear();
    std::vector<sim::SweepItem> baselines;
    for (const TuneShape& s : kTuneShapes) {
      problems.push_back(tune_problem(s));
      baselines.push_back({"helix_two_fold", problems.back(), cost.get(), {}});
    }
    sim::Sweep sweep;
    const std::vector<sim::SweepOutcome> out = sweep.run(baselines);
    const tune::TuneReport warm = tune::tune(problems[0], *cost, tune_options(1, 1), &sweep);
    setup_s.push_back(ns_to_s(now_ns() - t0));
    two_fold.clear();
    for (const sim::SweepOutcome& o : out) {
      if (!o.ok) throw std::runtime_error("two-fold baseline failed: " + o.error);
      two_fold.push_back(o.makespan);
    }
    if (!warm.best.outcome.ok) throw std::runtime_error("tune warm-up search failed");
  }

  TuneStream stream(args.seed);
  std::map<std::pair<int, std::uint64_t>, Fingerprint> seen;
  std::vector<double> search_s, vs_two_fold;
  double candidates = 0;
  TuneLayers layers;
  obs::prof::Registry reg;
  std::int64_t jobs = 0;
  Budget budget(args.seconds);

  // One search, checked: winner validates, no invalid candidate, winner no
  // worse than its naive seed, counters equal to earlier repeats.
  const auto search = [&](const TuneJob& job, bool profiled) {
    const core::PipelineProblem& pr = problems[static_cast<std::size_t>(job.shape)];
    sim::Sweep sweep;
    std::optional<obs::prof::AttachGuard> guard;
    if (profiled) {
      reg.reset();
      guard.emplace(reg);
    }
    const std::int64_t t0 = now_ns();
    const tune::TuneReport rep =
        tune::tune(pr, *cost, tune_options(job.tune_seed, kGenerations), &sweep);
    const std::int64_t t1 = now_ns();
    guard.reset();
    budget.spend(t1 - t0);
    double naive = 0;
    for (const tune::FamilyBaseline& b : rep.baselines) {
      if (b.family == "helix_naive" && b.outcome.ok) naive = b.outcome.makespan;
    }
    const auto [it, fresh] = seen.emplace(std::make_pair(job.shape, job.tune_seed),
                                          fingerprint(rep));
    const bool ok = rep.best.outcome.ok && rep.candidates_invalid == 0 && naive > 0 &&
                    rep.best.score <= naive && validates(rep.best.schedule) &&
                    (fresh || it->second == fingerprint(rep));
    r.record(ok, "tune search " + describe(job));
    if (ok) {
      vs_two_fold.push_back(rep.best.outcome.makespan /
                            two_fold[static_cast<std::size_t>(job.shape)]);
    }
    return std::make_pair(rep, t1 - t0);
  };

  while (budget.more()) {
    const TuneJob job = stream.next();
    try {
      if (trace == nullptr) {
        const auto [rep, ns] = search(job, false);
        search_s.push_back(ns_to_s(ns));
        candidates += static_cast<double>(rep.candidates_scored);
        continue;
      }
      tune::TuneReport rep;
      for (int k = 0; k < 2; ++k) {
        const bool profiled = (k + jobs) % 2 == 1;
        auto [report, ns] = search(job, profiled);
        (profiled ? layers.traced : layers.untraced).push_back(ns_to_s(ns));
        if (!profiled) continue;
        rep = std::move(report);
        const obs::prof::Report prof = reg.report();
        const auto timer_ns = [&](const char* site) {
          const obs::prof::SiteStats* s = prof.find("", site);
          return s == nullptr ? std::int64_t{0} : s->total_ns;
        };
        const std::int64_t root_ns = timer_ns("tune.search");
        const std::int64_t scoring_ns = timer_ns("sweep.run_schedules");
        const std::int64_t end = now_ns();
        const double root = ns_to_s(root_ns);
        const double scoring = ns_to_s(scoring_ns);
        layers.root.push_back(root);
        layers.run_schedules.push_back(scoring);
        layers.outside.push_back(root - scoring);
        layers.compile.push_back(ns_to_s(timer_ns("core.compile")));
        const double n = static_cast<double>(
            rep.candidates_scored + rep.candidates_deduped + rep.candidates_invalid);
        layers.scored.push_back(static_cast<double>(rep.candidates_scored));
        layers.deduped.push_back(static_cast<double>(rep.candidates_deduped));
        layers.invalid.push_back(static_cast<double>(rep.candidates_invalid));
        layers.scored_ratio.push_back(static_cast<double>(rep.candidates_scored) / n);
        trace->span("search " + describe(job), 0, 0, end - root_ns, end, -1,
                    arg("sim.run_schedules_s", scoring) + ", " +
                        arg("tune.outside_scoring_s", root - scoring) + ", " +
                        arg("core.compile_s", layers.compile.back()) + ", " +
                        arg("tune.candidates_scored", layers.scored.back()));
      }
      // The seed and the winner, once more through the tabular round trip
      // and the validators, timed per call.
      const core::PipelineProblem& pr = problems[static_cast<std::size_t>(job.shape)];
      const core::Schedule seed_sched =
          schedules::find_family("helix_naive")->build(pr, *cost);
      for (const core::Schedule* s :
           {&seed_sched, static_cast<const core::Schedule*>(&rep.best.schedule)}) {
        const std::int64_t t0 = now_ns();
        const core::Schedule lowered = tune::Table::lift(*s).lower();
        const std::int64_t t1 = now_ns();
        const bool valid = validates(lowered);
        const std::int64_t t2 = now_ns();
        layers.lift_lower.push_back(ns_to_s(t1 - t0));
        layers.validate.push_back(ns_to_s(t2 - t1));
        trace->span("lift+lower", 0, 0, t0, t1);
        trace->span("validate", 0, 0, t1, t2);
        r.record(valid && lowered.total_ops() == s->total_ops(),
                 "lift/lower round trip " + describe(job));
      }
    } catch (const std::exception& e) {
      r.record(false, describe(job) + ": " + e.what());
    }
    ++jobs;
  }

  r.set("tune.best_vs_two_fold", geomean(vs_two_fold));
  if (trace == nullptr) {
    set_end_to_end(r, setup_s, search_s, candidates);
    return r;
  }
  r.set("bench.root_s", mean(layers.root));
  r.set("sim.run_schedules_s", mean(layers.run_schedules));
  r.set("tune.outside_scoring_s", mean(layers.outside));
  r.set("core.compile_s", mean(layers.compile));
  r.set("tune.lift_lower_s", median(layers.lift_lower));
  r.set("core.validate_s", median(layers.validate));
  r.set("tune.candidates_scored", mean(layers.scored));
  r.set("tune.candidates_deduped", mean(layers.deduped));
  r.set("tune.candidates_invalid", mean(layers.invalid));
  r.set("tune.scored_ratio", mean(layers.scored_ratio));
  r.set("obs.trace_overhead", median(layers.traced) / median(layers.untraced));
  return r;
}

}  // namespace perfbench
