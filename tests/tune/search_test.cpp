// Search-layer contract (DESIGN §15): the seeded beam is deterministic,
// never accepts an IR-gate failure, respects memory caps through the scoring
// penalty, and — the ISSUE acceptance criterion in miniature — rediscovers a
// two-fold-or-better schedule from the naive FILO seed under priced
// communication.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/cost.h"
#include "core/validator.h"
#include "obs/prof.h"
#include "sim/sweep.h"
#include "tune/search.h"

using namespace helix;

namespace {

core::PipelineProblem make_problem(int p, int m, int L) {
  core::PipelineProblem pr;
  pr.p = p;
  pr.m = m;
  pr.L = L;
  pr.comm.boundary = 10;
  pr.comm.pre_to_attn = 10;
  pr.comm.attn_to_post = 10;
  pr.include_lm_head = true;  // numerically executable (the gate's contract)
  pr.act.pre = 2;
  pr.act.attn = 3;
  pr.act.post = 11;
  pr.act.attn_recompute = 2;
  pr.act.post_recompute = 2;
  return pr;
}

/// Paper unit costs with priced communication — under free comm the naive
/// FILO order is already optimal and there is nothing to search for.
core::UnitCostModel priced_cost() {
  core::UnitCostModel::Units u;
  u.pre = 1.0;
  u.attn = 3.0;
  u.post = 2.0;
  u.seconds_per_elem = 0.1;
  return core::UnitCostModel{u};
}

tune::TuneOptions short_budget() {
  tune::TuneOptions opt;
  opt.beam_width = 4;
  opt.generations = 8;
  opt.children_per_parent = 6;
  opt.patience = 4;
  opt.seed = 1;
  return opt;
}

}  // namespace

TEST(Search, NaiveSeedReachesTwoFoldBubbleUnderPricedComm) {
  const core::PipelineProblem pr = make_problem(4, 8, 8);
  const core::UnitCostModel cost = priced_cost();
  sim::Sweep sweep;

  tune::TuneOptions opt = short_budget();
  opt.seed_families = {"helix_naive"};
  const tune::TuneReport rep = tune::tune(pr, cost, opt, &sweep);

  ASSERT_TRUE(rep.best.outcome.ok) << rep.best.outcome.error;
  const auto two =
      sweep.run({sim::SweepItem{"helix_two_fold", pr, &cost, {}}});
  ASSERT_TRUE(two[0].ok) << two[0].error;
  EXPECT_LE(rep.best.outcome.total_bubble, two[0].total_bubble)
      << "lineage: " << rep.best.lineage;

  // Everything the beam accepted passed the IR gate.
  EXPECT_EQ(rep.candidates_invalid, 0);
  // The winner itself is valid and carries its seed's provenance.
  EXPECT_TRUE(core::validate_semantics(rep.best.schedule).ok);
  EXPECT_TRUE(core::validate_coverage(rep.best.schedule).ok);
  EXPECT_EQ(rep.best.prov.family, "helix_naive");
}

TEST(Search, SameSeedIsDeterministicAcrossRuns) {
  const core::PipelineProblem pr = make_problem(2, 4, 4);
  const core::UnitCostModel cost = priced_cost();
  const tune::TuneOptions opt = short_budget();

  const tune::TuneReport a = tune::tune(pr, cost, opt);
  const tune::TuneReport b = tune::tune(pr, cost, opt);
  EXPECT_EQ(a.best.score, b.best.score);
  EXPECT_EQ(a.best.lineage, b.best.lineage);
  EXPECT_EQ(a.best.outcome.makespan, b.best.outcome.makespan);
  EXPECT_EQ(a.candidates_scored, b.candidates_scored);
  EXPECT_EQ(a.candidates_deduped, b.candidates_deduped);
}

TEST(Search, TunedNeverLosesToItsSeeds) {
  // The beam keeps parents, so the winner can never score worse than the
  // best seed baseline.
  const core::PipelineProblem pr = make_problem(2, 4, 8);
  const core::UnitCostModel cost = priced_cost();
  const tune::TuneReport rep = tune::tune(pr, cost, short_budget());
  ASSERT_TRUE(rep.best.outcome.ok);
  for (const tune::FamilyBaseline& b : rep.baselines) {
    if (!b.outcome.ok) continue;
    EXPECT_LE(rep.best.outcome.makespan, b.outcome.makespan) << b.family;
  }
}

TEST(Search, MemoryCapSteersSelectionWhenFeasible) {
  const core::PipelineProblem pr = make_problem(2, 4, 4);
  const core::UnitCostModel cost = priced_cost();

  // First, unconstrained: record the winner's peak.
  const tune::TuneReport free_run = tune::tune(pr, cost, short_budget());
  ASSERT_TRUE(free_run.best.outcome.ok);

  // Then cap at the recompute baseline's peak — feasible candidates exist
  // (helix_two_fold_rc), so the tuned winner must respect the cap.
  std::int64_t rc_peak = 0;
  for (const tune::FamilyBaseline& b : free_run.baselines) {
    if (b.family == "helix_two_fold_rc" && b.outcome.ok) {
      rc_peak = b.outcome.max_peak_memory;
    }
  }
  ASSERT_GT(rc_peak, 0);
  tune::TuneOptions capped = short_budget();
  capped.memory_cap_bytes = rc_peak;
  const tune::TuneReport rep = tune::tune(pr, cost, capped);
  ASSERT_TRUE(rep.best.outcome.ok);
  EXPECT_LE(rep.best.outcome.max_peak_memory, rc_peak)
      << "lineage: " << rep.best.lineage;
}

// Each gated candidate is lowered and compiled once: the IR gate checks that
// compiled form and the sweep simulates the same one.
TEST(Search, CompilesEachCandidateOnce) {
  const core::PipelineProblem pr = make_problem(4, 8, 8);
  const core::UnitCostModel cost = priced_cost();
  tune::TuneOptions opt = short_budget();
  opt.seed_families = {"helix_naive"};
  obs::prof::Registry reg;
  tune::TuneReport rep;
  {
    obs::prof::AttachGuard guard(reg);
    rep = tune::tune(pr, cost, opt);
  }
  const obs::prof::Report prof = reg.report();
  const obs::prof::SiteStats* compile = prof.find("", "core.compile");
  ASSERT_NE(compile, nullptr);
  const std::int64_t evaluated = prof.counter_total("sweep.evaluated");
  EXPECT_GT(evaluated, 1);
  EXPECT_EQ(evaluated, rep.candidates_scored);
  EXPECT_EQ(compile->count, evaluated + rep.candidates_invalid);
}

// The IR gate certifies every order edge of every candidate of a search
// with the tuner benchmark's options by a short path: validate_semantics
// makes no pass over the topological order.
TEST(Search, GateMakesNoOrderPass) {
  const core::PipelineProblem pr = make_problem(8, 16, 16);
  const core::UnitCostModel cost = priced_cost();
  tune::TuneOptions opt;
  opt.beam_width = 4;
  opt.generations = 2;
  opt.children_per_parent = 6;
  opt.patience = 0;
  opt.seed = 1;
  opt.seed_families = {"helix_naive"};
  obs::prof::Registry reg;
  tune::TuneReport rep;
  {
    obs::prof::AttachGuard guard(reg);
    rep = tune::tune(pr, cost, opt);
  }
  const obs::prof::Report prof = reg.report();
  const obs::prof::SiteStats* passes = prof.find("", "core.validate.order_passes");
  ASSERT_NE(passes, nullptr);
  EXPECT_GT(rep.candidates_scored, 1);
  EXPECT_GE(passes->count, rep.candidates_scored);
  EXPECT_EQ(passes->value, 0);
}

TEST(Search, ThrowsWhenNoSeedFamilyApplies) {
  core::PipelineProblem pr = make_problem(4, 8, 8);
  pr.m = 3;  // helix families need m % 2p == 0
  const core::UnitCostModel cost = priced_cost();
  tune::TuneOptions opt = short_budget();
  opt.seed_families = {"helix_two_fold"};
  EXPECT_THROW(tune::tune(pr, cost, opt), std::invalid_argument);
}

namespace {

// Out-of-range options are refused up front, naming the field. A beam of
// width 0 used to read the front of an empty beam, and negative counts
// threw std::length_error from a reserve.
void expect_rejected(const tune::TuneOptions& opt, const std::string& field) {
  const core::PipelineProblem pr = make_problem(2, 4, 4);
  const core::UnitCostModel cost = priced_cost();
  try {
    tune::tune(pr, cost, opt);
    ADD_FAILURE() << field << " accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

}  // namespace

TEST(Search, RejectsBeamWidthBelowOne) {
  for (const int w : {0, -2}) {
    tune::TuneOptions opt = short_budget();
    opt.beam_width = w;
    expect_rejected(opt, "beam_width");
  }
}

TEST(Search, RejectsNegativeGenerations) {
  tune::TuneOptions opt = short_budget();
  opt.generations = -1;
  expect_rejected(opt, "generations");
}

TEST(Search, RejectsNegativeChildrenPerParent) {
  tune::TuneOptions opt = short_budget();
  opt.children_per_parent = -1;
  expect_rejected(opt, "children_per_parent");
}

TEST(Search, RejectsNegativePatience) {
  tune::TuneOptions opt = short_budget();
  opt.patience = -1;
  expect_rejected(opt, "patience");
}

TEST(Search, RejectsNegativeMemoryCap) {
  tune::TuneOptions opt = short_budget();
  opt.memory_cap_bytes = -1;
  expect_rejected(opt, "memory_cap_bytes");
}
