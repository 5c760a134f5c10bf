// Numeric differential gate: a tuner-mutated schedule, injected into
// runtime::Trainer through TrainerOptions::schedule, must train bit-identical
// to the sequential reference under both comm engines — and the gate must
// reject schedules whose shape does not match the model.
#include <gtest/gtest.h>

#include <random>

#include "core/cost.h"
#include "core/filo.h"
#include "schedules/registry.h"
#include "tune/gate.h"
#include "tune/mutate.h"
#include "tune/table.h"

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

core::UnitCostModel unit_cost() {
  core::UnitCostModel::Units u;
  u.seconds_per_elem = 0.1;
  return core::UnitCostModel{u};
}

nn::MiniGptConfig tiny_model(int m, int L) {
  nn::MiniGptConfig cfg;
  cfg.layers = L;
  cfg.micro_batches = m;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.seq = 8;
  cfg.vocab = 32;
  return cfg;
}

/// Build `family`, then scramble it with seeded mutations (the gate's whole
/// point is schedules nobody hand-verified).
core::Schedule mutated_schedule(const std::string& family,
                                const core::PipelineProblem& pr,
                                std::uint64_t seed) {
  const core::UnitCostModel cost = unit_cost();
  for (const schedules::FamilySpec& fam : schedules::family_registry()) {
    if (fam.key != family) continue;
    tune::Genome g;
    g.prov.problem = pr;
    g.prov.family = family;
    g.table = tune::Table::lift(fam.build(pr, cost));
    std::mt19937_64 rng(seed);
    for (int i = 0; i < 12; ++i) {
      // Order mutations only, so the seed's op set is kept; the gate reads
      // recomputation off the schedule's ops either way.
      const tune::MutationKind kinds[] = {
          tune::MutationKind::kSwapAdjacent, tune::MutationKind::kMoveWEarlier,
          tune::MutationKind::kHoistRecv, tune::MutationKind::kWidenLookahead,
          tune::MutationKind::kRelist};
      tune::apply_mutation(g, kinds[rng() % 5], rng, cost);
    }
    return g.table.lower();
  }
  ADD_FAILURE() << "unknown family " << family;
  return {};
}

}  // namespace

TEST(Gate, MutatedHelixSchedulePassesBitIdentical) {
  const core::PipelineProblem pr = make_problem(2, 4, 4);
  const core::Schedule sched = mutated_schedule("helix_naive", pr, 5);
  tune::GateConfig cfg;
  cfg.model = tiny_model(pr.m, pr.L);
  cfg.pipeline_stages = pr.p;
  const tune::GateResult res = tune::differential_gate(sched, cfg);
  EXPECT_TRUE(res.ok()) << (res.errors.empty() ? "" : res.errors.front());
}

TEST(Gate, MutatedLayerwiseSchedulePassesUnderAdam) {
  const core::PipelineProblem pr = make_problem(2, 4, 4);
  const core::Schedule sched = mutated_schedule("zb1p", pr, 11);
  tune::GateConfig cfg;
  cfg.model = tiny_model(pr.m, pr.L);
  cfg.pipeline_stages = pr.p;
  cfg.adam = true;
  const tune::GateResult res = tune::differential_gate(sched, cfg);
  EXPECT_TRUE(res.ok()) << (res.errors.empty() ? "" : res.errors.front());
}

TEST(Gate, ReadsRecomputationOffTheSchedule) {
  // The toggle regenerates helix_naive with recomputation without attention.
  // The gate config has no recompute flag: the interpreter must find the
  // RecomputePre/RecomputePost ops, or its stash bookkeeping throws.
  const core::PipelineProblem pr = make_problem(2, 4, 4);
  tune::Genome g;
  g.prov.problem = pr;
  g.prov.family = "helix_naive";
  g.table = tune::Table::lift(core::build_helix_schedule(
      pr, {.two_fold = false, .recompute_without_attention = false}));
  std::mt19937_64 rng(3);
  ASSERT_TRUE(tune::apply_mutation(g, tune::MutationKind::kToggleRecompute, rng,
                                   unit_cost()));
  ASSERT_TRUE(g.prov.recompute);
  tune::GateConfig cfg;
  cfg.model = tiny_model(pr.m, pr.L);
  cfg.pipeline_stages = pr.p;
  const tune::GateResult res = tune::differential_gate(g.table.lower(), cfg);
  EXPECT_TRUE(res.ok()) << (res.errors.empty() ? "" : res.errors.front());
}

TEST(Gate, ShapeMismatchIsReportedNotSilentlyTrained) {
  // Schedule for m=4 micro-batches, model with m=8: the injected-schedule
  // path must refuse, and the gate converts the throw into an error.
  const core::PipelineProblem pr = make_problem(2, 4, 4);
  const core::Schedule sched = mutated_schedule("helix_naive", pr, 5);
  tune::GateConfig cfg;
  cfg.model = tiny_model(/*m=*/8, pr.L);
  cfg.pipeline_stages = pr.p;
  const tune::GateResult res = tune::differential_gate(sched, cfg);
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.errors.front().find("exception"), std::string::npos);
}
