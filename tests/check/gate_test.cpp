// The equivalence contract on one given schedule (check::check_schedule,
// helix_tune's gate): a tuner-mutated schedule, injected into
// runtime::Trainer through TrainerOptions::schedule, must pass the IR
// validators and the simulator leak check and train bit-identical to the
// sequential reference under both comm engines — and the gate must reject
// schedules whose shape does not match the model or whose order diverges.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>

#include "check/harness.h"
#include "core/cost.h"
#include "core/filo.h"
#include "par/thread_pool.h"
#include "schedules/registry.h"
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

/// The gate's config for `pr`'s shape, as helix_tune builds it.
check::CheckConfig gate_config(const core::PipelineProblem& pr) {
  return {.p = pr.p, .m = pr.m, .L = pr.L, .threads = 0};
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

/// Index of the first error containing every one of `parts`, or -1.
int find_error(const check::FamilyReport& rep,
               std::initializer_list<const char*> parts) {
  for (std::size_t i = 0; i < rep.errors.size(); ++i) {
    if (std::all_of(parts.begin(), parts.end(), [&](const char* part) {
          return rep.errors[i].find(part) != std::string::npos;
        })) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

}  // namespace

TEST(Gate, MutatedHelixSchedulePassesBitIdentical) {
  const core::PipelineProblem pr = make_problem(2, 4, 4);
  const core::Schedule sched = mutated_schedule("helix_naive", pr, 5);
  const check::FamilyReport res = check::check_schedule(gate_config(pr), sched);
  EXPECT_TRUE(res.ok()) << (res.errors.empty() ? "" : res.errors.front());
}

TEST(Gate, MutatedLayerwiseSchedulePassesUnderAdam) {
  const core::PipelineProblem pr = make_problem(2, 4, 4);
  const core::Schedule sched = mutated_schedule("zb1p", pr, 11);
  check::CheckConfig cfg = gate_config(pr);
  cfg.adam = true;
  const check::FamilyReport res = check::check_schedule(cfg, sched);
  EXPECT_TRUE(res.ok()) << (res.errors.empty() ? "" : res.errors.front());
}

TEST(Gate, ReadsRecomputationOffTheSchedule) {
  // The toggle regenerates helix_naive with recomputation without attention.
  // The gate leaves CheckConfig::recompute false: the interpreter must find
  // the RecomputePre/RecomputePost ops, or its stash bookkeeping throws.
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
  const check::FamilyReport res =
      check::check_schedule(gate_config(pr), g.table.lower());
  EXPECT_TRUE(res.ok()) << (res.errors.empty() ? "" : res.errors.front());
}

TEST(Gate, ShapeMismatchIsReportedNotSilentlyTrained) {
  // Schedule for m=4 micro-batches, model with m=8: the injected-schedule
  // path must refuse, and the gate converts the throw into an error.
  const core::PipelineProblem pr = make_problem(2, 4, 4);
  const core::Schedule sched = mutated_schedule("helix_naive", pr, 5);
  check::CheckConfig cfg = gate_config(pr);
  cfg.m = 8;
  const check::FamilyReport res = check::check_schedule(cfg, sched);
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.errors.front().find("exception"), std::string::npos);
}

TEST(Gate, LeavesThePoolSizeAsItFoundIt) {
  // helix_tune gates with threads = 0, so a gate cannot resize the pool
  // (HELIX_THREADS) that every later search in --table2 runs on.
  const int before = par::global_pool().threads();
  const int size = before == 3 ? 2 : 3;
  par::set_global_threads(size);
  const core::PipelineProblem pr = make_problem(2, 4, 4);
  const check::FamilyReport res = check::check_schedule(
      gate_config(pr), mutated_schedule("helix_naive", pr, 5));
  const int after = par::global_pool().threads();
  par::set_global_threads(before);
  EXPECT_EQ(after, size);
  EXPECT_TRUE(res.ok()) << (res.errors.empty() ? "" : res.errors.front());
}

TEST(Gate, CatchesAPartialGradientStepInIrAndWeights) {
  // Stage 0's OptimStep loses its dependencies and moves ahead of the
  // stage's last gradient producer, so it applies a partial gradient sum.
  const core::PipelineProblem pr = make_problem(2, 4, 4);
  core::Schedule sched = core::build_helix_schedule(
      pr, {.two_fold = false, .recompute_without_attention = false});
  std::vector<core::OpId>& row = sched.programs[0];
  const auto optim = std::find_if(row.begin(), row.end(), [&](core::OpId id) {
    return sched.ops[static_cast<std::size_t>(id)].kind ==
           core::OpKind::kOptimStep;
  });
  ASSERT_NE(optim, row.end());
  const core::OpId step = *optim;
  std::erase_if(sched.deps, [&](const core::Dep& d) { return d.op == step; });
  row.erase(optim);
  const auto last_grad =
      std::find_if(row.rbegin(), row.rend(), [&](core::OpId id) {
        return core::produces_grad(
            sched.ops[static_cast<std::size_t>(id)].kind);
      });
  ASSERT_NE(last_grad, row.rend());
  row.insert(std::prev(last_grad.base()), step);

  const check::FamilyReport res = check::check_schedule(gate_config(pr), sched);
  std::string all;
  for (const std::string& e : res.errors) all += e + "\n";
  const int ir = find_error(
      res, {"IR: missing ordering: ",
            "(optimizer could apply a partial gradient sum)"});
  const int weights =
      find_error(res, {"blocking vs reference: final weights diverge"});
  EXPECT_NE(ir, -1) << all;
  EXPECT_NE(weights, -1) << all;
  EXPECT_LT(ir, weights) << all;
}
