// Planner-level properties: ZB1P macro-step plans, AdaPipe's adaptive
// partition / recomputation DP, macro-step cost pricing, and the layer-wise
// emitter's refusal of plans whose indices it cannot use.
#include <gtest/gtest.h>

#include <initializer_list>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/cost.h"
#include "schedules/adapipe.h"
#include "schedules/interleaved.h"
#include "schedules/step_cost.h"
#include "schedules/zb1p.h"

namespace helix::schedules {
namespace {

core::PipelineProblem problem(int p, int m, int L) {
  core::PipelineProblem pr;
  pr.p = p;
  pr.m = m;
  pr.L = L;
  pr.comm.boundary = 1;
  pr.act.pre = 2;
  pr.act.attn = 3;
  pr.act.post = 11;
  pr.act.full_layer_recompute_stash = 1;
  return pr;
}

const core::UnitCostModel kUnit{};

TEST(Zb1pPlan, StepCountsAndOrdering) {
  const auto pr = problem(4, 8, 8);
  const LayerwisePlan plan = plan_zb1p(pr, kUnit);
  ASSERT_EQ(plan.steps.size(), 4u);
  EXPECT_TRUE(plan.decouple_w);
  for (int i = 0; i < 4; ++i) {
    const auto& steps = plan.steps[static_cast<std::size_t>(i)];
    int f = 0, b = 0, w = 0;
    int next_f = 0, next_b = 0, next_w = 0;
    for (const MacroStep& st : steps) {
      switch (st.kind) {
        case StepKind::kForward:
          EXPECT_EQ(st.mb, next_f++) << "forwards in micro batch order";
          ++f;
          break;
        case StepKind::kBackward:
          EXPECT_EQ(st.mb, next_b++);
          EXPECT_LT(next_b, next_f + 1) << "backward after its own forward";
          ++b;
          break;
        case StepKind::kBackwardW:
          EXPECT_EQ(st.mb, next_w++);
          EXPECT_LE(next_w, next_b) << "W after its backward-B";
          ++w;
          break;
      }
    }
    EXPECT_EQ(f, pr.m);
    EXPECT_EQ(b, pr.m);
    EXPECT_EQ(w, pr.m);
  }
}

TEST(Zb1pPlan, RespectsMemoryCap) {
  const auto pr = problem(4, 12, 8);
  for (const int cap : {2, 4}) {
    const LayerwisePlan plan = plan_zb1p(pr, kUnit, {.max_outstanding = cap});
    for (const auto& steps : plan.steps) {
      int live = 0, peak = 0;
      for (const MacroStep& st : steps) {
        if (st.kind == StepKind::kForward) peak = std::max(peak, ++live);
        if (st.kind == StepKind::kBackwardW) --live;
      }
      EXPECT_LE(peak, cap);
    }
  }
}

TEST(AdaPipe, UnconstrainedChoosesNoRecompute) {
  const auto pr = problem(4, 8, 8);
  const auto res = plan_adapipe(pr, kUnit, {});
  EXPECT_TRUE(res.feasible);
  EXPECT_EQ(std::accumulate(res.plan.layers_per_stage.begin(),
                            res.plan.layers_per_stage.end(), 0),
            pr.L);
  for (const int r : res.plan.recompute_layers) EXPECT_EQ(r, 0);
}

TEST(AdaPipe, TightMemoryForcesRecomputeOnEarlyStages) {
  auto pr = problem(4, 8, 8);
  // 1F1B outstanding: stage 0 holds 4 micro batches. Full stash is 16/layer;
  // cap below 4 mb x 2 layers x 16 forces recomputation where outstanding is
  // high.
  AdaPipeOptions opt;
  opt.mem_cap_bytes.assign(4, 4 * 2 * 16 - 1);
  const auto res = plan_adapipe(pr, kUnit, opt);
  ASSERT_TRUE(res.feasible);
  EXPECT_GT(res.plan.recompute_layers[0], 0) << "stage 0 must recompute";
  EXPECT_EQ(res.plan.recompute_layers[3], 0)
      << "last stage (1 outstanding) has memory to spare";
}

TEST(AdaPipe, InfeasibleCapReportsAndFallsBack) {
  auto pr = problem(4, 8, 8);
  AdaPipeOptions opt;
  opt.mem_cap_bytes.assign(4, 1);  // nothing fits
  const auto res = plan_adapipe(pr, kUnit, opt);
  EXPECT_FALSE(res.feasible);
  EXPECT_EQ(std::accumulate(res.plan.layers_per_stage.begin(),
                            res.plan.layers_per_stage.end(), 0),
            pr.L);
}

TEST(AdaPipe, BalancesUnevenEndStages) {
  // A heavy LM head on the last stage should shift layers away from it.
  auto pr = problem(4, 8, 8);
  core::UnitCostModel::Units u;
  u.lm_head = 12.0;  // two layers' worth of forward work
  const core::UnitCostModel heavy_head{u};
  const auto res = plan_adapipe(pr, heavy_head, {});
  ASSERT_TRUE(res.feasible);
  EXPECT_LT(res.plan.layers_per_stage.back(), 3);
  EXPECT_EQ(std::accumulate(res.plan.layers_per_stage.begin(),
                            res.plan.layers_per_stage.end(), 0),
            pr.L);
}

/// emit_layerwise must refuse `plan` with an invalid_argument whose message
/// contains every one of `parts`.
void expect_refused(const core::PipelineProblem& pr, const LayerwisePlan& plan,
                    std::initializer_list<const char*> parts) {
  try {
    emit_layerwise(pr, plan);
    ADD_FAILURE() << "emit_layerwise accepted the plan";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    for (const char* part : parts) {
      EXPECT_NE(what.find(part), std::string::npos) << what;
    }
  }
}

TEST(EmitLayerwise, RejectsMicroBatchOutsideRange) {
  const auto pr = problem(2, 4, 4);
  LayerwisePlan plan = plan_1f1b(pr);
  plan.steps[1][3].mb = pr.m;
  expect_refused(pr, plan, {"'1F1B'", "stage 1, step 3", "micro batch 4"});
  plan.steps[1][3].mb = -1;
  expect_refused(pr, plan, {"'1F1B'", "stage 1, step 3", "micro batch -1"});
}

TEST(EmitLayerwise, RejectsChunkOutsideRange) {
  const auto pr = problem(2, 4, 8);
  LayerwisePlan plan = plan_interleaved(pr, {.virtual_chunks = 2});
  plan.steps[0][2].chunk = 2;
  expect_refused(pr, plan,
                 {"'interleaved-1f1b-v2'", "stage 0, step 2", "chunk 2"});
  plan.steps[0][2].chunk = -1;
  expect_refused(pr, plan,
                 {"'interleaved-1f1b-v2'", "stage 0, step 2", "chunk -1"});
}

TEST(EmitLayerwise, RejectsVirtualChunksBelowOne) {
  const auto pr = problem(2, 4, 4);
  LayerwisePlan plan = plan_1f1b(pr);
  plan.virtual_chunks = 0;
  expect_refused(pr, plan, {"'1F1B'", "virtual_chunks=0"});
}

TEST(EmitLayerwise, RejectsRecomputeLayersNotOnePerStage) {
  const auto pr = problem(2, 4, 4);
  LayerwisePlan plan = plan_1f1b(pr);
  plan.recompute_layers = {1};
  expect_refused(pr, plan, {"'1F1B'", "recompute_layers has 1 entries"});
}

TEST(EmitLayerwise, RejectsStageLayersNotDivisibleByChunks) {
  const auto pr = problem(2, 4, 6);
  LayerwisePlan plan = plan_1f1b(pr);  // 3 layers per stage
  plan.virtual_chunks = 2;
  expect_refused(pr, plan, {"'1F1B'", "stage 0 holds 3", "virtual_chunks=2"});
}

TEST(EmitLayerwise, RejectsADataFlowCycle) {
  const auto pr = problem(2, 2, 2);
  LayerwisePlan plan = plan_1f1b(pr);
  // Stage 0 runs B(0) before its own F(0), and stage 1 waits for that F(0).
  plan.steps[0] = {{StepKind::kBackward, 0},
                   {StepKind::kForward, 0},
                   {StepKind::kForward, 1},
                   {StepKind::kBackward, 1}};
  try {
    emit_layerwise(pr, plan);
    ADD_FAILURE() << "emit_layerwise accepted a deadlocked plan";
  } catch (const std::invalid_argument& e) {
    ADD_FAILURE() << "a cycle is not a bad argument: " << e.what();
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("stage 0, step 0"), std::string::npos)
        << e.what();
  }
}

TEST(StepCost, PricesMacroSteps) {
  const auto pr = problem(2, 2, 4);
  const StepCostQuery q{.stage = 0, .num_layers = 2, .recompute_layers = 0,
                        .decouple_w = false, .first_stage = true,
                        .last_stage = false};
  // Forward: 2 layers x (1 + 3 + 2) = 12 units.
  EXPECT_DOUBLE_EQ(macro_step_seconds(pr, kUnit, StepKind::kForward, q), 12.0);
  // Combined backward: 2 x (2 + 6 + 4) = 24.
  EXPECT_DOUBLE_EQ(macro_step_seconds(pr, kUnit, StepKind::kBackward, q), 24.0);
  StepCostQuery dq = q;
  dq.decouple_w = true;
  // Decoupled: B = 2 x (1 + 6 + 2) = 18, W = 2 x (1 + 2) = 6.
  EXPECT_DOUBLE_EQ(macro_step_seconds(pr, kUnit, StepKind::kBackward, dq), 18.0);
  EXPECT_DOUBLE_EQ(macro_step_seconds(pr, kUnit, StepKind::kBackwardW, dq), 6.0);
  StepCostQuery rq = q;
  rq.recompute_layers = 1;
  // Full-layer recompute adds one forward of that layer (6 units).
  EXPECT_DOUBLE_EQ(macro_step_seconds(pr, kUnit, StepKind::kBackward, rq), 30.0);
}

}  // namespace
}  // namespace helix::schedules
