// Interleaved 1F1B: validity, the v-fold bubble reduction with enough micro
// batches, its degradation with few micro batches, and the v-fold increase
// in communication volume — the paper's Section 6.2 argument.
#include <gtest/gtest.h>

#include "core/cost.h"
#include "core/validator.h"
#include "schedules/interleaved.h"
#include "core/filo.h"
#include "schedules/layerwise.h"
#include "sim/simulator.h"

namespace helix::schedules {
namespace {

core::PipelineProblem problem(int p, int m, int L) {
  core::PipelineProblem pr;
  pr.p = p;
  pr.m = m;
  pr.L = L;
  pr.comm.boundary = 1;
  pr.comm.pre_to_attn = 1;
  pr.comm.attn_to_post = 1;
  pr.include_lm_head = false;
  pr.act.pre = 2;
  pr.act.attn = 3;
  pr.act.post = 11;
  return pr;
}

const core::UnitCostModel kUnit{};

class Interleaved : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(Interleaved, StructureAndSemantics) {
  const auto [p, v, mmul] = GetParam();
  const auto pr = problem(p, mmul * p, 2 * p * v);
  const auto sched = build_interleaved_1f1b(pr, {.virtual_chunks = v});
  const auto structural = core::validate_structure(sched);
  for (const auto& e : structural.errors) ADD_FAILURE() << e;
  const auto semantic = core::validate_semantics(sched);
  for (const auto& e : semantic.errors) ADD_FAILURE() << e;
}

TEST_P(Interleaved, DegeneratesToClassicAtV1) {
  const auto [p, v, mmul] = GetParam();
  if (v != 1) GTEST_SKIP();
  const auto pr = problem(p, mmul * p, 2 * p);
  const auto inter = sim::Simulator(kUnit).run(build_interleaved_1f1b(pr, {.virtual_chunks = 1}));
  const auto classic = sim::Simulator(kUnit).run(build_1f1b(pr));
  EXPECT_DOUBLE_EQ(inter.makespan, classic.makespan);
}

TEST_P(Interleaved, BubbleShrinksByV) {
  const auto [p, v, mmul] = GetParam();
  if (mmul < 4) GTEST_SKIP();  // the theoretical bubble needs many micro batches
  const int L = 2 * p * v;
  const auto pr = problem(p, mmul * p, L);
  const auto res = sim::Simulator(kUnit).run(
      build_interleaved_1f1b(pr, {.virtual_chunks = v}));
  const double work = pr.m * (L / p) * 18.0;
  const double classic_bubble = 3.0 * (p - 1) * 6.0 * L / p;
  EXPECT_NEAR(res.makespan, work + classic_bubble / v, classic_bubble * 0.15 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Shapes, Interleaved,
                         ::testing::Combine(::testing::Values(2, 4),
                                            ::testing::Values(1, 2),
                                            ::testing::Values(1, 2, 4)));

TEST(Interleaved, HelixBeatsInterleavedWhenAttentionDominates) {
  // Section 6.2's core argument: interleaving only divides the layer-
  // proportional bubble by v, while HelixPipe removes the (dominant)
  // attention from it entirely. At the evaluation setting m = 2p with the
  // 1:3:2 part ratio, HelixPipe's bubble is already smaller than
  // interleaved-v2's — and the gap widens as attention grows.
  const int p = 4, L = 16;
  const auto pr = problem(p, 2 * p, L);
  const double work = pr.m * (L / p) * 18.0;
  const auto inter = sim::Simulator(kUnit).run(
      build_interleaved_1f1b(pr, {.virtual_chunks = 2}));
  const auto helix = sim::Simulator(kUnit).run(core::build_helix_schedule(
      pr, {.two_fold = true, .recompute_without_attention = false}));
  const double inter_bubble = inter.makespan - work;
  const double helix_bubble = helix.makespan - work;
  // Interleaved: 3(p-1)*6*L/p / v = 108; Helix two-fold: 6(p-1)*3 = 54.
  EXPECT_NEAR(inter_bubble, 108.0, 16.0);
  EXPECT_NEAR(helix_bubble, 54.0, 1e-9);
  EXPECT_LT(helix_bubble, inter_bubble);
}

TEST(Interleaved, VTimesTheCommunication) {
  const int p = 4, L = 16, m = 8;
  const auto pr = problem(p, m, L);
  const auto count_sends = [](const core::Schedule& s) {
    std::size_t n = 0;
    for (const core::Op& op : s.ops) n += op.kind == core::OpKind::kSend;
    return n;
  };
  const auto v1 = count_sends(build_interleaved_1f1b(pr, {.virtual_chunks = 1}));
  const auto v2 = count_sends(build_interleaved_1f1b(pr, {.virtual_chunks = 2}));
  // (p*v - 1) boundaries per direction per micro batch.
  EXPECT_EQ(v1, static_cast<std::size_t>(2 * m * (p - 1)));
  EXPECT_EQ(v2, static_cast<std::size_t>(2 * m * (2 * p - 1)));
}

TEST(Interleaved, RejectsBadShapes) {
  EXPECT_THROW(build_interleaved_1f1b(problem(4, 8, 12), {.virtual_chunks = 2}),
               std::invalid_argument);  // L % (p*v) != 0
  EXPECT_THROW(build_interleaved_1f1b(problem(4, 6, 16), {.virtual_chunks = 2}),
               std::invalid_argument);  // m % p != 0
  EXPECT_THROW(build_interleaved_1f1b(problem(4, 8, 16), {.virtual_chunks = 0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace helix::schedules
