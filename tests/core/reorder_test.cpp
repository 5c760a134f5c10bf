// List-scheduling order refinement: preserves structure and semantics,
// improves (or at worst bounds) multi-loop FILO makespans, and is a no-op
// in effect for already-optimal single-loop schedules.
#include <gtest/gtest.h>

#include "core/cost.h"
#include "core/filo.h"
#include "core/partition.h"
#include "core/reorder.h"
#include "core/validator.h"
#include "sim/simulator.h"

namespace helix::core {
namespace {

PipelineProblem problem(int p, int m, int L) {
  PipelineProblem pr;
  pr.p = p;
  pr.m = m;
  pr.L = L;
  pr.comm.boundary = 1;
  pr.comm.pre_to_attn = 1;
  pr.comm.attn_to_post = 1;
  pr.include_lm_head = false;
  return pr;
}

const UnitCostModel kUnit{};

class Reorder : public ::testing::TestWithParam<std::tuple<int, int, int, bool>> {};

TEST_P(Reorder, PreservesStructureAndSemantics) {
  const auto [p, m, L, two_fold] = GetParam();
  if (m % filo_loop_size(p, two_fold) != 0) GTEST_SKIP();
  const auto pr = problem(p, m, L);
  const auto orig = build_helix_schedule(
      pr, {.two_fold = two_fold, .recompute_without_attention = false});
  const auto re = reorder_stage_programs(orig, kUnit);

  EXPECT_EQ(re.total_ops(), orig.total_ops());
  EXPECT_EQ(re.num_stages, orig.num_stages);
  const auto v = validate_semantics(re);
  for (const auto& e : v.errors) ADD_FAILURE() << e;

  // Per-stage op multisets unchanged (only order differs).
  for (int s = 0; s < orig.num_stages; ++s) {
    std::vector<OpId> a = orig.programs[static_cast<std::size_t>(s)];
    std::vector<OpId> b = re.programs[static_cast<std::size_t>(s)];
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "stage " << s;
  }
}

TEST_P(Reorder, ImprovesMultiLoopMakespan) {
  const auto [p, m, L, two_fold] = GetParam();
  const int q = filo_loop_size(p, two_fold);
  if (m % q != 0 || m / q < 2) GTEST_SKIP();  // multi-loop only
  const auto pr = problem(p, m, L);
  const auto orig = build_helix_schedule(
      pr, {.two_fold = two_fold, .recompute_without_attention = false});
  const auto re = reorder_stage_programs(orig, kUnit);
  const sim::Simulator sim(kUnit);
  EXPECT_LE(sim.run(re).makespan, sim.run(orig).makespan + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Reorder,
    ::testing::Combine(::testing::Values(2, 4), ::testing::Values(8, 16),
                       ::testing::Values(8), ::testing::Bool()));

TEST(ReorderTuned, PicksGeneratorOrderForSingleLoop) {
  // build_helix_schedule_tuned must not degrade the Table-2-exact single
  // loop order by reordering it.
  const auto pr = problem(4, 8, 8);
  const auto plain = build_helix_schedule(
      pr, {.two_fold = true, .recompute_without_attention = false});
  const auto tuned = build_helix_schedule_tuned(
      pr, {.two_fold = true, .recompute_without_attention = false}, kUnit);
  const sim::Simulator sim(kUnit);
  EXPECT_EQ(sim.run(tuned).makespan, sim.run(plain).makespan);
}

}  // namespace
}  // namespace helix::core
