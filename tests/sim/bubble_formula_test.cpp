// Table 2 verification: simulated pipeline bubble of each generated schedule
// matches the paper's closed forms under unit part costs and free
// communication. This is the strongest evidence the generators implement
// the schedules the paper describes.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/cost.h"
#include "core/filo.h"
#include "core/reorder.h"
#include "model/analysis.h"
#include "schedules/layerwise.h"
#include "schedules/zb1p.h"
#include "sim/simulator.h"

namespace helix {
namespace {

core::PipelineProblem formula_problem(int p, int m, int L) {
  core::PipelineProblem pr;
  pr.p = p;
  pr.m = m;
  pr.L = L;
  pr.comm.boundary = 1;
  pr.comm.pre_to_attn = 1;
  pr.comm.attn_to_post = 1;
  pr.include_lm_head = false;  // closed forms ignore the pipeline ends
  return pr;
}

const model::PartTimes kParts{.pre = 1.0, .attn = 3.0, .post = 2.0};
const core::UnitCostModel kUnit{};  // 1:3:2, zero-cost transfers, no embed/head

/// Upper bound on the list-scheduled multi-loop FILO bubble: the loops may
/// serialize end-to-end (one closed-form ladder each), and the scheduler's
/// loop-boundary interleaving can additionally hold the tail behind at most
/// one backward drain ladder — (p-1) stages' per-micro-batch backward time.
/// Tighter than the former 2.5x-per-loop fudge on every multi-loop shape of
/// the grid (margins 3%-2x instead of 1.5x-8x).
double multi_loop_bubble_bound(double expected, int loops, int p, int L,
                               bool recompute) {
  const double b_layer = 2.0 * (kParts.pre + kParts.attn + kParts.post) +
                         (recompute ? kParts.pre + kParts.post : 0.0);
  return loops * expected + (p - 1) * (L / p) * b_layer;
}

/// Per-micro-batch per-layer work of one stage (everything balances, so any
/// stage's compute equals m/p of the total).
double stage_work(const core::Schedule& s, const sim::SimResult& r, int stage) {
  (void)s;
  return r.stages[static_cast<std::size_t>(stage)].compute_busy;
}

struct ShapeCase {
  int p, m, L;
};
class BubbleFormulas : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(BubbleFormulas, OneF1B) {
  const auto [p, m, L] = GetParam();
  const auto pr = formula_problem(p, m, L);
  const auto sched = schedules::build_1f1b(pr);
  const auto res = sim::Simulator(kUnit).run(sched);
  // Work per stage: m micro batches x L/p layers x (fwd 6 + bwd 12) units.
  const double work = m * (L / p) * 18.0;
  const double expected_bubble = model::onef1b_bubble(kParts, p, L);
  EXPECT_NEAR(res.makespan, work + expected_bubble, 1e-9);
  for (int i = 0; i < p; ++i) {
    EXPECT_NEAR(stage_work(sched, res, i), work, 1e-9) << "stage " << i;
    EXPECT_NEAR(res.stages[static_cast<std::size_t>(i)].bubble, expected_bubble, 1e-9)
        << "stage " << i;
  }
}

TEST_P(BubbleFormulas, Zb1pMatchesClosedFormWithinHeuristicSlack) {
  const auto [p, m, L] = GetParam();
  const auto pr = formula_problem(p, m, L);
  const auto sched = schedules::build_zb1p(pr, kUnit);
  const auto res = sim::Simulator(kUnit).run(sched);
  const double work = m * (L / p) * 18.0;
  const double expected = model::zb1p_bubble(kParts, p, L);
  // zb1p_bubble is the exact optimum at activation cap p (it equals
  // zb2p_bubble evaluated at that cap whenever m >= p), so no schedule
  // honoring the cap — the greedy filler included — can land below it.
  EXPECT_NEAR(expected, model::zb2p_bubble(kParts, p, m, L, std::min(p, m)),
              1e-9);
  EXPECT_GE(res.makespan, work + expected - 1e-9);
  // The greedy filler (like the zero-bubble paper's heuristic) may leave up
  // to one W-chunk per pipeline rank unfilled; observed tight at p=4.
  const double w_chunk = 3.0 * (L / p);
  EXPECT_LE(res.makespan, work + expected + (p - 1) * w_chunk + 1e-9);
  // ZB1P must strictly beat 1F1B whenever there is a bubble to fill.
  if (p > 1) {
    const auto onef1b = sim::Simulator(kUnit).run(schedules::build_1f1b(pr));
    EXPECT_LT(res.makespan, onef1b.makespan);
  }
}

TEST_P(BubbleFormulas, Zb2pMatchesClosedFormExactly) {
  const auto [p, m, L] = GetParam();
  const auto pr = formula_problem(p, m, L);
  const auto sched = schedules::build_zb2p(pr, kUnit);
  const auto res = sim::Simulator(kUnit).run(sched);
  const double work = m * (L / p) * 18.0;
  // Exact per-stage W placement (DP + coordinate descent) hits the closed
  // form with no heuristic slack — this is the acceptance bar that replaces
  // the ZB1P greedy gap documented in README's Table 2 discussion.
  EXPECT_NEAR(res.makespan, work + model::zb2p_bubble(kParts, p, m, L), 1e-9);
  // Doubling the activation cap can only help: ZB2P dominates greedy ZB1P.
  const auto zb1 = sim::Simulator(kUnit).run(schedules::build_zb1p(pr, kUnit));
  EXPECT_LE(res.makespan, zb1.makespan + 1e-9);
}

TEST_P(BubbleFormulas, HelixNaive) {
  const auto [p, m, L] = GetParam();
  if (m % p != 0) GTEST_SKIP();
  const auto pr = formula_problem(p, m, L);
  const auto sched = core::build_helix_schedule_tuned(
      pr, {.two_fold = false, .recompute_without_attention = false}, kUnit);
  const auto res = sim::Simulator(kUnit).run(sched);
  const double work = m * (L / p) * 18.0;
  const double expected = model::helix_naive_bubble(kParts, p);
  if (m == p) {
    // Single FILO loop (the paper's evaluated configuration): the simulated
    // bubble equals Table 2's closed form exactly.
    EXPECT_NEAR(res.makespan, work + expected, 1e-9) << sched.name;
  } else {
    // Multiple loops pipeline behind each other under the list-scheduled
    // order; heuristic, bounded by full loop serialization + one drain ladder.
    EXPECT_GE(res.makespan, work + expected - 2.0 * (kParts.pre + kParts.post) - 1e-9);
    EXPECT_LE(res.makespan,
              work + multi_loop_bubble_bound(expected, m / p, p, L, false) + 1e-9);
  }
}

TEST_P(BubbleFormulas, HelixNaiveRecompute) {
  const auto [p, m, L] = GetParam();
  if (m % p != 0) GTEST_SKIP();
  const auto pr = formula_problem(p, m, L);
  const auto sched = core::build_helix_schedule_tuned(
      pr, {.two_fold = false, .recompute_without_attention = true}, kUnit);
  const auto res = sim::Simulator(kUnit).run(sched);
  // Recompute adds one forward of pre+post per (mb, layer): work 18 -> 21.
  const double work = m * (L / p) * 21.0;
  const double expected = model::helix_naive_recompute_bubble(kParts, p);
  if (m == p) {
    // The closed form idealizes the pipeline ends: combo 0 recomputes no
    // post-attention and combo L no pre-attention, saving one part unit.
    EXPECT_LE(res.makespan, work + expected + 1e-9);
    EXPECT_GE(res.makespan, work + expected - (kParts.pre + kParts.post) - 1e-9);
  } else {
    EXPECT_GE(res.makespan, work + expected - 2.0 * (kParts.pre + kParts.post) - 1e-9);
    EXPECT_LE(res.makespan,
              work + multi_loop_bubble_bound(expected, m / p, p, L, true) + 1e-9);
  }
}

TEST_P(BubbleFormulas, HelixTwoFold) {
  const auto [p, m, L] = GetParam();
  if (m % (2 * p) != 0) GTEST_SKIP();
  const auto pr = formula_problem(p, m, L);
  const auto sched = core::build_helix_schedule_tuned(
      pr, {.two_fold = true, .recompute_without_attention = false}, kUnit);
  const auto res = sim::Simulator(kUnit).run(sched);
  const double work = m * (L / p) * 18.0;
  const double expected = model::helix_two_fold_bubble(kParts, p);
  if (m == 2 * p) {
    EXPECT_NEAR(res.makespan, work + expected, 1e-9) << sched.name;
  } else {
    EXPECT_GE(res.makespan, work + expected - 2.0 * (kParts.pre + kParts.post) - 1e-9);
    EXPECT_LE(res.makespan,
              work + multi_loop_bubble_bound(expected, m / (2 * p), p, L, false) + 1e-9);
  }
}

TEST_P(BubbleFormulas, HelixTwoFoldRecompute) {
  const auto [p, m, L] = GetParam();
  if (m % (2 * p) != 0) GTEST_SKIP();
  const auto pr = formula_problem(p, m, L);
  const auto sched = core::build_helix_schedule_tuned(
      pr, {.two_fold = true, .recompute_without_attention = true}, kUnit);
  const auto res = sim::Simulator(kUnit).run(sched);
  const double work = m * (L / p) * 21.0;
  const double expected = model::helix_two_fold_recompute_bubble(kParts, p);
  if (m == 2 * p) {
    EXPECT_LE(res.makespan, work + expected + 1e-9);
    EXPECT_GE(res.makespan, work + expected - (kParts.pre + kParts.post) - 1e-9);
  } else {
    EXPECT_GE(res.makespan, work + expected - 2.0 * (kParts.pre + kParts.post) - 1e-9);
    EXPECT_LE(res.makespan,
              work + multi_loop_bubble_bound(expected, m / (2 * p), p, L, true) + 1e-9);
  }
}

TEST_P(BubbleFormulas, GPipe) {
  const auto [p, m, L] = GetParam();
  const auto pr = formula_problem(p, m, L);
  const auto sched = schedules::build_gpipe(pr);
  const auto res = sim::Simulator(kUnit).run(sched);
  const double work = m * (L / p) * 18.0;
  EXPECT_NEAR(res.makespan, work + model::gpipe_bubble(kParts, p, L), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Shapes, BubbleFormulas,
                         ::testing::Values(ShapeCase{2, 2, 4}, ShapeCase{2, 4, 4},
                                           ShapeCase{4, 4, 8}, ShapeCase{4, 8, 8},
                                           ShapeCase{2, 8, 8}, ShapeCase{4, 16, 8},
                                           ShapeCase{4, 8, 16}, ShapeCase{8, 8, 16},
                                           ShapeCase{8, 16, 16}, ShapeCase{8, 32, 32}),
                         [](const auto& info) {
                           // Appended piece by piece: GCC 12 reports a false
                           // -Wrestrict on "literal" + std::to_string(...).
                           const auto& c = info.param;
                           std::string name = "p";
                           name += std::to_string(c.p);
                           name += "_m";
                           name += std::to_string(c.m);
                           name += "_L";
                           name += std::to_string(c.L);
                           return name;
                         });

}  // namespace
}  // namespace helix
