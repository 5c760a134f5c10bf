// List-scheduling order refinement: preserves structure and semantics,
// improves (or at worst bounds) multi-loop FILO makespans, is a no-op in
// effect for already-optimal single-loop schedules, and picks exactly the
// rows pinned below.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <stdexcept>

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

using Shape = std::tuple<int, int, int, bool>;  ///< (p, m, L, two_fold)

/// Reordering the FILO schedule of `shape` keeps its ops, stages and
/// semantics.
void expect_preserves(const Shape& shape) {
  const auto [p, m, L, two_fold] = shape;
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

/// FILO shapes whose m spans at least two loops.
class Reorder : public ::testing::TestWithParam<Shape> {};

TEST_P(Reorder, PreservesStructureAndSemantics) { expect_preserves(GetParam()); }

TEST_P(Reorder, ImprovesMultiLoopMakespan) {
  const auto [p, m, L, two_fold] = GetParam();
  const auto pr = problem(p, m, L);
  const auto orig = build_helix_schedule(
      pr, {.two_fold = two_fold, .recompute_without_attention = false});
  const auto re = reorder_stage_programs(orig, kUnit);
  const sim::Simulator sim(kUnit);
  EXPECT_LE(sim.run(re).makespan, sim.run(orig).makespan + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Shapes, Reorder,
                         ::testing::Values(Shape{2, 8, 8, false}, Shape{2, 8, 8, true},
                                           Shape{2, 16, 8, false}, Shape{2, 16, 8, true},
                                           Shape{4, 8, 8, false}, Shape{4, 16, 8, false},
                                           Shape{4, 16, 8, true}));

// m = 8 two-fold at p = 4 is one loop, which reordering may leave as it is.
TEST(ReorderSingleLoop, PreservesStructureAndSemantics) {
  expect_preserves(Shape{4, 8, 8, true});
}

// The rows reorder_stage_programs picks for multi-loop FILO schedules, as
// built and as the tuner's relist mutation feeds them (semantic order edges
// appended as deps), priced as the tuner's perfbench campaign prices them.
// The expected hash was captured from the list scheduler that rescanned each
// successor's dependency list, so a changed pick fails here.
TEST(ReorderPin, RowsMatchPinnedHash) {
  UnitCostModel::Units u;
  u.pre = 1.0;
  u.attn = 3.0;
  u.post = 2.0;
  u.seconds_per_elem = 0.1;
  const UnitCostModel cost{u};
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  int cases = 0;
  for (const bool two_fold : {false, true}) {
    for (const bool rc : {false, true}) {
      for (const int p : {2, 3, 4}) {
        const int q = filo_loop_size(p, two_fold);
        for (const int m : {2 * q, 3 * q}) {
          for (const int L : {p, 2 * p}) {
            PipelineProblem pr = problem(p, m, L);
            pr.comm.boundary = 10;
            pr.comm.pre_to_attn = 10;
            pr.comm.attn_to_post = 10;
            pr.include_lm_head = true;
            pr.act.pre = 2;
            pr.act.attn = 3;
            pr.act.post = 11;
            pr.act.attn_recompute = 2;
            pr.act.post_recompute = 2;
            const Schedule built = build_helix_schedule(
                pr, {.two_fold = two_fold, .recompute_without_attention = rc});
            const Schedule relist_input = [&built] {
              Schedule s = built;
              for (const auto& [a, b] : semantic_order_edges(built)) s.deps.push_back({b, a});
              return s;
            }();
            for (const Schedule* in : {&built, &relist_input}) {
              const Schedule re = reorder_stage_programs(*in, cost);
              mix(re.programs.size());
              for (const auto& row : re.programs) {
                mix(row.size());
                for (const OpId id : row) mix(static_cast<std::uint32_t>(id));
              }
              ++cases;
            }
          }
        }
      }
    }
  }
  std::printf("reorder pin: %d cases, rows 0x%016llx\n", cases,
              static_cast<unsigned long long>(h));
  EXPECT_EQ(cases, 96);
  EXPECT_EQ(h, 0x02c18bef2a66371full);
}

TEST(ReorderMalformed, RefusesADependencyOnAnUnknownOp) {
  Schedule s = build_helix_schedule(
      problem(2, 4, 4), {.two_fold = false, .recompute_without_attention = false});
  s.deps.push_back({0, static_cast<OpId>(s.ops.size())});
  EXPECT_THROW(reorder_stage_programs(std::move(s), kUnit), std::logic_error);
}

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
