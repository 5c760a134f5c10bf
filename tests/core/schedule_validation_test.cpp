// Property-style validation of every schedule generator: structural
// integrity (matched sends/recvs, acyclic dependency graph, balanced memory)
// and the semantics-preservation invariant of Section 4.1 (per-micro-batch
// program order enforced by the dependency graph).
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "core/cost.h"
#include "core/filo.h"
#include "core/validator.h"
#include "schedules/adapipe.h"
#include "schedules/layerwise.h"
#include "schedules/zb1p.h"

namespace helix {
namespace {

core::PipelineProblem small_problem(int p, int m, int L) {
  core::PipelineProblem pr;
  pr.p = p;
  pr.m = m;
  pr.L = L;
  pr.comm.boundary = 100;
  pr.comm.pre_to_attn = 230;
  pr.comm.attn_to_post = 200;
  pr.act.pre = 2;
  pr.act.attn = 3;
  pr.act.post = 11;
  pr.act.attn_recompute = 2;
  pr.act.post_recompute = 2;
  pr.act.full_layer_recompute_stash = 1;
  pr.act.w_stash_pre = 1;
  pr.act.w_stash_post = 2;
  pr.logits_transient_bytes = 50;
  pr.head_stash_bytes = 4;
  return pr;
}

struct Case {
  std::string name;
  int p, m, L;
};

// Without a printer gtest dumps Case's raw bytes, including the heap pointer
// inside `name`, into the test names ctest discovers; print the shape so
// those names are the same on every build.
void PrintTo(const Case& c, std::ostream* os) {
  *os << "p=" << c.p << ",m=" << c.m << ",L=" << c.L;
}

class AllGenerators : public ::testing::TestWithParam<Case> {};

std::vector<core::Schedule> build_all(const core::PipelineProblem& pr) {
  const core::UnitCostModel cost;
  std::vector<core::Schedule> out;
  out.push_back(schedules::build_1f1b(pr));
  out.push_back(schedules::build_gpipe(pr));
  out.push_back(schedules::build_zb1p(pr, cost));
  out.push_back(schedules::build_adapipe(pr, cost));
  if (pr.m % pr.p == 0) {
    out.push_back(core::build_helix_schedule(pr, {.two_fold = false, .recompute_without_attention = false}));
    out.push_back(core::build_helix_schedule(pr, {.two_fold = false, .recompute_without_attention = true}));
  }
  if (pr.m % (2 * pr.p) == 0) {
    out.push_back(core::build_helix_schedule(pr, {.two_fold = true, .recompute_without_attention = false}));
    out.push_back(core::build_helix_schedule(pr, {.two_fold = true, .recompute_without_attention = true}));
  }
  return out;
}

TEST_P(AllGenerators, StructureAndSemantics) {
  const Case c = GetParam();
  const auto pr = small_problem(c.p, c.m, c.L);
  for (const auto& sched : build_all(pr)) {
    SCOPED_TRACE(sched.name);
    const auto structural = core::validate_structure(sched);
    for (const auto& e : structural.errors) ADD_FAILURE() << e;
    const auto semantic = core::validate_semantics(sched);
    for (const auto& e : semantic.errors) ADD_FAILURE() << e;
    const auto coverage = core::validate_coverage(sched);
    for (const auto& e : coverage.errors) ADD_FAILURE() << e;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AllGenerators,
    ::testing::Values(Case{"p2", 2, 4, 4}, Case{"p2_m8", 2, 8, 4},
                      Case{"p4", 4, 8, 8}, Case{"p4_m16", 4, 16, 8},
                      Case{"p1", 1, 2, 2}, Case{"p3", 3, 6, 6},
                      Case{"p4_L4", 4, 8, 4}),
    [](const auto& info) { return info.param.name; });

TEST(HelixSchedule, RejectsBadShapes) {
  auto pr = small_problem(4, 6, 8);  // m not divisible by p
  EXPECT_THROW(core::build_helix_schedule(pr, {.two_fold = false, .recompute_without_attention = false}),
               std::invalid_argument);
  pr = small_problem(4, 4, 8);  // two-fold needs m % 2p == 0
  EXPECT_THROW(core::build_helix_schedule(pr, {.two_fold = true, .recompute_without_attention = false}),
               std::invalid_argument);
  pr = small_problem(4, 8, 6);  // L not divisible by p
  EXPECT_THROW(core::build_helix_schedule(pr, {.two_fold = false, .recompute_without_attention = false}),
               std::invalid_argument);
}

// The builder edits its most recent op in place; before any op there is
// none to edit, and an add_dep must name an op already added.
TEST(ScheduleBuilderStore, RefusesEditsOfOpsNotYetAdded) {
  core::ScheduleBuilder b("edits", 2, 1, 1);
  EXPECT_THROW(b.with_memory(1, 1), std::out_of_range);
  EXPECT_THROW(b.decoupled(), std::out_of_range);
  const core::OpId a = b.add(core::OpKind::kFwdPre, 0, 0, 0);
  EXPECT_THROW(b.add_dep(a + 1, a), std::out_of_range);
  const core::OpId c = b.add(core::OpKind::kFwdAttn, 1, 0, 0, {a});
  b.add_dep(c, a);
  const core::Schedule s = std::move(b).finish();
  ASSERT_EQ(s.deps.size(), 2u);
  EXPECT_EQ(s.deps[1].op, c);
  EXPECT_EQ(s.deps[1].dep, a);
  EXPECT_EQ(s.programs, (std::vector<std::vector<core::OpId>>{{a}, {c}}));
}

}  // namespace
}  // namespace helix
