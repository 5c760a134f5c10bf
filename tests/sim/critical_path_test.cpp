// Critical-path analyzer (sim/critical_path.h): chain contiguity, full
// bubble attribution, and composition invariants across every schedule
// family the simulator runs.
#include <gtest/gtest.h>

#include "core/cost.h"
#include "core/filo.h"
#include "schedules/interleaved.h"
#include "schedules/layerwise.h"
#include "schedules/zb1p.h"
#include "sim/critical_path.h"
#include "sim/simulator.h"

namespace helix {
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
  return pr;
}

/// The chain must tile [0, makespan] exactly: starts at zero, each node
/// starts where its predecessor ended, ends at the makespan.
void expect_contiguous(const sim::CriticalPathReport& rep) {
  ASSERT_FALSE(rep.chain.empty());
  EXPECT_DOUBLE_EQ(rep.chain.front().start, 0.0);
  for (std::size_t i = 1; i < rep.chain.size(); ++i) {
    EXPECT_DOUBLE_EQ(rep.chain[i].start, rep.chain[i - 1].end)
        << "gap before chain node " << i;
  }
  EXPECT_DOUBLE_EQ(rep.chain.back().end, rep.makespan);
  // Contiguity implies the segment sums tile the makespan too.
  EXPECT_NEAR(rep.compute_s + rep.comm_s + rep.wait_s, rep.makespan,
              1e-9 * (rep.makespan + 1));
}

TEST(CriticalPath, Zb1pAttributesBubbleToNamedCauses) {
  const auto pr = problem(4, 8, 8);
  const core::UnitCostModel cost;
  const auto sched = schedules::build_zb1p(pr, cost);
  const auto res = sim::Simulator(cost).run(sched);
  const auto rep = sim::critical_path(sched, res);

  expect_contiguous(rep);
  // The acceptance bar: >= 95% of simulated bubble time carries a named
  // cause (dependency stall / comm / rank idle). The waterfall attributes
  // every gap interval by construction, so this should be ~100%.
  EXPECT_GT(rep.total_bubble(), 0.0);
  EXPECT_GE(rep.attributed_fraction(), 0.95);
  // A p=4, m=8 ZB1P chain crosses every stage at least once: it must be at
  // least one op deep per stage plus the return path.
  EXPECT_GE(rep.chain.size(), static_cast<std::size_t>(pr.p));
  EXPECT_EQ(static_cast<int>(rep.stages.size()), pr.p);
  for (const auto& s : rep.stages) {
    EXPECT_GE(s.dependency_s, 0.0);
    EXPECT_GE(s.comm_s, 0.0);
    EXPECT_GE(s.idle_s, 0.0);
    EXPECT_NEAR(s.attributed_s(), s.bubble_s, 1e-9 * (rep.makespan + 1))
        << "stage " << s.stage << " bubble not fully attributed";
  }
}

TEST(CriticalPath, ContiguousAcrossFamilies) {
  const core::UnitCostModel cost;
  const auto pr = problem(4, 8, 8);
  const std::vector<core::Schedule> schedules = {
      schedules::build_1f1b(pr),
      schedules::build_gpipe(pr),
      schedules::build_zb1p(pr, cost),
      schedules::build_interleaved_1f1b(pr, {.virtual_chunks = 2}),
      core::build_helix_schedule(
          pr, {.two_fold = false, .recompute_without_attention = false}),
      core::build_helix_schedule(
          pr, {.two_fold = true, .recompute_without_attention = false}),
  };
  for (const auto& sched : schedules) {
    SCOPED_TRACE(sched.name);
    const auto res = sim::Simulator(cost).run(sched);
    const auto rep = sim::critical_path(sched, res);
    expect_contiguous(rep);
    EXPECT_GE(rep.attributed_fraction(), 0.95);
    EXPECT_GT(rep.compute_s, 0.0);  // some compute always binds
  }
}

TEST(CriticalPath, CostedCommPutsTransfersOnTheChain) {
  // With expensive communication the warmup chain must include Send
  // occupancy or Recv waits — a pure-compute chain cannot tile the makespan.
  core::UnitCostModel::Units u;
  u.seconds_per_elem = 2.0;
  const core::UnitCostModel cost{u};
  const auto pr = problem(4, 8, 8);
  const auto sched = schedules::build_1f1b(pr);
  const auto res = sim::Simulator(cost).run(sched);
  const auto rep = sim::critical_path(sched, res);
  expect_contiguous(rep);
  EXPECT_GT(rep.comm_s + rep.wait_s, 0.0);
}

TEST(CriticalPath, SingleStageHasNoBubble) {
  const auto pr = problem(1, 2, 2);
  const core::UnitCostModel cost;
  const auto sched = schedules::build_1f1b(pr);
  const auto res = sim::Simulator(cost).run(sched);
  const auto rep = sim::critical_path(sched, res);
  expect_contiguous(rep);
  // One stage back-to-back: chain is all compute, bubble ~0, fraction
  // defined as 1.0.
  EXPECT_DOUBLE_EQ(rep.attributed_fraction(), 1.0);
  EXPECT_NEAR(rep.compute_s, rep.makespan, 1e-12);
}

TEST(CriticalPath, MismatchedResultThrows) {
  const core::UnitCostModel cost;
  const auto a = schedules::build_1f1b(problem(2, 4, 4));
  const auto b = schedules::build_1f1b(problem(4, 8, 8));
  const auto res = sim::Simulator(cost).run(a);
  EXPECT_THROW((void)sim::critical_path(b, res), std::invalid_argument);
}

TEST(CriticalPath, RenderMentionsEveryStage) {
  const core::UnitCostModel cost;
  const auto pr = problem(4, 8, 8);
  const auto sched = schedules::build_zb1p(pr, cost);
  const auto res = sim::Simulator(cost).run(sched);
  const auto rep = sim::critical_path(sched, res);
  const std::string summary = sim::render_critical_path(rep);
  for (int s = 0; s < pr.p; ++s) {
    std::string stage = "P";  // appended: GCC 12's false -Wrestrict on "P" + ...
    stage += std::to_string(s);
    EXPECT_NE(summary.find(stage), std::string::npos);
  }
  // The chain overload appends op rows.
  const std::string with_chain = sim::render_critical_path(rep, sched, 8);
  EXPECT_NE(with_chain.find("chain (time order):"), std::string::npos);
  EXPECT_GT(with_chain.size(), summary.size());
}

}  // namespace
}  // namespace helix
