// Randomized property sweep over the full scheduling stack: for random
// (p, m, L, costs, comm volumes), every generator must produce a schedule
// that validates, simulates without deadlock, respects work conservation
// (makespan >= max per-stage busy time >= exact op-cost sum) and never
// leaks activation memory.
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

#include "core/cost.h"
#include "core/filo.h"
#include "core/reorder.h"
#include "core/validator.h"
#include "schedules/coexec.h"
#include "schedules/interleaved.h"
#include "schedules/layerwise.h"
#include "schedules/zb1p.h"
#include "sim/simulator.h"

namespace helix {
namespace {

struct Fuzzed {
  core::PipelineProblem pr;
  core::UnitCostModel cost;
};

Fuzzed random_problem(std::mt19937& rng) {
  std::uniform_int_distribution<int> pd(1, 6);
  const int p = pd(rng);
  const int m = 2 * p * std::uniform_int_distribution<int>(1, 3)(rng);
  const int L = p * std::uniform_int_distribution<int>(1, 4)(rng) * 2;
  Fuzzed f;
  f.pr.p = p;
  f.pr.m = m;
  f.pr.L = L;
  std::uniform_int_distribution<std::int64_t> vol(1, 1000);
  f.pr.comm.boundary = vol(rng);
  f.pr.comm.pre_to_attn = vol(rng);
  f.pr.comm.attn_to_post = vol(rng);
  f.pr.include_lm_head = rng() % 2 == 0;
  f.pr.act.pre = 2 * 64;
  f.pr.act.attn = 3 * 64;
  f.pr.act.post = 11 * 64;
  f.pr.act.attn_recompute = 2 * 64;
  f.pr.act.post_recompute = 2 * 64;
  f.pr.act.full_layer_recompute_stash = 64;
  f.pr.head_stash_bytes = 128;
  std::uniform_real_distribution<double> ud(0.1, 5.0);
  core::UnitCostModel::Units u;
  u.pre = ud(rng);
  u.attn = ud(rng);
  u.post = ud(rng);
  u.embed = ud(rng) * 0.1;
  u.lm_head = ud(rng);
  u.seconds_per_elem = std::uniform_real_distribution<double>(0.0, 0.01)(rng);
  u.transfer_latency = std::uniform_real_distribution<double>(0.0, 0.5)(rng);
  f.cost = core::UnitCostModel{u};
  return f;
}

void check(const core::Schedule& sched, const core::CostModel& cost,
           const std::string& what) {
  SCOPED_TRACE(what + " [" + sched.name + "]");
  const auto v = core::validate_structure(sched);
  for (const auto& e : v.errors) ADD_FAILURE() << e;
  const auto res = sim::Simulator(cost).run(sched);
  // Work conservation: per-stage busy equals the op-cost sum exactly.
  for (int s = 0; s < sched.num_stages; ++s) {
    double expected = 0;
    for (const core::OpId id : sched.programs[static_cast<std::size_t>(s)]) {
      const core::Op& op = sched.ops[static_cast<std::size_t>(id)];
      if (core::is_compute(op.kind)) expected += cost.compute_seconds(op);
    }
    EXPECT_NEAR(res.stages[static_cast<std::size_t>(s)].compute_busy, expected,
                1e-6 * std::max(1.0, expected));
    EXPECT_GE(res.makespan + 1e-9, res.stages[static_cast<std::size_t>(s)].compute_busy);
    EXPECT_EQ(res.stages[static_cast<std::size_t>(s)].final_memory, 0)
        << "activation leak on stage " << s;
    EXPECT_GE(res.stages[static_cast<std::size_t>(s)].peak_memory, 0);
  }
}

TEST(ScheduleFuzz, AllGeneratorsOnRandomShapes) {
  std::mt19937 rng(20260705);
  for (int trial = 0; trial < 40; ++trial) {
    const Fuzzed f = random_problem(rng);
    const std::string tag = "trial " + std::to_string(trial) + " p=" +
                            std::to_string(f.pr.p) + " m=" + std::to_string(f.pr.m) +
                            " L=" + std::to_string(f.pr.L);
    check(schedules::build_1f1b(f.pr), f.cost, tag);
    check(schedules::build_gpipe(f.pr), f.cost, tag);
    check(schedules::build_zb1p(f.pr, f.cost), f.cost, tag);
    check(schedules::build_zb2p(f.pr, f.cost), f.cost, tag);
    check(schedules::build_coexec(f.pr), f.cost, tag);
    check(core::build_helix_schedule(
              f.pr, {.two_fold = false, .recompute_without_attention = false}),
          f.cost, tag);
    check(core::build_helix_schedule_tuned(
              f.pr, {.two_fold = true, .recompute_without_attention = true}, f.cost),
          f.cost, tag);
    if (f.pr.L % (2 * f.pr.p) == 0) {
      check(schedules::build_interleaved_1f1b(f.pr, {.virtual_chunks = 2}),
            f.cost, tag);
    }
  }
}

// Regression: the zero-bubble planner's stall guard computed its step budget
// as `64 * 3 * p * m` in int, which wraps negative once p*m exceeds ~11.2M
// and made the guard trip instantly ("planner stalled") on shapes that are
// perfectly schedulable. Now computed in long long. validate_problem bounds
// m by core::kMaxShape (Op::mb is 16-bit), so the old p = 2, m = 5.65M shape
// is refused before the planner allocates, and reaching the old overflow now
// needs p >= 342, which keeps the O(p^2 m) greedy loop busy for over a
// minute. So this plans the largest m the IR admits at p = 2, and checks the
// refusal of the old shape.
TEST(ScheduleFuzz, Zb1pStallGuardSurvivesHugeShapes) {
  core::PipelineProblem pr;
  pr.p = 2;
  pr.m = core::kMaxShape;
  pr.L = 2;
  pr.comm.boundary = 1;
  pr.comm.pre_to_attn = 1;
  pr.comm.attn_to_post = 1;
  pr.include_lm_head = false;
  const core::UnitCostModel cost;
  // Planning only — emitting and simulating 200k ops is wasteful here; the
  // regression was that plan_zb1p threw before producing a plan at all.
  const auto plan = schedules::plan_zb1p(pr, cost, {});
  ASSERT_EQ(static_cast<int>(plan.steps.size()), pr.p);
  std::size_t total = 0;
  for (const auto& s : plan.steps) total += s.size();
  EXPECT_EQ(total, 3u * static_cast<unsigned>(pr.p) * static_cast<unsigned>(pr.m));

  pr.m = 5'650'000;
  EXPECT_THROW(schedules::plan_zb1p(pr, cost, {}), std::invalid_argument);
}

TEST(ScheduleFuzz, HelixAlwaysBeats1F1BWhenAttentionDominates) {
  // Property behind the whole paper: with attention >> pre+post and free
  // communication, HelixPipe's iteration is never slower than 1F1B's.
  std::mt19937 rng(7);
  for (int trial = 0; trial < 25; ++trial) {
    const int p = std::uniform_int_distribution<int>(2, 6)(rng);
    core::PipelineProblem pr;
    pr.p = p;
    pr.m = 2 * p;
    pr.L = 2 * p;
    pr.comm.boundary = 1;
    pr.comm.pre_to_attn = 1;
    pr.comm.attn_to_post = 1;
    pr.include_lm_head = false;
    core::UnitCostModel::Units u;
    u.pre = 1.0;
    u.post = 2.0;
    u.attn = std::uniform_real_distribution<double>(10.0, 100.0)(rng);
    const core::UnitCostModel cost{u};
    const auto helix = sim::Simulator(cost).run(core::build_helix_schedule(
        pr, {.two_fold = true, .recompute_without_attention = false}));
    const auto f1b = sim::Simulator(cost).run(schedules::build_1f1b(pr));
    EXPECT_LT(helix.makespan, f1b.makespan)
        << "p=" << p << " attn=" << u.attn;
  }
}

}  // namespace
}  // namespace helix
