// Sweep determinism contract: batched parallel evaluation must be
// bit-identical to serial, to a warm-cache rerun, and to the legacy
// per-Schedule simulator path — for every registered family. "Bit-identical"
// is literal: doubles compare with ==, i.e. 0 ulp of drift.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/compiled.h"
#include "core/cost.h"
#include "par/thread_pool.h"
#include "schedules/registry.h"
#include "sim/critical_path.h"
#include "sim/simulator.h"
#include "sim/sweep.h"

using namespace helix;

namespace {

core::PipelineProblem grid_problem(int p) {
  core::PipelineProblem pr;
  pr.p = p;
  pr.m = 2 * p;
  pr.L = 4 * p;
  pr.comm.boundary = 1;
  pr.comm.pre_to_attn = 1;
  pr.comm.attn_to_post = 1;
  pr.include_lm_head = false;
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

/// The full grid: every registered family at p in {2, 4}.
std::vector<sim::SweepItem> full_grid(const core::CostModel& cost) {
  std::vector<sim::SweepItem> items;
  for (const int p : {2, 4}) {
    const core::PipelineProblem pr = grid_problem(p);
    for (const schedules::FamilySpec& fam : schedules::family_registry()) {
      items.push_back({fam.key, pr, &cost, {}});
    }
  }
  return items;
}

/// `base` with one price changed: compute slot `slot` (2 * kind +
/// combines_w) or, past the compute slots, one transfer term (latency,
/// per_elem, rate).
class OnePriceChanged final : public core::CostModel {
 public:
  static constexpr std::size_t kSlots = 2 * kNumKinds + 3;

  OnePriceChanged(const core::CostModel& base, std::size_t slot) {
    const Prices& p = base.prices();
    const auto bump = [slot](std::size_t at, double v) { return at == slot ? v + 0.5 : v; };
    fill(
        [&](core::OpKind kind, bool combines_w) {
          const auto k = static_cast<std::size_t>(kind);
          return bump(2 * k + (combines_w ? 1 : 0), p.compute[k][combines_w ? 1 : 0]);
        },
        bump(2 * kNumKinds, p.latency), bump(2 * kNumKinds + 1, p.per_elem),
        bump(2 * kNumKinds + 2, p.rate));
  }
};

void expect_bit_identical(const std::vector<sim::SweepOutcome>& a,
                          const std::vector<sim::SweepOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].ok, b[i].ok);
    EXPECT_EQ(a[i].error, b[i].error);
    EXPECT_EQ(a[i].makespan, b[i].makespan);
    EXPECT_EQ(a[i].total_bubble, b[i].total_bubble);
    EXPECT_EQ(a[i].total_recv_wait, b[i].total_recv_wait);
    EXPECT_EQ(a[i].max_peak_memory, b[i].max_peak_memory);
    EXPECT_EQ(a[i].stage_peak_memory, b[i].stage_peak_memory);
  }
}

}  // namespace

TEST(Sweep, SerialAndParallelAreBitIdentical) {
  const core::UnitCostModel cost = unit_cost();
  const std::vector<sim::SweepItem> items = full_grid(cost);

  par::set_global_threads(1);
  sim::Sweep serial;
  const auto serial_results = serial.run(items);

  par::set_global_threads(4);
  sim::Sweep parallel;
  const auto parallel_results = parallel.run(items);
  par::set_global_threads(1);  // don't leak workers into later tests

  expect_bit_identical(serial_results, parallel_results);
  // Every item was evaluated (no spurious failures besides inapplicable
  // configs, which must fail identically on both sides).
  EXPECT_EQ(serial.stats().items, static_cast<std::int64_t>(items.size()));
  EXPECT_EQ(serial.stats().failed, parallel.stats().failed);
}

TEST(Sweep, WarmCacheRerunIsBitIdenticalAndSkipsEvaluation) {
  const core::UnitCostModel cost = unit_cost();
  const std::vector<sim::SweepItem> items = full_grid(cost);
  sim::Sweep sweep;
  const auto cold = sweep.run(items);
  const std::int64_t evaluated_cold = sweep.stats().evaluated;
  const auto warm = sweep.run(items);
  expect_bit_identical(cold, warm);
  EXPECT_EQ(sweep.stats().evaluated, evaluated_cold);  // all hits second time
  EXPECT_EQ(sweep.stats().cache_hits, static_cast<std::int64_t>(items.size()));

  // A cleared cache re-evaluates every item and produces the same bits.
  sweep.clear_cache();
  expect_bit_identical(cold, sweep.run(items));
  EXPECT_EQ(sweep.stats().evaluated, 2 * evaluated_cold);
}

TEST(Sweep, CompiledPathMatchesLegacySimulatorToZeroUlp) {
  const core::UnitCostModel cost = unit_cost();
  const core::PipelineProblem pr = grid_problem(4);
  for (const schedules::FamilySpec& fam : schedules::family_registry()) {
    SCOPED_TRACE(fam.key);
    if (!fam.applicable(pr)) continue;
    const core::Schedule sched = fam.build(pr, cost);
    const core::CompiledSchedule cs = core::CompiledSchedule::build(sched);
    const sim::Simulator simulator(cost);

    const sim::SimResult legacy = simulator.run(sched);
    sim::SimWorkspace ws;
    const sim::SimResult& compiled = simulator.run(cs, ws);

    EXPECT_EQ(legacy.makespan, compiled.makespan);
    ASSERT_EQ(legacy.stages.size(), compiled.stages.size());
    for (std::size_t s = 0; s < legacy.stages.size(); ++s) {
      SCOPED_TRACE(s);
      EXPECT_EQ(legacy.stages[s].compute_busy, compiled.stages[s].compute_busy);
      EXPECT_EQ(legacy.stages[s].comm_busy, compiled.stages[s].comm_busy);
      EXPECT_EQ(legacy.stages[s].recv_wait, compiled.stages[s].recv_wait);
      EXPECT_EQ(legacy.stages[s].bubble, compiled.stages[s].bubble);
      EXPECT_EQ(legacy.stages[s].peak_memory, compiled.stages[s].peak_memory);
      EXPECT_EQ(legacy.stages[s].final_memory, compiled.stages[s].final_memory);
    }
    ASSERT_EQ(legacy.op_times.size(), compiled.op_times.size());
    for (std::size_t i = 0; i < legacy.op_times.size(); ++i) {
      EXPECT_EQ(legacy.op_times[i].start, compiled.op_times[i].start);
      EXPECT_EQ(legacy.op_times[i].end, compiled.op_times[i].end);
    }

    // Critical-path decomposition: both overloads, bit for bit.
    const auto legacy_cp = sim::critical_path(sched, legacy);
    const auto compiled_cp = sim::critical_path(cs, compiled);
    EXPECT_EQ(legacy_cp.makespan, compiled_cp.makespan);
    EXPECT_EQ(legacy_cp.compute_s, compiled_cp.compute_s);
    EXPECT_EQ(legacy_cp.comm_s, compiled_cp.comm_s);
    EXPECT_EQ(legacy_cp.wait_s, compiled_cp.wait_s);
    ASSERT_EQ(legacy_cp.chain.size(), compiled_cp.chain.size());
    for (std::size_t i = 0; i < legacy_cp.chain.size(); ++i) {
      EXPECT_EQ(legacy_cp.chain[i].op, compiled_cp.chain[i].op);
      EXPECT_EQ(legacy_cp.chain[i].start, compiled_cp.chain[i].start);
      EXPECT_EQ(legacy_cp.chain[i].end, compiled_cp.chain[i].end);
    }
    ASSERT_EQ(legacy_cp.stages.size(), compiled_cp.stages.size());
    for (std::size_t s = 0; s < legacy_cp.stages.size(); ++s) {
      EXPECT_EQ(legacy_cp.stages[s].bubble_s, compiled_cp.stages[s].bubble_s);
      EXPECT_EQ(legacy_cp.stages[s].dependency_s, compiled_cp.stages[s].dependency_s);
      EXPECT_EQ(legacy_cp.stages[s].comm_s, compiled_cp.stages[s].comm_s);
      EXPECT_EQ(legacy_cp.stages[s].idle_s, compiled_cp.stages[s].idle_s);
    }
  }
}

TEST(Sweep, UnknownFamilyAndInapplicableConfigFailInPlace) {
  const core::UnitCostModel cost = unit_cost();
  core::PipelineProblem odd = grid_problem(4);
  odd.m = 3;  // two-fold needs m % 2p == 0; 1f1b still works
  const std::vector<sim::SweepItem> items = {
      {"no_such_family", odd, &cost, {}},
      {"helix_two_fold", odd, &cost, {}},
      {"1f1b", odd, &cost, {}},
  };
  sim::Sweep sweep;
  const auto results = sweep.run(items);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_NE(results[0].error.find("unknown schedule family"), std::string::npos);
  EXPECT_FALSE(results[1].ok);
  EXPECT_FALSE(results[1].error.empty());
  EXPECT_TRUE(results[2].ok);
  EXPECT_GT(results[2].makespan, 0.0);
  EXPECT_EQ(sweep.stats().failed, 2);
}

TEST(Sweep, RebuiltCostModelAtTheSameAddressIsACacheMiss) {
  // Regression: the memo key used to include the cost model's *address*, so
  // destroying a model and constructing a different one at the same location
  // — exactly what std::optional::emplace or vector reuse does — produced a
  // stale cache hit with the old model's numbers. The key now carries the
  // model's price bits, so the rebuilt model must miss and re-evaluate.
  std::optional<core::UnitCostModel> model;
  core::UnitCostModel::Units u;
  u.seconds_per_elem = 0.1;
  model.emplace(core::UnitCostModel{u});
  core::PipelineProblem pr = grid_problem(2);
  pr.comm.boundary = 50;  // price comm onto the critical path

  sim::Sweep sweep;
  const sim::SweepItem item_a{"1f1b", pr, &*model, {}};
  const std::string key_a = sim::memo_key(item_a);
  const auto first = sweep.run({item_a});
  ASSERT_TRUE(first[0].ok);

  // Rebuild in place: same address, different parameters.
  const core::CostModel* old_address = &*model;
  model.reset();
  u.seconds_per_elem = 0.2;
  model.emplace(core::UnitCostModel{u});
  ASSERT_EQ(old_address, &*model);  // optional storage is in-object

  const sim::SweepItem item_b{"1f1b", pr, &*model, {}};
  EXPECT_NE(sim::memo_key(item_b), key_a);
  const auto second = sweep.run({item_b});
  ASSERT_TRUE(second[0].ok);
  EXPECT_EQ(sweep.stats().cache_hits, 0);
  EXPECT_EQ(sweep.stats().evaluated, 2);
  // Doubling the comm price must change the simulated result; a stale hit
  // would have returned `first` verbatim.
  EXPECT_NE(second[0].makespan, first[0].makespan);
}

TEST(Sweep, RunSchedulesMatchesRunAndKeysOnContent) {
  const core::UnitCostModel cost = unit_cost();
  const core::PipelineProblem pr = grid_problem(2);
  sim::Sweep sweep;

  // An already-compiled schedule must score identically to the family path.
  const auto by_family = sweep.run({{"1f1b", pr, &cost, {}}});
  ASSERT_TRUE(by_family[0].ok);
  core::Schedule sched;
  for (const schedules::FamilySpec& fam : schedules::family_registry()) {
    if (std::string(fam.key) == "1f1b") sched = fam.build(pr, cost);
  }
  const core::CompiledSchedule cs = core::CompiledSchedule::build(sched);
  const auto direct = sweep.run_schedules({{&cs, &cost, {}}});
  ASSERT_TRUE(direct[0].ok);
  EXPECT_EQ(direct[0].makespan, by_family[0].makespan);
  EXPECT_EQ(direct[0].total_bubble, by_family[0].total_bubble);
  EXPECT_EQ(direct[0].max_peak_memory, by_family[0].max_peak_memory);

  // run_schedules keeps no memo: scoring the same compiled schedule again
  // evaluates it again, to the same bits.
  const std::int64_t evaluated = sweep.stats().evaluated;
  const auto again = sweep.run_schedules({{&cs, &cost, {}}});
  EXPECT_EQ(again[0].makespan, direct[0].makespan);
  EXPECT_EQ(sweep.stats().evaluated, evaluated + 1);
}

TEST(Sweep, MemoKeySeparatesConfigsAndCostModels) {
  const core::UnitCostModel cost_a = unit_cost();
  core::UnitCostModel::Units u;
  u.seconds_per_elem = 0.2;
  const core::UnitCostModel cost_b{u};

  const core::PipelineProblem pr = grid_problem(2);
  const sim::SweepItem base{"1f1b", pr, &cost_a, {}};
  EXPECT_EQ(sim::memo_key(base), sim::memo_key(base));

  sim::SweepItem other_family = base;
  other_family.family = "gpipe";
  EXPECT_NE(sim::memo_key(base), sim::memo_key(other_family));

  sim::SweepItem other_problem = base;
  other_problem.problem.m += 2;
  EXPECT_NE(sim::memo_key(base), sim::memo_key(other_problem));

  sim::SweepItem other_cost = base;
  other_cost.cost = &cost_b;
  EXPECT_NE(sim::memo_key(base), sim::memo_key(other_cost));

  sim::SweepItem other_base_memory = base;
  other_base_memory.base_memory = {1, 2};
  EXPECT_NE(sim::memo_key(base), sim::memo_key(other_base_memory));
}

TEST(Sweep, DistinctModelsWithEqualPricesShareOneEntry) {
  const core::UnitCostModel a = unit_cost();
  const core::UnitCostModel b = unit_cost();
  ASSERT_NE(&a, &b);
  const core::PipelineProblem pr = grid_problem(2);
  const sim::SweepItem item_a{"1f1b", pr, &a, {}};
  const sim::SweepItem item_b{"1f1b", pr, &b, {}};
  EXPECT_EQ(sim::memo_key(item_a), sim::memo_key(item_b));

  sim::Sweep sweep;
  const auto first = sweep.run({item_a});
  const auto second = sweep.run({item_b});
  expect_bit_identical(first, second);
  EXPECT_EQ(sweep.stats().evaluated, 1);
  EXPECT_EQ(sweep.stats().cache_hits, 1);
}

TEST(Sweep, ChangingAnySinglePriceIsACacheMiss) {
  const core::UnitCostModel base = unit_cost();
  const core::PipelineProblem pr = grid_problem(2);
  const sim::SweepItem base_item{"1f1b", pr, &base, {}};
  const std::string base_key = sim::memo_key(base_item);
  sim::Sweep sweep;
  sweep.run({base_item});
  for (std::size_t slot = 0; slot < OnePriceChanged::kSlots; ++slot) {
    SCOPED_TRACE(slot);
    const OnePriceChanged changed(base, slot);
    const sim::SweepItem item{"1f1b", pr, &changed, {}};
    EXPECT_NE(sim::memo_key(item), base_key);
    sweep.run({item});
  }
  EXPECT_EQ(sweep.stats().cache_hits, 0);
  EXPECT_EQ(sweep.stats().evaluated,
            1 + static_cast<std::int64_t>(OnePriceChanged::kSlots));
}
