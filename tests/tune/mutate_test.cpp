// Mutation well-formedness: every operator in tune/mutate.h, applied to
// every registry family, must leave the lowered schedule valid under the
// full helix_check IR gate (structure + per-micro-batch semantics + coverage)
// and compilable. This pins the safety argument of DESIGN §15: order
// mutations go through the table's semantics-aware swap primitive, and
// regeneration mutations go through the family builders — so no mutation can
// produce an unexecutable or wrong-math schedule.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "core/compiled.h"
#include "core/cost.h"
#include "core/validator.h"
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
  u.pre = 1.0;
  u.attn = 3.0;
  u.post = 2.0;
  u.seconds_per_elem = 0.1;
  return core::UnitCostModel{u};
}

void expect_valid(const core::Schedule& s, const std::string& what) {
  SCOPED_TRACE(what);
  const auto st = core::validate_structure(s);
  EXPECT_TRUE(st.ok) << (st.errors.empty() ? "" : st.errors.front());
  const auto sem = core::validate_semantics(s);
  EXPECT_TRUE(sem.ok) << (sem.errors.empty() ? "" : sem.errors.front());
  const auto cov = core::validate_coverage(s);
  EXPECT_TRUE(cov.ok) << (cov.errors.empty() ? "" : cov.errors.front());
  EXPECT_NO_THROW(core::CompiledSchedule::build(s));
}

}  // namespace

// The sweep: every mutation kind, every family, several RNG streams. Any
// applied mutation must keep the schedule valid. This is the regression net
// for the stream-order hole: layer-wise families (1f1b, gpipe, ...) encode
// the per-micro-batch FwdPre -> FwdAttn -> FwdPost chain through stream
// order with no explicit dep, so a purely acyclicity-based swap check
// accepts semantics-breaking reorders. Table::lift materializes those
// constraints as implicit edges; this test fails if that ever regresses.
TEST(Mutate, EveryKindOnEveryFamilyStaysValid) {
  const core::UnitCostModel cost = unit_cost();
  const core::PipelineProblem pr = make_problem(4, 8, 8);
  for (const schedules::FamilySpec& fam : schedules::family_registry()) {
    if (!fam.applicable(pr)) continue;
    for (int kind = 0; kind < tune::kNumMutationKinds; ++kind) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const auto mk = static_cast<tune::MutationKind>(kind);
        tune::Genome g;
        g.prov.problem = pr;
        g.prov.family = fam.key;
        g.prov.recompute = std::string(fam.key) == "helix_two_fold_rc";
        g.table = tune::Table::lift(fam.build(pr, cost));
        g.lineage = fam.key;
        std::mt19937_64 rng(seed);
        if (!tune::apply_mutation(g, mk, rng, cost)) continue;
        expect_valid(g.table.lower(), std::string(fam.key) + " +" + tune::to_string(mk) +
                                          " seed=" + std::to_string(seed));
      }
    }
  }
}

// Stacked mutations stay valid too — the search applies several per child.
TEST(Mutate, LongRandomMutationChainsStayValid) {
  const core::UnitCostModel cost = unit_cost();
  const core::PipelineProblem pr = make_problem(2, 4, 4);
  for (const schedules::FamilySpec& fam : schedules::family_registry()) {
    if (!fam.applicable(pr)) continue;
    tune::Genome g;
    g.prov.problem = pr;
    g.prov.family = fam.key;
    g.table = tune::Table::lift(fam.build(pr, cost));
    g.lineage = fam.key;
    std::mt19937_64 rng(99);
    for (int step = 0; step < 40; ++step) {
      const auto mk = static_cast<tune::MutationKind>(
          rng() % static_cast<std::uint64_t>(tune::kNumMutationKinds));
      if (!tune::apply_mutation(g, mk, rng, cost)) continue;
      expect_valid(g.table.lower(),
                   std::string(fam.key) + " step " + std::to_string(step) + " (" +
                       tune::to_string(mk) + ")");
    }
  }
}

// A refused swap must leave the table untouched, and can_swap must agree
// with try_swap.
TEST(Mutate, RefusedSwapLeavesTableUnchanged) {
  const core::UnitCostModel cost = unit_cost();
  const core::PipelineProblem pr = make_problem(2, 4, 4);
  const core::Schedule sched =
      schedules::family_registry().front().build(pr, cost);
  tune::Table t = tune::Table::lift(sched);
  for (int r = 0; r < t.ranks(); ++r) {
    for (int s = 0; s + 1 < t.slots(r); ++s) {
      const std::uint64_t before = t.fingerprint();
      const bool can = t.can_swap(r, s);
      tune::Table copy = t;
      EXPECT_EQ(copy.try_swap(r, s), can);
      if (!can) {
        EXPECT_EQ(copy.fingerprint(), before);
      }
    }
  }
}

// Regeneration mutations update provenance so downstream consumers (the
// numeric gate's interpreter configuration) stay in sync with the op set.
TEST(Mutate, ToggleRecomputeFlipsProvenanceAndOpSet) {
  const core::UnitCostModel cost = unit_cost();
  const core::PipelineProblem pr = make_problem(2, 4, 4);
  tune::Genome g;
  g.prov.problem = pr;
  g.prov.family = "helix_two_fold";
  g.prov.recompute = false;
  for (const schedules::FamilySpec& fam : schedules::family_registry()) {
    if (std::string(fam.key) == "helix_two_fold") g.table = tune::Table::lift(fam.build(pr, cost));
  }
  ASSERT_GT(g.table.total_cells(), 0u);
  const std::uint64_t before = g.table.fingerprint();
  std::mt19937_64 rng(1);
  ASSERT_TRUE(tune::apply_mutation(g, tune::MutationKind::kToggleRecompute,
                                   rng, cost));
  EXPECT_TRUE(g.prov.recompute);
  EXPECT_NE(g.table.fingerprint(), before);  // recompute ops appeared
  expect_valid(g.table.lower(), "toggled recompute");

  // Non-helix families refuse the toggle.
  tune::Genome lw;
  lw.prov.problem = pr;
  lw.prov.family = "1f1b";
  for (const schedules::FamilySpec& fam : schedules::family_registry()) {
    if (std::string(fam.key) == "1f1b") lw.table = tune::Table::lift(fam.build(pr, cost));
  }
  EXPECT_FALSE(tune::apply_mutation(lw, tune::MutationKind::kToggleRecompute,
                                    rng, cost));
}

// A table is an order over one shared lift: a genome copy and an
// order-mutated child hold the very op records of their parent, and only a
// regeneration mutation lifts anew.
TEST(Mutate, OrderMutationsShareTheParentsOps) {
  const core::UnitCostModel cost = unit_cost();
  const core::PipelineProblem pr = make_problem(4, 8, 8);
  tune::Genome parent;
  parent.prov.problem = pr;
  parent.prov.family = "helix_naive";
  parent.table = tune::Table::lift(schedules::find_family("helix_naive")->build(pr, cost));
  parent.lineage = "helix_naive";
  const auto n = static_cast<core::OpId>(parent.table.total_cells());
  const auto op_at = [](const tune::Table& t, core::OpId id) -> const core::Op* {
    const auto at = t.find(id);
    return at ? &t.op(at->rank, at->slot) : nullptr;
  };
  const auto expect_shared = [&](const tune::Genome& child, const std::string& what) {
    SCOPED_TRACE(what);
    ASSERT_EQ(child.table.total_cells(), parent.table.total_cells());
    for (core::OpId id = 0; id < n; ++id) {
      ASSERT_EQ(op_at(child.table, id), op_at(parent.table, id)) << "op " << id;
    }
  };

  const tune::Genome copy = parent;
  expect_shared(copy, "copy");
  for (const tune::MutationKind kind :
       {tune::MutationKind::kSwapAdjacent, tune::MutationKind::kRelist}) {
    tune::Genome child = parent;
    std::mt19937_64 rng(1);
    ASSERT_TRUE(tune::apply_mutation(child, kind, rng, cost)) << tune::to_string(kind);
    EXPECT_NE(child.table.fingerprint(), parent.table.fingerprint());
    expect_shared(child, tune::to_string(kind));
  }

  tune::Genome toggled = parent;
  std::mt19937_64 rng(1);
  ASSERT_TRUE(tune::apply_mutation(toggled, tune::MutationKind::kToggleRecompute, rng, cost));
  for (core::OpId id = 0; id < n; ++id) {
    EXPECT_NE(op_at(toggled.table, id), op_at(parent.table, id)) << "op " << id;
  }
}
