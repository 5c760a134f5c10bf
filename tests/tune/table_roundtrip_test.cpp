// Lossless round-trip contract of the tabular schedule view (DESIGN §15):
// lower(lift(s)) is op-for-op identical to s — every field, every dependency
// — for every family in the registry, across seeded helix_check shapes. The
// compiled forms must match too, which pins the stronger property that
// every consumer of the IR (simulator, validators, runtime interpreter) sees
// exactly the same program through either view.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/config.h"
#include "core/compiled.h"
#include "core/cost.h"
#include "core/validator.h"
#include "schedules/registry.h"
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

void expect_ops_identical(const core::Schedule& a, const core::Schedule& b) {
  ASSERT_EQ(a.name, b.name);
  ASSERT_EQ(a.num_stages, b.num_stages);
  ASSERT_EQ(a.num_micro_batches, b.num_micro_batches);
  ASSERT_EQ(a.num_layers, b.num_layers);
  EXPECT_EQ(a.programs, b.programs);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    const core::Op& x = a.ops[i];
    const core::Op& y = b.ops[i];
    SCOPED_TRACE("op " + std::to_string(i));
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.stage, y.stage);
    EXPECT_EQ(x.mb, y.mb);
    EXPECT_EQ(x.layer, y.layer);
    EXPECT_EQ(x.peer, y.peer);
    EXPECT_EQ(x.tag, y.tag);
    EXPECT_EQ(x.slot, y.slot);
    EXPECT_EQ(x.comm_elems, y.comm_elems);
    EXPECT_EQ(x.alloc_bytes, y.alloc_bytes);
    EXPECT_EQ(x.free_bytes, y.free_bytes);
    EXPECT_EQ(x.transient_bytes, y.transient_bytes);
    EXPECT_EQ(x.combines_w, y.combines_w);
  }
  ASSERT_EQ(a.deps.size(), b.deps.size());
  for (std::size_t e = 0; e < a.deps.size(); ++e) {
    EXPECT_EQ(a.deps[e].op, b.deps[e].op) << "dependency " << e;
    EXPECT_EQ(a.deps[e].dep, b.deps[e].dep) << "dependency " << e;
  }
}

void expect_compiled_identical(const core::CompiledSchedule& a,
                               const core::CompiledSchedule& b) {
  EXPECT_EQ(a.num_stages, b.num_stages);
  EXPECT_EQ(a.num_micro_batches, b.num_micro_batches);
  EXPECT_EQ(a.num_layers, b.num_layers);
  EXPECT_EQ(a.num_edges, b.num_edges);
  expect_ops_identical(a.schedule(), b.schedule());
  EXPECT_EQ(a.dep_offset, b.dep_offset);
  EXPECT_EQ(a.dep_edges, b.dep_edges);
  EXPECT_EQ(a.succ_offset, b.succ_offset);
  EXPECT_EQ(a.succ_edges, b.succ_edges);
  EXPECT_EQ(a.stream_pred, b.stream_pred);
  EXPECT_EQ(a.matching_send, b.matching_send);
  EXPECT_EQ(a.send_of_tag, b.send_of_tag);
  EXPECT_EQ(a.recv_of_tag, b.recv_of_tag);
  EXPECT_EQ(a.compute_offset, b.compute_offset);
  EXPECT_EQ(a.compute_chain, b.compute_chain);
  EXPECT_EQ(a.mem_count, b.mem_count);
  EXPECT_EQ(a.topo, b.topo);
}

/// Positions (producer, consumer) of the first pair in `row` where the
/// consumer depends on an op earlier in the row; (0, 0) when none does.
std::pair<std::size_t, std::size_t> first_dependent_pair(const core::Schedule& s,
                                                         const std::vector<core::OpId>& row) {
  const core::DepLists deps = core::pack_deps(s);
  for (std::size_t k = 0; k < row.size(); ++k) {
    const auto c = static_cast<std::size_t>(row[k]);
    for (std::uint32_t e = deps.offset[c]; e < deps.offset[c + 1]; ++e) {
      const auto j = static_cast<std::size_t>(
          std::find(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(k), deps.edges[e]) -
          row.begin());
      if (j < k) return {j, k};
    }
  }
  return {0, 0};
}

}  // namespace

// The core property: lift then lower reproduces the schedule exactly — both
// as a store and as the compiled form — for every applicable family
// on every seeded helix_check shape.
TEST(TableRoundtrip, LowerLiftIsIdentityForAllFamiliesOnSeededShapes) {
  const core::UnitCostModel cost = unit_cost();
  for (const check::CheckConfig& cfg : check::generate_configs(7, 8)) {
    const core::PipelineProblem pr = make_problem(cfg.p, cfg.m, cfg.L);
    for (const schedules::FamilySpec& fam : schedules::family_registry()) {
      if (!fam.applicable(pr)) continue;
      SCOPED_TRACE(std::string(fam.key) + " p=" + std::to_string(pr.p) + " m=" +
                   std::to_string(pr.m) + " L=" + std::to_string(pr.L));
      const core::Schedule original = fam.build(pr, cost);
      const tune::Table table = tune::Table::lift(original);
      const core::Schedule lowered = table.lower();
      expect_ops_identical(original, lowered);
      expect_compiled_identical(core::CompiledSchedule::build(original),
                                core::CompiledSchedule::build(lowered));
      // The lowered form satisfies the same validity contract.
      EXPECT_TRUE(core::validate_structure(lowered).ok);
      EXPECT_TRUE(core::validate_semantics(lowered).ok);
      EXPECT_TRUE(core::validate_coverage(lowered).ok);
    }
  }
}

TEST(TableRoundtrip, FindReturnsEveryOpAndFingerprintIsOrderSensitive) {
  const core::UnitCostModel cost = unit_cost();
  const core::PipelineProblem pr = make_problem(2, 4, 4);
  const core::Schedule sched =
      schedules::family_registry().front().build(pr, cost);
  tune::Table t = tune::Table::lift(sched);

  for (const core::Op& op : sched.ops) {
    const auto at = t.find(op.id);
    ASSERT_TRUE(at.has_value());
    EXPECT_EQ(t.op(at->rank, at->slot).id, op.id);
  }
  EXPECT_FALSE(t.find(-1).has_value());
  EXPECT_FALSE(t.find(static_cast<core::OpId>(t.total_cells())).has_value());

  const std::uint64_t before = t.fingerprint();
  // Find any applicable swap; the fingerprint must change with the order.
  bool swapped = false;
  for (int r = 0; r < t.ranks() && !swapped; ++r) {
    for (int s = 0; s + 1 < t.slots(r) && !swapped; ++s) {
      swapped = t.try_swap(r, s);
    }
  }
  ASSERT_TRUE(swapped);
  EXPECT_NE(t.fingerprint(), before);
}

TEST(TableRoundtrip, LiftRejectsNonDenseIds) {
  core::Schedule s;
  s.name = "bad";
  s.num_stages = 1;
  s.num_micro_batches = 1;
  s.num_layers = 1;
  core::Op op;
  op.id = 5;  // not dense: only one op, id must be 0
  op.stage = 0;
  s.ops.push_back(op);
  s.programs = {{0}};
  EXPECT_THROW(tune::Table::lift(s), std::invalid_argument);
}

// A row that runs a consumer ahead of its producer makes the constraint
// graph cyclic; lift refuses it by the schedule's name rather than answer
// legality questions on a cyclic graph.
TEST(TableRoundtrip, LiftRejectsACyclicRowOrderByName) {
  core::Schedule s = schedules::find_family("1f1b")->build(make_problem(2, 4, 4), unit_cost());
  std::vector<core::OpId>& row = s.programs[0];
  const auto [producer, consumer] = first_dependent_pair(s, row);
  ASSERT_LT(producer, consumer);
  std::swap(row[producer], row[consumer]);
  try {
    tune::Table::lift(s);
    ADD_FAILURE() << "lift accepted a cyclic row order";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("\"" + s.name + "\""), std::string::npos)
        << e.what();
  }
}

// reorder installs a whole new order over the same lift. It reports an
// unchanged order as no change, and refuses rows that are not a permutation
// of each row or that are cyclic, leaving the table as it was.
TEST(TableRoundtrip, ReorderRefusesForeignOpsAndCyclicRows) {
  const core::Schedule s = schedules::find_family("1f1b")->build(make_problem(2, 4, 4), unit_cost());
  tune::Table t = tune::Table::lift(s);
  const std::vector<std::vector<core::OpId>> rows = s.programs;
  EXPECT_FALSE(t.reorder(rows));
  const std::uint64_t before = t.fingerprint();

  auto foreign = rows;  // an op moved to the other row
  foreign[1].push_back(foreign[0].back());
  foreign[0].pop_back();
  EXPECT_THROW(t.reorder(foreign), std::invalid_argument);

  auto doubled = rows;  // one op twice, another dropped
  doubled[0][1] = doubled[0][0];
  EXPECT_THROW(t.reorder(doubled), std::invalid_argument);
  auto unknown = rows;  // an id no op has
  unknown[0][0] = static_cast<core::OpId>(s.ops.size());
  EXPECT_THROW(t.reorder(unknown), std::invalid_argument);

  auto cyclic = rows;  // a consumer ahead of its producer in one row
  const auto [producer, consumer] = first_dependent_pair(s, rows[0]);
  ASSERT_LT(producer, consumer);
  std::swap(cyclic[0][producer], cyclic[0][consumer]);
  EXPECT_THROW(t.reorder(cyclic), std::invalid_argument);
  EXPECT_EQ(t.fingerprint(), before);
  expect_ops_identical(s, t.lower());
}
