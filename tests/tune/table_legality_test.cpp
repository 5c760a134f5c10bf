// Swap legality against an oracle. Table::can_swap searches only the ops
// its maintained topological index places between the two cells, and every
// accepted swap repairs that index locally. Both are checked here against a
// plain BFS written from the lowered schedule alone: after each step of a
// seeded chain of order mutations, can_swap(r, s) must answer exactly what
// the BFS answers for the pair. The oracle's graph is lower()'s deps, the
// send->recv pair of every tag, core::semantic_order_edges and the row
// successors; a swap of (a, b) is legal iff b is unreachable from a without
// the direct a -> b stream edge.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

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
  pr.include_lm_head = true;
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

/// The full constraint graph of a schedule, built without the table.
class Oracle {
 public:
  explicit Oracle(const core::Schedule& s) : succ_(s.total_ops()), seen_(s.total_ops()) {
    std::map<std::int32_t, core::OpId> send_by_tag;
    for (const core::Op& op : s.ops) {
      if (op.kind == core::OpKind::kSend) send_by_tag[op.tag] = op.id;
    }
    for (const core::Dep& d : s.deps) add(d.dep, d.op);
    for (const auto& program : s.programs) {
      for (std::size_t k = 0; k < program.size(); ++k) {
        const core::Op& op = s.ops[static_cast<std::size_t>(program[k])];
        if (op.kind == core::OpKind::kRecv) {
          const auto it = send_by_tag.find(op.tag);
          if (it != send_by_tag.end()) add(it->second, op.id);
        }
        if (k + 1 < program.size()) add(op.id, program[k + 1]);
      }
    }
    for (const auto& [a, b] : core::semantic_order_edges(s)) add(a, b);
  }

  /// Is the adjacent pair (a, b) swappable: no path a ->* b other than the
  /// direct stream edge?
  bool swappable(core::OpId a, core::OpId b) {
    std::fill(seen_.begin(), seen_.end(), 0);
    std::vector<core::OpId> queue;
    const auto push = [&](core::OpId v) {
      if (seen_[static_cast<std::size_t>(v)] == 0) {
        seen_[static_cast<std::size_t>(v)] = 1;
        queue.push_back(v);
      }
    };
    bool skipped = false;
    for (const core::OpId v : succ_[static_cast<std::size_t>(a)]) {
      if (v == b && !skipped) {
        skipped = true;  // the stream edge; a second a->b edge is a dependency
        continue;
      }
      push(v);
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      if (queue[head] == b) return false;
      for (const core::OpId v : succ_[static_cast<std::size_t>(queue[head])]) push(v);
    }
    return true;
  }

 private:
  void add(core::OpId a, core::OpId b) {
    succ_[static_cast<std::size_t>(a)].push_back(b);
  }

  std::vector<std::vector<core::OpId>> succ_;
  std::vector<char> seen_;
};

}  // namespace

TEST(TableLegality, CanSwapMatchesAPlainBfsAlongOrderMutationChains) {
  const core::UnitCostModel cost = unit_cost();
  // The order mutations: every kind before toggle-recompute and rechunk.
  constexpr int kOrderKinds = static_cast<int>(tune::MutationKind::kRelist) + 1;
  struct Shape {
    int p, m, L;
  };
  int checks = 0;
  int refused = 0;
  for (const Shape& shape : {Shape{2, 4, 4}, Shape{3, 6, 6}, Shape{4, 8, 8}}) {
    const int p = shape.p;
    const core::PipelineProblem pr = make_problem(p, shape.m, shape.L);
    for (const schedules::FamilySpec& fam : schedules::family_registry()) {
      if (!fam.applicable(pr)) continue;
      tune::Genome g;
      g.prov.problem = pr;
      g.prov.family = fam.key;
      g.table = tune::Table::lift(fam.build(pr, cost));
      g.lineage = fam.key;
      std::mt19937_64 rng(static_cast<std::uint64_t>(7 * p + 1));
      for (int step = 0; step < 40; ++step) {
        const auto mk = static_cast<tune::MutationKind>(
            rng() % static_cast<std::uint64_t>(kOrderKinds));
        if (!tune::apply_mutation(g, mk, rng, cost)) continue;
        const tune::Table& t = g.table;
        Oracle oracle(t.lower());
        const auto check = [&](int r, int s) {
          const bool want = oracle.swappable(t.op(r, s).id, t.op(r, s + 1).id);
          ++checks;
          refused += want ? 0 : 1;
          EXPECT_EQ(t.can_swap(r, s), want)
              << fam.key << " p=" << p << " step " << step << " (" << tune::to_string(mk)
              << ") rank " << r << " slot " << s;
        };
        if (p < 4) {
          for (int r = 0; r < t.ranks(); ++r) {
            for (int s = 0; s + 1 < t.slots(r); ++s) check(r, s);
          }
          continue;
        }
        for (int k = 0; k < 64; ++k) {
          const int r = static_cast<int>(rng() % static_cast<std::uint64_t>(t.ranks()));
          if (t.slots(r) < 2) continue;
          check(r, static_cast<int>(rng() % static_cast<std::uint64_t>(t.slots(r) - 1)));
        }
      }
    }
  }
  // Both answers occur often, so agreement is not vacuous.
  EXPECT_GT(checks, 10000);
  EXPECT_GT(refused, checks / 10);
  EXPECT_LT(refused, checks - checks / 10);
}
