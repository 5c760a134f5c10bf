#pragma once

// Seeded schedule corpus for differential checks of the schedule checker:
// every registry family on a (p, m, L, LM head) grid, tuner mutation chains
// grown from each of them, and random single-point corruptions of every one
// of those schedules. Deterministic for a given CorpusSpec: it draws only
// from std::mt19937_64 with `%`, never from a library distribution.
//
// Two corruptions are left out on purpose, because CompiledSchedule::build
// rejects them and the adjacency-list checker it replaced accepted them:
// an op whose `stage` field names another stage than the program holding
// it, and a comm tag outside [0, num_ops). Every other corruption must get
// the same verdicts from both checkers.

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/cost.h"
#include "core/ir.h"
#include "core/problem.h"
#include "schedules/registry.h"
#include "tune/mutate.h"
#include "tune/table.h"

namespace helix::corpus {

struct CorpusSpec {
  std::vector<int> stages;          ///< p values
  std::vector<int> mb_multiples;    ///< m = k * p for each k
  std::vector<int> layer_multiples; ///< L = k * p for each k
  int chain_steps = 0;     ///< applied tuner mutations per base schedule
  int corruptions = 0;     ///< corrupted copies per corpus schedule
  std::uint64_t seed = 1;
};

inline core::PipelineProblem corpus_problem(int p, int m, int L, bool head) {
  core::PipelineProblem pr;
  pr.p = p;
  pr.m = m;
  pr.L = L;
  pr.comm.boundary = 10;
  pr.comm.pre_to_attn = 10;
  pr.comm.attn_to_post = 10;
  pr.include_lm_head = head;
  pr.head_stash_bytes = head ? 4 : 0;
  pr.logits_transient_bytes = head ? 8 : 0;
  pr.act.pre = 2;
  pr.act.attn = 3;
  pr.act.post = 11;
  pr.act.attn_recompute = 2;
  pr.act.post_recompute = 2;
  pr.act.full_layer_recompute_stash = 1;
  return pr;
}

inline core::UnitCostModel corpus_cost() {
  core::UnitCostModel::Units u;
  u.pre = 1.0;
  u.attn = 3.0;
  u.post = 2.0;
  u.seconds_per_elem = 0.1;
  return core::UnitCostModel{u};
}

/// Apply one random corruption to `s`.
inline void corrupt(core::Schedule& s, std::mt19937_64& rng) {
  const auto below = [&rng](std::int64_t n) {
    return n <= 0 ? std::int64_t{0}
                  : static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(n));
  };
  const auto n = static_cast<std::int64_t>(s.total_ops());
  if (n == 0) return;
  // A uniformly random op: (program, index).
  std::int64_t k = below(n);
  std::size_t st = 0;
  while (k >= static_cast<std::int64_t>(s.stage_ops[st].size())) {
    k -= static_cast<std::int64_t>(s.stage_ops[st].size());
    ++st;
  }
  auto& prog = s.stage_ops[st];
  const auto at = static_cast<std::size_t>(k);
  core::Op& op = prog[at];
  switch (below(16)) {
    case 0:  // drop a dependency
      if (!op.deps.empty()) {
        op.deps.erase(op.deps.begin() + below(static_cast<std::int64_t>(op.deps.size())));
      }
      break;
    case 1:  // add a dependency on any op
      op.deps.push_back(static_cast<core::OpId>(below(n)));
      break;
    case 2:  // swap with the next op of the program
      if (at + 1 < prog.size()) std::swap(prog[at], prog[at + 1]);
      break;
    case 3: {  // move within the program
      core::Op moved = std::move(op);
      prog.erase(prog.begin() + static_cast<std::ptrdiff_t>(at));
      prog.insert(prog.begin() + below(static_cast<std::int64_t>(prog.size()) + 1),
                  std::move(moved));
      break;
    }
    case 4: {  // move to another stage's program (its stage field follows)
      if (s.stage_ops.size() < 2) break;
      auto to = static_cast<std::size_t>(below(static_cast<std::int64_t>(s.stage_ops.size()) - 1));
      if (to >= st) ++to;
      core::Op moved = std::move(op);
      prog.erase(prog.begin() + static_cast<std::ptrdiff_t>(at));
      moved.stage = static_cast<std::int16_t>(to);
      auto& dst = s.stage_ops[to];
      dst.insert(dst.begin() + below(static_cast<std::int64_t>(dst.size()) + 1),
                 std::move(moved));
      break;
    }
    case 5:  // retag (inside [0, n))
      op.tag = static_cast<std::int32_t>(below(n));
      break;
    case 6:
      op.mb = static_cast<std::int16_t>(below(s.num_micro_batches + 2) - 1);
      break;
    case 7:
      op.layer = static_cast<std::int16_t>(below(s.num_layers + 2) - 1);
      break;
    case 8:
      op.kind = static_cast<core::OpKind>(below(17));
      break;
    case 9:  // payload: empty, negative or off by some elements
      op.comm_elems = below(3) == 0 ? -below(2) : op.comm_elems + 1 + below(7);
      break;
    case 10:
      op.peer = static_cast<std::int16_t>(below(s.num_stages + 2) - 1);
      break;
    case 11: {  // memory: leak, negative or transient-only change
      const std::int64_t which = below(3);
      std::int64_t& field = which == 0   ? op.alloc_bytes
                            : which == 1 ? op.free_bytes
                                         : op.transient_bytes;
      field = below(2) == 0 ? -1 : field + 1 + below(5);
      break;
    }
    case 12:
      op.combines_w = !op.combines_w;
      break;
    case 13:  // erase, leaving a hole in the ids
      prog.erase(prog.begin() + static_cast<std::ptrdiff_t>(at));
      break;
    case 14: {  // erase and renumber, so ids stay dense
      const core::OpId gone = op.id;
      prog.erase(prog.begin() + static_cast<std::ptrdiff_t>(at));
      for (auto& stage : s.stage_ops) {
        for (core::Op& o : stage) {
          if (o.id > gone) --o.id;
          std::vector<core::OpId> deps;
          for (const core::OpId d : o.deps) {
            if (d != gone) deps.push_back(d > gone ? d - 1 : d);
          }
          o.deps = std::move(deps);
        }
      }
      break;
    }
    default: {  // duplicate right after the original, under a fresh id
      core::Op copy = op;
      copy.id = static_cast<core::OpId>(n);
      prog.insert(prog.begin() + static_cast<std::ptrdiff_t>(at) + 1, std::move(copy));
      break;
    }
  }
}

/// Call `visit(const core::Schedule&)` on every corpus schedule, in a fixed
/// order: each base schedule, then its corruptions, then each mutation-chain
/// step followed by that step's corruptions.
template <typename Visit>
void for_each_corpus_schedule(const CorpusSpec& spec, Visit&& visit) {
  const core::UnitCostModel cost = corpus_cost();
  std::mt19937_64 rng(spec.seed);
  const auto with_corruptions = [&](const core::Schedule& s) {
    visit(s);
    for (int c = 0; c < spec.corruptions; ++c) {
      core::Schedule bad = s;
      corrupt(bad, rng);
      visit(bad);
    }
  };
  for (const int p : spec.stages) {
    for (const int km : spec.mb_multiples) {
      for (const int kl : spec.layer_multiples) {
        for (const bool head : {false, true}) {
          const core::PipelineProblem pr = corpus_problem(p, km * p, kl * p, head);
          for (const schedules::FamilySpec& fam : schedules::family_registry()) {
            if (!fam.applicable(pr)) continue;
            tune::Genome g;
            g.prov.problem = pr;
            g.prov.family = fam.key;
            g.prov.recompute = std::string(fam.key) == "helix_two_fold_rc";
            g.table = tune::Table::lift(fam.build(pr, cost));
            g.lineage = fam.key;
            with_corruptions(g.table.lower());
            int applied = 0;
            for (int tries = 0; applied < spec.chain_steps && tries < 4 * spec.chain_steps;
                 ++tries) {
              const auto mk = static_cast<tune::MutationKind>(
                  rng() % static_cast<std::uint64_t>(tune::kNumMutationKinds));
              if (!tune::apply_mutation(g, mk, rng, cost)) continue;
              ++applied;
              with_corruptions(g.table.lower());
            }
          }
        }
      }
    }
  }
}

}  // namespace helix::corpus
