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
// the same verdicts from both checkers. Each corruption draws the same
// random numbers it drew when a schedule was per-stage vectors of op
// records, each owning its deps, and gets the same verdicts: an erased op
// (case 13) stays in `ops` but leaves every program, which compile refuses
// as it refused the id hole, unless it had the last id and so left no hole.

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
  while (k >= static_cast<std::int64_t>(s.programs[st].size())) {
    k -= static_cast<std::int64_t>(s.programs[st].size());
    ++st;
  }
  auto& prog = s.programs[st];
  const auto at = static_cast<std::size_t>(k);
  const core::OpId id = prog[at];
  core::Op& op = s.ops[static_cast<std::size_t>(id)];
  // The op's dependencies, as positions in the arena, in order.
  const auto deps_of = [&s](core::OpId of) {
    std::vector<std::size_t> at_arena;
    for (std::size_t e = 0; e < s.deps.size(); ++e) {
      if (s.deps[e].op == of) at_arena.push_back(e);
    }
    return at_arena;
  };
  switch (below(16)) {
    case 0: {  // drop a dependency
      const std::vector<std::size_t> mine = deps_of(id);
      if (!mine.empty()) {
        const std::size_t e = mine[static_cast<std::size_t>(
            below(static_cast<std::int64_t>(mine.size())))];
        s.deps.erase(s.deps.begin() + static_cast<std::ptrdiff_t>(e));
      }
      break;
    }
    case 1:  // add a dependency on any op
      s.deps.push_back({id, static_cast<core::OpId>(below(n))});
      break;
    case 2:  // swap with the next op of the program
      if (at + 1 < prog.size()) std::swap(prog[at], prog[at + 1]);
      break;
    case 3: {  // move within the program
      prog.erase(prog.begin() + static_cast<std::ptrdiff_t>(at));
      prog.insert(prog.begin() + below(static_cast<std::int64_t>(prog.size()) + 1), id);
      break;
    }
    case 4: {  // move to another stage's program (its stage field follows)
      if (s.programs.size() < 2) break;
      auto to = static_cast<std::size_t>(below(static_cast<std::int64_t>(s.programs.size()) - 1));
      if (to >= st) ++to;
      prog.erase(prog.begin() + static_cast<std::ptrdiff_t>(at));
      op.stage = static_cast<std::int16_t>(to);
      auto& dst = s.programs[to];
      dst.insert(dst.begin() + below(static_cast<std::int64_t>(dst.size()) + 1), id);
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
      // A store has no holes: the record stays, in no program. The last
      // record leaves no hole, so it goes with its own dependencies, as it
      // did from a per-stage vector.
      if (static_cast<std::size_t>(id) + 1 == s.ops.size()) {
        s.ops.pop_back();
        std::erase_if(s.deps, [id](const core::Dep& d) { return d.op == id; });
      }
      break;
    case 14: {  // erase and renumber, so ids stay dense
      const core::OpId gone = id;
      prog.erase(prog.begin() + static_cast<std::ptrdiff_t>(at));
      s.ops.erase(s.ops.begin() + gone);
      const auto renumber = [gone](core::OpId& x) {
        if (x > gone) --x;
      };
      for (core::Op& o : s.ops) renumber(o.id);
      for (auto& program : s.programs) {
        for (core::OpId& x : program) renumber(x);
      }
      std::vector<core::Dep> deps;
      for (core::Dep d : s.deps) {
        if (d.op == gone || d.dep == gone) continue;
        renumber(d.op);
        renumber(d.dep);
        deps.push_back(d);
      }
      s.deps = std::move(deps);
      break;
    }
    default: {  // duplicate right after the original, under a fresh id
      const auto copy = static_cast<core::OpId>(n);
      core::Op dup = op;
      dup.id = copy;
      for (const std::size_t e : deps_of(id)) s.deps.push_back({copy, s.deps[e].dep});
      s.ops.push_back(dup);
      prog.insert(prog.begin() + static_cast<std::ptrdiff_t>(at) + 1, copy);
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
