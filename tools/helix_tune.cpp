// Schedule autotuner CLI (ROADMAP item 1; DESIGN §15).
//
//   helix_tune [--p N --m N --L N] [options]        tune one shape
//   helix_tune --table2 [options]                   acceptance sweep
//
// Single-shape mode seeds the beam search from every applicable family (or
// the --seed-family subset), prints the per-family baselines next to the
// tuned winner, and optionally (--gate) executes the winner numerically
// against the sequential reference.
//
// --table2 is the acceptance run: on each paper Table 2 shape, seed from
// *only* the naive FILO schedule and require the search to rediscover a
// schedule at least as good (simulated bubble) as the hand-built two-fold
// FILO — then pass every winner through the numeric differential gate under
// both comm engines. Exits non-zero if any shape misses either bar.
//
// Communication is priced (default 10 elements per boundary at 0.1 s/elem,
// the paper's 1:3:2 unit-cost scale) because under free communication the
// naive single-loop FILO order is already Table-2-optimal — there is
// nothing to search for. Pricing comm is what makes overlap quality, and
// therefore schedule order, matter.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/cost.h"
#include "nn/model.h"
#include "sim/sweep.h"
#include "tune/gate.h"
#include "tune/search.h"

using namespace helix;

namespace {

struct Args {
  int p = 4;
  int m = 8;
  int L = 8;
  bool table2 = false;
  bool gate = false;
  double pre = 1.0, attn = 3.0, post = 2.0;
  std::int64_t comm_elems = 10;
  double cost_per_elem = 0.1;
  std::vector<std::string> seed_families;
  tune::TuneOptions tune_opt;
};

core::PipelineProblem make_problem(int p, int m, int L, std::int64_t comm_elems) {
  core::PipelineProblem pr;
  pr.p = p;
  pr.m = m;
  pr.L = L;
  pr.comm.boundary = comm_elems;
  pr.comm.pre_to_attn = comm_elems;
  pr.comm.attn_to_post = comm_elems;
  // With the head: the numeric gate executes winners against a real mini-GPT
  // (which always has an LM head), and the interpreter computes the loss in
  // the kLmHeadLoss handler — a headless schedule is not executable.
  pr.include_lm_head = true;
  // Table 1 stash ratios (2/3/11 units), so memory caps are meaningful.
  pr.act.pre = 2;
  pr.act.attn = 3;
  pr.act.post = 11;
  pr.act.attn_recompute = 2;
  pr.act.post_recompute = 2;
  return pr;
}

core::UnitCostModel make_cost(const Args& a) {
  core::UnitCostModel::Units u;
  u.pre = a.pre;
  u.attn = a.attn;
  u.post = a.post;
  u.seconds_per_elem = a.cost_per_elem;
  return core::UnitCostModel{u};
}

/// Numeric differential gate on a tiny mini-GPT with the winner's shape.
bool run_gate(const tune::TunedCandidate& best, int p, int m, int L) {
  nn::MiniGptConfig model;
  model.layers = L;
  model.micro_batches = m;
  model.hidden = 16;
  model.heads = 2;
  model.seq = 8;
  model.vocab = 32;
  tune::GateConfig gc;
  gc.model = model;
  gc.pipeline_stages = p;
  const tune::GateResult res = tune::differential_gate(best.schedule, gc);
  if (res.ok()) {
    std::printf("  gate: bit-identical to the sequential reference "
                "(blocking + async engines)\n");
    return true;
  }
  std::printf("  gate: FAILED\n");
  for (const std::string& e : res.errors) {
    std::printf("    %s\n", e.c_str());
  }
  return false;
}

void print_report(const tune::TuneReport& rep) {
  std::printf("  %-22s %10s %10s %10s\n", "schedule", "makespan", "bubble",
              "peak");
  for (const tune::FamilyBaseline& b : rep.baselines) {
    if (!b.outcome.ok) {
      std::printf("  %-22s %10s (%s)\n", b.family.c_str(), "-",
                  b.outcome.error.c_str());
      continue;
    }
    std::printf("  %-22s %10.1f %10.1f %10lld\n", b.family.c_str(),
                b.outcome.makespan, b.outcome.total_bubble,
                static_cast<long long>(b.outcome.max_peak_memory));
  }
  std::printf("  %-22s %10.1f %10.1f %10lld\n", "tuned (best)",
              rep.best.outcome.makespan, rep.best.outcome.total_bubble,
              static_cast<long long>(rep.best.outcome.max_peak_memory));
  std::printf("  lineage: %s\n", rep.best.lineage.c_str());
  std::printf(
      "  search: %d generations, %lld scored, %lld deduped, %lld invalid\n",
      rep.generations_run, static_cast<long long>(rep.candidates_scored),
      static_cast<long long>(rep.candidates_deduped),
      static_cast<long long>(rep.candidates_invalid));
}

/// Acceptance mode: naive seed must reach two-fold-or-better bubble on every
/// Table 2 shape, and every winner must pass the numeric gate.
int run_table2(const Args& a) {
  const core::UnitCostModel cost = make_cost(a);
  sim::Sweep sweep;
  bool all_ok = true;
  const std::pair<int, int> shapes[] = {{4, 8}, {8, 16}, {4, 16}};
  for (const auto& [p, L] : shapes) {
    const int m = 2 * p;
    const core::PipelineProblem pr = make_problem(p, m, L, a.comm_elems);

    tune::TuneOptions opt = a.tune_opt;
    opt.seed_families = {"helix_naive"};
    const tune::TuneReport rep = tune::tune(pr, cost, opt, &sweep);

    // The bar: the hand-built two-fold FILO schedule on the same problem.
    const std::vector<sim::SweepOutcome> two = sweep.run(
        {sim::SweepItem{"helix_two_fold", pr, &cost, {}}});
    if (!two[0].ok) {
      std::printf("p=%d L=%d m=%d: two-fold baseline failed: %s\n", p, L, m,
                  two[0].error.c_str());
      all_ok = false;
      continue;
    }

    const bool beat = rep.best.outcome.ok &&
                      rep.best.outcome.total_bubble <= two[0].total_bubble;
    std::printf("p=%d L=%d m=%d: naive-seed tuned bubble %.1f vs two-fold "
                "%.1f  %s\n",
                p, L, m, rep.best.outcome.total_bubble, two[0].total_bubble,
                beat ? "OK" : "MISS");
    print_report(rep);
    if (!run_gate(rep.best, p, m, L)) all_ok = false;
    if (!beat) all_ok = false;
    std::printf("\n");
  }
  std::printf(all_ok ? "table2 acceptance: PASS\n"
                     : "table2 acceptance: FAIL\n");
  return all_ok ? 0 : 1;
}

int run_single(const Args& a) {
  if (a.L % a.p != 0) {
    std::fprintf(stderr, "helix_tune: L=%d must be divisible by p=%d\n", a.L,
                 a.p);
    return 2;
  }
  const core::PipelineProblem pr = make_problem(a.p, a.m, a.L, a.comm_elems);
  const core::UnitCostModel cost = make_cost(a);
  tune::TuneOptions opt = a.tune_opt;
  opt.seed_families = a.seed_families;
  sim::Sweep sweep;
  std::printf("Tuning p=%d m=%d L=%d (comm %lld elems at %.3g s/elem)\n\n",
              a.p, a.m, a.L, static_cast<long long>(a.comm_elems),
              a.cost_per_elem);
  const tune::TuneReport rep = tune::tune(pr, cost, opt, &sweep);
  print_report(rep);

  double best_baseline = -1;
  for (const tune::FamilyBaseline& b : rep.baselines) {
    if (b.outcome.ok &&
        (best_baseline < 0 || b.outcome.makespan < best_baseline)) {
      best_baseline = b.outcome.makespan;
    }
  }
  if (best_baseline > 0 && rep.best.outcome.ok) {
    std::printf("  tuned vs best hand-built: %.2f%%\n",
                100.0 * (best_baseline - rep.best.outcome.makespan) /
                    best_baseline);
  }
  if (a.gate && !run_gate(rep.best, a.p, a.m, a.L)) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  const auto int_arg = [&](int& i) { return std::atoi(argv[++i]); };
  for (int i = 1; i < argc; ++i) {
    const char* f = argv[i];
    const bool has_val = i + 1 < argc;
    if (std::strcmp(f, "--table2") == 0) {
      a.table2 = true;
    } else if (std::strcmp(f, "--gate") == 0) {
      a.gate = true;
    } else if (std::strcmp(f, "--p") == 0 && has_val) {
      a.p = int_arg(i);
    } else if (std::strcmp(f, "--m") == 0 && has_val) {
      a.m = int_arg(i);
    } else if (std::strcmp(f, "--L") == 0 && has_val) {
      a.L = int_arg(i);
    } else if (std::strcmp(f, "--beam") == 0 && has_val) {
      a.tune_opt.beam_width = int_arg(i);
    } else if (std::strcmp(f, "--generations") == 0 && has_val) {
      a.tune_opt.generations = int_arg(i);
    } else if (std::strcmp(f, "--children") == 0 && has_val) {
      a.tune_opt.children_per_parent = int_arg(i);
    } else if (std::strcmp(f, "--seed") == 0 && has_val) {
      a.tune_opt.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(f, "--memory-cap") == 0 && has_val) {
      a.tune_opt.memory_cap_bytes = std::atoll(argv[++i]);
    } else if (std::strcmp(f, "--comm-elems") == 0 && has_val) {
      a.comm_elems = std::atoll(argv[++i]);
    } else if (std::strcmp(f, "--cost-per-elem") == 0 && has_val) {
      a.cost_per_elem = std::atof(argv[++i]);
    } else if (std::strcmp(f, "--seed-family") == 0 && has_val) {
      a.seed_families.emplace_back(argv[++i]);
    } else {
      std::fprintf(
          stderr,
          "usage: helix_tune [--p N --m N --L N] [--table2] [--gate]\n"
          "                  [--seed-family KEY]... [--beam N]\n"
          "                  [--generations N] [--children N] [--seed N]\n"
          "                  [--memory-cap BYTES] [--comm-elems N]\n"
          "                  [--cost-per-elem F]\n");
      return 2;
    }
  }
  return a.table2 ? run_table2(a) : run_single(a);
}
