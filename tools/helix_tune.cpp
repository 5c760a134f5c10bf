// Schedule autotuner CLI (ROADMAP item 1; DESIGN §15).
//
//   helix_tune [--p N --m N --L N] [options]        tune one shape
//   helix_tune --table2 [options]                   acceptance sweep
//
// Single-shape mode seeds the beam search from every applicable family (or
// the --seed-family subset), prints the per-family baselines next to the
// tuned winner, and optionally (--gate) checks the winner against the
// equivalence contract (check::check_schedule): IR validators, simulator
// leak check, and training bit-identical to the sequential reference.
//
// --table2 is the acceptance run: on each paper Table 2 shape, seed from
// *only* the naive FILO schedule and require the search to rediscover a
// schedule at least as good (simulated bubble) as the hand-built two-fold
// FILO — then pass every winner through the same gate under both comm
// engines. Exits 1 if any shape misses either bar.
//
// Bad input (an unknown flag, a flag without its value, a number that is
// not whole or out of its flag's range, L not divisible by p, a shape no
// seed family applies to) prints the message and the usage and exits 2.
//
// Communication is priced (default 10 elements per boundary at 0.1 s/elem,
// the paper's 1:3:2 unit-cost scale) because under free communication the
// naive single-loop FILO order is already Table-2-optimal — there is
// nothing to search for. Pricing comm is what makes overlap quality, and
// therefore schedule order, matter.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/harness.h"
#include "core/cost.h"
#include "core/ir.h"
#include "sim/sweep.h"
#include "tune/search.h"

using namespace helix;

namespace {

/// Upper bounds of the search-size flags: the beam and each generation's
/// children are reserved up front.
constexpr int kMaxBeam = 1024;
constexpr int kMaxChildren = 1024;
constexpr int kMaxGenerations = 1 << 20;

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
  // With the head: the gate trains winners on a real mini-GPT (which always
  // has an LM head), and the Trainer refuses a headless schedule.
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

/// The equivalence contract (check::check_schedule) on a tiny mini-GPT with
/// the winner's shape. threads = 0 keeps the pool HELIX_THREADS sized.
bool run_gate(const tune::TunedCandidate& best, int p, int m, int L) {
  const check::FamilyReport res = check::check_schedule(
      {.p = p, .m = m, .L = L, .threads = 0}, best.schedule);
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
/// Table 2 shape, and every winner must pass the gate.
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
    throw std::invalid_argument("L=" + std::to_string(a.L) +
                                " must be divisible by p=" + std::to_string(a.p));
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

int usage_error(const std::string& why) {
  std::fprintf(stderr,
               "helix_tune: %s\n"
               "usage: helix_tune [--p N --m N --L N] [--table2] [--gate]\n"
               "                  [--seed-family KEY]... [--beam N]\n"
               "                  [--generations N] [--children N] [--seed N]\n"
               "                  [--memory-cap BYTES] [--comm-elems N]\n"
               "                  [--cost-per-elem F]\n"
               "  --p, --m, --L     whole numbers in [1, %d]\n"
               "  --beam            whole number in [1, %d]\n"
               "  --generations     whole number in [0, %d]\n"
               "  --children        whole number in [0, %d]\n"
               "  --seed            whole number in [0, 2^64)\n"
               "  --memory-cap      bytes, a whole number >= 0 (0 = no cap)\n"
               "  --comm-elems      whole number >= 0\n"
               "  --cost-per-elem   finite number >= 0\n",
               why.c_str(), core::kMaxShape, kMaxBeam, kMaxGenerations,
               kMaxChildren);
  return 2;
}

/// `text` as a whole number in [lo, hi]; otherwise throws
/// std::invalid_argument naming the flag.
template <typename T>
T parse_whole(const char* flag, const std::string& text, T lo, T hi) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v < lo || v > hi) {
    throw std::invalid_argument(std::string("bad ") + flag + " '" + text +
                                "': expected a whole number in [" +
                                std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return v;
}

/// `text` as a finite number >= 0; otherwise throws std::invalid_argument
/// naming the flag.
double parse_nonnegative(const char* flag, const std::string& text) {
  double v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v) || v < 0) {
    throw std::invalid_argument(std::string("bad ") + flag + " '" + text +
                                "': expected a finite number >= 0");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  constexpr auto kInt64Max = std::numeric_limits<std::int64_t>::max();
  Args a;
  for (int i = 1; i < argc; ++i) {
    const char* f = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(std::string("missing value for ") + f);
      return argv[++i];
    };
    if (std::strcmp(f, "--table2") == 0) {
      a.table2 = true;
    } else if (std::strcmp(f, "--gate") == 0) {
      a.gate = true;
    } else if (std::strcmp(f, "--p") == 0) {
      a.p = parse_whole(f, value(), 1, core::kMaxShape);
    } else if (std::strcmp(f, "--m") == 0) {
      a.m = parse_whole(f, value(), 1, core::kMaxShape);
    } else if (std::strcmp(f, "--L") == 0) {
      a.L = parse_whole(f, value(), 1, core::kMaxShape);
    } else if (std::strcmp(f, "--beam") == 0) {
      a.tune_opt.beam_width = parse_whole(f, value(), 1, kMaxBeam);
    } else if (std::strcmp(f, "--generations") == 0) {
      a.tune_opt.generations = parse_whole(f, value(), 0, kMaxGenerations);
    } else if (std::strcmp(f, "--children") == 0) {
      a.tune_opt.children_per_parent = parse_whole(f, value(), 0, kMaxChildren);
    } else if (std::strcmp(f, "--seed") == 0) {
      a.tune_opt.seed = parse_whole(f, value(), std::uint64_t{0},
                                    std::numeric_limits<std::uint64_t>::max());
    } else if (std::strcmp(f, "--memory-cap") == 0) {
      a.tune_opt.memory_cap_bytes = parse_whole(f, value(), std::int64_t{0}, kInt64Max);
    } else if (std::strcmp(f, "--comm-elems") == 0) {
      a.comm_elems = parse_whole(f, value(), std::int64_t{0}, kInt64Max);
    } else if (std::strcmp(f, "--cost-per-elem") == 0) {
      a.cost_per_elem = parse_nonnegative(f, value());
    } else if (std::strcmp(f, "--seed-family") == 0) {
      a.seed_families.push_back(value());
    } else {
      throw std::invalid_argument(std::string("unknown flag ") + f);
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    return a.table2 ? run_table2(a) : run_single(a);
  } catch (const std::exception& e) {
    return usage_error(e.what());
  }
}
