// Render the paper's schedule diagrams (Figs. 2, 5, 7) as ASCII timelines,
// and export any of them as Chrome trace JSON for chrome://tracing.
//
//   schedule_visualizer [method] [p] [m] [L] [--comm RATIO] [--trace FILE]
//                       [--critical [ROWS]]
//     method: 1f1b | gpipe | zb1p | zb2p | coexec | helix | helix2 | helix2rc
//             (default all)
//     --critical: append the makespan-binding op chain (default 40 rows)
//
// Bad input (a number that is not whole or out of its range, an unknown
// flag or method, a shape the method's builder refuses) prints the message
// and the usage and exits 2.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "core/cost.h"
#include "schedules/registry.h"
#include "sim/critical_path.h"
#include "sim/simulator.h"
#include "sim/trace.h"

using namespace helix;

namespace {

core::Schedule build(const std::string& method, const core::PipelineProblem& pr,
                     const core::CostModel& cost) {
  // Historical CLI aliases for the registry keys.
  const std::string key = method == "helix"      ? "helix_naive"
                          : method == "helix2"   ? "helix_two_fold"
                          : method == "helix2rc" ? "helix_two_fold_rc"
                                                 : method;
  if (const schedules::FamilySpec* fam = schedules::find_family(key)) {
    return fam->build(pr, cost);
  }
  throw std::invalid_argument("unknown method: " + method);
}

/// Largest --critical row count.
constexpr int kMaxCriticalRows = 1 << 20;

void show(const std::string& method, const core::PipelineProblem& pr,
          double comm_ratio, const std::string& trace_file,
          std::size_t critical_rows) {
  core::UnitCostModel::Units u;
  u.seconds_per_elem = comm_ratio * 3.0;  // relative to the 3-unit attention
  const core::UnitCostModel cost{u};
  // Two-fold variants need m divisible by 2p.
  core::PipelineProblem local = pr;
  if (method.rfind("helix2", 0) == 0 && local.m % (2 * local.p) != 0) {
    local.m = 2 * local.p;
  }
  const auto sched = build(method, local, cost);
  const auto res = sim::Simulator(cost).run(sched);
  std::printf("--- %s (p=%d, m=%d, L=%d): makespan %.1f units, bubble %.1f ---\n",
              sched.name.c_str(), local.p, local.m, local.L, res.makespan,
              res.stages[0].bubble);
  std::printf("%s\n",
              sim::render_ascii_timeline(
                  sched, res, {.time_per_col = res.makespan / 150.0, .max_cols = 150,
                               .show_comm = comm_ratio > 0})
                  .c_str());
  const auto critical = sim::critical_path(sched, res);
  std::printf("%s", critical_rows > 0
                        ? sim::render_critical_path(critical, sched, critical_rows).c_str()
                        : sim::render_critical_path(critical).c_str());
  if (!trace_file.empty()) {
    std::ofstream out(trace_file);
    out << sim::to_chrome_trace(sched, res);
    std::printf("chrome trace written to %s\n", trace_file.c_str());
  }
}

int usage_error(const std::string& why) {
  std::fprintf(stderr,
               "schedule_visualizer: %s\n"
               "usage: schedule_visualizer [method] [p] [m] [L] [--comm RATIO] "
               "[--trace FILE] [--critical [ROWS]]\n"
               "  p, m, L     whole numbers in [1, %d] (default 4 4 8)\n"
               "  --comm      finite number >= 0 (comm-to-attention cost ratio)\n"
               "  --critical  whole number in [1, %d] (default 40)\n",
               why.c_str(), core::kMaxShape, kMaxCriticalRows);
  return 2;
}

/// `text` as a whole number in [1, hi]; otherwise throws
/// std::invalid_argument naming the argument.
int parse_whole(const char* name, const char* text, int hi) {
  int v = 0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc() || ptr != end || v < 1 || v > hi) {
    throw std::invalid_argument(std::string("bad ") + name + " '" + text +
                                "': expected a whole number in [1, " +
                                std::to_string(hi) + "]");
  }
  return v;
}

/// `text` as a finite number >= 0; otherwise throws std::invalid_argument
/// naming the argument.
double parse_nonnegative(const char* name, const char* text) {
  double v = 0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v) || v < 0) {
    throw std::invalid_argument(std::string("bad ") + name + " '" + text +
                                "': expected a finite number >= 0");
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string method = argc > 1 ? argv[1] : "all";
    core::PipelineProblem pr;
    pr.p = argc > 2 ? parse_whole("p", argv[2], core::kMaxShape) : 4;
    pr.m = argc > 3 ? parse_whole("m", argv[3], core::kMaxShape) : 4;
    pr.L = argc > 4 ? parse_whole("L", argv[4], core::kMaxShape) : 8;
    pr.comm.boundary = 1;
    pr.comm.pre_to_attn = 1;
    pr.comm.attn_to_post = 1;
    pr.include_lm_head = false;
    double comm_ratio = 0.0;
    std::string trace_file;
    std::size_t critical_rows = 0;
    for (int i = 5; i < argc; ++i) {
      const char* f = argv[i];
      const auto value = [&]() -> const char* {
        if (i + 1 >= argc) throw std::invalid_argument(std::string("missing value for ") + f);
        return argv[++i];
      };
      if (std::strcmp(f, "--comm") == 0) {
        comm_ratio = parse_nonnegative(f, value());
      } else if (std::strcmp(f, "--trace") == 0) {
        trace_file = value();
      } else if (std::strcmp(f, "--critical") == 0) {
        critical_rows = 40;
        if (i + 1 < argc && argv[i + 1][0] != '-') {
          critical_rows = static_cast<std::size_t>(parse_whole(f, argv[++i], kMaxCriticalRows));
        }
      } else {
        throw std::invalid_argument(std::string("unknown flag ") + f);
      }
    }
    if (method == "all") {
      for (const char* m : {"1f1b", "gpipe", "zb1p", "zb2p", "coexec", "helix",
                            "helix2"}) {
        show(m, pr, comm_ratio, "", critical_rows);
      }
    } else {
      show(method, pr, comm_ratio, trace_file, critical_rows);
    }
  } catch (const std::exception& e) {
    return usage_error(e.what());
  }
  return 0;
}
