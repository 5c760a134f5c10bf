// Repository benchmark driver: runs one seeded workload for a fixed time and
// prints one JSON result line (see README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-file PATH] [--dump-inputs]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones and
// writes the run's spans to --trace-file. --dump-inputs prints the inputs the
// seed generates and exits. Human-readable notes go to stderr; the result is
// the last line of stdout. Exit code 0 iff a result was printed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common.h"
#include "gen.h"
#include "workloads.h"

namespace perfbench {

// Kept in step with BENCHMARK.json (the runner checks every result against
// it, and the benchmark's tests check both).
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"op_s_p50", "s"},
    {"op_s_tail", "s"},
    {"items_per_s", "items/s"},
    {"peak_rss_bytes", "bytes"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"bench.root_s", "s"},
    {"obs.trace_overhead", "ratio"},
    {"schedules.build_s", "s"},
    {"core.compile_s", "s"},
    {"core.compiled_edges", "count"},
    {"sim.relax_s", "s"},
    {"sim.memory_timeline_s", "s"},
    {"sim.sweep_hit_s", "s"},
    {"sim.sweep_hit_ratio", "ratio"},
    {"plan.unattributed_s", "s"},
    {"tune.lift_lower_s", "s"},
    {"core.validate_s", "s"},
    {"sim.run_schedules_s", "s"},
    {"tune.outside_scoring_s", "s"},
    {"tune.candidates_scored", "count"},
    {"tune.candidates_deduped", "count"},
    {"tune.candidates_invalid", "count"},
    {"tune.scored_ratio", "ratio"},
    {"tune.best_vs_two_fold", "ratio"},
    {"runtime.trainer_init_s", "s"},
    {"tensor.attn_s", "s"},
    {"tensor.pre_s", "s"},
    {"tensor.post_s", "s"},
    {"runtime.optim_s", "s"},
    {"comm.op_s", "s"},
    {"runtime.between_ops_s", "s"},
    {"comm.recv_wait_exposed_s", "s"},
    {"comm.bytes_sent", "bytes"},
    {"comm.messages", "count"},
    {"runtime.stage_idle_share", "ratio"},
    {"runtime.live_peak_bytes", "bytes"},
    {"runtime.ops", "count"},
    {"nn.reference_step_s", "s"},
};

void set_end_to_end(Result& r, const std::vector<double>& setup_s,
                    const std::vector<double>& op_s, double items) {
  if (op_s.empty()) throw std::runtime_error("no operation completed in time");
  r.set("setup_s", median(setup_s));
  r.set("op_s_p50", median(op_s));
  r.set("op_s_tail", tail(op_s));
  r.set("items_per_s", items / sum(op_s));
  r.set("peak_rss_bytes", static_cast<double>(peak_rss_bytes()));
}

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload plan_sweep|tune_search|train_long_seq|"
               "train_short_seq\n"
               "                 --seed N --seconds S --trace 0|1 [--trace-file PATH]"
               " [--dump-inputs]\n");
  return 2;
}

}  // namespace

int run_cli(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    const bool has_val = i + 1 < argc;
    if (f == "--dump-inputs") {
      args.dump_inputs = true;
    } else if (f == "--workload" && has_val) {
      args.workload = argv[++i];
    } else if (f == "--seed" && has_val) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (f == "--seconds" && has_val) {
      args.seconds = std::atof(argv[++i]);
    } else if (f == "--trace" && has_val) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (f == "--trace-file" && has_val) {
      args.trace_file = argv[++i];
    } else {
      return usage();
    }
  }
  Result (*run)(const Args&, Trace*) = nullptr;
  if (args.workload == "plan_sweep") run = run_plan;
  if (args.workload == "tune_search") run = run_tune;
  if (args.workload == "train_long_seq" || args.workload == "train_short_seq") {
    run = run_train;
  }
  if (run == nullptr || !(args.seconds > 0)) return usage();

  try {
    if (args.dump_inputs) {
      dump_inputs(args.workload, args.seed, std::cout);
      return 0;
    }
    Trace trace;
    const Result r = run(args, args.trace ? &trace : nullptr);
    if (args.trace && !args.trace_file.empty()) trace.write(args.trace_file);
    std::fprintf(stderr, "perfbench: %s seed %llu: %lld operations, %lld failed\n",
                 args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                 static_cast<long long>(r.attempted()),
                 static_cast<long long>(r.failed()));
    const std::string line = args.trace ? r.json(kPerLayer, true) : r.json(kEndToEnd, false);
    std::printf("%s\n", line.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run_cli(argc, argv); }
