#pragma once

#include "common.h"

// The four workloads. Each one is a closed loop with one client: it sets
// up (several times; the median is `setup_s`), then issues operations back
// to back until `args.seconds` have passed, checking every operation's
// output outside its timed region.
//
// Without a trace the run sets the end-to-end metrics. With one, it sets
// the per-layer metrics of its layers and records its spans into `trace`.
namespace perfbench {

Result run_plan(const Args& args, Trace* trace);
Result run_tune(const Args& args, Trace* trace);
Result run_train(const Args& args, Trace* trace);

/// Set the metrics every untraced run reports from its latencies (seconds
/// per operation) and work (items per operation), plus setup and memory.
void set_end_to_end(Result& r, const std::vector<double>& setup_s,
                    const std::vector<double>& op_s, double items_per_op_sum);

}  // namespace perfbench
