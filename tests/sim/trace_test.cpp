// Rendering / export sanity: ASCII timelines cover the makespan, Chrome
// traces are structurally valid JSON event lists, and the simulator's
// exporter shares its field names and event vocabulary with the runtime
// exporter (obs/export.h) so the two traces are directly comparable.
#include <gtest/gtest.h>

#include <set>

#include "core/cost.h"
#include "core/filo.h"
#include "obs/export.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "support/chrome_trace_parser.h"

namespace helix::sim {
namespace {

core::Schedule tiny_helix() {
  core::PipelineProblem pr;
  pr.p = 2;
  pr.m = 2;
  pr.L = 4;
  pr.comm.boundary = 1;
  pr.comm.pre_to_attn = 1;
  pr.comm.attn_to_post = 1;
  pr.include_lm_head = false;
  return core::build_helix_schedule(
      pr, {.two_fold = false, .recompute_without_attention = false});
}

TEST(Trace, AsciiTimelineShape) {
  const auto sched = tiny_helix();
  const core::UnitCostModel cost;
  const auto res = Simulator(cost).run(sched);
  const std::string art =
      render_ascii_timeline(sched, res, {.time_per_col = 1.0, .max_cols = 300,
                                         .show_comm = true});
  // Two stages, each with a compute and a comm row.
  EXPECT_NE(art.find("P0 |"), std::string::npos);
  EXPECT_NE(art.find("P1 |"), std::string::npos);
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 4);
  // Micro batch digits appear; idle is dotted.
  EXPECT_NE(art.find('0'), std::string::npos);
  EXPECT_NE(art.find('1'), std::string::npos);
  EXPECT_NE(art.find('.'), std::string::npos);
}

TEST(Trace, ChromeTraceContainsEveryOp) {
  const auto sched = tiny_helix();
  const core::UnitCostModel cost;
  const auto res = Simulator(cost).run(sched);
  const std::string json = to_chrome_trace(sched, res);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.size() - 2], ']');
  std::size_t events = 0;
  for (std::size_t pos = 0; (pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos;
       ++pos) {
    ++events;
  }
  EXPECT_EQ(events, sched.total_ops());
}

TEST(Trace, SimChromeTraceParsesWithSharedSchema) {
  const auto sched = tiny_helix();
  const core::UnitCostModel cost;
  const auto res = Simulator(cost).run(sched);
  const auto events = obs::parse_chrome_trace(to_chrome_trace(sched, res));
  ASSERT_EQ(events.size(), sched.total_ops());
  for (const auto& e : events) {
    EXPECT_EQ(e.size(), 6u);
    for (const char* key : {"name", "ph", "pid", "tid", "ts", "dur"}) {
      EXPECT_TRUE(e.count(key)) << "missing field " << key;
    }
    EXPECT_EQ(e.at("ph"), "X");
  }
}

TEST(Trace, SimAndRuntimeExportersShareFieldNamesAndEventNames) {
  // Simulated trace of the schedule...
  const auto sched = tiny_helix();
  const core::UnitCostModel cost;
  const auto res = Simulator(cost).run(sched);
  const auto sim_events = obs::parse_chrome_trace(to_chrome_trace(sched, res));

  // ...and a runtime-exporter trace of the same ops, built from synthetic
  // spans (one per op, as the instrumented interpreter records them).
  obs::TraceCollector collector(sched.num_stages);
  std::int64_t t = collector.epoch_ns();
  for (int s = 0; s < sched.num_stages; ++s) {
    for (const core::OpId id : sched.programs[static_cast<std::size_t>(s)]) {
      const core::Op& op = sched.ops[static_cast<std::size_t>(id)];
      obs::Span span;
      span.kind = op.kind;
      span.stage = op.stage;
      span.mb = op.mb;
      span.layer = op.layer;
      span.start_ns = t;
      span.end_ns = t + 1000;
      t += 1000;
      collector.recorder(s).record(span);
    }
  }
  const auto run_events = obs::parse_chrome_trace(obs::to_chrome_trace(collector));
  ASSERT_EQ(run_events.size(), sim_events.size());

  // Same field names on every event.
  for (std::size_t i = 0; i < run_events.size(); ++i) {
    std::set<std::string> sim_keys, run_keys;
    for (const auto& [k, v] : sim_events[i]) sim_keys.insert(k);
    for (const auto& [k, v] : run_events[i]) run_keys.insert(k);
    EXPECT_EQ(sim_keys, run_keys);
  }
  // Same event vocabulary: the (name, pid, tid) triples match as multisets,
  // so a consumer can join simulated and measured events op by op.
  std::multiset<std::string> sim_ids, run_ids;
  for (const auto& e : sim_events) {
    sim_ids.insert(e.at("name") + "|" + e.at("pid") + "|" + e.at("tid"));
  }
  for (const auto& e : run_events) {
    run_ids.insert(e.at("name") + "|" + e.at("pid") + "|" + e.at("tid"));
  }
  EXPECT_EQ(sim_ids, run_ids);
}

TEST(Trace, OpLogSortedByStart) {
  const auto sched = tiny_helix();
  const core::UnitCostModel cost;
  const auto res = Simulator(cost).run(sched);
  const std::string log = dump_op_log(sched, res);
  double prev = -1;
  std::size_t lines = 0;
  for (std::size_t pos = 0; pos < log.size();) {
    const std::size_t nl = log.find('\n', pos);
    if (nl == std::string::npos) break;
    const double start = std::stod(log.substr(pos + 1));
    EXPECT_GE(start, prev);
    prev = start;
    pos = nl + 1;
    ++lines;
  }
  EXPECT_EQ(lines, sched.total_ops());
}

}  // namespace
}  // namespace helix::sim
