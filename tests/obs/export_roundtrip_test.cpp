// Chrome-trace exporter round trip: a real traced training run (spans plus
// allocator counter tracks) must export as JSON that the strict parser
// accepts, with complete span events and monotonic timestamps within every
// (pid, tid) lane.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "nn/model.h"
#include "obs/export.h"
#include "obs/recorder.h"
#include "runtime/trainer.h"
#include "support/chrome_trace_parser.h"

namespace helix {
namespace {

/// One traced + memory-tracked training iteration of the numeric mini-GPT
/// pipeline, the same setup every figure bench uses.
obs::TraceCollector traced_iteration(int stages) {
  const nn::MiniGptConfig cfg{.layers = stages, .hidden = 32, .heads = 4,
                              .seq = 32, .batch = 1, .vocab = 64,
                              .micro_batches = 2 * stages, .lr = 0.03f};
  const nn::Batch batch = nn::Batch::random(cfg, 11);
  nn::ModelParams params = nn::ModelParams::init(cfg, 3);
  obs::TraceCollector trace(stages);
  trace.enable_memory();
  runtime::Trainer trainer(params, {.family = runtime::ScheduleFamily::k1F1B,
                                    .pipeline_stages = stages,
                                    .trace = &trace});
  (void)trainer.train_step(batch);
  return trace;
}

double field_as_double(const obs::ParsedEvent& ev, const std::string& key) {
  const auto it = ev.find(key);
  EXPECT_NE(it, ev.end()) << "missing field " << key;
  return it == ev.end() ? 0.0 : std::atof(it->second.c_str());
}

TEST(ExportRoundTrip, SpansAndCounterTracksParseBack) {
  const int stages = 2;
  const obs::TraceCollector trace = traced_iteration(stages);
  const std::string json = to_chrome_trace(trace);

  // Strict parse: throws on any malformed event object.
  const std::vector<obs::ParsedEvent> events = obs::parse_chrome_trace(json);
  ASSERT_FALSE(events.empty());

  std::size_t spans = 0;
  std::size_t counters = 0;
  for (const obs::ParsedEvent& ev : events) {
    const auto ph = ev.find("ph");
    ASSERT_NE(ph, ev.end());
    if (ph->second == "X") {
      ++spans;
      EXPECT_NE(ev.find("name"), ev.end());
      EXPECT_NE(ev.find("pid"), ev.end());
      EXPECT_NE(ev.find("tid"), ev.end());
      EXPECT_GE(field_as_double(ev, "dur"), 0.0);
    } else if (ph->second == "C") {
      ++counters;
      EXPECT_NE(ev.find("name"), ev.end());
      // Counter series are flattened as args.<series> by the parser.
      bool has_series = false;
      for (const auto& [k, v] : ev) {
        if (k.rfind("args.", 0) == 0) has_series = true;
      }
      EXPECT_TRUE(has_series);
    }
  }
  // Every op of every rank produced a span; memory tracking produced the
  // "mem bytes" / "mem fragmentation" counter tracks.
  std::size_t total_ops = 0;
  for (int r = 0; r < trace.num_ranks(); ++r) {
    total_ops += trace.recorder(r).spans().size();
  }
  EXPECT_EQ(spans, total_ops);
  EXPECT_GT(counters, 0u);
}

TEST(ExportRoundTrip, TimestampsMonotonicPerLane) {
  const obs::TraceCollector trace = traced_iteration(2);
  const std::vector<obs::ParsedEvent> events =
      obs::parse_chrome_trace(to_chrome_trace(trace));

  // Span starts within one (pid, tid) lane must be non-decreasing (each rank
  // thread records its stream in execution order), and no timestamp may
  // precede the collector's epoch (ts >= 0).
  std::map<std::pair<std::string, std::string>, double> last_ts;
  for (const obs::ParsedEvent& ev : events) {
    const double ts = field_as_double(ev, "ts");
    EXPECT_GE(ts, 0.0);
    if (ev.at("ph") != "X") continue;
    const auto key = std::make_pair(ev.at("pid"), ev.at("tid"));
    const auto it = last_ts.find(key);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second) << "lane (" << key.first << ", " << key.second
                                << ") went backwards";
    }
    last_ts[key] = ts;
  }
  EXPECT_FALSE(last_ts.empty());
}

TEST(ExportRoundTrip, SpanOnlyExportOmitsCounters) {
  const nn::MiniGptConfig cfg{.layers = 2, .hidden = 32, .heads = 4,
                              .seq = 32, .batch = 1, .vocab = 64,
                              .micro_batches = 4, .lr = 0.03f};
  const nn::Batch batch = nn::Batch::random(cfg, 11);
  nn::ModelParams params = nn::ModelParams::init(cfg, 3);
  obs::TraceCollector trace(2);
  runtime::Trainer trainer(params, {.family = runtime::ScheduleFamily::k1F1B,
                                    .pipeline_stages = 2, .trace = &trace});
  (void)trainer.train_step(batch);

  for (const obs::ParsedEvent& ev : obs::parse_chrome_trace(to_chrome_trace(trace))) {
    EXPECT_NE(ev.at("ph"), "C") << "counter event without memory tracking";
  }
}

}  // namespace
}  // namespace helix
