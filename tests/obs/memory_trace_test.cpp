// Memory observability on real traced executions (obs/memory.h + the memory
// section of obs/export.h):
//  * opt-in per-rank memory tracking produces tagged allocator event streams
//    whose measured peak brackets the interpreter's exact live-byte gauge;
//  * peak attribution decomposes the measured peak into "whose bytes";
//  * the Chrome trace gains per-rank counter tracks when tracking is on and
//    is unchanged (span events only) when it is off;
//  * tracking never perturbs numerics (bit-identical losses and parameters);
//  * the reconciliation report's memory section reproduces the Figure 4
//    cross-stage 1F1B imbalance: measured allocator peaks match the
//    closed-form model prediction within tolerance and in ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/cost.h"
#include "nn/reference.h"
#include "obs/export.h"
#include "obs/memory.h"
#include "runtime/trainer.h"
#include "sim/simulator.h"
#include "support/chrome_trace_parser.h"

namespace helix::runtime {
namespace {

/// Large enough that allocator rounding (512 B granularity) is small against
/// every stash, small enough that a 4-stage run stays fast.
nn::MiniGptConfig mem_config(int stages) {
  return {.layers = stages, .hidden = 32, .heads = 4, .seq = 64, .batch = 1,
          .vocab = 64, .micro_batches = 2 * stages, .lr = 0.03f};
}

struct MemRun {
  core::Schedule sched;
  obs::TraceCollector trace{2};
  IterationMetrics metrics;
};

MemRun run_tracked(ScheduleFamily family, int stages, bool track_memory,
                   bool recompute = false) {
  const nn::MiniGptConfig cfg = mem_config(stages);
  const nn::Batch batch = nn::Batch::random(cfg, 7);
  nn::ModelParams params = nn::ModelParams::init(cfg, 11);
  MemRun out{{}, obs::TraceCollector(stages), {}};
  if (track_memory) out.trace.enable_memory();
  Trainer trainer(params, {.family = family,
                           .pipeline_stages = stages,
                           .recompute_without_attention = recompute,
                           .trace = &out.trace});
  out.sched = trainer.schedule();
  out.metrics = trainer.train_step(batch);
  return out;
}

/// The allocator peak brackets the interpreter's exact live-byte high water,
/// every event is tagged, and the allocator ends the iteration empty.
void bracket_live_gauge(const MemRun& run) {
  ASSERT_TRUE(run.trace.memory_enabled());
  for (int r = 0; r < run.trace.num_ranks(); ++r) {
    const obs::MemoryTracker* t = run.trace.memory(r);
    ASSERT_NE(t, nullptr) << run.sched.name << " rank " << r;
    ASSERT_FALSE(t->events().empty());
    std::int64_t prev_ts = 0;
    for (const obs::MemoryEvent& me : t->events()) {
      EXPECT_TRUE(me.tag.valid) << "every event happens inside an op";
      EXPECT_GE(me.tag.mb, 0);
      EXPECT_GE(me.t_ns, prev_ts) << "event timestamps are monotone";
      prev_ts = me.t_ns;
    }
    // The allocator peak is the rounded version of the interpreter's exact
    // live-byte high water: never below it, and within rounding slack above.
    const std::int64_t exact_peak =
        run.metrics.rank_summaries[static_cast<std::size_t>(r)].live_peak_bytes;
    ASSERT_GT(exact_peak, 0);
    EXPECT_GE(t->peak_allocated(), exact_peak);
    EXPECT_LT(t->peak_allocated(), 2 * exact_peak)
        << "rounding slack should stay far below the tracked bytes";
    // The iteration drains: every slot is consumed and every stash freed, so
    // the shadow allocator must end empty.
    EXPECT_EQ(t->allocator().stats().allocated_bytes, 0)
        << run.sched.name << " rank " << r;
  }
}

TEST(MemoryTrace, TrackersRecordTaggedEventsAndBracketLiveGauge) {
  bracket_live_gauge(run_tracked(ScheduleFamily::k1F1B, 4, true));
  // Recomputation refills stashes in place and must leave none behind.
  bracket_live_gauge(run_tracked(ScheduleFamily::kHelixTwoFold, 2, true, true));
}

TEST(MemoryTrace, PeakAttributionDecomposesThePeak) {
  const MemRun run = run_tracked(ScheduleFamily::kHelixTwoFold, 2, true);
  for (int r = 0; r < run.trace.num_ranks(); ++r) {
    const obs::MemoryTracker* t = run.trace.memory(r);
    ASSERT_NE(t, nullptr);
    const std::vector<obs::AttributionRow> rows = t->peak_attribution();
    ASSERT_FALSE(rows.empty());
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_GT(rows[i].bytes, 0);
      if (i > 0) {
        EXPECT_LE(rows[i].bytes, rows[i - 1].bytes) << "sorted desc";
      }
      sum += rows[i].bytes;
    }
    EXPECT_EQ(sum, t->peak_allocated())
        << "attribution rows partition the peak exactly";
  }
  const std::string table = obs::render_memory_attribution(run.trace);
  EXPECT_NE(table.find("rank 0 peak attribution"), std::string::npos);
  EXPECT_NE(table.find("rank 1 peak attribution"), std::string::npos);
}

TEST(MemoryTrace, ChromeTraceGainsCounterTracks) {
  const MemRun run = run_tracked(ScheduleFamily::kHelixTwoFold, 2, true);
  const std::string json = obs::to_chrome_trace(run.trace);
  const std::vector<obs::ParsedEvent> events = obs::parse_chrome_trace(json);
  std::size_t spans = 0, mem_bytes = 0, mem_frag = 0;
  for (const obs::ParsedEvent& e : events) {
    if (e.at("ph") == "X") {
      ++spans;
      continue;
    }
    ASSERT_EQ(e.at("ph"), "C");
    const int pid = std::stoi(e.at("pid"));
    EXPECT_GE(pid, 0);
    EXPECT_LT(pid, run.trace.num_ranks());
    EXPECT_GE(std::stod(e.at("ts")), 0.0);
    if (e.at("name") == "mem bytes") {
      ++mem_bytes;
      EXPECT_TRUE(e.count("args.allocated"));
      EXPECT_TRUE(e.count("args.reserved"));
      EXPECT_GE(std::stoll(e.at("args.reserved")),
                std::stoll(e.at("args.allocated")));
    } else {
      ASSERT_EQ(e.at("name"), "mem fragmentation");
      ++mem_frag;
      ASSERT_TRUE(e.count("args.frac"));
      const double frac = std::stod(e.at("args.frac"));
      EXPECT_GE(frac, 0.0);
      EXPECT_LE(frac, 1.0);
    }
  }
  EXPECT_EQ(spans, run.sched.total_ops());
  std::size_t total_events = 0;
  for (int r = 0; r < run.trace.num_ranks(); ++r) {
    total_events += run.trace.memory(r)->events().size();
  }
  EXPECT_EQ(mem_bytes, total_events) << "one bytes sample per allocator event";
  EXPECT_EQ(mem_frag, total_events);
}

TEST(MemoryTrace, DetachedTraceIsSpanOnlyAndReportsUnavailable) {
  const MemRun run = run_tracked(ScheduleFamily::kHelixTwoFold, 2, false);
  EXPECT_FALSE(run.trace.memory_enabled());
  EXPECT_EQ(run.trace.memory(0), nullptr);
  // Without memory tracking the export is exactly the span-only trace: the
  // same event count and flat 6-field layout the pre-existing exporter test
  // pins down — no counter events appear.
  const std::vector<obs::ParsedEvent> events =
      obs::parse_chrome_trace(obs::to_chrome_trace(run.trace));
  ASSERT_EQ(events.size(), run.sched.total_ops());
  for (const obs::ParsedEvent& e : events) {
    EXPECT_EQ(e.at("ph"), "X");
    EXPECT_EQ(e.size(), 6u);
  }
  const core::UnitCostModel cost;
  const sim::SimResult predicted = sim::Simulator(cost).run(run.sched);
  const obs::ReconciliationReport report =
      obs::reconcile(run.sched, predicted, run.trace);
  EXPECT_FALSE(report.memory.available);
  EXPECT_TRUE(report.memory.stages.empty());
  EXPECT_EQ(obs::render_reconciliation(report).find("memory:"),
            std::string::npos);
  EXPECT_TRUE(obs::render_memory_attribution(run.trace).empty());
}

TEST(MemoryTrace, TrackingIsNumericallyInvisible) {
  const nn::MiniGptConfig cfg = mem_config(2);
  const nn::Batch batch = nn::Batch::random(cfg, 7);
  nn::ModelParams plain = nn::ModelParams::init(cfg, 11);
  nn::ModelParams tracked = nn::ModelParams::init(cfg, 11);
  obs::TraceCollector trace(2);
  trace.enable_memory();
  Trainer plain_trainer(plain, {.family = ScheduleFamily::kHelixTwoFold,
                                .pipeline_stages = 2});
  Trainer tracked_trainer(tracked, {.family = ScheduleFamily::kHelixTwoFold,
                                    .pipeline_stages = 2,
                                    .trace = &trace});
  for (int iter = 0; iter < 2; ++iter) {
    const IterationMetrics a = plain_trainer.train_step(batch);
    const IterationMetrics b = tracked_trainer.train_step(batch);
    ASSERT_EQ(a.micro_batch_losses.size(), b.micro_batch_losses.size());
    for (std::size_t mb = 0; mb < a.micro_batch_losses.size(); ++mb) {
      EXPECT_EQ(a.micro_batch_losses[mb], b.micro_batch_losses[mb]);
    }
    EXPECT_EQ(plain.max_diff(tracked), 0.0) << "after iter " << iter;
  }
}

TEST(MemoryTrace, ReconciliationReproducesFig4Imbalance) {
  const int stages = 4;
  const MemRun run = run_tracked(ScheduleFamily::k1F1B, stages, true);
  const core::UnitCostModel cost;
  const sim::SimResult predicted = sim::Simulator(cost).run(run.sched);
  const TrainerOptions opt{.family = ScheduleFamily::k1F1B,
                           .pipeline_stages = stages};
  const std::vector<std::int64_t> model =
      predict_stage_peak_bytes(mem_config(stages), opt);
  const obs::ReconciliationReport report =
      obs::reconcile(run.sched, predicted, run.trace, model);

  ASSERT_TRUE(report.memory.available);
  ASSERT_EQ(report.memory.stages.size(), static_cast<std::size_t>(stages));
  for (const obs::StageMemoryReconciliation& s : report.memory.stages) {
    EXPECT_GT(s.measured_peak_bytes, 0) << "stage " << s.stage;
    EXPECT_GE(s.measured_reserved_peak, s.measured_peak_bytes);
    EXPECT_GT(s.model_bytes, 0);
    EXPECT_GT(s.sim_bytes, 0);
    // Measured allocator peak vs the closed-form Table 1 / Eq. 2 prediction:
    // within 30% (slack covers allocator rounding and transient reuse).
    EXPECT_GT(s.vs_model, 0.70) << "stage " << s.stage;
    EXPECT_LT(s.vs_model, 1.30) << "stage " << s.stage;
    EXPECT_GT(s.vs_sim, 0.60) << "stage " << s.stage;
    EXPECT_LT(s.vs_sim, 1.50) << "stage " << s.stage;
  }
  // The Figure 4 shape: stage i of 1F1B holds min(p - i, m) outstanding
  // micro batches, so measured peaks strictly decrease across stages and the
  // ordering matches the analytical model.
  for (std::size_t i = 1; i < report.memory.stages.size(); ++i) {
    EXPECT_GT(report.memory.stages[i - 1].measured_peak_bytes,
              report.memory.stages[i].measured_peak_bytes)
        << "stages " << i - 1 << " vs " << i;
  }
  EXPECT_GT(report.memory.measured_imbalance, 1.5);
  EXPECT_GT(report.memory.model_imbalance, 1.5);
  EXPECT_TRUE(report.memory.imbalance_order_matches_model);
  const std::string rendered = obs::render_reconciliation(report);
  EXPECT_NE(rendered.find("memory:"), std::string::npos);

  // Without the model prediction the memory section still reports measured
  // and simulated peaks but makes no ordering claim.
  const obs::ReconciliationReport no_model =
      obs::reconcile(run.sched, predicted, run.trace);
  ASSERT_TRUE(no_model.memory.available);
  EXPECT_EQ(no_model.memory.stages[0].model_bytes, 0);
  EXPECT_EQ(no_model.memory.stages[0].vs_model, 0.0);
  EXPECT_FALSE(no_model.memory.imbalance_order_matches_model);
}

}  // namespace
}  // namespace helix::runtime
