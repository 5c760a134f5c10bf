// End-to-end live-run health through the Trainer, across both comm engines:
//  * a detached run is bit-identical to an attached one (zero-cost contract);
//  * an injected rank kill aborts the step, and the merged post-mortem names
//    the faulting rank while every blocked survivor contributes its recorder
//    tail and blocked-at-death state;
//  * an injected hung delivery trips the watchdog within the configured
//    window, and the wait-graph names the blocked (src, dst, tag) edge;
//  * dump files land in HealthOptions::dump_dir.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "nn/reference.h"
#include "runtime/trainer.h"

namespace helix::runtime {
namespace {

nn::MiniGptConfig tiny_config(int layers = 4, int micro_batches = 4) {
  return {.layers = layers, .hidden = 16, .heads = 2, .seq = 8, .batch = 1,
          .vocab = 32, .micro_batches = micro_batches, .lr = 0.05f};
}

obs::HealthOptions quiet_health() {
  obs::HealthOptions h;
  h.enabled = true;
  // Wide window: these runs finish in milliseconds, the watchdog must not
  // trip spuriously even on a loaded CI machine.
  h.no_progress_window_ms = 60000;
  h.poll_interval_ms = 50;
  return h;
}

/// The first pipeline Send of stage 0: the (dst, tag) to fault.
core::Op first_stage0_send(const core::Schedule& sched) {
  for (const core::OpId id : sched.programs[0]) {
    const core::Op& op = sched.ops[static_cast<std::size_t>(id)];
    if (op.kind == core::OpKind::kSend) return op;
  }
  ADD_FAILURE() << "schedule has no Send on stage 0";
  return {};
}

class HealthEngines : public ::testing::TestWithParam<bool> {};

TEST_P(HealthEngines, AttachedRunIsBitIdenticalToDetached) {
  const bool async = GetParam();
  const nn::MiniGptConfig cfg = tiny_config();
  const nn::Batch batch = nn::Batch::random(cfg, 77);
  nn::ModelParams detached = nn::ModelParams::init(cfg, 7);
  nn::ModelParams attached = nn::ModelParams::init(cfg, 7);
  Trainer plain(detached, {.family = ScheduleFamily::kHelixTwoFold,
                           .pipeline_stages = 2,
                           .async_comm = async});
  Trainer health(attached, {.family = ScheduleFamily::kHelixTwoFold,
                            .pipeline_stages = 2,
                            .async_comm = async,
                            .health = quiet_health()});
  for (int iter = 0; iter < 2; ++iter) {
    const IterationMetrics a = plain.train_step(batch);
    const IterationMetrics b = health.train_step(batch);
    ASSERT_EQ(a.micro_batch_losses.size(), b.micro_batch_losses.size());
    for (std::size_t mb = 0; mb < a.micro_batch_losses.size(); ++mb) {
      EXPECT_EQ(a.micro_batch_losses[mb], b.micro_batch_losses[mb]);
    }
    EXPECT_EQ(detached.max_diff(attached), 0.0) << "after iter " << iter;
  }
  // The attached run actually recorded: rings hold op + comm events.
  ASSERT_NE(health.health_collector(), nullptr);
  EXPECT_EQ(plain.last_post_mortem(), nullptr);
  for (int r = 0; r < 2; ++r) {
    EXPECT_GT(health.health_collector()->recorder(r).total(), 0u) << r;
    EXPECT_GT(health.health_collector()->cell(r).ops_retired.load(), 0) << r;
  }
}

TEST_P(HealthEngines, RankKillProducesMergedPostMortem) {
  const bool async = GetParam();
  const nn::MiniGptConfig cfg = tiny_config(8, 4);
  const nn::Batch batch = nn::Batch::random(cfg, 78);
  nn::ModelParams params = nn::ModelParams::init(cfg, 8);
  comm::FaultPlan plan;
  plan.kills.push_back({1, 1});  // rank 1 dies at the start of step 1
  obs::HealthOptions h = quiet_health();
  h.faults = &plan;
  Trainer trainer(params, {.family = ScheduleFamily::k1F1B,
                           .pipeline_stages = 4,
                           .async_comm = async,
                           .health = h});
  (void)trainer.train_step(batch);  // step 0 is clean
  EXPECT_EQ(trainer.last_post_mortem(), nullptr);
  EXPECT_THROW((void)trainer.train_step(batch), comm::FaultInjected);

  const obs::PostMortem* pm = trainer.last_post_mortem();
  ASSERT_NE(pm, nullptr);
  // The merged report names the faulting rank...
  EXPECT_NE(pm->reason.find("rank 1"), std::string::npos) << pm->reason;
  ASSERT_EQ(pm->ranks.size(), 4u);
  // ...and every rank contributes a non-empty recorder tail (step 0 alone
  // guarantees events everywhere).
  int blocked_ranks = 0;
  for (const obs::RankDump& d : pm->ranks) {
    EXPECT_FALSE(d.tail.empty()) << "rank " << d.rank;
    const bool blocked = d.state.kind == obs::BlockedKind::kRecv ||
                         d.state.kind == obs::BlockedKind::kHandleWait ||
                         d.state.kind == obs::BlockedKind::kBarrier;
    if (blocked) {
      ++blocked_ranks;
      // A blocked survivor's cell names a concrete (src, tag) or barrier.
      if (d.state.kind != obs::BlockedKind::kBarrier) {
        EXPECT_GE(d.state.src, 0) << "rank " << d.rank;
        EXPECT_GE(d.state.tag, 0) << "rank " << d.rank;
      }
    }
  }
  // The killed rank's neighbors were mid-pipeline: someone was blocked on it.
  EXPECT_GT(blocked_ranks, 0);
  EXPECT_FALSE(pm->hang.tripped);  // crash path, not a watchdog trip
}

TEST_P(HealthEngines, HungDeliveryTripsWatchdogAndNamesEdge) {
  const bool async = GetParam();
  const nn::MiniGptConfig cfg = tiny_config();
  const nn::Batch batch = nn::Batch::random(cfg, 79);
  nn::ModelParams params = nn::ModelParams::init(cfg, 9);
  obs::HealthOptions h;
  h.enabled = true;
  h.no_progress_window_ms = 400;
  h.poll_interval_ms = 20;
  comm::FaultPlan plan;
  TrainerOptions opts{.family = ScheduleFamily::k1F1B,
                      .pipeline_stages = 2,
                      .async_comm = async};
  // Build once to learn the schedule's first stage-0 send, then fault it.
  const core::Op send = first_stage0_send(build_numeric_schedule(cfg, opts));
  plan.deliveries.emplace_back(0, send.peer, send.tag,
                               comm::DeliveryFault::Action::kHang);
  h.faults = &plan;
  opts.health = h;
  Trainer trainer(params, opts);
  try {
    (void)trainer.train_step(batch);
    FAIL() << "hung delivery must trip the watchdog";
  } catch (const HangDetected& e) {
    EXPECT_NE(std::string(e.what()).find("rank"), std::string::npos);
  }
  const obs::PostMortem* pm = trainer.last_post_mortem();
  ASSERT_NE(pm, nullptr);
  EXPECT_TRUE(pm->hang.tripped);
  EXPECT_NE(pm->hang.verdict, obs::HangVerdict::kNone);
  // The named stalled edge is the injected (src=0 -> dst, tag) delivery.
  EXPECT_EQ(pm->hang.stalled_edge.waiter, send.peer);
  EXPECT_EQ(pm->hang.stalled_edge.on, 0);
  EXPECT_EQ(pm->hang.stalled_edge.tag, send.tag);
  EXPECT_EQ(pm->hang.first_stalled_rank, send.peer);
}

TEST_P(HealthEngines, DumpFilesAreWrittenOnFailure) {
  const bool async = GetParam();
  const nn::MiniGptConfig cfg = tiny_config();
  const nn::Batch batch = nn::Batch::random(cfg, 80);
  nn::ModelParams params = nn::ModelParams::init(cfg, 10);
  comm::FaultPlan plan;
  plan.kills.push_back({0, 0});
  obs::HealthOptions h = quiet_health();
  h.faults = &plan;
  const std::string dir = ::testing::TempDir() + "helix_health_dumps_" +
                          (async ? "async" : "blocking");
  std::filesystem::remove_all(dir);
  h.dump_dir = dir;
  Trainer trainer(params, {.family = ScheduleFamily::k1F1B,
                           .pipeline_stages = 2,
                           .async_comm = async,
                           .health = h});
  EXPECT_THROW((void)trainer.train_step(batch), comm::FaultInjected);
  EXPECT_TRUE(std::filesystem::exists(dir + "/postmortem_step0.txt"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/postmortem_step0.json"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/postmortem_step0.trace.json"));
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Engines, HealthEngines, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("async")
                                             : std::string("blocking");
                         });

}  // namespace
}  // namespace helix::runtime
