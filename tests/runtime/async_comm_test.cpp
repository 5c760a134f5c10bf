// The asynchronous comm engine preserves the numerical and program-order
// contracts of the blocking interpreter:
//  * for every recv-lookahead window — 0, 1, 4, unbounded — training is
//    bit-identical to the sequential reference (losses AND parameters),
//    across schedule families;
//  * a traced async run still reconciles against the simulator with
//    order_matches_ir on every stage: prefetching never reorders the
//    compute-op sequence the validator's per-micro-batch program-order
//    invariant is defined over;
//  * the engine is actually engaged (isend/irecv counters advance) and keeps
//    the one-span-per-op accounting intact;
//  * tracing an async run does not perturb its numerics.
#include <gtest/gtest.h>

#include "core/cost.h"
#include "core/validator.h"
#include "nn/reference.h"
#include "obs/export.h"
#include "runtime/trainer.h"
#include "sim/simulator.h"

namespace helix::runtime {
namespace {

nn::MiniGptConfig tiny_config(int layers = 4, int micro_batches = 4) {
  return {.layers = layers, .hidden = 16, .heads = 2, .seq = 8, .batch = 1,
          .vocab = 32, .micro_batches = micro_batches, .lr = 0.05f};
}

struct WindowCase {
  std::string name;
  ScheduleFamily family;
  int p;
  int layers;
  int micro_batches;
  int lookahead;
};

class AsyncLookahead : public ::testing::TestWithParam<WindowCase> {};

TEST_P(AsyncLookahead, BitIdenticalToSequentialReference) {
  const WindowCase c = GetParam();
  const nn::MiniGptConfig cfg = tiny_config(c.layers, c.micro_batches);
  const nn::Batch batch = nn::Batch::random(cfg, 1234);
  nn::ModelParams reference = nn::ModelParams::init(cfg, 42);
  nn::ModelParams piped = nn::ModelParams::init(cfg, 42);
  Trainer trainer(piped, {.family = c.family,
                          .pipeline_stages = c.p,
                          .async_comm = true,
                          .comm_lookahead = c.lookahead});
  const auto validation = core::validate_semantics(trainer.schedule());
  for (const auto& e : validation.errors) ADD_FAILURE() << e;
  for (int iter = 0; iter < 3; ++iter) {
    const nn::StepResult ref = nn::reference_train_step(reference, batch);
    const IterationMetrics got = trainer.train_step(batch);
    ASSERT_EQ(got.micro_batch_losses.size(), ref.micro_batch_losses.size());
    for (std::size_t mb = 0; mb < ref.micro_batch_losses.size(); ++mb) {
      EXPECT_EQ(got.micro_batch_losses[mb], ref.micro_batch_losses[mb])
          << "iter " << iter << " mb " << mb;
    }
    EXPECT_EQ(piped.max_diff(reference), 0.0) << "after iter " << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Windows, AsyncLookahead,
    ::testing::Values(
        WindowCase{"helix_w0", ScheduleFamily::kHelixTwoFold, 2, 4, 4, 0},
        WindowCase{"helix_w1", ScheduleFamily::kHelixTwoFold, 2, 4, 4, 1},
        WindowCase{"helix_w4", ScheduleFamily::kHelixTwoFold, 2, 4, 4, 4},
        WindowCase{"helix_unbounded", ScheduleFamily::kHelixTwoFold, 2, 4, 4,
                   kUnboundedLookahead},
        WindowCase{"helix_p4_unbounded", ScheduleFamily::kHelixTwoFold, 4, 8, 8,
                   kUnboundedLookahead},
        WindowCase{"onef1b_w0", ScheduleFamily::k1F1B, 2, 4, 4, 0},
        WindowCase{"onef1b_unbounded", ScheduleFamily::k1F1B, 2, 4, 4,
                   kUnboundedLookahead},
        WindowCase{"zb1p_lookahead1", ScheduleFamily::kZb1p, 2, 4, 4, 1},
        WindowCase{"zb1p_unbounded", ScheduleFamily::kZb1p, 2, 4, 4,
                   kUnboundedLookahead},
        WindowCase{"gpipe_w4", ScheduleFamily::kGPipe, 2, 4, 4, 4}),
    [](const auto& info) { return info.param.name; });

struct AsyncTracedRun {
  core::Schedule sched;
  obs::TraceCollector trace{2};
  IterationMetrics metrics;
};

AsyncTracedRun run_async_traced(ScheduleFamily family, int lookahead) {
  const nn::MiniGptConfig cfg = tiny_config();
  const nn::Batch batch = nn::Batch::random(cfg, 7);
  nn::ModelParams params = nn::ModelParams::init(cfg, 11);
  AsyncTracedRun out;
  Trainer trainer(params, {.family = family,
                           .pipeline_stages = 2,
                           .async_comm = true,
                           .comm_lookahead = lookahead,
                           .trace = &out.trace});
  out.sched = trainer.schedule();
  out.metrics = trainer.train_step(batch);
  return out;
}

TEST(AsyncComm, PrefetchPreservesProgramOrderInvariant) {
  // The validator's per-micro-batch program-order invariant is over compute
  // ops; reconcile() checks the measured compute sequence against the IR
  // program for every stage. Prefetched recvs (and eagerly posted sends)
  // must leave that order untouched for any window.
  for (const int w : {0, 1, 4, kUnboundedLookahead}) {
    const AsyncTracedRun run =
        run_async_traced(ScheduleFamily::kHelixTwoFold, w);
    const core::UnitCostModel cost;
    const sim::SimResult predicted = sim::Simulator(cost).run(run.sched);
    const obs::ReconciliationReport report =
        obs::reconcile(run.sched, predicted, run.trace);
    EXPECT_TRUE(report.all_orders_match_ir()) << "lookahead " << w;
    for (const obs::StageReconciliation& s : report.stages) {
      EXPECT_TRUE(s.order_matches_ir) << "stage " << s.stage << " w " << w;
      EXPECT_DOUBLE_EQ(s.order_rank_correlation, 1.0);
      // The report prices comm overlap in both worlds; fractions are sane.
      EXPECT_GE(s.predicted_overlap_frac, 0.0);
      EXPECT_LE(s.predicted_overlap_frac, 1.0);
      EXPECT_GE(s.measured_overlap_frac, 0.0);
      EXPECT_LE(s.measured_overlap_frac, 1.0);
    }
  }
}

TEST(AsyncComm, EngineIsEngagedAndAccountingStaysOnePerOp) {
  const AsyncTracedRun run =
      run_async_traced(ScheduleFamily::kHelixTwoFold, kUnboundedLookahead);
  for (int r = 0; r < 2; ++r) {
    const auto& program = run.sched.programs[static_cast<std::size_t>(r)];
    // The async paths really ran: sends through the comm worker, recvs as
    // posted handles.
    EXPECT_GT(run.trace.comm(r).isend_posted.value, 0) << "rank " << r;
    EXPECT_GT(run.trace.comm(r).irecv_posted.value, 0) << "rank " << r;
    // Exactly one span per IR op, comm included.
    EXPECT_EQ(run.trace.recorder(r).spans().size(), program.size());
    // Exposed + hidden is a partition: both are non-negative, and every
    // blocked nanosecond is in exactly one bucket.
    EXPECT_GE(run.trace.comm(r).recv_wait_exposed_ns.value, 0);
    EXPECT_GE(run.trace.comm(r).recv_wait_hidden_ns.value, 0);
  }
}

TEST(AsyncComm, TracingIsNumericallyInvisible) {
  const nn::MiniGptConfig cfg = tiny_config();
  const nn::Batch batch = nn::Batch::random(cfg, 7);
  nn::ModelParams plain = nn::ModelParams::init(cfg, 11);
  nn::ModelParams traced = nn::ModelParams::init(cfg, 11);
  obs::TraceCollector trace(2);
  Trainer plain_trainer(plain, {.family = ScheduleFamily::kHelixTwoFold,
                                .pipeline_stages = 2,
                                .async_comm = true});
  Trainer traced_trainer(traced, {.family = ScheduleFamily::kHelixTwoFold,
                                  .pipeline_stages = 2,
                                  .async_comm = true,
                                  .trace = &trace});
  for (int iter = 0; iter < 2; ++iter) {
    const IterationMetrics a = plain_trainer.train_step(batch);
    const IterationMetrics b = traced_trainer.train_step(batch);
    ASSERT_EQ(a.micro_batch_losses.size(), b.micro_batch_losses.size());
    for (std::size_t mb = 0; mb < a.micro_batch_losses.size(); ++mb) {
      EXPECT_EQ(a.micro_batch_losses[mb], b.micro_batch_losses[mb]);
    }
    EXPECT_EQ(plain.max_diff(traced), 0.0) << "after iter " << iter;
  }
}

TEST(AsyncComm, NegativeWindowsAllMeanUnbounded) {
  // Any negative value is the unbounded sentinel, not an off-by-one door.
  const nn::MiniGptConfig cfg = tiny_config();
  const nn::Batch batch = nn::Batch::random(cfg, 3);
  nn::ModelParams a = nn::ModelParams::init(cfg, 5);
  nn::ModelParams b = nn::ModelParams::init(cfg, 5);
  Trainer ta(a, {.family = ScheduleFamily::kHelixTwoFold,
                 .pipeline_stages = 2,
                 .async_comm = true,
                 .comm_lookahead = kUnboundedLookahead});
  Trainer tb(b, {.family = ScheduleFamily::kHelixTwoFold,
                 .pipeline_stages = 2,
                 .async_comm = true,
                 .comm_lookahead = -7});
  (void)ta.train_step(batch);
  (void)tb.train_step(batch);
  EXPECT_EQ(a.max_diff(b), 0.0);
}

}  // namespace
}  // namespace helix::runtime
