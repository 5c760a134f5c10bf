// Direct unit tests for the obs/metrics.h primitives: Counter, Gauge
// high-water tracking, and the power-of-two DurationHistogram — including
// the edge cases the runtime actually produces (0 ns spans on fast ops,
// empty histograms on idle ranks) and the regression where a quantile's
// power-of-two bucket bound exceeded the largest observed duration.
#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/recorder.h"

namespace helix::obs {
namespace {

TEST(Counter, AddAndInc) {
  Counter c;
  EXPECT_EQ(c.value, 0);
  c.inc();
  c.add(41);
  EXPECT_EQ(c.value, 42);
  c.add(-2);
  EXPECT_EQ(c.value, 40);
}

TEST(Gauge, TracksHighWater) {
  Gauge g;
  g.set(10);
  g.set(4);
  EXPECT_EQ(g.value, 4);
  EXPECT_EQ(g.high_water, 10);
  g.add(20);
  EXPECT_EQ(g.value, 24);
  EXPECT_EQ(g.high_water, 24);
  g.add(-24);
  EXPECT_EQ(g.value, 0);
  EXPECT_EQ(g.high_water, 24) << "high water never decreases";
}

TEST(DurationHistogram, EmptyHistogram) {
  const DurationHistogram h;
  EXPECT_EQ(h.count, 0);
  EXPECT_EQ(h.mean_ns(), 0.0);
  EXPECT_EQ(h.quantile_upper_bound_ns(0.5), 0);
  EXPECT_EQ(h.quantile_upper_bound_ns(1.0), 0);
}

TEST(DurationHistogram, ZeroAndNegativeDurations) {
  DurationHistogram h;
  h.record(0);
  h.record(-5);  // clamped to 0 (clock went backwards)
  EXPECT_EQ(h.count, 2);
  EXPECT_EQ(h.sum_ns, 0);
  EXPECT_EQ(h.max_ns, 0);
  EXPECT_EQ(h.buckets[0], 2) << "bucket 0 absorbs 0 ns";
  EXPECT_EQ(h.quantile_upper_bound_ns(0.99), 0)
      << "bound must clamp to max_ns, not report the 2 ns bucket edge";
}

TEST(DurationHistogram, RecordPlacesInPowerOfTwoBuckets) {
  DurationHistogram h;
  h.record(1);    // [1, 2)   -> bucket 0
  h.record(2);    // [2, 4)   -> bucket 1
  h.record(3);    // [2, 4)   -> bucket 1
  h.record(700);  // [512, 1024) -> bucket 9
  EXPECT_EQ(h.buckets[0], 1);
  EXPECT_EQ(h.buckets[1], 2);
  EXPECT_EQ(h.buckets[9], 1);
  EXPECT_EQ(h.count, 4);
  EXPECT_EQ(h.sum_ns, 706);
  EXPECT_EQ(h.max_ns, 700);
  EXPECT_DOUBLE_EQ(h.mean_ns(), 706.0 / 4.0);
}

TEST(DurationHistogram, QuantileClampsBucketBoundToMax) {
  // Regression: a single 5 ns sample lands in bucket [4, 8); the upper
  // bound returned for any quantile must be 5 (the observed max), not 8.
  DurationHistogram h;
  h.record(5);
  EXPECT_EQ(h.quantile_upper_bound_ns(0.5), 5);
  EXPECT_EQ(h.quantile_upper_bound_ns(1.0), 5);

  // With a spread, low quantiles still report the (unclamped) bucket bound
  // of their own bucket.
  DurationHistogram spread;
  for (int i = 0; i < 99; ++i) spread.record(3);  // bucket [2, 4)
  spread.record(1000);                            // bucket [512, 1024)
  EXPECT_EQ(spread.quantile_upper_bound_ns(0.5), 4);
  EXPECT_EQ(spread.quantile_upper_bound_ns(1.0), 1000)
      << "tail bound clamps to the observed max, not 1024";
}

TEST(DurationHistogram, MergeCombinesShards) {
  DurationHistogram a, b;
  a.record(3);
  a.record(5);
  b.record(100);
  DurationHistogram m = a;
  m.merge(b);
  EXPECT_EQ(m.count, 3);
  EXPECT_EQ(m.sum_ns, 108);
  EXPECT_EQ(m.max_ns, 100);
  EXPECT_EQ(m.buckets[1], 1);  // 3
  EXPECT_EQ(m.buckets[2], 1);  // 5
  EXPECT_EQ(m.buckets[6], 1);  // 100 in [64, 128)
  // Merging an empty histogram is a no-op.
  const DurationHistogram before = m;
  m.merge(DurationHistogram{});
  EXPECT_EQ(m.count, before.count);
  EXPECT_EQ(m.sum_ns, before.sum_ns);
  EXPECT_EQ(m.max_ns, before.max_ns);
}

TEST(Summarize, FlattensShardsIntoRankSummary) {
  TraceCollector trace(5);
  CommMetrics& comm = trace.comm(4);
  comm.bytes_sent.add(100);
  comm.bytes_received.add(200);
  comm.recv_wait_exposed_ns.add(7);
  comm.recv_wait_hidden_ns.add(17);
  comm.barrier_wait_ns.add(3);
  comm.mailbox_depth.set(5);
  comm.mailbox_depth.set(2);
  // Op counts and times are summed from the spans: two compute ops (11 ns)
  // and one comm op (13 ns).
  SpanRecorder& spans = trace.recorder(4);
  spans.record({.kind = core::OpKind::kFwdPre, .start_ns = 0, .end_ns = 5});
  spans.record({.kind = core::OpKind::kSend, .start_ns = 5, .end_ns = 18});
  spans.record({.kind = core::OpKind::kBwdPost, .start_ns = 18, .end_ns = 24});
  trace.live_peak(4) = 1024;
  const RankSummary s = trace.summary(4);
  EXPECT_EQ(s.rank, 4);
  EXPECT_EQ(s.ops_executed, 3);
  EXPECT_EQ(s.busy_ns, 11);
  EXPECT_EQ(s.comm_op_ns, 13);
  EXPECT_EQ(s.recv_wait_exposed_ns, 7);
  EXPECT_EQ(s.recv_wait_hidden_ns, 17);
  EXPECT_EQ(s.barrier_wait_ns, 3);
  EXPECT_EQ(s.bytes_sent, 100);
  EXPECT_EQ(s.bytes_received, 200);
  EXPECT_EQ(s.live_peak_bytes, 1024);
  EXPECT_EQ(s.mailbox_depth_peak, 5);
}

}  // namespace
}  // namespace helix::obs
