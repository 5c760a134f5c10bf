#pragma once

#include <algorithm>
#include <array>
#include <cstdint>

// Comm metrics primitives for the threaded runtime, header-only so
// `src/comm` can use them without a link dependency on the obs library. The
// interpreter's own per-op figures (op counts, busy time, live-byte peak)
// are not kept here: obs::TraceCollector::summary derives them from the
// spans.
//
// Threading model: metrics are sharded per rank (one CommMetrics per rank
// thread). A shard is written only by its owner thread — with two
// deliberate exceptions that piggyback on locks the comm layer already
// holds:
//   * `CommMetrics::mailbox_depth` of rank r is updated by sender threads
//     (rank threads and their comm workers), but only under r's mailbox
//     mutex (delivery is serialized anyway);
//   * `CommMetrics::barrier_wait_ns` is updated under the barrier mutex.
// Recv-wait counters (exposed and hidden) are written by the receiving
// rank's own thread when a handle is drained, never by the sender.
// Shards are merged after `comm::World::run` joins every thread, so readers
// never race writers. No atomics on the hot path: recording a value is a
// plain add, which is the "lock-cheap" requirement of the span recorder.
namespace helix::obs {

struct Counter {
  std::int64_t value = 0;
  void add(std::int64_t v) noexcept { value += v; }
  void inc() noexcept { ++value; }
};

/// Gauge with a high-water mark (e.g. mailbox queue depth).
struct Gauge {
  std::int64_t value = 0;
  std::int64_t high_water = 0;
  void set(std::int64_t v) noexcept {
    value = v;
    high_water = std::max(high_water, v);
  }
  void add(std::int64_t v) noexcept { set(value + v); }
};

/// Power-of-two-bucketed duration histogram (nanoseconds). Bucket i counts
/// durations in [2^i, 2^(i+1)); bucket 0 also absorbs 0ns. 48 buckets cover
/// ~78 hours, far beyond any iteration.
struct DurationHistogram {
  static constexpr int kBuckets = 48;
  std::array<std::int64_t, kBuckets> buckets{};
  std::int64_t count = 0;
  std::int64_t sum_ns = 0;
  std::int64_t max_ns = 0;

  void record(std::int64_t ns) noexcept {
    if (ns < 0) ns = 0;
    int b = 0;
    while (b + 1 < kBuckets && (std::int64_t{1} << (b + 1)) <= ns) ++b;
    ++buckets[static_cast<std::size_t>(b)];
    ++count;
    sum_ns += ns;
    max_ns = std::max(max_ns, ns);
  }

  double mean_ns() const noexcept {
    return count == 0 ? 0.0 : static_cast<double>(sum_ns) / static_cast<double>(count);
  }

  /// Upper bound of the bucket containing the p-quantile (p in [0,1]),
  /// clamped to the largest observed duration — a power-of-two bucket bound
  /// can exceed max_ns and would overstate the tail otherwise.
  std::int64_t quantile_upper_bound_ns(double p) const noexcept {
    if (count == 0) return 0;
    const double target = p * static_cast<double>(count);
    std::int64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
      seen += buckets[static_cast<std::size_t>(b)];
      if (static_cast<double>(seen) >= target) {
        return std::min(std::int64_t{1} << (b + 1), max_ns);
      }
    }
    return max_ns;
  }

  void merge(const DurationHistogram& o) noexcept {
    for (int b = 0; b < kBuckets; ++b) {
      buckets[static_cast<std::size_t>(b)] += o.buckets[static_cast<std::size_t>(b)];
    }
    count += o.count;
    sum_ns += o.sum_ns;
    max_ns = std::max(max_ns, o.max_ns);
  }
};

/// Per-rank communication metrics shard, filled by comm::World/Endpoint when
/// attached via World::set_metrics. alignas(64) keeps shards on separate
/// cache lines so rank threads never false-share.
struct alignas(64) CommMetrics {
  Counter bytes_sent;
  Counter bytes_received;
  Counter messages_sent;
  Counter messages_received;
  /// Time recvs spent blocking this rank's compute thread waiting for data
  /// that had not arrived yet — posting a handle and draining it later only
  /// counts the residual block at the drain (the runtime analogue of
  /// sim::StageStats::recv_wait on the compute stream).
  Counter recv_wait_exposed_ns;
  /// Recv latency retired while the compute thread was doing other work:
  /// for each prefetched handle, post -> min(arrival, drain). Zero for
  /// blocking recvs (post and drain are back-to-back, nothing was hidden).
  Counter recv_wait_hidden_ns;
  /// Asynchronous-engine engagement: handles posted via isend / irecv.
  Counter isend_posted;
  Counter irecv_posted;
  Counter barrier_wait_ns;
  /// Wall time spent inside collectives (all_reduce / all_gather /
  /// reduce_scatter), and how many ran.
  Counter collective_ns;
  Counter collectives;
  /// Total queued messages in this rank's mailbox; high_water is the
  /// backlog peak (head-of-line pressure indicator).
  Gauge mailbox_depth;
  /// Exposed (compute-thread-blocking) wait per recv, zero-wait hits
  /// included — every drained recv records exactly one sample.
  DurationHistogram recv_wait_hist;
};

}  // namespace helix::obs
