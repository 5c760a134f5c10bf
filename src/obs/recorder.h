#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/ir.h"
#include "obs/clock.h"
#include "obs/metrics.h"

namespace helix::mem {
struct AllocatorConfig;
}  // namespace helix::mem

// Span recording for the threaded runtime: one SpanRecorder per rank, owned
// and written exclusively by that rank's thread (append to a local vector —
// no locks, no atomics). A TraceCollector bundles the per-rank recorder,
// comm metric shard and live-byte peak for one training iteration;
// merging/exporting happens after comm::World::run has joined every thread.
//
// Disabling: the interpreter reaches all of it through one nullable
// TraceCollector pointer.
namespace helix::obs {

/// One executed op on one rank: what ran, where, and when (wall clock).
struct Span {
  core::OpKind kind = core::OpKind::kFwdPre;
  std::int16_t stage = 0;
  std::int16_t mb = -1;
  std::int16_t layer = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// For kRecv: the portion of [start, end) spent blocked waiting for data.
  std::int64_t wait_ns = 0;
  /// OS thread id hash of the executing rank thread.
  std::uint64_t tid = 0;

  std::int64_t duration_ns() const noexcept { return end_ns - start_ns; }
};

/// Per-rank span sink. Not thread-safe by design: exactly one thread writes.
class SpanRecorder {
 public:
  void reserve(std::size_t n) { spans_.reserve(n); }
  void record(const Span& s) { spans_.push_back(s); }
  void clear() noexcept { spans_.clear(); }
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
};

class MemoryTracker;  // obs/memory.h

/// One rank's iteration in a nutshell: op counts and times summed from its
/// spans, its comm shard and its live-byte peak, the flat record
/// runtime::IterationMetrics carries back to callers.
struct RankSummary {
  int rank = -1;
  std::int64_t ops_executed = 0;
  std::int64_t busy_ns = 0;     ///< compute-op wall time
  std::int64_t comm_op_ns = 0;  ///< Send/Recv op wall time (incl. waits)
  /// Recv wait that blocked the compute thread / wait retired while it was
  /// busy elsewhere (overlapped). Blocking runs have hidden == 0.
  std::int64_t recv_wait_exposed_ns = 0;
  std::int64_t recv_wait_hidden_ns = 0;
  std::int64_t barrier_wait_ns = 0;
  std::int64_t bytes_sent = 0;
  std::int64_t bytes_received = 0;
  std::int64_t live_peak_bytes = 0;     ///< slot/stash high water
  std::int64_t mailbox_depth_peak = 0;  ///< queued-message high water
};

/// All observability state for one World::run: per-rank span recorders,
/// comm metric shards and live-byte peaks (and, opt-in, per-rank memory
/// trackers), and the epoch the trace is rebased to.
class TraceCollector {
 public:
  explicit TraceCollector(int num_ranks);
  ~TraceCollector();
  TraceCollector(TraceCollector&&) noexcept;
  TraceCollector& operator=(TraceCollector&&) noexcept;

  int num_ranks() const noexcept { return static_cast<int>(spans_.size()); }

  SpanRecorder& recorder(int rank) { return spans_[static_cast<std::size_t>(rank)]; }
  const SpanRecorder& recorder(int rank) const {
    return spans_[static_cast<std::size_t>(rank)];
  }
  CommMetrics& comm(int rank) { return comm_[static_cast<std::size_t>(rank)]; }
  const CommMetrics& comm(int rank) const { return comm_[static_cast<std::size_t>(rank)]; }
  /// High water of the bytes held in the rank's value slots and stashes,
  /// written by the rank's interpreter after each op.
  std::int64_t& live_peak(int rank) { return live_peak_[static_cast<std::size_t>(rank)]; }
  std::int64_t live_peak(int rank) const {
    return live_peak_[static_cast<std::size_t>(rank)];
  }
  /// The rank's summary: ops and busy/comm time summed from its spans, next
  /// to its comm counters and live peak. Read after the run has joined.
  RankSummary summary(int rank) const;

  /// Contiguous shard array for comm::World::set_metrics.
  CommMetrics* comm_shards() noexcept { return comm_.data(); }

  /// Opt-in memory tracking: create one per-rank MemoryTracker (obs/memory.h)
  /// shadow-allocating the interpreter's live tensor state on an instrumented
  /// mem::CachingAllocator. Idempotent; the no-arg overload uses the default
  /// allocator config. Until enabled, memory(r) returns nullptr and traced
  /// runs do zero memory-tracking work.
  void enable_memory();
  void enable_memory(const mem::AllocatorConfig& config);
  bool memory_enabled() const noexcept { return !memory_.empty(); }
  MemoryTracker* memory(int rank) noexcept {
    return memory_.empty() ? nullptr : memory_[static_cast<std::size_t>(rank)].get();
  }
  const MemoryTracker* memory(int rank) const noexcept {
    return memory_.empty() ? nullptr : memory_[static_cast<std::size_t>(rank)].get();
  }

  /// Wall-clock ns all exported timestamps are measured relative to. Set by
  /// begin_iteration(); a fresh collector uses its construction time.
  std::int64_t epoch_ns() const noexcept { return epoch_ns_; }

  /// Reset every shard and re-stamp the epoch: one collector can be reused
  /// across train_steps, with each iteration starting a fresh trace.
  void begin_iteration();

 private:
  std::vector<SpanRecorder> spans_;
  std::vector<CommMetrics> comm_;
  std::vector<std::int64_t> live_peak_;
  std::vector<std::unique_ptr<MemoryTracker>> memory_;  ///< empty until enabled
  std::int64_t epoch_ns_ = 0;
};

}  // namespace helix::obs
