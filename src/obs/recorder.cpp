#include "obs/recorder.h"

#include <algorithm>
#include <stdexcept>

#include "obs/memory.h"

namespace helix::obs {

TraceCollector::TraceCollector(int num_ranks)
    : spans_(static_cast<std::size_t>(num_ranks)),
      comm_(static_cast<std::size_t>(num_ranks)),
      live_peak_(static_cast<std::size_t>(num_ranks), 0),
      epoch_ns_(now_ns()) {
  if (num_ranks < 1) throw std::invalid_argument("collector needs >= 1 rank");
}

TraceCollector::~TraceCollector() = default;
TraceCollector::TraceCollector(TraceCollector&&) noexcept = default;
TraceCollector& TraceCollector::operator=(TraceCollector&&) noexcept = default;

void TraceCollector::enable_memory() { enable_memory(mem::AllocatorConfig{}); }

void TraceCollector::enable_memory(const mem::AllocatorConfig& config) {
  if (!memory_.empty()) return;
  memory_.reserve(spans_.size());
  for (std::size_t r = 0; r < spans_.size(); ++r) {
    memory_.push_back(std::make_unique<MemoryTracker>(config));
  }
}

void TraceCollector::begin_iteration() {
  for (auto& r : spans_) r.clear();
  for (auto& c : comm_) c = CommMetrics{};
  std::fill(live_peak_.begin(), live_peak_.end(), 0);
  for (auto& t : memory_) t->begin_iteration();
  epoch_ns_ = now_ns();
}

RankSummary TraceCollector::summary(int rank) const {
  RankSummary s;
  s.rank = rank;
  for (const Span& span : recorder(rank).spans()) {
    ++s.ops_executed;
    (core::is_comm(span.kind) ? s.comm_op_ns : s.busy_ns) += span.duration_ns();
  }
  const CommMetrics& c = comm(rank);
  s.recv_wait_exposed_ns = c.recv_wait_exposed_ns.value;
  s.recv_wait_hidden_ns = c.recv_wait_hidden_ns.value;
  s.barrier_wait_ns = c.barrier_wait_ns.value;
  s.bytes_sent = c.bytes_sent.value;
  s.bytes_received = c.bytes_received.value;
  s.live_peak_bytes = live_peak(rank);
  s.mailbox_depth_peak = c.mailbox_depth.high_water;
  return s;
}

}  // namespace helix::obs
