#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/compiled.h"
#include "core/cost.h"
#include "core/ir.h"

// Discrete-event execution of a schedule IR under a cost model.
//
// Each stage owns two in-order streams, mirroring a GPU with a compute
// stream and a dedicated NCCL communication stream:
//   * compute ops start at max(previous compute op end, all dependency ends);
//   * a Send starts at max(previous comm op end, producer end) and occupies
//     the comm stream for the transfer duration; data arrives at its end;
//   * a Recv starts when it reaches the head of the comm stream and completes
//     when the data has arrived (blocking wait, zero intrinsic cost).
// Sends are eager (buffered), so rendezvous deadlocks are impossible; a
// pending Recv can still head-of-line-block later comm ops on the same
// stage, which is exactly the naive-FILO bottleneck of paper Fig. 6a.
//
// Memory: alloc_bytes and transient_bytes are charged at op start,
// free_bytes and transient_bytes credited at op end; the simulator reports
// the running peak per stage on top of a caller-provided base (model states).
//
// The hot path runs off core::CompiledSchedule (op records by id, CSR
// edges, a precomputed topological order) with a caller-owned SimWorkspace whose
// buffers are recycled across runs: compile once, simulate many — the shape
// the sweep engine (sim/sweep.h) is built on. The Schedule-taking overload
// remains as a convenience that compiles on the fly.
namespace helix::sim {

struct OpTime {
  double start = 0;
  double end = 0;
};

struct StageStats {
  double compute_busy = 0;   ///< total compute-op time
  double comm_busy = 0;      ///< total send time (transfer occupancy)
  double bubble = 0;         ///< makespan - compute_busy
  double recv_wait = 0;      ///< time Recvs spent blocked waiting for data
  std::int64_t peak_memory = 0;   ///< includes base_memory
  std::int64_t final_memory = 0;  ///< leak detector: should equal base
};

struct SimResult {
  double makespan = 0;
  std::vector<OpTime> op_times;  ///< indexed by op id
  std::vector<StageStats> stages;

  double total_bubble() const {
    double t = 0;
    for (const auto& s : stages) t += s.bubble;
    return t;
  }
  std::int64_t max_peak_memory() const {
    std::int64_t m = 0;
    for (const auto& s : stages) m = std::max(m, s.peak_memory);
    return m;
  }
};

/// Reusable per-thread simulation buffers. Simulator::run fills `result` in
/// place and recycles every vector's capacity across calls: after the first
/// run of a given compiled schedule, re-running it (or anything no larger)
/// performs zero heap allocation — the "sim.workspace.reallocs" counter
/// proves it (asserted zero by bench_selfperf). Not thread-safe: one
/// workspace per thread.
struct SimWorkspace {
  struct MemEvent {
    double t;
    std::int64_t delta;
  };

  SimResult result;
  std::vector<std::vector<MemEvent>> events;  ///< per-stage memory deltas

  /// Steady-state detector for the realloc canary: capacity growth is only
  /// counted as a workspace realloc when re-running the same compiled
  /// schedule, where all buffers are provably already large enough. The
  /// check is pointer identity — callers that recycle one workspace across
  /// *different* schedules whose CompiledSchedule objects may reuse an
  /// address (e.g. successive stack locals) must clear this between runs.
  const core::CompiledSchedule* last = nullptr;
};

class Simulator {
 public:
  explicit Simulator(const core::CostModel& cost) : cost_(cost) {}

  /// Execute a compiled schedule into `ws.result` (returned by reference;
  /// valid until the next run on the same workspace). `base_memory_bytes`
  /// (optional, per stage) is the resident model-state footprint added to
  /// every activation measurement.
  const SimResult& run(const core::CompiledSchedule& cs, SimWorkspace& ws,
                       const std::vector<std::int64_t>& base_memory_bytes = {}) const;

  /// Convenience overload: compile a copy of `sched` and run it once. Throws
  /// std::logic_error on malformed IR or a dependency cycle (schedule bug).
  SimResult run(const core::Schedule& sched,
                const std::vector<std::int64_t>& base_memory_bytes = {}) const;

 private:
  const core::CostModel& cost_;
};

}  // namespace helix::sim
