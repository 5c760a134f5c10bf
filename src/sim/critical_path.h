#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/ir.h"
#include "sim/simulator.h"

// Critical-path analysis of a completed simulator run: which chain of ops —
// connected by dependency, stream-occupancy and Send->Recv data edges —
// actually bounds the makespan, and what each stage's bubble time was spent
// waiting on. This is the causal counterpart of SimResult's aggregate
// stats: the Zero Bubble line of work optimizes exactly this chain, so the
// analyzer is what lets a schedule change claim "it shortened the binding
// chain" rather than "the makespan moved".
namespace helix::sim {

/// How a critical-path element spends its time.
enum class PathSegment {
  kCompute,  ///< a compute op's execution
  kComm,     ///< a Send's transfer occupancy
  kWait,     ///< a Recv blocked waiting for data to arrive
};
const char* to_string(PathSegment s) noexcept;

struct CriticalPathNode {
  core::OpId op = core::kNoOp;
  int stage = 0;
  core::OpKind kind = core::OpKind::kFwdPre;
  double start = 0;
  double end = 0;
  PathSegment segment = PathSegment::kCompute;
};

/// One stage's bubble time (makespan - compute_busy) decomposed by cause,
/// from walking the gaps in its compute stream:
///  * dependency: the next compute op waited on a non-Recv dependency;
///  * comm: it waited on data that had not arrived (a Recv dependency) —
///    pipeline warmup gaps land here, the data genuinely wasn't there yet;
///  * idle: no further compute ops existed (cooldown after the stage's last
///    op, and the residue the two causes above don't cover).
struct StageBubble {
  int stage = 0;
  double bubble_s = 0;      ///< makespan - compute_busy (SimResult's figure)
  double dependency_s = 0;
  double comm_s = 0;
  double idle_s = 0;
  double attributed_s() const noexcept { return dependency_s + comm_s + idle_s; }
};

struct CriticalPathReport {
  double makespan = 0;
  /// The makespan-binding chain in time order: node[0] starts at 0, each
  /// node starts exactly where its predecessor ended, the last node ends at
  /// the makespan. Ties between equally-binding predecessors prefer data /
  /// dependency edges over stream occupancy (more informative causally).
  std::vector<CriticalPathNode> chain;
  // Chain composition (sums of node durations by segment; their total is
  // the makespan by the contiguity invariant).
  double compute_s = 0;
  double comm_s = 0;
  double wait_s = 0;
  std::vector<StageBubble> stages;

  double total_bubble() const noexcept {
    double t = 0;
    for (const auto& s : stages) t += s.bubble_s;
    return t;
  }
  double attributed_bubble() const noexcept {
    double t = 0;
    for (const auto& s : stages) t += s.attributed_s();
    return t;
  }
  /// Fraction of total bubble time attributed to a named cause (1.0 when
  /// there is no bubble at all).
  double attributed_fraction() const noexcept {
    const double total = total_bubble();
    return total > 0 ? attributed_bubble() / total : 1.0;
  }
};

/// Analyze `result` (a completed Simulator::run of `cs`). Walks back from
/// the op that ends at the makespan choosing, at each step, the predecessor
/// whose end time bound the op's start (or, for a Recv, the Send whose
/// completion bound its end), and decomposes every stage's bubble into
/// causes. Runs entirely off the compiled form: its op records and CSR
/// arrays.
CriticalPathReport critical_path(const core::CompiledSchedule& cs,
                                 const SimResult& result);

/// Convenience overload: compile a copy of `sched` and analyze.
CriticalPathReport critical_path(const core::Schedule& sched,
                                 const SimResult& result);

/// Fixed-width rendering: chain composition summary and per-stage bubble
/// attribution.
std::string render_critical_path(const CriticalPathReport& report);

/// Same, plus up to `max_chain_rows` chain elements (the schedule supplies
/// the op names; 0 rows = identical to the overload above).
std::string render_critical_path(const CriticalPathReport& report,
                                 const core::Schedule& sched,
                                 std::size_t max_chain_rows);

}  // namespace helix::sim
