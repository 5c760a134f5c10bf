#pragma once

#include <string>
#include <vector>

#include "core/ir.h"
#include "core/problem.h"

// Layer-wise pipeline parallelism baselines (paper Section 2.3): the model is
// partitioned into consecutive layer chunks and micro batches flow through
// them with boundary-activation p2p transfers. 1F1B, GPipe, ZB1P/ZB2P,
// CoExec, AdaPipe and interleaved 1F1B are each a LayerwisePlan — a
// per-stage table of macro steps — lowered by the one emitter below; they
// differ only in step order, partition, recompute choices and the number
// of virtual chunks per stage.
namespace helix::schedules {

enum class StepKind : std::uint8_t {
  kForward,    ///< forward of all layers of one chunk for one micro batch
  kBackward,   ///< backward (B, and W unless decoupled) of one chunk
  kBackwardW,  ///< deferred backward-W of one chunk (ZB1P)
};

struct MacroStep {
  StepKind kind;
  int mb;
  int chunk = 0;  ///< which of the stage's virtual chunks, in [0, v)
  bool operator==(const MacroStep&) const = default;
};

/// A fully decided layer-wise schedule, ready for IR emission.
///
/// The layers are cut into p * v chunks, v = `virtual_chunks`: stage i's
/// k-th chunk is chunk k*p + i and holds layers_per_stage[i] / v
/// consecutive layers, so chunk c + 1 continues where chunk c ends. With
/// v = 1 each stage holds one chunk; with v > 1 every chunk boundary is a
/// stage boundary too, except at p = 1, where consecutive chunks hand the
/// boundary value over on the stage.
struct LayerwisePlan {
  std::string name;
  std::vector<int> layers_per_stage;  ///< size p, sums to L
  /// Per stage: the number of layers, from the front of each of its chunks,
  /// trained with full activation recomputation (AdaPipe).
  std::vector<int> recompute_layers;
  bool decouple_w = false;  ///< ZB1P: backward-B and backward-W are separate
  int virtual_chunks = 1;   ///< v; interleaved 1F1B uses v > 1
  std::vector<std::vector<MacroStep>> steps;  ///< per-stage program order
};

/// One macro step of a plan with the stage that runs it.
struct PlacedStep {
  int stage;
  MacroStep step;
};

/// Every step of `plan` in one global order that respects data flow. The
/// walk visits the stages in index order, repeatedly, and runs each stage's
/// program for as long as the next step's producers (the previous chunk's
/// forward, the stage's own forward, the next chunk's backward, or the own
/// backward-B for a backward-W) have been visited. Emission therefore finds
/// every Send before the matching Recv, and timing finds every producer
/// timed. Throws std::invalid_argument naming the plan when virtual_chunks
/// < 1, or naming the plan, the stage and the step when a step's micro
/// batch is outside [0, m) or its chunk outside [0, virtual_chunks); throws
/// std::logic_error when the plan has a data-flow cycle, i.e. would
/// deadlock.
std::vector<PlacedStep> dataflow_order(const LayerwisePlan& plan, int m);

/// Lower a plan to schedule IR, emitting its steps in dataflow_order so
/// that every Recv lands at its receiver's program position. Throws
/// std::invalid_argument when the plan does not fit `problem`.
core::Schedule emit_layerwise(const core::PipelineProblem& problem,
                              const LayerwisePlan& plan);

/// One stage's 1F1B order over n forward/backward pairs: `warmup` forwards,
/// then one forward and one backward alternately, then the remaining
/// backwards. The k-th step of each kind has mb = k.
std::vector<MacroStep> one_f_one_b_order(int n, int warmup);

/// Classic one-forward-one-backward schedule (PipeDream / DAPPLE / Megatron).
LayerwisePlan plan_1f1b(const core::PipelineProblem& problem);
core::Schedule build_1f1b(const core::PipelineProblem& problem);

/// GPipe: all forwards, then all backwards in reverse (layer-wise FILO).
LayerwisePlan plan_gpipe(const core::PipelineProblem& problem);
core::Schedule build_gpipe(const core::PipelineProblem& problem);

/// A plan named `name` with the uniform L/p partition, no recomputation
/// and an empty program per stage.
LayerwisePlan uniform_plan(std::string name, const core::PipelineProblem& problem);

}  // namespace helix::schedules
