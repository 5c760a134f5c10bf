#pragma once

#include "core/cost.h"
#include "schedules/layerwise.h"

// Zero-bubble pipeline parallelism (Qi et al., ICLR 2024; paper Section
// 2.3.2). The backward pass is decoupled into backward-B (input gradients,
// on the critical path) and backward-W (parameter gradients, reorderable).
//
// Two planners share this machinery:
//  * ZB1P (`plan_zb1p`): the paper's greedy online heuristic — run
//    backward-B as soon as its gradient arrives, keep the pipeline fed with
//    forwards subject to the 1F1B-equivalent memory cap (min(p, m)
//    outstanding micro batches), and fill idle gaps with deferred
//    backward-W steps when the gap is large enough to hide one.
//  * ZB2P (`plan_zb2p`): the memory-doubled optimal-placement variant. The
//    cap is raised to min(2p, m) outstanding micro batches (2x the 1F1B
//    peak, the "2" in ZB2P) and the greedy filler is replaced by an exact
//    W-placement pass: an event-driven B-earliest constructor followed by a
//    per-stage dynamic program over (fnext, bnext, wnext) interleaving
//    states — priced with the same StepCostQuery macro-step durations —
//    iterated to a fixed point with a macro-step plan simulator as the
//    makespan oracle. The oracle times the plan's steps in dataflow_order
//    and rejects a trial plan that order finds deadlocked. Under unit part
//    costs and free communication the result meets the closed-form lower
//    bound `model::zb2p_bubble` exactly (asserted across the shape grid in
//    tests/sim/bubble_formula_test).
namespace helix::schedules {

struct Zb1pOptions {
  /// Maximum micro batches with live stashes per stage; 0 selects the
  /// planner default: min(p, m) — the worst-case 1F1B peak (paper Eq. 4) —
  /// for the greedy ZB1P filler, min(2p, m) for ZB2P.
  int max_outstanding = 0;
};

LayerwisePlan plan_zb1p(const core::PipelineProblem& problem,
                        const core::CostModel& cost,
                        const Zb1pOptions& options = {});

/// Exact W-placement (ZB2P), with a min(2p, m) default cap.
LayerwisePlan plan_zb2p(const core::PipelineProblem& problem,
                        const core::CostModel& cost,
                        const Zb1pOptions& options = {});

core::Schedule build_zb1p(const core::PipelineProblem& problem,
                          const core::CostModel& cost,
                          const Zb1pOptions& options = {});

core::Schedule build_zb2p(const core::PipelineProblem& problem,
                          const core::CostModel& cost,
                          const Zb1pOptions& options = {});

}  // namespace helix::schedules
