#pragma once

#include "core/cost.h"
#include "core/ir.h"

// Execution-order refinement. A generator emits per-stage programs in a
// natural construction order; a real pipeline runtime instead issues
// whichever op is ready. This pass re-derives each stage's program order by
// list-scheduling the dependency DAG under a cost model: one compute lane
// and one comm lane per stage, ops greedily placed at their earliest
// feasible start (ties broken by generator order, which encodes semantic
// priority). Only the stage programs change: ops, dependencies, payloads and
// memory effects are untouched, so validation results carry over.
//
// Placing an op costs O(1) per outgoing edge (successors are one CSR, each
// entry marked dependency or send->recv) plus one scan of the ready ops,
// each read from a compact record filled when it became ready.
//
// Used for FILO schedules with more than one loop, whose static generator
// order over-serializes the loop wavefronts, and by the tuner's relist
// mutation.
namespace helix::core {

Schedule reorder_stage_programs(Schedule sched, const CostModel& cost);

}  // namespace helix::core
