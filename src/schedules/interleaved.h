#pragma once

#include "core/ir.h"
#include "core/problem.h"
#include "schedules/layerwise.h"

// Interleaved 1F1B (Narayanan et al., SC'21; paper Section 6.2). Each stage
// owns v *virtual chunks* of L/(p*v) consecutive layers: chunk k covers
// layers [k*L/(p*v), ...) and lives on stage (k mod p). The pipeline bubble
// shrinks by v, but every chunk boundary now crosses stages (v times the
// p2p volume) and the schedule needs many micro batches to reach its
// theoretical bubble — the reasons the paper argues it is a poor fit for
// long-sequence training (Section 6.2). Provided as a baseline so that
// argument can be reproduced quantitatively (bench_ablation_interleaved).
// The schedule is a LayerwisePlan with v virtual chunks, lowered by the
// shared layer-wise emitter.
namespace helix::schedules {

struct InterleavedOptions {
  int virtual_chunks = 2;  ///< v; v=1 degenerates to classic 1F1B
};

/// Megatron's interleaved order. Requires L divisible by p * v and m
/// divisible by p.
LayerwisePlan plan_interleaved(const core::PipelineProblem& problem,
                               const InterleavedOptions& options);

core::Schedule build_interleaved_1f1b(const core::PipelineProblem& problem,
                                      const InterleavedOptions& options);

}  // namespace helix::schedules
