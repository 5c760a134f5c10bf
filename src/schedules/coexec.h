#pragma once

#include "schedules/layerwise.h"

// Micro-batch co-execution (after "Hiding Communication Cost in Distributed
// LLM Training via Micro-batch Co-execution", see PAPERS.md): each rank
// statically interleaves the ops of two adjacent micro batches so that one
// micro batch's boundary transfer rides under the other's compute. The
// backward pass is decoupled (as in ZB1P) and micro batch j - 1's
// backward-W — compute with no incoming dependency — is placed exactly
// where the 1F1B steady state blocks on micro batch j's incoming gradient:
//
//   1F1B   :  F(j+w)  .........wait......... B(j)
//   CoExec :  F(j+w)  W(j-1)  ..wait..       B(j)
//
// The 1F1B skeleton (warmup depth, F/B alternation, memory footprint up to
// the deferred W stashes) is unchanged, and unlike ZB1P's greedy filler the
// placement is a fixed pattern that needs no cost model. On the async
// interpreter (eager sends, prefetched recvs) the sibling W covers the
// gradient's transfer latency, shrinking the exposed recv wait bench_fig9
// measures; the last stage keeps plain 1F1B order (its backward never waits
// on a transfer) and drains all W's at the end of the iteration.
namespace helix::schedules {

LayerwisePlan plan_coexec(const core::PipelineProblem& problem);

core::Schedule build_coexec(const core::PipelineProblem& problem);

}  // namespace helix::schedules
