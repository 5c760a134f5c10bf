#include "schedules/coexec.h"

#include <algorithm>

#include "core/problem_check.h"
#include "obs/prof.h"

namespace helix::schedules {

using core::PipelineProblem;

LayerwisePlan plan_coexec(const PipelineProblem& pr) {
  core::validate_problem(pr, core::layerwise_requirements("CoExec"));
  const int p = pr.p;
  const int m = pr.m;

  LayerwisePlan plan = uniform_plan("CoExec", pr);
  plan.decouple_w = true;
  for (int i = 0; i < p; ++i) {
    // The last stage produces its own gradients (loss), so its backward-B
    // never waits on a transfer and there is no gap for a sibling W to ride
    // in; injecting one would only delay the gradient sends the whole
    // downstream ladder feeds on. It keeps plain 1F1B order and drains its
    // W's at the end of the iteration. Every other stage co-executes
    // adjacent micro batches: micro batch j - 1's backward-W is slotted
    // right before backward-B of j — exactly where 1F1B blocks on the
    // incoming gradient.
    const bool last = i == p - 1;
    auto& s = plan.steps[i];
    for (const MacroStep& st : one_f_one_b_order(m, std::min(p - 1 - i, m))) {
      if (!last && st.kind == StepKind::kBackward && st.mb > 0) {
        s.push_back({StepKind::kBackwardW, st.mb - 1});
      }
      s.push_back(st);
    }
    for (int j = last ? 0 : m - 1; j < m; ++j) {
      s.push_back({StepKind::kBackwardW, j});
    }
  }
  return plan;
}

core::Schedule build_coexec(const PipelineProblem& pr) {
  HELIX_PROF_SCOPE("build.coexec");
  return emit_layerwise(pr, plan_coexec(pr));
}

}  // namespace helix::schedules
