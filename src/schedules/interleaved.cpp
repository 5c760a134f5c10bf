#include "schedules/interleaved.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/problem_check.h"
#include "obs/prof.h"

namespace helix::schedules {

using core::PipelineProblem;

LayerwisePlan plan_interleaved(const PipelineProblem& pr,
                               const InterleavedOptions& opt) {
  const int p = pr.p;
  const int v = opt.virtual_chunks;
  if (v < 1) throw std::invalid_argument("virtual_chunks must be >= 1");
  core::validate_problem(pr, core::interleaved_requirements(v, p));

  LayerwisePlan plan = uniform_plan("interleaved-1f1b-v" + std::to_string(v), pr);
  plan.virtual_chunks = v;
  // Each stage runs 1F1B over m * v virtual micro batches. Virtual micro
  // batch k belongs to a group of p micro batches, k / (p * v); within the
  // group the stage sweeps its chunks in order (forward) or in reverse
  // (backward), p micro batches per chunk.
  const int total = pr.m * v;
  for (int i = 0; i < p; ++i) {
    const int warmup = std::min((p - i - 1) * 2 + (v - 1) * p, total);
    plan.steps[i] = one_f_one_b_order(total, warmup);
    for (MacroStep& st : plan.steps[i]) {
      const int group = st.mb / (p * v);
      const int rem = st.mb % (p * v);
      st.chunk = st.kind == StepKind::kForward ? rem / p : v - 1 - rem / p;
      st.mb = group * p + rem % p;
    }
  }
  return plan;
}

core::Schedule build_interleaved_1f1b(const PipelineProblem& pr,
                                      const InterleavedOptions& opt) {
  HELIX_PROF_SCOPE("build.interleaved");
  return emit_layerwise(pr, plan_interleaved(pr, opt));
}

}  // namespace helix::schedules
