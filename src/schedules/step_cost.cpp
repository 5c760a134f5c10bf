#include "schedules/step_cost.h"

namespace helix::schedules {

using core::OpKind;

double macro_step_seconds(const core::PipelineProblem& /*problem*/,
                          const core::CostModel& cost, StepKind kind,
                          const StepCostQuery& q) {
  double t = 0;
  switch (kind) {
    case StepKind::kForward:
      if (q.first_stage) t += cost.compute_seconds(OpKind::kEmbedFwd, true);
      t += q.num_layers * (cost.compute_seconds(OpKind::kFwdPre, true) +
                           cost.compute_seconds(OpKind::kFwdAttn, true) +
                           cost.compute_seconds(OpKind::kFwdPost, true));
      break;
    case StepKind::kBackward:
      if (q.last_stage) t += cost.compute_seconds(OpKind::kLmHeadLoss, true);
      t += q.recompute_layers *
           (cost.compute_seconds(OpKind::kRecomputePre, true) +
            cost.compute_seconds(OpKind::kRecomputeAttn, true) +
            cost.compute_seconds(OpKind::kRecomputePost, true));
      t += q.num_layers *
           (cost.compute_seconds(OpKind::kBwdPost, !q.decouple_w) +
            cost.compute_seconds(OpKind::kBwdAttn, true) +
            cost.compute_seconds(OpKind::kBwdPre, !q.decouple_w));
      if (q.first_stage) t += cost.compute_seconds(OpKind::kEmbedBwd, true);
      break;
    case StepKind::kBackwardW:
      t += q.num_layers * (cost.compute_seconds(OpKind::kBwdWPost, true) +
                           cost.compute_seconds(OpKind::kBwdWPre, true));
      break;
  }
  return t;
}

}  // namespace helix::schedules
