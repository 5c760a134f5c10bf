#include "model/paper_cost.h"

#include <stdexcept>
#include <string>

namespace helix::model {

PaperCostModel::PaperCostModel(const TimingModel& timing, const ModelConfig& model,
                               const LayerDims& d, int pipeline_size,
                               QkvPlacement qkv) {
  if (pipeline_size < 1) {
    throw std::invalid_argument("PaperCostModel: pipeline_size must be >= 1, got " +
                                std::to_string(pipeline_size));
  }
  using core::OpKind;
  const auto part = [&](LayerPart p, Pass pass) {
    return timing.part_time(d, p, pass, qkv);
  };
  fill(
      [&](OpKind kind, bool combines_w) {
        switch (kind) {
          case OpKind::kEmbedFwd:
            return timing.embedding_time(d, Pass::kForward);
          case OpKind::kEmbedBwd:
            return timing.embedding_time(d, Pass::kBackwardB);
          case OpKind::kFwdPre:
          case OpKind::kRecomputePre:
            return part(LayerPart::kPreAttention, Pass::kForward);
          case OpKind::kFwdAttn:
          case OpKind::kRecomputeAttn:
            return part(LayerPart::kAttention, Pass::kForward);
          case OpKind::kFwdPost:
          case OpKind::kRecomputePost:
            return part(LayerPart::kPostAttention, Pass::kForward);
          case OpKind::kBwdAttn:
            return part(LayerPart::kAttention, Pass::kBackwardB);
          case OpKind::kBwdPre: {
            double t = part(LayerPart::kPreAttention, Pass::kBackwardB);
            if (combines_w) t += part(LayerPart::kPreAttention, Pass::kBackwardW);
            return t;
          }
          case OpKind::kBwdPost: {
            double t = part(LayerPart::kPostAttention, Pass::kBackwardB);
            if (combines_w) t += part(LayerPart::kPostAttention, Pass::kBackwardW);
            return t;
          }
          case OpKind::kBwdWPre:
            return part(LayerPart::kPreAttention, Pass::kBackwardW);
          case OpKind::kBwdWPost:
            return part(LayerPart::kPostAttention, Pass::kBackwardW);
          case OpKind::kLmHeadLoss:
            // Head forward + loss + dlogits + d(hidden): forward and
            // backward-B fused because the loss is computed inside the
            // backward pass (4.6).
            return timing.lm_head_loss_time(d, model.vocab, Pass::kForward) +
                   timing.lm_head_loss_time(d, model.vocab, Pass::kBackwardB);
          case OpKind::kOptimStep:
            return timing.optimizer_time(model.layer_param_elems() / pipeline_size);
          case OpKind::kSend:
          case OpKind::kRecv:
            return 0.0;
        }
        return 0.0;
      },
      // TimingModel::p2p_time: latency + (elems × dtype bytes) / rate.
      timing.cluster().p2p_latency_s,
      static_cast<double>(dtype_bytes(timing.params().dtype)),
      timing.cluster().internode_bytes_per_s());
}

}  // namespace helix::model
