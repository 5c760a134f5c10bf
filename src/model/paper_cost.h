#pragma once

#include "core/cost.h"
#include "model/memory.h"
#include "model/timing.h"

// Prices schedule-IR ops with the hardware timing model: the glue between
// the analytical layer in src/model and the schedule/simulation layer. Every
// price is a TimingModel evaluation made once, at construction.
namespace helix::model {

class PaperCostModel final : public core::CostModel {
 public:
  /// Throws std::invalid_argument when `pipeline_size` < 1: the optimizer
  /// step prices one stage's share of the layer parameters.
  PaperCostModel(const TimingModel& timing, const ModelConfig& model,
                 const LayerDims& dims, int pipeline_size = 1,
                 QkvPlacement qkv = QkvPlacement::kInAttention);
};

}  // namespace helix::model
