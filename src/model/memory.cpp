#include "model/memory.h"

#include <algorithm>
#include <stdexcept>

namespace helix::model {

namespace {
void check_shape(const PipelineShape& ps) {
  if (ps.p < 1 || ps.L < 1 || ps.L % ps.p != 0) {
    throw std::invalid_argument("layers must be divisible by pipeline size");
  }
}
}  // namespace

i64 onef1b_stage_activation_bytes(const LayerDims& d, const PipelineShape& ps,
                                  int stage, DType dt) {
  check_shape(ps);
  if (stage < 0 || stage >= ps.p) throw std::invalid_argument("bad stage");
  const i64 outstanding = std::min<i64>(ps.p - stage, ps.m);
  return 16 * d.bsh() * outstanding * (ps.L / ps.p) * dtype_bytes(dt);
}

i64 zb1p_stage_activation_bytes(const LayerDims& d, const PipelineShape& ps, DType dt) {
  check_shape(ps);
  const i64 outstanding = std::min<i64>(ps.p, ps.m);
  return 16 * d.bsh() * outstanding * (ps.L / ps.p) * dtype_bytes(dt);
}

i64 zb2p_stage_activation_bytes(const LayerDims& d, const PipelineShape& ps, DType dt) {
  check_shape(ps);
  const i64 outstanding = std::min<i64>(2 * ps.p, ps.m);
  return 16 * d.bsh() * outstanding * (ps.L / ps.p) * dtype_bytes(dt);
}

i64 coexec_stage_activation_bytes(const LayerDims& d, const PipelineShape& ps,
                                  int stage, DType dt) {
  check_shape(ps);
  if (stage < 0 || stage >= ps.p) throw std::invalid_argument("bad stage");
  const i64 outstanding = std::min<i64>(ps.p - stage + 1, ps.m);
  return 16 * d.bsh() * outstanding * (ps.L / ps.p) * dtype_bytes(dt);
}

i64 helix_stage_activation_bytes(const LayerDims& d, const PipelineShape& ps,
                                 bool recompute_without_attention, DType dt) {
  check_shape(ps);
  const i64 per_layer = recompute_without_attention ? 4 : 16;
  return per_layer * d.bsh() * ps.m * (ps.L / ps.p) * dtype_bytes(dt);
}

i64 gpipe_stage_activation_bytes(const LayerDims& d, const PipelineShape& ps, DType dt) {
  check_shape(ps);
  return 16 * d.bsh() * ps.m * (ps.L / ps.p) * dtype_bytes(dt);
}

i64 qkv_weight_stash_bytes(const LayerDims& d, DType dt) {
  return 3 * d.h * d.h * dtype_bytes(dt);
}

i64 stage_model_state_bytes(const ModelConfig& m, const PipelineShape& ps, int t) {
  check_shape(ps);
  const i64 per_layer = 12 * m.hidden * m.hidden + 4 * m.hidden;
  return per_layer * (ps.L / ps.p) * kMixedPrecisionBytesPerParam / t;
}

i64 embedding_state_bytes(const ModelConfig& m, int t) {
  return (m.vocab + m.max_seq) * m.hidden * kMixedPrecisionBytesPerParam / t;
}

i64 lm_head_logit_bytes(const LayerDims& d, i64 vocab, DType dt) {
  return d.s * d.b * vocab * dtype_bytes(dt);
}

}  // namespace helix::model
