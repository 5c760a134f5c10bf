#pragma once

#include "model/dims.h"
#include "model/model_config.h"

// Closed-form activation / model-state memory accounting (paper Eq. 2,
// Eq. 4 and Table 2). All formulas return *bytes* for the given dtype.
namespace helix::model {

/// Per-parameter bytes of mixed-precision Adam training: fp16 parameter +
/// fp16 gradient + fp32 master copy + fp32 momentum + fp32 variance.
constexpr i64 kMixedPrecisionBytesPerParam = 2 + 2 + 4 + 4 + 4;

struct PipelineShape {
  int p = 1;  ///< pipeline size (stages)
  int m = 1;  ///< micro batches per iteration
  int L = 1;  ///< transformer layers
};

/// Eq. 2 — 1F1B activation bytes at stage i: 16(p-i) * bsh * L/p elements.
i64 onef1b_stage_activation_bytes(const LayerDims& d, const PipelineShape& ps,
                                  int stage, DType dt = DType::kFP16);

/// Eq. 4 — ZB1P worst-case activation bytes (same for every stage): 16bshL.
i64 zb1p_stage_activation_bytes(const LayerDims& d, const PipelineShape& ps,
                                DType dt = DType::kFP16);

/// ZB2P doubles the zero-bubble activation cap to min(2p, m) outstanding
/// micro batches per stage: 16bsh * min(2p, m) * L/p.
i64 zb2p_stage_activation_bytes(const LayerDims& d, const PipelineShape& ps,
                                DType dt = DType::kFP16);

/// Micro-batch co-execution: the 1F1B forward footprint plus the one micro
/// batch whose backward-W is deferred into the next gradient wait:
/// 16bsh * min(p-stage + 1, m) * L/p.
i64 coexec_stage_activation_bytes(const LayerDims& d, const PipelineShape& ps,
                                  int stage, DType dt = DType::kFP16);

/// Table 2 — HelixPipe activation bytes per stage: 4bsh * m * L/p with the
/// recomputation-without-attention strategy, 16bsh * m * L/p without it.
i64 helix_stage_activation_bytes(const LayerDims& d, const PipelineShape& ps,
                                 bool recompute_without_attention,
                                 DType dt = DType::kFP16);

/// GPipe-style layer-wise FILO: all m micro batches stashed: 16bsh * m * L/p.
i64 gpipe_stage_activation_bytes(const LayerDims& d, const PipelineShape& ps,
                                 DType dt = DType::kFP16);

/// Weight-shipping stash: the Wqkv replica (3h^2) kept per outstanding
/// (micro batch, layer) for the attention backward when QKV weights are
/// shipped with the activations (Section 4.2).
i64 qkv_weight_stash_bytes(const LayerDims& d, DType dt = DType::kFP16);

/// Model-state bytes (params + grads + optimizer states) of the transformer
/// layers held by one stage under layer-wise partition, divided by the
/// sequence-parallel degree t (Megatron SP shards parameters).
i64 stage_model_state_bytes(const ModelConfig& m, const PipelineShape& ps, int t);

/// Extra bytes on the embedding-owning stages: input embeddings on the first
/// stage; LM-head gradient stash (fp32 [s,b,V] logits gradients, Section 5.4's
/// ZB1P spike) on the last.
i64 embedding_state_bytes(const ModelConfig& m, int t);
i64 lm_head_logit_bytes(const LayerDims& d, i64 vocab, DType dt = DType::kFP32);

}  // namespace helix::model
