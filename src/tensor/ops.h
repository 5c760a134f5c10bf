#pragma once

#include "tensor/tensor.h"

// Numerical primitives for the mini-transformer: forward and backward of
// every Table 1 operation. All reductions accumulate in double, each output
// in its own accumulator in a fixed ascending order, so the pooled,
// register-blocked kernels below are bit-identical to the serial ref::
// kernels at any thread count (DESIGN §8). No multiply-add is ever fused.
namespace helix::tensor {

/// C = A[m,k] * B[k,n].
Tensor matmul(const Tensor& a, const Tensor& b);
/// C = A^T[k,m] * B[k,n]  (weight gradients: inputs^T * dout).
Tensor matmul_tn(const Tensor& a, const Tensor& b);
/// C = A[m,k] * B^T[n,k]  (input gradients: dout * W^T).
Tensor matmul_nt(const Tensor& a, const Tensor& b);

Tensor add(const Tensor& a, const Tensor& b);
void add_inplace(Tensor& a, const Tensor& b);
void axpy(Tensor& a, const Tensor& b, float alpha);  ///< a += alpha * b
Tensor scale(const Tensor& a, float alpha);
double max_abs_diff(const Tensor& a, const Tensor& b);
double sum_abs(const Tensor& a);

// ---- LayerNorm over the last dimension of [rows, h] ----
struct LayerNormStats {
  Tensor mean;  ///< [rows]
  Tensor rstd;  ///< [rows]
};
Tensor layernorm_forward(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                         LayerNormStats* stats);
struct LayerNormGrads {
  Tensor dx;
  Tensor dgamma;
  Tensor dbeta;
};
LayerNormGrads layernorm_backward(const Tensor& dy, const Tensor& x,
                                  const Tensor& gamma, const LayerNormStats& stats);

/// Parameter gradients only (for decoupled backward-W): dgamma, dbeta.
struct LayerNormParamGrads {
  Tensor dgamma;
  Tensor dbeta;
};
LayerNormParamGrads layernorm_param_grads(const Tensor& dy, const Tensor& x,
                                          const LayerNormStats& stats);

// ---- GeLU (tanh approximation) ----
Tensor gelu_forward(const Tensor& x);
Tensor gelu_backward(const Tensor& dy, const Tensor& x);

// ---- Causal multi-head attention over qkv packed as [b*s, 3h] ----
// Rows are ordered batch-major: row = batch * s + position. Backward is
// flash-style: probabilities are recomputed from q,k,v, never stashed.
Tensor attention_forward(const Tensor& qkv, i64 batch, i64 seq, int heads);
Tensor attention_backward(const Tensor& dctx, const Tensor& qkv, i64 batch,
                          i64 seq, int heads);

// ---- Embedding / LM head ----
Tensor embedding_forward(const std::vector<int>& tokens, const Tensor& wte,
                         const Tensor& wpe, i64 batch, i64 seq);
void embedding_backward(const Tensor& dx, const std::vector<int>& tokens,
                        Tensor& dwte, Tensor& dwpe, i64 batch, i64 seq);

/// Mean token cross entropy; returns loss and writes dlogits (scaled by
/// 1/num_tokens) into `dlogits`.
double cross_entropy_forward_backward(const Tensor& logits,
                                      const std::vector<int>& targets,
                                      Tensor& dlogits);

// ---- Serial reference kernels ----
// The original naive single-threaded implementations, retained verbatim as
// the determinism oracle: the pooled, cache-blocked kernels above must be
// BIT-IDENTICAL to these for every HELIX_THREADS value (every output
// element keeps its exact serial accumulation order; cross-row reductions
// are column-parallel, so each column still folds rows 0..n-1 in order).
// Tests pin the contract; bench_micro uses them as the speedup baseline.
namespace ref {
Tensor matmul(const Tensor& a, const Tensor& b);
Tensor matmul_tn(const Tensor& a, const Tensor& b);
Tensor matmul_nt(const Tensor& a, const Tensor& b);
Tensor layernorm_forward(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                         LayerNormStats* stats);
LayerNormGrads layernorm_backward(const Tensor& dy, const Tensor& x,
                                  const Tensor& gamma, const LayerNormStats& stats);
LayerNormParamGrads layernorm_param_grads(const Tensor& dy, const Tensor& x,
                                          const LayerNormStats& stats);
Tensor gelu_forward(const Tensor& x);
Tensor gelu_backward(const Tensor& dy, const Tensor& x);
Tensor attention_forward(const Tensor& qkv, i64 batch, i64 seq, int heads);
Tensor attention_backward(const Tensor& dctx, const Tensor& qkv, i64 batch,
                          i64 seq, int heads);
double cross_entropy_forward_backward(const Tensor& logits,
                                      const std::vector<int>& targets,
                                      Tensor& dlogits);
}  // namespace ref

}  // namespace helix::tensor
