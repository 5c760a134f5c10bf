#pragma once

#include <map>
#include <string>
#include <vector>

#include "tensor/ops.h"

// Mini-GPT parameterization for the numerical runtime: real fp32 weights for
// every Table 1 operation, keyed so gradients can be accumulated per micro
// batch and summed in canonical order (bit-reproducible across schedules).
namespace helix::nn {

using tensor::i64;
using tensor::Tensor;

struct MiniGptConfig {
  int layers = 4;
  i64 hidden = 32;
  int heads = 4;
  i64 seq = 16;
  i64 batch = 1;   ///< micro batch size b
  i64 vocab = 64;
  int micro_batches = 4;
  float lr = 0.05f;
  i64 rows() const { return batch * seq; }
};

/// Throws std::invalid_argument naming the first integer field that is not
/// >= 1, or `heads` when it does not divide `hidden`.
void validate(const MiniGptConfig& cfg);

struct LayerParams {
  Tensor ln1_g, ln1_b;  ///< [h]
  Tensor wqkv;          ///< [h, 3h]
  Tensor wo;            ///< [h, h]
  Tensor ln2_g, ln2_b;  ///< [h]
  Tensor w1;            ///< [h, 4h]
  Tensor w2;            ///< [4h, h]
};

struct ModelParams {
  MiniGptConfig cfg;
  std::vector<LayerParams> layers;
  Tensor wte;  ///< [vocab, h]
  Tensor wpe;  ///< [seq, h]
  Tensor wlm;  ///< [h, vocab] (untied head)

  /// Validates `cfg` first (see validate).
  static ModelParams init(const MiniGptConfig& cfg, std::uint64_t seed);

  /// Max |a - b| over all parameters.
  double max_diff(const ModelParams& other) const;
};

/// Gradients accumulated per (parameter name, micro batch); summed in micro
/// batch order at the optimizer step so the result is independent of the
/// schedule's execution order.
class GradStore {
 public:
  void accumulate(const std::string& name, int mb, Tensor grad);
  /// Sum of all micro batch gradients for `name` (zeros-like `like` if none).
  Tensor total(const std::string& name, const Tensor& like) const;
  bool has(const std::string& name) const;
  void clear();
  std::size_t entries() const noexcept { return grads_.size(); }

 private:
  std::map<std::string, std::map<int, Tensor>> grads_;
};

/// SGD: p -= lr * sum_mb grad. Applies only gradients present in `grads`
/// (each rank owns a subset of parameters).
void sgd_step(ModelParams& params, const GradStore& grads, float lr);

/// Adam with bias correction. Moment tensors are created lazily per
/// parameter name; each pipeline rank keeps the state for the parameters it
/// owns (mirroring distributed optimizer state).
struct AdamState {
  std::map<std::string, std::pair<Tensor, Tensor>> moments;  ///< (m, v)
  std::int64_t step = 0;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
};
void adam_step(ModelParams& params, const GradStore& grads, AdamState& state,
               float lr);

/// Canonical parameter names used by GradStore.
std::string param_name(int layer, const char* field);

struct Batch {
  std::vector<std::vector<int>> tokens;   ///< per micro batch, b*s ids
  std::vector<std::vector<int>> targets;  ///< next-token labels
  static Batch random(const MiniGptConfig& cfg, std::uint64_t seed);
};

}  // namespace helix::nn
