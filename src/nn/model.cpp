#include "nn/model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace helix::nn {

using tensor::fill_normal_like;
using tensor::fill_uniform;

void validate(const MiniGptConfig& cfg) {
  const std::pair<const char*, i64> fields[] = {
      {"layers", cfg.layers}, {"hidden", cfg.hidden},
      {"heads", cfg.heads},   {"seq", cfg.seq},
      {"batch", cfg.batch},   {"vocab", cfg.vocab},
      {"micro_batches", cfg.micro_batches}};
  for (const auto& [name, value] : fields) {
    if (value < 1) {
      throw std::invalid_argument("MiniGptConfig::" + std::string(name) + " = " +
                                  std::to_string(value) + " must be >= 1");
    }
  }
  if (cfg.hidden % cfg.heads != 0) {
    throw std::invalid_argument(
        "MiniGptConfig::heads = " + std::to_string(cfg.heads) +
        " must divide MiniGptConfig::hidden = " + std::to_string(cfg.hidden));
  }
}

ModelParams ModelParams::init(const MiniGptConfig& cfg, std::uint64_t seed) {
  validate(cfg);
  ModelParams p;
  p.cfg = cfg;
  const i64 h = cfg.hidden;
  const float std_w = 0.08f;
  p.layers.resize(static_cast<std::size_t>(cfg.layers));
  std::uint64_t s = seed;
  for (auto& l : p.layers) {
    l.ln1_g = Tensor({h});
    l.ln1_b = Tensor({h});
    for (i64 i = 0; i < h; ++i) l.ln1_g[i] = 1.0f;
    l.ln2_g = l.ln1_g;
    l.ln2_b = l.ln1_b;
    l.wqkv = Tensor({h, 3 * h});
    l.wo = Tensor({h, h});
    l.w1 = Tensor({h, 4 * h});
    l.w2 = Tensor({4 * h, h});
    fill_normal_like(l.wqkv, ++s, std_w);
    fill_normal_like(l.wo, ++s, std_w);
    fill_normal_like(l.w1, ++s, std_w);
    fill_normal_like(l.w2, ++s, std_w);
  }
  p.wte = Tensor({cfg.vocab, h});
  p.wpe = Tensor({cfg.seq, h});
  p.wlm = Tensor({h, cfg.vocab});
  fill_normal_like(p.wte, ++s, std_w);
  fill_normal_like(p.wpe, ++s, 0.02f);
  fill_normal_like(p.wlm, ++s, std_w);
  return p;
}

double ModelParams::max_diff(const ModelParams& o) const {
  using tensor::max_abs_diff;
  double m = 0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const auto& a = layers[i];
    const auto& b = o.layers[i];
    m = std::max({m, max_abs_diff(a.ln1_g, b.ln1_g), max_abs_diff(a.ln1_b, b.ln1_b),
                  max_abs_diff(a.wqkv, b.wqkv), max_abs_diff(a.wo, b.wo),
                  max_abs_diff(a.ln2_g, b.ln2_g), max_abs_diff(a.ln2_b, b.ln2_b),
                  max_abs_diff(a.w1, b.w1), max_abs_diff(a.w2, b.w2)});
  }
  m = std::max({m, max_abs_diff(wte, o.wte), max_abs_diff(wpe, o.wpe),
                max_abs_diff(wlm, o.wlm)});
  return m;
}

void GradStore::accumulate(const std::string& name, int mb, Tensor grad) {
  auto& per_mb = grads_[name];
  const auto it = per_mb.find(mb);
  if (it == per_mb.end()) {
    per_mb.emplace(mb, std::move(grad));
  } else {
    tensor::add_inplace(it->second, grad);
  }
}

Tensor GradStore::total(const std::string& name, const Tensor& like) const {
  Tensor out(like.shape());
  const auto it = grads_.find(name);
  if (it == grads_.end()) return out;
  for (const auto& [mb, g] : it->second) {
    tensor::add_inplace(out, g);
  }
  return out;
}

bool GradStore::has(const std::string& name) const {
  return grads_.find(name) != grads_.end();
}

void GradStore::clear() { grads_.clear(); }

std::string param_name(int layer, const char* field) {
  return "layer" + std::to_string(layer) + "." + field;
}

namespace {
void apply(Tensor& p, const GradStore& g, const std::string& name, float lr) {
  if (!g.has(name)) return;
  const Tensor total = g.total(name, p);
  tensor::axpy(p, total, -lr);
}
}  // namespace

void sgd_step(ModelParams& params, const GradStore& grads, float lr) {
  for (int l = 0; l < params.cfg.layers; ++l) {
    auto& lp = params.layers[static_cast<std::size_t>(l)];
    apply(lp.ln1_g, grads, param_name(l, "ln1_g"), lr);
    apply(lp.ln1_b, grads, param_name(l, "ln1_b"), lr);
    apply(lp.wqkv, grads, param_name(l, "wqkv"), lr);
    apply(lp.wo, grads, param_name(l, "wo"), lr);
    apply(lp.ln2_g, grads, param_name(l, "ln2_g"), lr);
    apply(lp.ln2_b, grads, param_name(l, "ln2_b"), lr);
    apply(lp.w1, grads, param_name(l, "w1"), lr);
    apply(lp.w2, grads, param_name(l, "w2"), lr);
  }
  apply(params.wte, grads, "wte", lr);
  apply(params.wpe, grads, "wpe", lr);
  apply(params.wlm, grads, "wlm", lr);
}

namespace {
void adam_apply(Tensor& p, const GradStore& g, const std::string& name,
                AdamState& st, float lr) {
  if (!g.has(name)) return;
  const Tensor grad = g.total(name, p);
  auto [it, inserted] = st.moments.try_emplace(name, Tensor(p.shape()), Tensor(p.shape()));
  Tensor& m = it->second.first;
  Tensor& v = it->second.second;
  const double b1 = st.beta1, b2 = st.beta2;
  const double bc1 = 1.0 - std::pow(b1, static_cast<double>(st.step));
  const double bc2 = 1.0 - std::pow(b2, static_cast<double>(st.step));
  for (i64 i = 0; i < p.numel(); ++i) {
    m[i] = static_cast<float>(b1 * m[i] + (1.0 - b1) * grad[i]);
    v[i] = static_cast<float>(b2 * v[i] + (1.0 - b2) * grad[i] * grad[i]);
    const double mhat = m[i] / bc1;
    const double vhat = v[i] / bc2;
    p[i] -= static_cast<float>(lr * mhat / (std::sqrt(vhat) + st.eps));
  }
}
}  // namespace

void adam_step(ModelParams& params, const GradStore& grads, AdamState& state,
               float lr) {
  ++state.step;
  for (int l = 0; l < params.cfg.layers; ++l) {
    auto& lp = params.layers[static_cast<std::size_t>(l)];
    adam_apply(lp.ln1_g, grads, param_name(l, "ln1_g"), state, lr);
    adam_apply(lp.ln1_b, grads, param_name(l, "ln1_b"), state, lr);
    adam_apply(lp.wqkv, grads, param_name(l, "wqkv"), state, lr);
    adam_apply(lp.wo, grads, param_name(l, "wo"), state, lr);
    adam_apply(lp.ln2_g, grads, param_name(l, "ln2_g"), state, lr);
    adam_apply(lp.ln2_b, grads, param_name(l, "ln2_b"), state, lr);
    adam_apply(lp.w1, grads, param_name(l, "w1"), state, lr);
    adam_apply(lp.w2, grads, param_name(l, "w2"), state, lr);
  }
  adam_apply(params.wte, grads, "wte", state, lr);
  adam_apply(params.wpe, grads, "wpe", state, lr);
  adam_apply(params.wlm, grads, "wlm", state, lr);
}

Batch Batch::random(const MiniGptConfig& cfg, std::uint64_t seed) {
  Batch b;
  b.tokens.resize(static_cast<std::size_t>(cfg.micro_batches));
  b.targets.resize(static_cast<std::size_t>(cfg.micro_batches));
  Tensor noise({cfg.micro_batches * cfg.rows() * 2});
  fill_uniform(noise, seed, 0.0f, 1.0f);
  i64 k = 0;
  for (int mb = 0; mb < cfg.micro_batches; ++mb) {
    auto& t = b.tokens[static_cast<std::size_t>(mb)];
    auto& y = b.targets[static_cast<std::size_t>(mb)];
    t.resize(static_cast<std::size_t>(cfg.rows()));
    y.resize(static_cast<std::size_t>(cfg.rows()));
    for (i64 r = 0; r < cfg.rows(); ++r) {
      t[static_cast<std::size_t>(r)] =
          static_cast<int>(noise[k++] * static_cast<float>(cfg.vocab - 1));
      y[static_cast<std::size_t>(r)] =
          static_cast<int>(noise[k++] * static_cast<float>(cfg.vocab - 1));
    }
  }
  return b;
}

}  // namespace helix::nn
