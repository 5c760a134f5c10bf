#include "tensor/ops.h"

#include <cmath>

// Never fuse a multiply and an add into one rounding: the pooled kernels and
// the oracle must round every product and every sum alike under any -march.
// A pragma, not a build flag, so that every build of these sources gets it.
#pragma GCC optimize("fp-contract=off")

// Serial reference kernels: byte-for-byte the pre-pool implementations.
// These are the oracle the pooled kernels in ops.cpp are tested against —
// any change here must be mirrored there to keep the bit-identity contract.
namespace helix::tensor::ref {

namespace {
void check(bool cond, const char* what) {
  if (!cond) throw std::invalid_argument(what);
}
constexpr double kGeluC = 0.7978845608028654;  // sqrt(2/pi)
}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  check(a.ndim() == 2 && b.ndim() == 2 && a.cols() == b.rows(), "matmul shape");
  const i64 m = a.rows(), k = a.cols(), n = b.cols();
  Tensor c({m, n});
  for (i64 i = 0; i < m; ++i) {
    for (i64 j = 0; j < n; ++j) {
      double acc = 0;
      for (i64 t = 0; t < k; ++t) {
        acc += static_cast<double>(a.at(i, t)) * static_cast<double>(b.at(t, j));
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  check(a.ndim() == 2 && b.ndim() == 2 && a.rows() == b.rows(), "matmul_tn shape");
  const i64 m = a.cols(), k = a.rows(), n = b.cols();
  Tensor c({m, n});
  for (i64 i = 0; i < m; ++i) {
    for (i64 j = 0; j < n; ++j) {
      double acc = 0;
      for (i64 t = 0; t < k; ++t) {
        acc += static_cast<double>(a.at(t, i)) * static_cast<double>(b.at(t, j));
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  check(a.ndim() == 2 && b.ndim() == 2 && a.cols() == b.cols(), "matmul_nt shape");
  const i64 m = a.rows(), k = a.cols(), n = b.rows();
  Tensor c({m, n});
  for (i64 i = 0; i < m; ++i) {
    for (i64 j = 0; j < n; ++j) {
      double acc = 0;
      for (i64 t = 0; t < k; ++t) {
        acc += static_cast<double>(a.at(i, t)) * static_cast<double>(b.at(j, t));
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

Tensor layernorm_forward(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                         LayerNormStats* stats) {
  check(x.ndim() == 2, "layernorm input");
  const i64 rows = x.rows(), h = x.cols();
  check(gamma.numel() == h && beta.numel() == h, "layernorm params");
  Tensor y({rows, h});
  Tensor mean({rows}), rstd({rows});
  for (i64 r = 0; r < rows; ++r) {
    double mu = 0;
    for (i64 c = 0; c < h; ++c) mu += x.at(r, c);
    mu /= static_cast<double>(h);
    double var = 0;
    for (i64 c = 0; c < h; ++c) {
      const double d = x.at(r, c) - mu;
      var += d * d;
    }
    var /= static_cast<double>(h);
    const double rs = 1.0 / std::sqrt(var + 1e-5);
    mean[r] = static_cast<float>(mu);
    rstd[r] = static_cast<float>(rs);
    for (i64 c = 0; c < h; ++c) {
      y.at(r, c) = static_cast<float>((x.at(r, c) - mu) * rs * gamma[c] + beta[c]);
    }
  }
  if (stats != nullptr) {
    stats->mean = std::move(mean);
    stats->rstd = std::move(rstd);
  }
  return y;
}

LayerNormGrads layernorm_backward(const Tensor& dy, const Tensor& x,
                                  const Tensor& gamma, const LayerNormStats& stats) {
  const i64 rows = x.rows(), h = x.cols();
  LayerNormGrads g{Tensor({rows, h}), Tensor({h}), Tensor({h})};
  std::vector<double> dgamma(static_cast<std::size_t>(h), 0.0);
  std::vector<double> dbeta(static_cast<std::size_t>(h), 0.0);
  for (i64 r = 0; r < rows; ++r) {
    const double mu = stats.mean[r];
    const double rs = stats.rstd[r];
    double sum_dyg = 0, sum_dyg_xhat = 0;
    for (i64 c = 0; c < h; ++c) {
      const double xhat = (x.at(r, c) - mu) * rs;
      const double dyg = static_cast<double>(dy.at(r, c)) * gamma[c];
      sum_dyg += dyg;
      sum_dyg_xhat += dyg * xhat;
      dgamma[static_cast<std::size_t>(c)] += dy.at(r, c) * xhat;
      dbeta[static_cast<std::size_t>(c)] += dy.at(r, c);
    }
    const double inv_h = 1.0 / static_cast<double>(h);
    for (i64 c = 0; c < h; ++c) {
      const double xhat = (x.at(r, c) - mu) * rs;
      const double dyg = static_cast<double>(dy.at(r, c)) * gamma[c];
      g.dx.at(r, c) = static_cast<float>(
          rs * (dyg - inv_h * sum_dyg - xhat * inv_h * sum_dyg_xhat));
    }
  }
  for (i64 c = 0; c < h; ++c) {
    g.dgamma[c] = static_cast<float>(dgamma[static_cast<std::size_t>(c)]);
    g.dbeta[c] = static_cast<float>(dbeta[static_cast<std::size_t>(c)]);
  }
  return g;
}

LayerNormParamGrads layernorm_param_grads(const Tensor& dy, const Tensor& x,
                                          const LayerNormStats& stats) {
  const i64 rows = x.rows(), h = x.cols();
  LayerNormParamGrads g{Tensor({h}), Tensor({h})};
  std::vector<double> dgamma(static_cast<std::size_t>(h), 0.0);
  std::vector<double> dbeta(static_cast<std::size_t>(h), 0.0);
  for (i64 r = 0; r < rows; ++r) {
    const double mu = stats.mean[r];
    const double rs = stats.rstd[r];
    for (i64 c = 0; c < h; ++c) {
      const double xhat = (x.at(r, c) - mu) * rs;
      dgamma[static_cast<std::size_t>(c)] += dy.at(r, c) * xhat;
      dbeta[static_cast<std::size_t>(c)] += dy.at(r, c);
    }
  }
  for (i64 c = 0; c < h; ++c) {
    g.dgamma[c] = static_cast<float>(dgamma[static_cast<std::size_t>(c)]);
    g.dbeta[c] = static_cast<float>(dbeta[static_cast<std::size_t>(c)]);
  }
  return g;
}

Tensor gelu_forward(const Tensor& x) {
  Tensor y = x;
  for (i64 i = 0; i < y.numel(); ++i) {
    const double v = x[i];
    y[i] = static_cast<float>(0.5 * v * (1.0 + std::tanh(kGeluC * (v + 0.044715 * v * v * v))));
  }
  return y;
}

Tensor gelu_backward(const Tensor& dy, const Tensor& x) {
  check(dy.same_shape(x), "gelu_backward shape");
  Tensor dx = x;
  for (i64 i = 0; i < x.numel(); ++i) {
    const double v = x[i];
    const double u = kGeluC * (v + 0.044715 * v * v * v);
    const double t = std::tanh(u);
    const double du = kGeluC * (1.0 + 3.0 * 0.044715 * v * v);
    const double d = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * du;
    dx[i] = static_cast<float>(dy[i] * d);
  }
  return dx;
}

namespace {
/// Recompute the causal softmax probabilities for one (batch, head):
/// probs[i][j] over j <= i.
void head_probs(const Tensor& qkv, i64 batch_idx, i64 seq, int heads, int head,
                i64 h, std::vector<double>& probs) {
  const i64 dh = h / heads;
  const double scl = 1.0 / std::sqrt(static_cast<double>(dh));
  const i64 row0 = batch_idx * seq;
  probs.assign(static_cast<std::size_t>(seq * seq), 0.0);
  for (i64 i = 0; i < seq; ++i) {
    double maxv = -1e300;
    for (i64 j = 0; j <= i; ++j) {
      double dot = 0;
      for (i64 c = 0; c < dh; ++c) {
        const double q = qkv.at(row0 + i, head * dh + c);
        const double k = qkv.at(row0 + j, h + head * dh + c);
        dot += q * k;
      }
      dot *= scl;
      probs[static_cast<std::size_t>(i * seq + j)] = dot;
      maxv = std::max(maxv, dot);
    }
    double denom = 0;
    for (i64 j = 0; j <= i; ++j) {
      double& pv = probs[static_cast<std::size_t>(i * seq + j)];
      pv = std::exp(pv - maxv);
      denom += pv;
    }
    for (i64 j = 0; j <= i; ++j) {
      probs[static_cast<std::size_t>(i * seq + j)] /= denom;
    }
  }
}
}  // namespace

Tensor attention_forward(const Tensor& qkv, i64 batch, i64 seq, int heads) {
  check(qkv.ndim() == 2 && qkv.rows() == batch * seq && qkv.cols() % 3 == 0,
        "attention qkv shape");
  const i64 h = qkv.cols() / 3;
  check(h % heads == 0, "heads must divide hidden");
  const i64 dh = h / heads;
  Tensor ctx({batch * seq, h});
  std::vector<double> probs;
  for (i64 b = 0; b < batch; ++b) {
    for (int hd = 0; hd < heads; ++hd) {
      head_probs(qkv, b, seq, heads, hd, h, probs);
      const i64 row0 = b * seq;
      for (i64 i = 0; i < seq; ++i) {
        for (i64 c = 0; c < dh; ++c) {
          double acc = 0;
          for (i64 j = 0; j <= i; ++j) {
            acc += probs[static_cast<std::size_t>(i * seq + j)] *
                   qkv.at(row0 + j, 2 * h + hd * dh + c);
          }
          ctx.at(row0 + i, hd * dh + c) = static_cast<float>(acc);
        }
      }
    }
  }
  return ctx;
}

Tensor attention_backward(const Tensor& dctx, const Tensor& qkv, i64 batch,
                          i64 seq, int heads) {
  const i64 h = qkv.cols() / 3;
  const i64 dh = h / heads;
  const double scl = 1.0 / std::sqrt(static_cast<double>(dh));
  Tensor dqkv({batch * seq, 3 * h});
  std::vector<double> probs, dprobs, dscores;
  for (i64 b = 0; b < batch; ++b) {
    for (int hd = 0; hd < heads; ++hd) {
      head_probs(qkv, b, seq, heads, hd, h, probs);
      const i64 row0 = b * seq;
      dprobs.assign(static_cast<std::size_t>(seq * seq), 0.0);
      dscores.assign(static_cast<std::size_t>(seq * seq), 0.0);
      // dV and dP.
      for (i64 i = 0; i < seq; ++i) {
        for (i64 j = 0; j <= i; ++j) {
          double dp = 0;
          for (i64 c = 0; c < dh; ++c) {
            dp += static_cast<double>(dctx.at(row0 + i, hd * dh + c)) *
                  qkv.at(row0 + j, 2 * h + hd * dh + c);
          }
          dprobs[static_cast<std::size_t>(i * seq + j)] = dp;
        }
      }
      for (i64 j = 0; j < seq; ++j) {
        for (i64 c = 0; c < dh; ++c) {
          double acc = 0;
          for (i64 i = j; i < seq; ++i) {
            acc += probs[static_cast<std::size_t>(i * seq + j)] *
                   dctx.at(row0 + i, hd * dh + c);
          }
          dqkv.at(row0 + j, 2 * h + hd * dh + c) = static_cast<float>(acc);
        }
      }
      // Softmax backward per query row.
      for (i64 i = 0; i < seq; ++i) {
        double dot = 0;
        for (i64 j = 0; j <= i; ++j) {
          dot += dprobs[static_cast<std::size_t>(i * seq + j)] *
                 probs[static_cast<std::size_t>(i * seq + j)];
        }
        for (i64 j = 0; j <= i; ++j) {
          const double pv = probs[static_cast<std::size_t>(i * seq + j)];
          dscores[static_cast<std::size_t>(i * seq + j)] =
              pv * (dprobs[static_cast<std::size_t>(i * seq + j)] - dot) * scl;
        }
      }
      // dQ and dK.
      for (i64 i = 0; i < seq; ++i) {
        for (i64 c = 0; c < dh; ++c) {
          double acc = 0;
          for (i64 j = 0; j <= i; ++j) {
            acc += dscores[static_cast<std::size_t>(i * seq + j)] *
                   qkv.at(row0 + j, h + hd * dh + c);
          }
          dqkv.at(row0 + i, hd * dh + c) = static_cast<float>(acc);
        }
      }
      for (i64 j = 0; j < seq; ++j) {
        for (i64 c = 0; c < dh; ++c) {
          double acc = 0;
          for (i64 i = j; i < seq; ++i) {
            acc += dscores[static_cast<std::size_t>(i * seq + j)] *
                   qkv.at(row0 + i, hd * dh + c);
          }
          dqkv.at(row0 + j, h + hd * dh + c) = static_cast<float>(acc);
        }
      }
    }
  }
  return dqkv;
}

double cross_entropy_forward_backward(const Tensor& logits,
                                      const std::vector<int>& targets,
                                      Tensor& dlogits) {
  const i64 rows = logits.rows(), v = logits.cols();
  check(static_cast<i64>(targets.size()) == rows, "target count");
  dlogits = Tensor({rows, v});
  double loss = 0;
  const double inv_n = 1.0 / static_cast<double>(rows);
  for (i64 r = 0; r < rows; ++r) {
    double maxv = -1e300;
    for (i64 c = 0; c < v; ++c) maxv = std::max(maxv, static_cast<double>(logits.at(r, c)));
    double denom = 0;
    for (i64 c = 0; c < v; ++c) denom += std::exp(logits.at(r, c) - maxv);
    const int t = targets[static_cast<std::size_t>(r)];
    check(t >= 0 && t < v, "target out of range");
    loss += -(logits.at(r, t) - maxv - std::log(denom)) * inv_n;
    for (i64 c = 0; c < v; ++c) {
      const double p = std::exp(logits.at(r, c) - maxv) / denom;
      dlogits.at(r, c) = static_cast<float>((p - (c == t ? 1.0 : 0.0)) * inv_n);
    }
  }
  return loss;
}

}  // namespace helix::tensor::ref
