#include "tensor/ops.h"

#include <cmath>
#include <vector>

#include "par/thread_pool.h"

// Pooled, cache-blocked kernels. Every kernel here is BIT-IDENTICAL to its
// serial counterpart in ops_ref.cpp for any HELIX_THREADS value:
//  * the index space is split by a fixed grain (a function of the problem
//    shape only, never the thread count), and chunks write disjoint outputs;
//  * each output element keeps its exact serial accumulation order (matmul
//    folds k ascending per element; attention processes one (batch, head)
//    exactly as the serial code does);
//  * cross-row reductions (dgamma/dbeta, embedding grads) are COLUMN-parallel:
//    a worker owns a disjoint column range and folds rows 0..n-1 in serial
//    row order, so no partial-sum merge ever reorders float additions;
//  * operand packing (transposed copies of matmul operands, per-head q/k/v
//    gathers) only relocates bytes — the arithmetic stream is unchanged.
namespace helix::tensor {

namespace {
void check(bool cond, const char* what) {
  if (!cond) throw std::invalid_argument(what);
}
constexpr double kGeluC = 0.7978845608028654;  // sqrt(2/pi)

// Fixed parallel grains: shape-independent constants so the chunk partition
// (and therefore every chunk-indexed reduction) never depends on thread count.
constexpr i64 kMatmulRowGrain = 8;   ///< output rows per matmul chunk
constexpr i64 kPackRowGrain = 64;    ///< packed rows per transpose chunk
constexpr i64 kRowGrain = 16;        ///< rows per layernorm/embedding chunk
constexpr i64 kColGrain = 32;        ///< columns per column-reduction chunk
constexpr i64 kElemGrain = 8192;     ///< elements per elementwise chunk
constexpr i64 kCeRowGrain = 4;       ///< rows per cross-entropy chunk

/// dst[j*k + t] = src.at(t, j): pack a [k, n] operand transposed so the
/// matmul inner loop reads both operands contiguously.
void pack_transposed(const Tensor& src, i64 k, i64 n, std::vector<float>& dst) {
  dst.resize(static_cast<std::size_t>(n * k));
  float* out = dst.data();
  const float* in = src.data();
  par::parallel_for(n, kPackRowGrain, [&](i64 j0, i64 j1, i64) {
    for (i64 j = j0; j < j1; ++j) {
      for (i64 t = 0; t < k; ++t) out[j * k + t] = in[t * n + j];
    }
  });
}

/// Rows [i0, i1) of matmul_rows_nt. Out of line and aligned to a 64-byte
/// cache line, so its loops sit at the same offsets within cache lines and
/// decoded-instruction windows in every build. Inlined into the pool lambda
/// it moved with the size of unrelated code linked before it, and a 16-byte
/// shift made short-sequence train steps ~15% slower.
[[gnu::noinline, gnu::aligned(64)]] void matmul_row_block(
    const float* a, const float* b, i64 i0, i64 i1, i64 k, i64 n, float* out) {
  for (i64 i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    for (i64 j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      double acc = 0;
      for (i64 t = 0; t < k; ++t) {
        acc += static_cast<double>(arow[t]) * static_cast<double>(brow[t]);
      }
      out[i * n + j] = static_cast<float>(acc);
    }
  }
}

/// C[i, j] = sum_t A[i, t] * B[j, t] with both operands row-contiguous —
/// the shared inner kernel all three matmul variants reduce to after
/// packing. Row-parallel; per-element k-ascending double fold as in ref.
void matmul_rows_nt(const float* a, const float* b, i64 m, i64 k, i64 n,
                    Tensor& c) {
  float* out = c.data();
  par::parallel_for(m, kMatmulRowGrain, [&](i64 i0, i64 i1, i64) {
    matmul_row_block(a, b, i0, i1, k, n, out);
  });
}
}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  check(a.ndim() == 2 && b.ndim() == 2 && a.cols() == b.rows(), "matmul shape");
  const i64 m = a.rows(), k = a.cols(), n = b.cols();
  Tensor c({m, n});
  std::vector<float> bt;  // B^T: [n, k]
  pack_transposed(b, k, n, bt);
  matmul_rows_nt(a.data(), bt.data(), m, k, n, c);
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  check(a.ndim() == 2 && b.ndim() == 2 && a.rows() == b.rows(), "matmul_tn shape");
  const i64 m = a.cols(), k = a.rows(), n = b.cols();
  Tensor c({m, n});
  std::vector<float> at;  // A^T: [m, k]
  std::vector<float> bt;  // B^T: [n, k]
  pack_transposed(a, k, m, at);
  pack_transposed(b, k, n, bt);
  matmul_rows_nt(at.data(), bt.data(), m, k, n, c);
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  check(a.ndim() == 2 && b.ndim() == 2 && a.cols() == b.cols(), "matmul_nt shape");
  const i64 m = a.rows(), k = a.cols(), n = b.rows();
  Tensor c({m, n});
  matmul_rows_nt(a.data(), b.data(), m, k, n, c);
  return c;
}

Tensor add(const Tensor& a, const Tensor& b) {
  check(a.same_shape(b), "add shape");
  Tensor c = a;
  par::parallel_for(c.numel(), kElemGrain, [&](i64 i0, i64 i1, i64) {
    for (i64 i = i0; i < i1; ++i) c[i] += b[i];
  });
  return c;
}

void add_inplace(Tensor& a, const Tensor& b) {
  check(a.same_shape(b), "add_inplace shape");
  par::parallel_for(a.numel(), kElemGrain, [&](i64 i0, i64 i1, i64) {
    for (i64 i = i0; i < i1; ++i) a[i] += b[i];
  });
}

void axpy(Tensor& a, const Tensor& b, float alpha) {
  check(a.same_shape(b), "axpy shape");
  par::parallel_for(a.numel(), kElemGrain, [&](i64 i0, i64 i1, i64) {
    for (i64 i = i0; i < i1; ++i) a[i] += alpha * b[i];
  });
}

Tensor scale(const Tensor& a, float alpha) {
  Tensor c = a;
  par::parallel_for(c.numel(), kElemGrain, [&](i64 i0, i64 i1, i64) {
    for (i64 i = i0; i < i1; ++i) c[i] *= alpha;
  });
  return c;
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  check(a.same_shape(b), "max_abs_diff shape");
  double m = 0;
  for (i64 i = 0; i < a.numel(); ++i) {
    m = std::max(m, std::abs(static_cast<double>(a[i]) - b[i]));
  }
  return m;
}

double sum_abs(const Tensor& a) {
  double s = 0;
  for (i64 i = 0; i < a.numel(); ++i) s += std::abs(static_cast<double>(a[i]));
  return s;
}

Tensor layernorm_forward(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                         LayerNormStats* stats) {
  check(x.ndim() == 2, "layernorm input");
  const i64 rows = x.rows(), h = x.cols();
  check(gamma.numel() == h && beta.numel() == h, "layernorm params");
  Tensor y({rows, h});
  Tensor mean({rows}), rstd({rows});
  par::parallel_for(rows, kRowGrain, [&](i64 r0, i64 r1, i64) {
    for (i64 r = r0; r < r1; ++r) {
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
  });
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
  // dx is row-parallel: every row only needs its own mean/rstd and sums.
  par::parallel_for(rows, kRowGrain, [&](i64 r0, i64 r1, i64) {
    for (i64 r = r0; r < r1; ++r) {
      const double mu = stats.mean[r];
      const double rs = stats.rstd[r];
      double sum_dyg = 0, sum_dyg_xhat = 0;
      for (i64 c = 0; c < h; ++c) {
        const double xhat = (x.at(r, c) - mu) * rs;
        const double dyg = static_cast<double>(dy.at(r, c)) * gamma[c];
        sum_dyg += dyg;
        sum_dyg_xhat += dyg * xhat;
      }
      const double inv_h = 1.0 / static_cast<double>(h);
      for (i64 c = 0; c < h; ++c) {
        const double xhat = (x.at(r, c) - mu) * rs;
        const double dyg = static_cast<double>(dy.at(r, c)) * gamma[c];
        g.dx.at(r, c) = static_cast<float>(
            rs * (dyg - inv_h * sum_dyg - xhat * inv_h * sum_dyg_xhat));
      }
    }
  });
  // dgamma/dbeta are column-parallel: each chunk owns columns [c0, c1) and
  // folds rows 0..rows-1 ascending — exactly the serial accumulation order.
  par::parallel_for(h, kColGrain, [&](i64 c0, i64 c1, i64) {
    std::vector<double> dg(static_cast<std::size_t>(c1 - c0), 0.0);
    std::vector<double> db(static_cast<std::size_t>(c1 - c0), 0.0);
    for (i64 r = 0; r < rows; ++r) {
      const double mu = stats.mean[r];
      const double rs = stats.rstd[r];
      for (i64 c = c0; c < c1; ++c) {
        const double xhat = (x.at(r, c) - mu) * rs;
        dg[static_cast<std::size_t>(c - c0)] += dy.at(r, c) * xhat;
        db[static_cast<std::size_t>(c - c0)] += dy.at(r, c);
      }
    }
    for (i64 c = c0; c < c1; ++c) {
      g.dgamma[c] = static_cast<float>(dg[static_cast<std::size_t>(c - c0)]);
      g.dbeta[c] = static_cast<float>(db[static_cast<std::size_t>(c - c0)]);
    }
  });
  return g;
}

LayerNormParamGrads layernorm_param_grads(const Tensor& dy, const Tensor& x,
                                          const LayerNormStats& stats) {
  const i64 rows = x.rows(), h = x.cols();
  LayerNormParamGrads g{Tensor({h}), Tensor({h})};
  par::parallel_for(h, kColGrain, [&](i64 c0, i64 c1, i64) {
    std::vector<double> dg(static_cast<std::size_t>(c1 - c0), 0.0);
    std::vector<double> db(static_cast<std::size_t>(c1 - c0), 0.0);
    for (i64 r = 0; r < rows; ++r) {
      const double mu = stats.mean[r];
      const double rs = stats.rstd[r];
      for (i64 c = c0; c < c1; ++c) {
        const double xhat = (x.at(r, c) - mu) * rs;
        dg[static_cast<std::size_t>(c - c0)] += dy.at(r, c) * xhat;
        db[static_cast<std::size_t>(c - c0)] += dy.at(r, c);
      }
    }
    for (i64 c = c0; c < c1; ++c) {
      g.dgamma[c] = static_cast<float>(dg[static_cast<std::size_t>(c - c0)]);
      g.dbeta[c] = static_cast<float>(db[static_cast<std::size_t>(c - c0)]);
    }
  });
  return g;
}

Tensor gelu_forward(const Tensor& x) {
  Tensor y = x;
  par::parallel_for(y.numel(), kElemGrain, [&](i64 i0, i64 i1, i64) {
    for (i64 i = i0; i < i1; ++i) {
      const double v = x[i];
      y[i] = static_cast<float>(0.5 * v * (1.0 + std::tanh(kGeluC * (v + 0.044715 * v * v * v))));
    }
  });
  return y;
}

Tensor gelu_backward(const Tensor& dy, const Tensor& x) {
  check(dy.same_shape(x), "gelu_backward shape");
  Tensor dx = x;
  par::parallel_for(x.numel(), kElemGrain, [&](i64 i0, i64 i1, i64) {
    for (i64 i = i0; i < i1; ++i) {
      const double v = x[i];
      const double u = kGeluC * (v + 0.044715 * v * v * v);
      const double t = std::tanh(u);
      const double du = kGeluC * (1.0 + 3.0 * 0.044715 * v * v);
      const double d = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * du;
      dx[i] = static_cast<float>(dy[i] * d);
    }
  });
  return dx;
}

namespace {
/// Per-(batch, head) scratch: q/k/v (and optionally dctx) gathered out of the
/// strided [b*s, 3h] qkv layout into contiguous [seq, dh] panels so the score
/// and context dot products stream cache lines instead of skipping 3h floats.
struct HeadPanels {
  std::vector<float> q, k, v, dc;
  void gather(const Tensor& qkv, const Tensor* dctx, i64 row0, i64 seq,
              i64 h, int hd, i64 dh) {
    q.resize(static_cast<std::size_t>(seq * dh));
    k.resize(static_cast<std::size_t>(seq * dh));
    v.resize(static_cast<std::size_t>(seq * dh));
    if (dctx != nullptr) dc.resize(static_cast<std::size_t>(seq * dh));
    for (i64 i = 0; i < seq; ++i) {
      const float* row = qkv.data() + (row0 + i) * 3 * h + hd * dh;
      for (i64 c = 0; c < dh; ++c) {
        q[static_cast<std::size_t>(i * dh + c)] = row[c];
        k[static_cast<std::size_t>(i * dh + c)] = row[h + c];
        v[static_cast<std::size_t>(i * dh + c)] = row[2 * h + c];
      }
      if (dctx != nullptr) {
        const float* drow = dctx->data() + (row0 + i) * h + hd * dh;
        for (i64 c = 0; c < dh; ++c) {
          dc[static_cast<std::size_t>(i * dh + c)] = drow[c];
        }
      }
    }
  }
};

/// Causal softmax probabilities from packed q/k panels; the arithmetic stream
/// (dot fold order, max, exp, normalize) matches ref::head_probs exactly.
void head_probs_packed(const float* q, const float* k, i64 seq, i64 dh,
                       std::vector<double>& probs) {
  const double scl = 1.0 / std::sqrt(static_cast<double>(dh));
  probs.assign(static_cast<std::size_t>(seq * seq), 0.0);
  for (i64 i = 0; i < seq; ++i) {
    double maxv = -1e300;
    for (i64 j = 0; j <= i; ++j) {
      double dot = 0;
      for (i64 c = 0; c < dh; ++c) {
        dot += static_cast<double>(q[i * dh + c]) * static_cast<double>(k[j * dh + c]);
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
  // One chunk per (batch, head): chunks write disjoint ctx columns, and each
  // head is computed exactly as in the serial kernel.
  par::parallel_for(batch * heads, 1, [&](i64 w0, i64 w1, i64) {
    HeadPanels panels;
    std::vector<double> probs;
    for (i64 w = w0; w < w1; ++w) {
      const i64 b = w / heads;
      const int hd = static_cast<int>(w % heads);
      const i64 row0 = b * seq;
      panels.gather(qkv, nullptr, row0, seq, h, hd, dh);
      head_probs_packed(panels.q.data(), panels.k.data(), seq, dh, probs);
      for (i64 i = 0; i < seq; ++i) {
        for (i64 c = 0; c < dh; ++c) {
          double acc = 0;
          for (i64 j = 0; j <= i; ++j) {
            acc += probs[static_cast<std::size_t>(i * seq + j)] *
                   panels.v[static_cast<std::size_t>(j * dh + c)];
          }
          ctx.at(row0 + i, hd * dh + c) = static_cast<float>(acc);
        }
      }
    }
  });
  return ctx;
}

Tensor attention_backward(const Tensor& dctx, const Tensor& qkv, i64 batch,
                          i64 seq, int heads) {
  const i64 h = qkv.cols() / 3;
  const i64 dh = h / heads;
  const double scl = 1.0 / std::sqrt(static_cast<double>(dh));
  Tensor dqkv({batch * seq, 3 * h});
  par::parallel_for(batch * heads, 1, [&](i64 w0, i64 w1, i64) {
    HeadPanels panels;
    std::vector<double> probs, dprobs, dscores;
    for (i64 w = w0; w < w1; ++w) {
      const i64 b = w / heads;
      const int hd = static_cast<int>(w % heads);
      const i64 row0 = b * seq;
      panels.gather(qkv, &dctx, row0, seq, h, hd, dh);
      head_probs_packed(panels.q.data(), panels.k.data(), seq, dh, probs);
      dprobs.assign(static_cast<std::size_t>(seq * seq), 0.0);
      dscores.assign(static_cast<std::size_t>(seq * seq), 0.0);
      // dV and dP.
      for (i64 i = 0; i < seq; ++i) {
        for (i64 j = 0; j <= i; ++j) {
          double dp = 0;
          for (i64 c = 0; c < dh; ++c) {
            dp += static_cast<double>(panels.dc[static_cast<std::size_t>(i * dh + c)]) *
                  panels.v[static_cast<std::size_t>(j * dh + c)];
          }
          dprobs[static_cast<std::size_t>(i * seq + j)] = dp;
        }
      }
      for (i64 j = 0; j < seq; ++j) {
        for (i64 c = 0; c < dh; ++c) {
          double acc = 0;
          for (i64 i = j; i < seq; ++i) {
            acc += probs[static_cast<std::size_t>(i * seq + j)] *
                   panels.dc[static_cast<std::size_t>(i * dh + c)];
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
                   panels.k[static_cast<std::size_t>(j * dh + c)];
          }
          dqkv.at(row0 + i, hd * dh + c) = static_cast<float>(acc);
        }
      }
      for (i64 j = 0; j < seq; ++j) {
        for (i64 c = 0; c < dh; ++c) {
          double acc = 0;
          for (i64 i = j; i < seq; ++i) {
            acc += dscores[static_cast<std::size_t>(i * seq + j)] *
                   panels.q[static_cast<std::size_t>(i * dh + c)];
          }
          dqkv.at(row0 + j, h + hd * dh + c) = static_cast<float>(acc);
        }
      }
    }
  });
  return dqkv;
}

Tensor embedding_forward(const std::vector<int>& tokens, const Tensor& wte,
                         const Tensor& wpe, i64 batch, i64 seq) {
  check(static_cast<i64>(tokens.size()) == batch * seq, "token count");
  const i64 h = wte.cols();
  // Validate up front so parallel chunks never throw.
  for (const int tok : tokens) {
    check(tok >= 0 && tok < wte.rows(), "token out of range");
  }
  Tensor x({batch * seq, h});
  par::parallel_for(batch * seq, kRowGrain, [&](i64 r0, i64 r1, i64) {
    for (i64 r = r0; r < r1; ++r) {
      const i64 s = r % seq;
      const int tok = tokens[static_cast<std::size_t>(r)];
      for (i64 c = 0; c < h; ++c) {
        x.at(r, c) = wte.at(tok, c) + wpe.at(s, c);
      }
    }
  });
  return x;
}

void embedding_backward(const Tensor& dx, const std::vector<int>& tokens,
                        Tensor& dwte, Tensor& dwpe, i64 batch, i64 seq) {
  const i64 h = dwte.cols();
  // Column-parallel: repeated tokens scatter-add into the same dwte row, so
  // rows cannot be split; disjoint column ranges each fold all positions in
  // serial order instead.
  par::parallel_for(h, kColGrain, [&](i64 c0, i64 c1, i64) {
    for (i64 b = 0; b < batch; ++b) {
      for (i64 s = 0; s < seq; ++s) {
        const i64 r = b * seq + s;
        const int tok = tokens[static_cast<std::size_t>(r)];
        for (i64 c = c0; c < c1; ++c) {
          dwte.at(tok, c) += dx.at(r, c);
          dwpe.at(s, c) += dx.at(r, c);
        }
      }
    }
  });
}

double cross_entropy_forward_backward(const Tensor& logits,
                                      const std::vector<int>& targets,
                                      Tensor& dlogits) {
  const i64 rows = logits.rows(), v = logits.cols();
  check(static_cast<i64>(targets.size()) == rows, "target count");
  for (const int t : targets) {
    check(t >= 0 && t < v, "target out of range");
  }
  dlogits = Tensor({rows, v});
  const double inv_n = 1.0 / static_cast<double>(rows);
  // Per-row loss terms land in a buffer and are summed serially in row
  // order afterwards — the identical left-fold the serial kernel performs.
  std::vector<double> terms(static_cast<std::size_t>(rows), 0.0);
  par::parallel_for(rows, kCeRowGrain, [&](i64 r0, i64 r1, i64) {
    for (i64 r = r0; r < r1; ++r) {
      double maxv = -1e300;
      for (i64 c = 0; c < v; ++c) maxv = std::max(maxv, static_cast<double>(logits.at(r, c)));
      double denom = 0;
      for (i64 c = 0; c < v; ++c) denom += std::exp(logits.at(r, c) - maxv);
      const int t = targets[static_cast<std::size_t>(r)];
      terms[static_cast<std::size_t>(r)] = -(logits.at(r, t) - maxv - std::log(denom)) * inv_n;
      for (i64 c = 0; c < v; ++c) {
        const double p = std::exp(logits.at(r, c) - maxv) / denom;
        dlogits.at(r, c) = static_cast<float>((p - (c == t ? 1.0 : 0.0)) * inv_n);
      }
    }
  });
  double loss = 0;
  for (i64 r = 0; r < rows; ++r) loss += terms[static_cast<std::size_t>(r)];
  return loss;
}

}  // namespace helix::tensor
