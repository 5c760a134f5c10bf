#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "par/thread_pool.h"

// Never fuse a multiply and an add into one rounding: the pooled kernels and
// the oracle must round every product and every sum alike under any -march.
// A pragma, not a build flag, so that every build of these sources gets it.
#pragma GCC optimize("fp-contract=off")

// Pooled, register-blocked kernels. Every kernel here is BIT-IDENTICAL to its
// serial counterpart in ops_ref.cpp for any HELIX_THREADS value:
//  * the index space is split by a fixed grain (a function of the problem
//    shape only, never the thread count), and chunks write disjoint outputs;
//  * each output element keeps its exact serial accumulation order: it has
//    its own double accumulator and folds its terms one at a time, in the
//    oracle's ascending order. A register block holds many such folds side
//    by side, so add latency no longer serialises the loop;
//  * cross-row reductions (dgamma/dbeta, embedding grads) are COLUMN-parallel:
//    a worker owns a disjoint column range and folds rows 0..n-1 in serial
//    row order, so no partial-sum merge ever reorders float additions;
//  * operand packing (matmul B panels, per-head k/v panels) only relocates
//    values, widening floats to double exactly — the arithmetic stream is
//    unchanged.
namespace helix::tensor {

namespace {
void check(bool cond, const char* what) {
  if (!cond) throw std::invalid_argument(what);
}
constexpr double kGeluC = 0.7978845608028654;  // sqrt(2/pi)

// Fixed parallel grains: shape-independent constants so the chunk partition
// (and therefore every chunk-indexed reduction) never depends on thread count.
constexpr i64 kMatmulRowGrain = 8;   ///< output rows per matmul chunk
constexpr i64 kPackGrain = 64;       ///< B columns per matmul packing chunk
constexpr i64 kRowGrain = 16;        ///< rows per layernorm/embedding chunk
constexpr i64 kColGrain = 32;        ///< columns per column-reduction chunk
constexpr i64 kElemGrain = 8192;     ///< elements per elementwise chunk
constexpr i64 kCeRowGrain = 4;       ///< rows per cross-entropy chunk

// Register blocks: how many independent folds run side by side.
constexpr i64 kNr = 8;        ///< outputs per panel_dots block = panel width
constexpr i64 kFoldCols = 8;  ///< head columns per fold_cols/scatter_rows block

/// Two double lanes, one SSE2 register. Lane-wise * and + round exactly as
/// scalar double operations do, so a vector accumulator is two independent
/// folds. Written out because GCC otherwise vectorizes these loops across
/// the fold (with lane shuffles) or not at all, depending on -O level.
using f64x2 = double __attribute__((vector_size(16)));
f64x2 splat(double x) { return f64x2{x, x}; }
f64x2 load2(const double* p) {
  f64x2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// A read-only [rows, cols] matrix view: element (r, c) at p[r * rs + c * cs].
/// One strided view lets one packer serve all three matmul variants and the
/// attention key panels.
struct Strided {
  const float* p;
  i64 rs, cs;
  float at(i64 r, i64 c) const { return p[r * rs + c * cs]; }
};

/// Panels [q0, q1) of B(t, j), t < k and j < n, packed k-major in doubles:
/// panel q holds B(t, q*kNr + jj) at dst[(q*k + t)*kNr + jj], zero past
/// column n.
void pack_panels(Strided b, i64 k, i64 n, i64 q0, i64 q1, double* dst) {
  for (i64 q = q0; q < q1; ++q) {
    const i64 j0 = q * kNr, cols = std::min(kNr, n - j0);
    for (i64 t = 0; t < k; ++t) {
      double* d = dst + (q * k + t) * kNr;
      for (i64 jj = 0; jj < cols; ++jj) d[jj] = b.at(t, j0 + jj);
      for (i64 jj = cols; jj < kNr; ++jj) d[jj] = 0.0;
    }
  }
}

i64 panel_count(i64 n) { return (n + kNr - 1) / kNr; }

/// out[j] = sum_t x[t * xs] * B(t, j) for j in [0, n), B packed by
/// pack_panels: one double fold per output, t ascending as in the oracle,
/// kNr outputs at a time. The micro-kernel of matmul and of the attention
/// score and dP dots. Out of line and aligned to a 64-byte cache line, so
/// its loops sit at the same offsets within cache lines and
/// decoded-instruction windows in every build: inlined into the pool lambda
/// it moved with the size of unrelated code linked before it, and a 16-byte
/// shift made short-sequence train steps ~15% slower.
template <typename Out>
[[gnu::noinline, gnu::aligned(64)]] void panel_dots(const float* x, i64 xs,
                                                    const double* bp, i64 k, i64 n,
                                                    Out* out) {
  for (i64 j0 = 0; j0 < n; j0 += kNr) {
    const double* panel = bp + j0 * k;
    f64x2 acc[kNr / 2] = {};
    for (i64 t = 0; t < k; ++t) {
      const f64x2 xt = splat(x[t * xs]);
#pragma GCC unroll kNr
      for (i64 v = 0; v < kNr / 2; ++v) acc[v] += xt * load2(panel + t * kNr + 2 * v);
    }
    for (i64 jj = 0; jj < kNr && j0 + jj < n; ++jj) {
      out[j0 + jj] = static_cast<Out>(acc[jj / 2][jj % 2]);
    }
  }
}

/// C[m, n] = sum_t A(i, t) * B(t, j), one panel_dots row at a time.
void matmul_core(Strided a, Strided b, i64 m, i64 k, i64 n, Tensor& c) {
  std::vector<double> bp(static_cast<std::size_t>(panel_count(n) * kNr * k));
  par::parallel_for(panel_count(n), kPackGrain / kNr, [&](i64 q0, i64 q1, i64) {
    pack_panels(b, k, n, q0, q1, bp.data());
  });
  float* out = c.data();
  par::parallel_for(m, kMatmulRowGrain, [&](i64 i0, i64 i1, i64) {
    for (i64 i = i0; i < i1; ++i) {
      panel_dots(a.p + i * a.rs, a.cs, bp.data(), k, n, out + i * n);
    }
  });
}
}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  check(a.ndim() == 2 && b.ndim() == 2 && a.cols() == b.rows(), "matmul shape");
  const i64 m = a.rows(), k = a.cols(), n = b.cols();
  Tensor c({m, n});
  matmul_core({a.data(), k, 1}, {b.data(), n, 1}, m, k, n, c);
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  check(a.ndim() == 2 && b.ndim() == 2 && a.rows() == b.rows(), "matmul_tn shape");
  const i64 m = a.cols(), k = a.rows(), n = b.cols();
  Tensor c({m, n});
  matmul_core({a.data(), 1, m}, {b.data(), n, 1}, m, k, n, c);
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  check(a.ndim() == 2 && b.ndim() == 2 && a.cols() == b.cols(), "matmul_nt shape");
  const i64 m = a.rows(), k = a.cols(), n = b.rows();
  Tensor c({m, n});
  matmul_core({a.data(), k, 1}, {b.data(), 1, k}, m, k, n, c);
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
/// Per-(batch, head) scratch: k and v gathered out of the strided [b*s, 3h]
/// qkv layout into contiguous [seq, dh] rows for the folds, and packed as
/// pack_panels panels of K^T and V^T for the key-row dots. Query and dctx
/// rows are read in place.
struct HeadPanels {
  std::vector<double> k, v, kp, vp;
  void gather(const Tensor& qkv, i64 row0, i64 seq, i64 h, int hd, i64 dh) {
    const float* kbase = qkv.data() + row0 * 3 * h + h + hd * dh;
    const float* vbase = kbase + h;
    k.resize(static_cast<std::size_t>(seq * dh));
    v.resize(k.size());
    for (i64 i = 0; i < seq; ++i) {
      for (i64 c = 0; c < dh; ++c) {
        k[static_cast<std::size_t>(i * dh + c)] = kbase[i * 3 * h + c];
        v[static_cast<std::size_t>(i * dh + c)] = vbase[i * 3 * h + c];
      }
    }
    kp.resize(static_cast<std::size_t>(panel_count(seq) * kNr * dh));
    vp.resize(kp.size());
    pack_panels({kbase, 1, 3 * h}, dh, seq, 0, panel_count(seq), kp.data());
    pack_panels({vbase, 1, 3 * h}, dh, seq, 0, panel_count(seq), vp.data());
  }
};

/// out[c] = sum_r w[r] * ys[r*dh + c] for c in [0, dh), rounded to float:
/// one double fold per output, r ascending as in the oracle, kFoldCols
/// columns at a time.
void fold_cols(const double* w, const double* ys, i64 rows, i64 dh, float* out) {
  i64 c = 0;
  for (; c + kFoldCols <= dh; c += kFoldCols) {
    f64x2 acc[kFoldCols / 2] = {};
    for (i64 r = 0; r < rows; ++r) {
      const f64x2 wr = splat(w[r]);
#pragma GCC unroll kFoldCols
      for (i64 v = 0; v < kFoldCols / 2; ++v) {
        acc[v] += wr * load2(ys + r * dh + c + 2 * v);
      }
    }
    for (i64 cc = 0; cc < kFoldCols; ++cc) {
      out[c + cc] = static_cast<float>(acc[cc / 2][cc % 2]);
    }
  }
  for (; c < dh; ++c) {
    double acc = 0;
    for (i64 r = 0; r < rows; ++r) acc += w[r] * ys[r * dh + c];
    out[c] = static_cast<float>(acc);
  }
}

/// acc[r*dh + c] += w[r] * x[c] for r in [0, rows) and c in [0, dh): the
/// next term, in the oracle's order, of rows * dh folds whose accumulators
/// live in memory; kFoldCols columns of x stay in registers.
void scatter_rows(const double* w, i64 rows, const float* x, i64 dh, double* acc) {
  i64 c = 0;
  for (; c + kFoldCols <= dh; c += kFoldCols) {
    f64x2 xc[kFoldCols / 2];
    for (i64 v = 0; v < kFoldCols / 2; ++v) xc[v] = f64x2{x[c + 2 * v], x[c + 2 * v + 1]};
    for (i64 r = 0; r < rows; ++r) {
      double* a = acc + r * dh + c;
      const f64x2 wr = splat(w[r]);
#pragma GCC unroll kFoldCols
      for (i64 v = 0; v < kFoldCols / 2; ++v) {
        const f64x2 sum = load2(a + 2 * v) + wr * xc[v];
        std::memcpy(a + 2 * v, &sum, sizeof sum);
      }
    }
  }
  for (; c < dh; ++c) {
    for (i64 r = 0; r < rows; ++r) acc[r * dh + c] += w[r] * static_cast<double>(x[c]);
  }
}

/// Causal softmax probabilities of query row q, p[j] for j < n, from the
/// key panels; the arithmetic stream (dot fold order, max, exp, normalize)
/// matches ref::head_probs exactly.
void probs_row(const float* q, const HeadPanels& panels, i64 n, i64 dh, double* p) {
  const double scl = 1.0 / std::sqrt(static_cast<double>(dh));
  panel_dots(q, 1, panels.kp.data(), dh, n, p);
  double maxv = -1e300;
  for (i64 j = 0; j < n; ++j) {
    p[j] *= scl;
    maxv = std::max(maxv, p[j]);
  }
  double denom = 0;
  for (i64 j = 0; j < n; ++j) {
    p[j] = std::exp(p[j] - maxv);
    denom += p[j];
  }
  for (i64 j = 0; j < n; ++j) p[j] /= denom;
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
  // head is computed exactly as in the serial kernel, one query row at a time.
  par::parallel_for(batch * heads, 1, [&](i64 w0, i64 w1, i64) {
    HeadPanels panels;
    std::vector<double> p(static_cast<std::size_t>(seq));
    for (i64 w = w0; w < w1; ++w) {
      const i64 b = w / heads;
      const int hd = static_cast<int>(w % heads);
      const i64 row0 = b * seq;
      panels.gather(qkv, row0, seq, h, hd, dh);
      for (i64 i = 0; i < seq; ++i) {
        probs_row(qkv.data() + (row0 + i) * 3 * h + hd * dh, panels, i + 1, dh, p.data());
        fold_cols(p.data(), panels.v.data(), i + 1, dh, &ctx.at(row0 + i, hd * dh));
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
  // One query row at a time. dQ of row i folds over its own keys; dV and dK
  // of key j fold over query rows i >= j, so their accumulators live in
  // [seq, dh] buffers and each row i adds its term, in ascending i as the
  // oracle's fold does.
  par::parallel_for(batch * heads, 1, [&](i64 w0, i64 w1, i64) {
    HeadPanels panels;
    std::vector<double> p(static_cast<std::size_t>(seq)), ds(p.size()), dv, dk;
    for (i64 w = w0; w < w1; ++w) {
      const i64 b = w / heads;
      const int hd = static_cast<int>(w % heads);
      const i64 row0 = b * seq;
      panels.gather(qkv, row0, seq, h, hd, dh);
      dv.assign(static_cast<std::size_t>(seq * dh), 0.0);
      dk.assign(dv.size(), 0.0);
      for (i64 i = 0; i < seq; ++i) {
        const float* qi = qkv.data() + (row0 + i) * 3 * h + hd * dh;
        const float* dci = dctx.data() + (row0 + i) * h + hd * dh;
        probs_row(qi, panels, i + 1, dh, p.data());
        panel_dots(dci, 1, panels.vp.data(), dh, i + 1, ds.data());  // dP
        double dot = 0;
        for (i64 j = 0; j <= i; ++j) dot += ds[j] * p[j];
        for (i64 j = 0; j <= i; ++j) ds[j] = p[j] * (ds[j] - dot) * scl;
        fold_cols(ds.data(), panels.k.data(), i + 1, dh, &dqkv.at(row0 + i, hd * dh));
        scatter_rows(p.data(), i + 1, dci, dh, dv.data());
        scatter_rows(ds.data(), i + 1, qi, dh, dk.data());
      }
      for (i64 j = 0; j < seq; ++j) {
        for (i64 c = 0; c < dh; ++c) {
          const auto at = static_cast<std::size_t>(j * dh + c);
          dqkv.at(row0 + j, h + hd * dh + c) = static_cast<float>(dk[at]);
          dqkv.at(row0 + j, 2 * h + hd * dh + c) = static_cast<float>(dv[at]);
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
