#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "par/thread_pool.h"

// The determinism contract: every pooled kernel is BIT-identical to the
// serial reference (tensor::ref) for every thread count. These tests compare
// raw float bytes — no tolerances — at pool sizes {1, 2, 4}.
namespace helix::tensor {
namespace {

void expect_bits_equal(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_TRUE(got.same_shape(want)) << what;
  ASSERT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<std::size_t>(want.numel()) * sizeof(float)),
            0)
      << what << ": pooled kernel diverged bitwise from the serial reference";
}

class OpsParallelTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { par::set_global_threads(GetParam()); }
  void TearDown() override { par::set_global_threads(1); }
};

// Uniform [-1, 1] data alone cannot tell a fold order from another: a double
// fold of a few hundred such products is nearly always order-blind once
// rounded to float. So every oracle check also runs on "cancelling" data:
// two terms of +-2^40 that cancel exactly bracket the small ones. While
// the big term is in the accumulator the small terms are rounded to its
// 2^-12 ulp, and which ones are rounded depends on the fold order, so a
// reordered fold changes the float result.
constexpr float kBig = 1048576.0f;  // 2^20

/// Every matmul variant on C = [m, n], k deep, against its oracle.
void expect_matmuls_match(i64 m, i64 k, i64 n, std::uint64_t seed) {
  SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k) +
               " n=" + std::to_string(n));
  Tensor a({m, k}), b({k, n}), at({k, m}), bt({n, k});
  for (const bool cancelling : {false, true}) {
    SCOPED_TRACE(cancelling ? "cancelling" : "uniform");
    fill_uniform(a, seed);
    fill_uniform(b, seed + 1);
    fill_uniform(at, seed + 2);
    fill_uniform(bt, seed + 3);
    if (cancelling && k >= 2) {
      // A(i, t1) = A(i, t2) = 2^20, B(t1, j) = 2^20 and B(t2, j) = -2^20.
      const i64 t1 = k / 3, t2 = std::max(t1 + 1, k - 1 - k / 3);
      for (i64 i = 0; i < m; ++i) {
        a.at(i, t1) = a.at(i, t2) = at.at(t1, i) = at.at(t2, i) = kBig;
      }
      for (i64 j = 0; j < n; ++j) {
        b.at(t1, j) = bt.at(j, t1) = kBig;
        b.at(t2, j) = bt.at(j, t2) = -kBig;
      }
    }
    expect_bits_equal(matmul(a, b), ref::matmul(a, b), "matmul");
    expect_bits_equal(matmul_tn(at, b), ref::matmul_tn(at, b), "matmul_tn");
    expect_bits_equal(matmul_nt(a, bt), ref::matmul_nt(a, bt), "matmul_nt");
  }
}

TEST_P(OpsParallelTest, MatmulVariantsMatchReferenceBitwise) {
  // Sizes on both sides of small register-tile and grain widths, so every
  // full tile, partial tile and chunk tail is covered, plus the mini-GPT
  // train shapes (m x k x n).
  const i64 edges[] = {1, 2, 3, 7, 8, 9, 17};
  const i64 depths[] = {1, 2, 3, 8, 31};
  std::uint64_t seed = 1;
  for (const i64 m : edges) {
    for (const i64 n : edges) {
      for (const i64 k : depths) expect_matmuls_match(m, k, n, seed += 4);
    }
  }
  const i64 train[][3] = {
      {256, 32, 96}, {128, 32, 128}, {128, 128, 32}, {8, 32, 128}, {128, 8, 32}};
  for (const auto& s : train) expect_matmuls_match(s[0], s[1], s[2], seed += 4);
}

TEST_P(OpsParallelTest, MatmulFoldStartsFromPositiveZero) {
  // Zero rows times negative entries give -0 products. The oracle folds
  // them into an accumulator that starts at +0, so C is +0; a kernel that
  // seeded its accumulator with the first product would return -0.
  Tensor a({5, 6}), b({6, 11}), at({6, 5}), bt({11, 6});
  fill_uniform(b, 60, -1.0f, -0.5f);
  fill_uniform(bt, 61, -1.0f, -0.5f);
  expect_bits_equal(matmul(a, b), ref::matmul(a, b), "matmul");
  expect_bits_equal(matmul_tn(at, b), ref::matmul_tn(at, b), "matmul_tn");
  expect_bits_equal(matmul_nt(a, bt), ref::matmul_nt(a, bt), "matmul_nt");
}

TEST_P(OpsParallelTest, LayerNormForwardMatchesReferenceBitwise) {
  Tensor x({53, 48}), gamma({48}), beta({48});
  fill_uniform(x, 5);
  fill_uniform(gamma, 6, 0.5f, 1.5f);
  fill_uniform(beta, 7, -0.1f, 0.1f);
  LayerNormStats st_pool, st_ref;
  expect_bits_equal(layernorm_forward(x, gamma, beta, &st_pool),
                    ref::layernorm_forward(x, gamma, beta, &st_ref), "ln fwd");
  expect_bits_equal(st_pool.mean, st_ref.mean, "ln mean");
  expect_bits_equal(st_pool.rstd, st_ref.rstd, "ln rstd");
}

TEST_P(OpsParallelTest, LayerNormBackwardMatchesReferenceBitwise) {
  Tensor x({53, 48}), gamma({48}), beta({48}), dy({53, 48});
  fill_uniform(x, 8);
  fill_uniform(gamma, 9, 0.5f, 1.5f);
  fill_uniform(beta, 10, -0.1f, 0.1f);
  fill_uniform(dy, 11);
  LayerNormStats st;
  ref::layernorm_forward(x, gamma, beta, &st);
  const LayerNormGrads got = layernorm_backward(dy, x, gamma, st);
  const LayerNormGrads want = ref::layernorm_backward(dy, x, gamma, st);
  expect_bits_equal(got.dx, want.dx, "ln dx");
  expect_bits_equal(got.dgamma, want.dgamma, "ln dgamma");
  expect_bits_equal(got.dbeta, want.dbeta, "ln dbeta");

  const LayerNormParamGrads gp = layernorm_param_grads(dy, x, st);
  const LayerNormParamGrads wp = ref::layernorm_param_grads(dy, x, st);
  expect_bits_equal(gp.dgamma, wp.dgamma, "ln param dgamma");
  expect_bits_equal(gp.dbeta, wp.dbeta, "ln param dbeta");
}

TEST_P(OpsParallelTest, GeluMatchesReferenceBitwise) {
  Tensor x({71, 33}), dy({71, 33});
  fill_uniform(x, 12, -3.0f, 3.0f);
  fill_uniform(dy, 13);
  expect_bits_equal(gelu_forward(x), ref::gelu_forward(x), "gelu fwd");
  expect_bits_equal(gelu_backward(dy, x), ref::gelu_backward(dy, x), "gelu bwd");
}

/// Attention forward and backward on one shape against the oracle, on
/// uniform data and on two kinds of cancelling data.
void expect_attention_matches(i64 batch, i64 seq, int heads, i64 dh,
                              std::uint64_t seed) {
  SCOPED_TRACE("batch=" + std::to_string(batch) + " seq=" + std::to_string(seq) +
               " heads=" + std::to_string(heads) + " dh=" + std::to_string(dh));
  const i64 h = dh * heads;
  Tensor qkv({batch * seq, 3 * h});
  Tensor dctx({batch * seq, h});
  for (const char* data : {"uniform", "cancelling dots", "flat softmax"}) {
    SCOPED_TRACE(data);
    fill_uniform(qkv, seed);
    fill_uniform(dctx, seed + 1);
    for (i64 r = 0; r < batch * seq; ++r) {
      if (data[0] == 'c' && dh >= 2) {
        // Per head, columns c1 and c2 of q and dctx are 2^20, and those of
        // k and v are +2^20 and -2^20: the score and dP dots cancel their
        // big terms, and dQ's big columns sum the row's score gradients,
        // which cancel to about zero. Keys 0 and 1 are equal, so their
        // probabilities are equal, and v rows 0 and 1 are +-2^20: the ctx
        // folds cancel too.
        for (int hd = 0; hd < heads; ++hd) {
          for (const i64 c : {hd * dh, hd * dh + dh - 1}) {
            const float sign = c == hd * dh ? 1.0f : -1.0f;
            qkv.at(r, c) = dctx.at(r, c) = kBig;
            qkv.at(r, h + c) = qkv.at(r, 2 * h + c) = sign * kBig;
          }
        }
        if (r % seq == 1) {
          for (i64 c = 0; c < h; ++c) {
            qkv.at(r, h + c) = qkv.at(r - 1, h + c);
            qkv.at(r - 1, 2 * h + c) = kBig;
            qkv.at(r, 2 * h + c) = -kBig;
          }
        }
      }
      if (data[0] == 'f') {
        // Zero keys give row i the exact probabilities 1/(i+1) for rows 1
        // and 3, so dctx rows 1 and 3 of 2^21 and -2^22 add dV terms of
        // exactly +2^20 and -2^20 for keys 0 and 1: the dV folds over
        // query rows cancel.
        for (i64 c = 0; c < h; ++c) qkv.at(r, h + c) = 0.0f;
        if (seq >= 4 && (r % seq == 1 || r % seq == 3)) {
          for (i64 c = 0; c < h; ++c) dctx.at(r, c) = r % seq == 1 ? 2 * kBig : -4 * kBig;
        }
      }
    }
    expect_bits_equal(attention_forward(qkv, batch, seq, heads),
                      ref::attention_forward(qkv, batch, seq, heads), "attention fwd");
    expect_bits_equal(attention_backward(dctx, qkv, batch, seq, heads),
                      ref::attention_backward(dctx, qkv, batch, seq, heads),
                      "attention bwd");
  }
}

TEST_P(OpsParallelTest, AttentionMatchesReferenceBitwise) {
  // Head widths on both sides of small column blocks and sequence lengths
  // on both sides of small key-row blocks, so every full block and every
  // tail is covered, then the train_long_seq shape (seq 256, h 32, 4 heads).
  std::uint64_t seed = 14;
  for (const i64 dh : {1, 3, 8, 9, 16}) {
    for (const i64 seq : {1, 2, 5, 9, 33}) {
      for (const i64 batch : {1, 2}) {
        expect_attention_matches(batch, seq, 2, dh, seed += 2);
      }
    }
  }
  expect_attention_matches(1, 256, 4, 8, seed += 2);
}

TEST_P(OpsParallelTest, CrossEntropyMatchesReferenceExactly) {
  Tensor logits({26, 50});
  fill_uniform(logits, 30);
  std::vector<int> targets;
  for (i64 r = 0; r < logits.rows(); ++r) {
    targets.push_back(static_cast<int>((r * 7) % logits.cols()));
  }
  Tensor dl_pool, dl_ref;
  const double loss_pool = cross_entropy_forward_backward(logits, targets, dl_pool);
  const double loss_ref = ref::cross_entropy_forward_backward(logits, targets, dl_ref);
  EXPECT_EQ(loss_pool, loss_ref);  // identical serial left-fold, exact
  expect_bits_equal(dl_pool, dl_ref, "cross-entropy dlogits");
}

TEST_P(OpsParallelTest, ElementwiseOpsMatchReferenceBitwise) {
  // Large enough to split into several kElemGrain chunks.
  Tensor a({100, 200}), b({100, 200});
  fill_uniform(a, 40);
  fill_uniform(b, 41);

  Tensor serial_add = a;
  for (i64 i = 0; i < serial_add.numel(); ++i) serial_add[i] += b[i];
  expect_bits_equal(add(a, b), serial_add, "add");

  Tensor a2 = a;
  add_inplace(a2, b);
  expect_bits_equal(a2, serial_add, "add_inplace");

  Tensor serial_axpy = a;
  for (i64 i = 0; i < serial_axpy.numel(); ++i) serial_axpy[i] += 0.25f * b[i];
  Tensor a3 = a;
  axpy(a3, b, 0.25f);
  expect_bits_equal(a3, serial_axpy, "axpy");

  Tensor serial_scale = a;
  for (i64 i = 0; i < serial_scale.numel(); ++i) serial_scale[i] *= 1.75f;
  expect_bits_equal(scale(a, 1.75f), serial_scale, "scale");
}

TEST_P(OpsParallelTest, EmbeddingMatchesSerialBitwise) {
  const i64 batch = 3, seq = 17, h = 40, vocab = 64;
  Tensor wte({vocab, h}), wpe({seq, h});
  fill_uniform(wte, 50);
  fill_uniform(wpe, 51);
  std::vector<int> tokens;
  for (i64 r = 0; r < batch * seq; ++r) {
    tokens.push_back(static_cast<int>((r * 13 + 5) % vocab));  // repeats tokens
  }
  // Serial oracle computed inline (embedding has no ref:: twin: forward is a
  // pure gather and backward's only hazard is the scatter-add resolved by
  // column-parallelism).
  Tensor want_x({batch * seq, h});
  for (i64 r = 0; r < batch * seq; ++r) {
    const i64 s = r % seq;
    for (i64 c = 0; c < h; ++c) {
      want_x.at(r, c) = wte.at(tokens[static_cast<std::size_t>(r)], c) + wpe.at(s, c);
    }
  }
  expect_bits_equal(embedding_forward(tokens, wte, wpe, batch, seq), want_x,
                    "embedding fwd");

  Tensor dx({batch * seq, h});
  fill_uniform(dx, 52);
  Tensor dwte({vocab, h}), dwpe({seq, h});
  Tensor want_dwte({vocab, h}), want_dwpe({seq, h});
  for (i64 b = 0; b < batch; ++b) {
    for (i64 s = 0; s < seq; ++s) {
      const i64 r = b * seq + s;
      const int tok = tokens[static_cast<std::size_t>(r)];
      for (i64 c = 0; c < h; ++c) {
        want_dwte.at(tok, c) += dx.at(r, c);
        want_dwpe.at(s, c) += dx.at(r, c);
      }
    }
  }
  embedding_backward(dx, tokens, dwte, dwpe, batch, seq);
  expect_bits_equal(dwte, want_dwte, "embedding dwte");
  expect_bits_equal(dwpe, want_dwpe, "embedding dwpe");
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, OpsParallelTest, ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "threads" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace helix::tensor
