// Megatron sequence parallelism equivalence: a transformer layer sharded
// across t ranks (sequence-sharded activations, column/row-parallel
// parameters, all-gather / reduce-scatter collectives) computes the same
// forward output and gradients as the single-device layer.
#include <gtest/gtest.h>

#include "nn/sequence_parallel.h"

namespace helix::nn::sp {
namespace {

using tensor::fill_uniform;
using tensor::i64;
using tensor::max_abs_diff;
using tensor::Tensor;

MiniGptConfig cfg_for(int heads, i64 h, i64 seq) {
  return {.layers = 1, .hidden = h, .heads = heads, .seq = seq, .batch = 1,
          .vocab = 32, .micro_batches = 1, .lr = 0.01f};
}

struct FullResult {
  Tensor y;
  Tensor dx;
  PostBackwardResult post;
  AttnBackwardResult attn;
  PreBackwardResult pre;
};

FullResult run_full(const LayerParams& p, const MiniGptConfig& cfg,
                    const Tensor& x, const Tensor& dy) {
  FullResult r;
  PreStash ps;
  const Tensor ln1 = pre_forward(x, p, &ps);
  AttnStash as;
  const Tensor ctx = attn_forward(ln1, p.wqkv, cfg, &as);
  PostStash post;
  r.y = post_forward(x, ctx, p, 1, true, &post);
  r.post = post_backward(dy, p, 1, post);
  r.attn = attn_backward(r.post.dctx, as, cfg);
  r.pre = pre_backward(r.attn.dln1, r.post.dx, ps.x, ps.stats, p);
  r.dx = r.pre.dx;
  return r;
}

class SpEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SpEquivalence, LayerMatchesSingleDevice) {
  const int t = GetParam();
  const MiniGptConfig cfg = cfg_for(/*heads=*/4, /*h=*/16, /*seq=*/8);
  const ModelParams params = ModelParams::init(cfg, 77);
  const LayerParams& full = params.layers[0];
  const i64 n = cfg.rows();

  Tensor x({n, cfg.hidden}), dy({n, cfg.hidden});
  fill_uniform(x, 1, -0.5f, 0.5f);
  fill_uniform(dy, 2);
  const FullResult ref = run_full(full, cfg, x, dy);

  std::vector<Tensor> y_shards(static_cast<std::size_t>(t));
  std::vector<Tensor> dx_shards(static_cast<std::size_t>(t));
  std::vector<SpLayerGrads> grads(static_cast<std::size_t>(t));
  comm::World world(t);
  world.run([&](comm::Endpoint& ep) {
    const int r = ep.rank();
    const i64 seg = n / t;
    Tensor x_shard({seg, cfg.hidden}), dy_shard({seg, cfg.hidden});
    for (i64 i = 0; i < seg; ++i) {
      for (i64 c = 0; c < cfg.hidden; ++c) {
        x_shard.at(i, c) = x.at(r * seg + i, c);
        dy_shard.at(i, c) = dy.at(r * seg + i, c);
      }
    }
    const SpLayerShard shard = SpLayerShard::shard(full, r, t, cfg.heads);
    SpForwardCtx ctx;
    y_shards[static_cast<std::size_t>(r)] =
        sp_layer_forward(x_shard, shard, cfg, t, ep, 1000, &ctx);
    ep.barrier();
    grads[static_cast<std::size_t>(r)] =
        sp_layer_backward(dy_shard, shard, cfg, t, ep, 5000, ctx);
    dx_shards[static_cast<std::size_t>(r)] = grads[static_cast<std::size_t>(r)].dx_shard;
  });

  // Forward output: gathered shards equal the full layer output.
  const i64 seg = n / t;
  for (int r = 0; r < t; ++r) {
    for (i64 i = 0; i < seg; ++i) {
      for (i64 c = 0; c < cfg.hidden; ++c) {
        EXPECT_NEAR(y_shards[static_cast<std::size_t>(r)].at(i, c),
                    ref.y.at(r * seg + i, c), 2e-5)
            << "y rank " << r;
        EXPECT_NEAR(dx_shards[static_cast<std::size_t>(r)].at(i, c),
                    ref.dx.at(r * seg + i, c), 2e-4)
            << "dx rank " << r;
      }
    }
  }

  // Parameter gradients: reassemble shards / sum replicated partials.
  const i64 h = cfg.hidden;
  const i64 hl = h / t;
  Tensor dwqkv({h, 3 * h}), dwo({h, h}), dw1({h, 4 * h}), dw2({4 * h, h});
  Tensor dln1_g({h}), dln2_g({h});
  for (int r = 0; r < t; ++r) {
    const auto& g = grads[static_cast<std::size_t>(r)];
    for (i64 row = 0; row < h; ++row) {
      for (i64 c = 0; c < hl; ++c) {
        dwqkv.at(row, r * hl + c) = g.dwqkv.at(row, c);
        dwqkv.at(row, h + r * hl + c) = g.dwqkv.at(row, hl + c);
        dwqkv.at(row, 2 * h + r * hl + c) = g.dwqkv.at(row, 2 * hl + c);
      }
      for (i64 c = 0; c < 4 * hl; ++c) dw1.at(row, r * 4 * hl + c) = g.dw1.at(row, c);
    }
    for (i64 row = 0; row < hl; ++row) {
      for (i64 c = 0; c < h; ++c) dwo.at(r * hl + row, c) = g.dwo.at(row, c);
    }
    for (i64 row = 0; row < 4 * hl; ++row) {
      for (i64 c = 0; c < h; ++c) dw2.at(r * 4 * hl + row, c) = g.dw2.at(row, c);
    }
    tensor::add_inplace(dln1_g, g.dln1_g);
    tensor::add_inplace(dln2_g, g.dln2_g);
  }
  EXPECT_LT(max_abs_diff(dwqkv, ref.attn.dwqkv), 2e-4);
  EXPECT_LT(max_abs_diff(dwo, ref.post.dwo), 2e-4);
  EXPECT_LT(max_abs_diff(dw1, ref.post.dw1), 2e-4);
  EXPECT_LT(max_abs_diff(dw2, ref.post.dw2), 2e-4);
  EXPECT_LT(max_abs_diff(dln1_g, ref.pre.dln1_g), 2e-4);
  EXPECT_LT(max_abs_diff(dln2_g, ref.post.dln2_g), 2e-4);
}

INSTANTIATE_TEST_SUITE_P(Degrees, SpEquivalence, ::testing::Values(1, 2, 4),
                         [](const auto& info) {
                           // Appended: GCC 12 reports a false -Wrestrict on
                           // "literal" + std::to_string(...).
                           std::string name = "t";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(SpShard, RejectsBadDegrees) {
  const MiniGptConfig cfg = cfg_for(4, 16, 8);
  const ModelParams params = ModelParams::init(cfg, 1);
  EXPECT_THROW(SpLayerShard::shard(params.layers[0], 0, 3, cfg.heads),
               std::invalid_argument);
}

TEST(SpForward, RejectsBatchedRows) {
  MiniGptConfig cfg = cfg_for(4, 16, 8);
  cfg.batch = 2;
  const ModelParams params = ModelParams::init(cfg, 1);
  const auto shard = SpLayerShard::shard(params.layers[0], 0, 1, cfg.heads);
  Tensor x({cfg.rows(), cfg.hidden});
  comm::World world(1);
  world.run([&](comm::Endpoint& ep) {
    EXPECT_THROW(sp_layer_forward(x, shard, cfg, 1, ep, 0, nullptr),
                 std::invalid_argument);
  });
}

}  // namespace
}  // namespace helix::nn::sp
