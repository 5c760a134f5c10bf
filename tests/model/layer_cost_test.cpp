// Table 1 verification: per-op FLOPs / element counts and their totals.
#include <gtest/gtest.h>

#include "model/layer_cost.h"

namespace helix::model {
namespace {

class LayerCost : public ::testing::TestWithParam<LayerDims> {};

TEST_P(LayerCost, TotalsMatchTable1ClosedForms) {
  const LayerDims d = GetParam();
  const LayerTotals t = layer_totals(d);
  const i64 bsh = d.bsh();
  EXPECT_EQ(t.forward_flops, 4 * bsh * (6 * d.h + d.s));
  EXPECT_EQ(t.backward_b_flops, 4 * bsh * (6 * d.h + 2 * d.s));
  EXPECT_EQ(t.backward_w_flops, 4 * bsh * 6 * d.h);
  EXPECT_EQ(t.param_elems, 12 * d.h * d.h + 4 * d.h);
  EXPECT_EQ(t.activation_elems, 16 * bsh);
}

TEST_P(LayerCost, PartsPartitionTheLayer) {
  const LayerDims d = GetParam();
  for (const QkvPlacement qkv :
       {QkvPlacement::kInPreAttention, QkvPlacement::kInAttention}) {
    const PartCost pre = part_cost(d, LayerPart::kPreAttention, qkv);
    const PartCost attn = part_cost(d, LayerPart::kAttention, qkv);
    const PartCost post = part_cost(d, LayerPart::kPostAttention, qkv);
    const LayerTotals t = layer_totals(d);
    for (int pass = 0; pass < 3; ++pass) {
      const i64 total = pre.flops[pass] + attn.flops[pass] + post.flops[pass];
      const i64 expected = pass == 0   ? t.forward_flops
                           : pass == 1 ? t.backward_b_flops
                                       : t.backward_w_flops;
      EXPECT_EQ(total, expected) << "pass " << pass;
    }
    EXPECT_EQ(pre.param_elems + attn.param_elems + post.param_elems, t.param_elems);
    EXPECT_EQ(pre.activation_elems + attn.activation_elems + post.activation_elems,
              t.activation_elems);
  }
}

TEST_P(LayerCost, QkvShippingMovesWorkNotTotals) {
  const LayerDims d = GetParam();
  const PartCost pre_a = part_cost(d, LayerPart::kPreAttention, QkvPlacement::kInPreAttention);
  const PartCost pre_b = part_cost(d, LayerPart::kPreAttention, QkvPlacement::kInAttention);
  const PartCost attn_a = part_cost(d, LayerPart::kAttention, QkvPlacement::kInPreAttention);
  const PartCost attn_b = part_cost(d, LayerPart::kAttention, QkvPlacement::kInAttention);
  // The QKV GEMM (6bsh^2 forward) moves from pre-attention to attention.
  EXPECT_EQ(pre_a.forward_flops() - pre_b.forward_flops(), 6 * d.bsh() * d.h);
  EXPECT_EQ(attn_b.forward_flops() - attn_a.forward_flops(), 6 * d.bsh() * d.h);
  // The attention kernel itself has no backward-W either way.
  EXPECT_EQ(attn_a.backward_w_flops(), 0);
}

TEST_P(LayerCost, BoundaryVolumes) {
  const LayerDims d = GetParam();
  EXPECT_EQ(pre_to_attn_boundary_elems(d, QkvPlacement::kInPreAttention), 4 * d.bsh());
  EXPECT_EQ(pre_to_attn_boundary_elems(d, QkvPlacement::kInAttention),
            2 * d.bsh() + 3 * d.h * d.h);
  EXPECT_EQ(attn_to_post_boundary_elems(d), 2 * d.bsh());
  // For long sequences (s >> h) weight shipping approaches 2bsh, halving the
  // naive 4bsh boundary (Section 4.2).
  if (d.s >= 16 * d.h) {
    EXPECT_LT(pre_to_attn_boundary_elems(d, QkvPlacement::kInAttention),
              static_cast<i64>(2.25 * static_cast<double>(d.bsh())));
  }
}

TEST_P(LayerCost, AttentionDominatesAtLongSequence) {
  const LayerDims d = GetParam();
  if (d.s < 8 * d.h) GTEST_SKIP();
  const LayerTotals t = layer_totals(d);
  const PartCost attn = part_cost(d, LayerPart::kAttention, QkvPlacement::kInPreAttention);
  EXPECT_GT(attn.forward_flops() * 4, t.forward_flops * 2)
      << "attention should be more than half the layer at s >= 8h";
}

INSTANTIATE_TEST_SUITE_P(
    Dims, LayerCost,
    ::testing::Values(LayerDims{.s = 2048, .b = 1, .h = 4096},
                      LayerDims{.s = 32768, .b = 1, .h = 4096},
                      LayerDims{.s = 131072, .b = 1, .h = 4096},
                      LayerDims{.s = 131072, .b = 2, .h = 2048},
                      LayerDims{.s = 65536, .b = 1, .h = 5120},
                      LayerDims{.s = 64, .b = 4, .h = 32}),
    [](const auto& info) {
      // Appended piece by piece: GCC 12 reports a false -Wrestrict on
      // "literal" + std::to_string(...).
      const auto& d = info.param;
      std::string name = "s";
      name += std::to_string(d.s);
      name += "_b";
      name += std::to_string(d.b);
      name += "_h";
      name += std::to_string(d.h);
      return name;
    });

TEST(LayerCostTable, EightOpsInOrder) {
  const auto ops = layer_op_costs({.s = 1024, .b = 1, .h = 256});
  ASSERT_EQ(ops.size(), 8u);
  EXPECT_EQ(ops[0].name, "LayerNorm");
  EXPECT_EQ(ops[1].name, "QKV Linear");
  EXPECT_EQ(ops[2].name, "Attention");
  EXPECT_EQ(ops[3].name, "O Linear");
  EXPECT_EQ(ops[4].name, "LayerNorm");
  EXPECT_EQ(ops[5].name, "Linear 1");
  EXPECT_EQ(ops[6].name, "GeLU");
  EXPECT_EQ(ops[7].name, "Linear 2");
}

TEST(LayerCostTable, RecomputeStashIsFourBsh) {
  const LayerDims d{.s = 4096, .b = 2, .h = 512};
  EXPECT_EQ(recompute_stash_elems(d), 4 * d.bsh());
}

}  // namespace
}  // namespace helix::model
