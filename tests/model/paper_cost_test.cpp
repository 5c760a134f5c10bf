// PaperCostModel and UnitCostModel price tables. Every stored price must
// bit-equal the per-op TimingModel call chain it replaces (the path the
// simulator priced through before prices became data), the transfer line
// must bit-equal TimingModel::p2p_time, and every simulated timestamp on a
// reduced planner grid hashes to a value pinned from that per-op path.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/compiled.h"
#include "core/cost.h"
#include "model/gpu_specs.h"
#include "model/model_config.h"
#include "model/paper_cost.h"
#include "model/problem_factory.h"
#include "schedules/registry.h"
#include "sim/simulator.h"

namespace helix::model {
namespace {

using core::OpKind;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The per-op TimingModel call chain PaperCostModel once evaluated on every
/// compute_seconds call: the reference every stored price must match.
double direct_price(const TimingModel& tm, const ModelConfig& mc, const LayerDims& d,
                    int p, QkvPlacement qkv, OpKind kind, bool combines_w) {
  switch (kind) {
    case OpKind::kEmbedFwd:
      return tm.embedding_time(d, Pass::kForward);
    case OpKind::kEmbedBwd:
      return tm.embedding_time(d, Pass::kBackwardB);
    case OpKind::kFwdPre:
    case OpKind::kRecomputePre:
      return tm.part_time(d, LayerPart::kPreAttention, Pass::kForward, qkv);
    case OpKind::kFwdAttn:
    case OpKind::kRecomputeAttn:
      return tm.part_time(d, LayerPart::kAttention, Pass::kForward, qkv);
    case OpKind::kFwdPost:
    case OpKind::kRecomputePost:
      return tm.part_time(d, LayerPart::kPostAttention, Pass::kForward, qkv);
    case OpKind::kBwdAttn:
      return tm.part_time(d, LayerPart::kAttention, Pass::kBackwardB, qkv);
    case OpKind::kBwdPre: {
      double t = tm.part_time(d, LayerPart::kPreAttention, Pass::kBackwardB, qkv);
      if (combines_w) t += tm.part_time(d, LayerPart::kPreAttention, Pass::kBackwardW, qkv);
      return t;
    }
    case OpKind::kBwdPost: {
      double t = tm.part_time(d, LayerPart::kPostAttention, Pass::kBackwardB, qkv);
      if (combines_w) t += tm.part_time(d, LayerPart::kPostAttention, Pass::kBackwardW, qkv);
      return t;
    }
    case OpKind::kBwdWPre:
      return tm.part_time(d, LayerPart::kPreAttention, Pass::kBackwardW, qkv);
    case OpKind::kBwdWPost:
      return tm.part_time(d, LayerPart::kPostAttention, Pass::kBackwardW, qkv);
    case OpKind::kLmHeadLoss:
      return tm.lm_head_loss_time(d, mc.vocab, Pass::kForward) +
             tm.lm_head_loss_time(d, mc.vocab, Pass::kBackwardB);
    case OpKind::kOptimStep:
      return tm.optimizer_time(mc.layer_param_elems() / p);
    case OpKind::kSend:
    case OpKind::kRecv:
      return 0.0;
  }
  return 0.0;
}

TEST(PaperCost, EveryPriceBitEqualsTheTimingModelChain) {
  int checked = 0;
  for (const ModelConfig& mc : {gpt_1p3b(), gpt_3b(), gpt_7b(), gpt_13b()}) {
    for (const i64 seq : {i64{4} * 1024, i64{16} * 1024, i64{128} * 1024, i64{256} * 1024}) {
      for (const ClusterSpec& cluster : {h20_cluster(), a800_cluster()}) {
        for (const int p : {1, 2, 4, 8}) {
          for (const QkvPlacement qkv :
               {QkvPlacement::kInAttention, QkvPlacement::kInPreAttention}) {
            const TimingModel tm(cluster, {}, 8);
            const LayerDims d{.s = seq, .b = 1, .h = mc.hidden};
            const PaperCostModel cost(tm, mc, d, p, qkv);
            for (std::size_t k = 0; k < core::CostModel::kNumKinds; ++k) {
              for (const bool w : {false, true}) {
                const auto kind = static_cast<OpKind>(k);
                const double want = direct_price(tm, mc, d, p, qkv, kind, w);
                ASSERT_TRUE(same_bits(cost.compute_seconds(kind, w), want))
                    << mc.name << " seq " << seq << " " << cluster.name << " p " << p
                    << " " << core::to_string(kind) << " combines_w " << w;
                ++checked;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 4 * 4 * 2 * 4 * 2 * 34);
}

TEST(PaperCost, TransferBitEqualsP2pTime) {
  for (const ModelConfig& mc : {gpt_1p3b(), gpt_13b()}) {
    for (const ClusterSpec& cluster : {h20_cluster(), a800_cluster()}) {
      const TimingModel tm(cluster, {}, 8);
      std::vector<i64> sizes = {0, 1, i64{1} << 40};
      for (const i64 seq : {i64{16} * 1024, i64{256} * 1024}) {
        for (const QkvPlacement qkv :
             {QkvPlacement::kInAttention, QkvPlacement::kInPreAttention}) {
          const TrainSetup setup{.seq_len = seq, .pipeline = 4, .micro_batches = 8,
                                 .qkv = qkv};
          const core::PipelineProblem pr = make_problem(mc, setup);
          sizes.insert(sizes.end(),
                       {pr.comm.boundary, pr.comm.pre_to_attn, pr.comm.attn_to_post});
        }
      }
      const PaperCostModel cost(tm, mc, {.s = 16 * 1024, .b = 1, .h = mc.hidden}, 4);
      for (const i64 e : sizes) {
        EXPECT_TRUE(same_bits(cost.transfer_seconds(e), tm.p2p_time(e)))
            << cluster.name << " elems " << e;
      }
    }
  }
}

TEST(PaperCost, PipelineSizeBelowOneThrowsNamingTheValue) {
  const TimingModel tm(h20_cluster(), {}, 8);
  const LayerDims d{.s = 4096, .b = 1, .h = 2048};
  for (const int p : {0, -3}) {
    try {
      const PaperCostModel cost(tm, gpt_1p3b(), d, p);
      ADD_FAILURE() << "pipeline_size " << p << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("pipeline_size must be >= 1, got " +
                                           std::to_string(p)),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(UnitCost, PricesFollowTheUnitsFormulas) {
  const core::UnitCostModel::Units u{.pre = 1.5, .attn = 3.25, .post = 2.5, .embed = 0.5,
                                     .lm_head = 4.0, .optim = 0.75,
                                     .seconds_per_elem = 0.125, .transfer_latency = 1e-3};
  const core::UnitCostModel cost(u);
  for (const bool w : {false, true}) {
    EXPECT_EQ(cost.compute_seconds(OpKind::kEmbedFwd, w), u.embed);
    EXPECT_EQ(cost.compute_seconds(OpKind::kEmbedBwd, w), u.embed);
    for (const OpKind k : {OpKind::kFwdPre, OpKind::kRecomputePre, OpKind::kBwdWPre}) {
      EXPECT_EQ(cost.compute_seconds(k, w), u.pre);
    }
    for (const OpKind k : {OpKind::kFwdAttn, OpKind::kRecomputeAttn}) {
      EXPECT_EQ(cost.compute_seconds(k, w), u.attn);
    }
    for (const OpKind k : {OpKind::kFwdPost, OpKind::kRecomputePost, OpKind::kBwdWPost}) {
      EXPECT_EQ(cost.compute_seconds(k, w), u.post);
    }
    EXPECT_EQ(cost.compute_seconds(OpKind::kBwdAttn, w), 2.0 * u.attn);
    EXPECT_EQ(cost.compute_seconds(OpKind::kBwdPre, w), w ? 2.0 * u.pre : u.pre);
    EXPECT_EQ(cost.compute_seconds(OpKind::kBwdPost, w), w ? 2.0 * u.post : u.post);
    EXPECT_EQ(cost.compute_seconds(OpKind::kLmHeadLoss, w), u.lm_head);
    EXPECT_EQ(cost.compute_seconds(OpKind::kOptimStep, w), u.optim);
    EXPECT_EQ(cost.compute_seconds(OpKind::kSend, w), 0.0);
    EXPECT_EQ(cost.compute_seconds(OpKind::kRecv, w), 0.0);
  }
  for (const std::int64_t e : {std::int64_t{0}, std::int64_t{1}, std::int64_t{10},
                               std::int64_t{12345}, std::int64_t{1} << 40}) {
    EXPECT_TRUE(same_bits(cost.transfer_seconds(e),
                          u.transfer_latency + static_cast<double>(e) * u.seconds_per_elem))
        << "elems " << e;
  }
  // The default instance is the paper's 1:3:2 example with free transfers.
  const core::UnitCostModel unit;
  EXPECT_EQ(unit.compute_seconds(OpKind::kFwdPre, true), 1.0);
  EXPECT_EQ(unit.compute_seconds(OpKind::kFwdAttn, true), 3.0);
  EXPECT_EQ(unit.compute_seconds(OpKind::kFwdPost, true), 2.0);
  EXPECT_EQ(unit.transfer_seconds(1000), 0.0);
}

/// FNV-1a over the raw bytes of every value added.
struct BitHash {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  void add(double d) { add(std::bit_cast<std::uint64_t>(d)); }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
};

TEST(PaperCostTimestamps, PlannerGridHashIsPinned) {
  BitHash hash;
  std::int64_t configs = 0;
  std::int64_t ops = 0;
  sim::SimWorkspace ws;
  for (const char* model : {"1.3B", "13B"}) {
    const ModelConfig mc = model_by_name(model);
    for (const i64 seq : {i64{16} * 1024, i64{256} * 1024}) {
      for (const char* cluster_name : {"H20", "A800"}) {
        const ClusterSpec cluster = cluster_by_name(cluster_name);
        for (const int p : {2, 4, 8}) {
          for (const QkvPlacement qkv :
               {QkvPlacement::kInAttention, QkvPlacement::kInPreAttention}) {
            const TrainSetup setup{.seq_len = seq, .micro_batch = 1, .pipeline = p,
                                   .micro_batches = 2 * p, .sp = 8, .qkv = qkv};
            const core::PipelineProblem pr = make_problem(mc, setup);
            const LayerDims dims{.s = seq, .b = 1, .h = mc.hidden};
            const PaperCostModel cost(TimingModel(cluster, {}, setup.sp), mc, dims, p,
                                      qkv);
            const auto lw_base = layerwise_base_memory(mc, setup);
            const auto hx_base = helix_base_memory(mc, setup);
            for (const schedules::FamilySpec& fam : schedules::family_registry()) {
              if (!fam.applicable(pr)) continue;
              const bool helix = std::string_view(fam.key).rfind("helix", 0) == 0;
              const core::Schedule sched = fam.build(pr, cost);
              const core::CompiledSchedule cs = core::CompiledSchedule::build(sched);
              ws.last = nullptr;
              const sim::SimResult& res =
                  sim::Simulator(cost).run(cs, ws, helix ? hx_base : lw_base);
              for (const sim::OpTime& t : res.op_times) {
                hash.add(t.start);
                hash.add(t.end);
              }
              for (const sim::StageStats& st : res.stages) {
                hash.add(st.compute_busy);
                hash.add(st.comm_busy);
                hash.add(st.recv_wait);
                hash.add(st.peak_memory);
              }
              ++configs;
              ops += static_cast<std::int64_t>(res.op_times.size());
            }
          }
        }
      }
    }
  }
  // Captured before prices became a table (per-op pricing through
  // TimingModel); every later pricing path must reproduce it bit for bit.
  EXPECT_EQ(configs, 464);
  EXPECT_EQ(ops, 1351424);
  EXPECT_EQ(hash.h, 0x6458f771e7578650ull);
}

}  // namespace
}  // namespace helix::model
