#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "core/ir.h"

// Cost models translate IR ops into wall time. A cost model is its prices:
// one duration per (OpKind, combines_w) pair, fixed for a model instance,
// plus a transfer line latency + elems × per_elem / rate. Subclasses only
// fill those prices, once, at construction, through the shared fill loop;
// pricing an op is then an array load. The simulator, the greedy online
// schedule builders (ZB1P) and the reorder pass read them, and the sweep
// memo keys on their bits (sim::memo_key), so two instances with equal
// prices are interchangeable. The unit-cost instance reproduces the paper's
// didactic 1:3:2 examples and the Table 2 closed forms, while
// model::PaperCostModel (src/model/paper_cost.h) fills its prices from the
// hardware timing model.
namespace helix::core {

class CostModel {
 public:
  static constexpr std::size_t kNumKinds =
      static_cast<std::size_t>(OpKind::kOptimStep) + 1;

  struct Prices {
    /// compute[kind][combines_w]: wall time of a compute op on its stage.
    std::array<std::array<double, 2>, kNumKinds> compute{};
    double latency = 0;   ///< transfer line: latency + elems × per_elem / rate
    double per_elem = 0;
    double rate = 1;
  };
  // No padding, so the raw bytes of Prices are exactly the price bits.
  static_assert(sizeof(Prices) == (2 * kNumKinds + 3) * sizeof(double));

  /// Wall time of a compute op on its stage.
  double compute_seconds(OpKind kind, bool combines_w) const noexcept {
    return prices_.compute[static_cast<std::size_t>(kind)][combines_w ? 1 : 0];
  }
  double compute_seconds(const Op& op) const noexcept {
    return compute_seconds(op.kind, op.combines_w);
  }
  /// Wall time of moving `elems` activation elements between two stages.
  double transfer_seconds(std::int64_t elems) const noexcept {
    return prices_.latency +
           static_cast<double>(elems) * prices_.per_elem / prices_.rate;
  }
  const Prices& prices() const noexcept { return prices_; }

 protected:
  CostModel() = default;

  /// Price every (kind, combines_w) pair with `price(kind, combines_w)` and
  /// set the transfer line.
  template <typename Price>
  void fill(Price&& price, double latency, double per_elem, double rate) {
    for (std::size_t k = 0; k < kNumKinds; ++k) {
      for (const bool w : {false, true}) {
        prices_.compute[k][w ? 1 : 0] = price(static_cast<OpKind>(k), w);
      }
    }
    prices_.latency = latency;
    prices_.per_elem = per_elem;
    prices_.rate = rate;
  }

 private:
  Prices prices_;
};

/// Abstract unit costs in the paper's running example: forward durations
/// pre : attn : post = 1 : 3 : 2. Backward ratios follow Table 1 exactly:
/// backward-B of attention costs 2x its forward; backward-B and backward-W
/// of the parameterized parts each cost 1x their forward. A backward-B op
/// with `combines_w` set also carries the backward-W cost.
class UnitCostModel final : public CostModel {
 public:
  struct Units {
    double pre = 1.0;
    double attn = 3.0;
    double post = 2.0;
    double embed = 0.0;
    double lm_head = 0.0;
    double optim = 0.0;
    double seconds_per_elem = 0.0;  ///< transfer cost (0 = free communication)
    double transfer_latency = 0.0;
  };

  UnitCostModel() : UnitCostModel(Units{}) {}
  explicit UnitCostModel(const Units& u) {
    fill(
        [&u](OpKind kind, bool combines_w) {
          switch (kind) {
            case OpKind::kEmbedFwd:
            case OpKind::kEmbedBwd:
              return u.embed;
            case OpKind::kFwdPre:
            case OpKind::kRecomputePre:
            case OpKind::kBwdWPre:
              return u.pre;
            case OpKind::kFwdAttn:
            case OpKind::kRecomputeAttn:
              return u.attn;
            case OpKind::kFwdPost:
            case OpKind::kRecomputePost:
            case OpKind::kBwdWPost:
              return u.post;
            case OpKind::kBwdAttn:
              return 2.0 * u.attn;
            case OpKind::kBwdPre:
              return combines_w ? 2.0 * u.pre : u.pre;
            case OpKind::kBwdPost:
              return combines_w ? 2.0 * u.post : u.post;
            case OpKind::kLmHeadLoss:
              return u.lm_head;
            case OpKind::kOptimStep:
              return u.optim;
            case OpKind::kSend:
            case OpKind::kRecv:
              return 0.0;
          }
          return 0.0;
        },
        u.transfer_latency, u.seconds_per_elem, 1.0);
  }
};

}  // namespace helix::core
