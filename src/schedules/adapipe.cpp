#include "schedules/adapipe.h"

#include <algorithm>
#include <limits>

#include "core/problem_check.h"
#include "obs/prof.h"
#include "schedules/step_cost.h"

namespace helix::schedules {

using core::PipelineProblem;

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

struct StageChoice {
  double seconds = kInf;
  int recompute = 0;
};

}  // namespace

AdaPipeResult plan_adapipe(const PipelineProblem& pr, const core::CostModel& cost,
                           const AdaPipeOptions& opt) {
  core::validate_problem(pr, core::adapipe_requirements());
  const int p = pr.p;
  const int L = pr.L;
  const int m = pr.m;
  const auto& act = pr.act;
  const std::int64_t full_per_layer = act.pre + act.attn + act.post;

  // stage_choice[i][n]: best feasible (time, recompute count) for stage i
  // owning n layers; minimal recomputation that satisfies the memory cap.
  std::vector<std::vector<StageChoice>> choice(
      p, std::vector<StageChoice>(static_cast<std::size_t>(L) + 1));
  for (int i = 0; i < p; ++i) {
    const std::int64_t cap =
        i < static_cast<int>(opt.mem_cap_bytes.size())
            ? opt.mem_cap_bytes[static_cast<std::size_t>(i)]
            : std::numeric_limits<std::int64_t>::max();
    const std::int64_t extra =
        (i == 0 ? opt.first_stage_extra_bytes : 0) +
        (i == p - 1 ? opt.last_stage_extra_bytes : 0);
    const std::int64_t outstanding = std::min(p - i, m);
    for (int n = 1; n <= L; ++n) {
      for (int r = 0; r <= n; ++r) {
        const std::int64_t per_mb =
            static_cast<std::int64_t>(n - r) * full_per_layer +
            static_cast<std::int64_t>(r) * act.full_layer_recompute_stash;
        const std::int64_t mem =
            opt.layer_state_bytes * n + extra + outstanding * per_mb;
        if (mem > cap) continue;
        StepCostQuery q{.stage = i,
                        .num_layers = n,
                        .recompute_layers = r,
                        .decouple_w = false,
                        .first_stage = i == 0,
                        .last_stage = i == p - 1};
        const double t =
            m * (macro_step_seconds(pr, cost, StepKind::kForward, q) +
                 macro_step_seconds(pr, cost, StepKind::kBackward, q));
        choice[i][static_cast<std::size_t>(n)] = {t, r};
        break;  // minimal r is fastest; stop at first feasible
      }
    }
  }

  // Minimax partition DP over contiguous chunks.
  std::vector<std::vector<double>> g(
      p + 1, std::vector<double>(static_cast<std::size_t>(L) + 1, kInf));
  std::vector<std::vector<int>> pick(
      p + 1, std::vector<int>(static_cast<std::size_t>(L) + 1, 0));
  g[0][0] = 0.0;
  for (int i = 1; i <= p; ++i) {
    for (int used = i; used <= L - (p - i); ++used) {
      for (int n = 1; n <= used - (i - 1); ++n) {
        const StageChoice& c = choice[i - 1][static_cast<std::size_t>(n)];
        if (c.seconds == kInf) continue;
        const double prev = g[i - 1][static_cast<std::size_t>(used - n)];
        if (prev == kInf) continue;
        const double v = std::max(prev, c.seconds);
        if (v < g[i][static_cast<std::size_t>(used)]) {
          g[i][static_cast<std::size_t>(used)] = v;
          pick[i][static_cast<std::size_t>(used)] = n;
        }
      }
    }
  }

  AdaPipeResult res;
  res.plan.name = "AdaPipe";
  res.plan.steps.resize(p);
  res.plan.layers_per_stage.assign(p, 0);
  res.plan.recompute_layers.assign(p, 0);
  res.bottleneck_seconds = g[p][static_cast<std::size_t>(L)];
  if (res.bottleneck_seconds == kInf) {
    // Infeasible even with full recomputation: fall back to uniform
    // partition with full recompute everywhere and report infeasibility.
    res.feasible = false;
    // Near-uniform split (AdaPipe never requires L % p == 0).
    res.plan.layers_per_stage.assign(p, L / p);
    for (int i = 0; i < L % p; ++i) {
      ++res.plan.layers_per_stage[static_cast<std::size_t>(i)];
    }
    res.plan.recompute_layers = res.plan.layers_per_stage;
  } else {
    int used = L;
    for (int i = p; i >= 1; --i) {
      const int n = pick[i][static_cast<std::size_t>(used)];
      res.plan.layers_per_stage[static_cast<std::size_t>(i - 1)] = n;
      res.plan.recompute_layers[static_cast<std::size_t>(i - 1)] =
          choice[i - 1][static_cast<std::size_t>(n)].recompute;
      used -= n;
    }
  }

  // 1F1B micro batch order on the chosen partition.
  for (int i = 0; i < p; ++i) {
    res.plan.steps[static_cast<std::size_t>(i)] =
        one_f_one_b_order(m, std::min(p - 1 - i, m));
  }
  return res;
}

core::Schedule build_adapipe(const PipelineProblem& pr, const core::CostModel& cost,
                             const AdaPipeOptions& opt) {
  HELIX_PROF_SCOPE("build.adapipe");
  return emit_layerwise(pr, plan_adapipe(pr, cost, opt).plan);
}

}  // namespace helix::schedules
