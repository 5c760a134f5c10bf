#include "schedules/zb1p.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/problem_check.h"
#include "obs/prof.h"
#include "schedules/step_cost.h"

namespace helix::schedules {

using core::PipelineProblem;

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-12;

struct StageDurations {
  std::vector<double> f, b, w;
  double comm = 0;
};

/// Macro-step durations of the uniform L/p partition.
StageDurations stage_durations(const PipelineProblem& pr,
                               const core::CostModel& cost) {
  const int p = pr.p;
  StageDurations d;
  d.f.resize(p);
  d.b.resize(p);
  d.w.resize(p);
  for (int i = 0; i < p; ++i) {
    StepCostQuery q{.stage = i,
                    .num_layers = pr.L / p,
                    .recompute_layers = 0,
                    .decouple_w = true,
                    .first_stage = i == 0,
                    .last_stage = i == p - 1};
    d.f[i] = macro_step_seconds(pr, cost, StepKind::kForward, q);
    d.b[i] = macro_step_seconds(pr, cost, StepKind::kBackward, q);
    d.w[i] = macro_step_seconds(pr, cost, StepKind::kBackwardW, q);
  }
  d.comm = cost.transfer_seconds(pr.comm.boundary);
  return d;
}

/// Greedy event-driven construction (Section 2.3.2's heuristic): at each
/// decision point run backward-B if its gradient has arrived, otherwise a
/// forward if its input has arrived and the memory cap allows, otherwise
/// fill the idle gap with a deferred backward-W when the gap fits one.
LayerwisePlan greedy_plan(const PipelineProblem& pr, const StageDurations& d,
                          int cap, const char* name) {
  const int p = pr.p;
  const int m = pr.m;
  LayerwisePlan plan = uniform_plan(name, pr);
  plan.decouple_w = true;

  const double comm = d.comm;
  std::vector<double> now(p, 0.0);          // stage free time
  std::vector<int> fnext(p, 0), bnext(p, 0), wnext(p, 0);
  std::vector<std::vector<double>> fend(p, std::vector<double>(m, kInf));
  std::vector<std::vector<double>> bend(p, std::vector<double>(m, kInf));

  int remaining = 3 * p * m;
  // The stall-guard product is over sweep-scale (p, m) configs; computed in
  // 64-bit so e.g. p = 4096, m = 4096 does not wrap `int` into a negative
  // guard that fires on the first iteration (regression-tested in
  // tests/core/schedule_fuzz_test).
  const long long max_steps = 64LL * 3LL * p * m;
  long long stall_guard = 0;
  while (remaining > 0) {
    if (++stall_guard > max_steps) {
      throw std::logic_error("ZB1P greedy scheduler stalled");
    }
    // Pick the stage able to start its earliest next action.
    int best_stage = -1;
    StepKind best_kind = StepKind::kForward;
    double best_start = kInf;
    for (int i = 0; i < p; ++i) {
      // Candidate availability times (kInf if not currently possible).
      double avail_b = kInf;
      if (bnext[i] < m) {
        const int mb = bnext[i];
        const double own_f = fend[i][mb];
        const double grad = i == p - 1 ? own_f : bend[i + 1][mb] + comm;
        if (own_f < kInf && grad < kInf) avail_b = std::max(own_f, grad);
      }
      double avail_f = kInf;
      if (fnext[i] < m && fnext[i] - wnext[i] < cap) {
        avail_f = i == 0 ? 0.0 : fend[i - 1][fnext[i]] + comm;
      }
      const bool w_ready = wnext[i] < bnext[i];  // W needs its B done

      const double tb = std::max(now[i], avail_b);
      const double tf = std::max(now[i], avail_f);
      double start;
      StepKind kind;
      if (avail_b <= now[i]) {
        start = tb;
        kind = StepKind::kBackward;
      } else if (avail_f <= now[i]) {
        start = tf;
        kind = StepKind::kForward;
      } else if (w_ready &&
                 std::min(tb, tf) - now[i] >= d.w[i] - kEps) {
        // Idle gap fits one backward-W.
        start = now[i];
        kind = StepKind::kBackwardW;
      } else if (tb <= tf && avail_b < kInf) {
        start = tb;
        kind = StepKind::kBackward;
      } else if (avail_f < kInf) {
        start = tf;
        kind = StepKind::kForward;
      } else if (w_ready) {
        start = now[i];
        kind = StepKind::kBackwardW;
      } else {
        continue;  // nothing schedulable on this stage yet
      }
      if (start < best_start) {
        best_start = start;
        best_stage = i;
        best_kind = kind;
      }
    }
    if (best_stage < 0) throw std::logic_error("ZB1P scheduler deadlock");

    const int i = best_stage;
    switch (best_kind) {
      case StepKind::kForward: {
        const int mb = fnext[i]++;
        now[i] = best_start + d.f[i];
        fend[i][mb] = now[i];
        plan.steps[i].push_back({StepKind::kForward, mb});
        break;
      }
      case StepKind::kBackward: {
        const int mb = bnext[i]++;
        now[i] = best_start + d.b[i];
        bend[i][mb] = now[i];
        plan.steps[i].push_back({StepKind::kBackward, mb});
        break;
      }
      case StepKind::kBackwardW: {
        const int mb = wnext[i]++;
        now[i] = best_start + d.w[i];
        plan.steps[i].push_back({StepKind::kBackwardW, mb});
        break;
      }
    }
    --remaining;
  }
  return plan;
}

/// Exact interleaving of one stage's {F, B, W} macro steps by dynamic
/// programming, with the neighbour stages' event times held fixed.
///
/// State (fa, bb, ww) = counts of completed forwards / backward-Bs /
/// backward-Ws; value = the earliest time the stage can be free having
/// completed exactly that prefix. Every transition start time is a monotone
/// non-decreasing function of the current free time (max(now, arrival) +
/// duration), so the earliest-reachable value of a state always extends to
/// the earliest-reachable value of every successor — the DP is exact, not
/// heuristic. Backtracking prefers W as the trailing op (then B, then F) so
/// that, among equally fast interleavings, the externally visible F/B end
/// times land as early as possible — W ends are observed by nobody, while
/// gradients feed the downstream ladder.
///
/// `af[mb]` / `ab[mb]`: arrival time of the forward input / the incoming
/// gradient (already including the boundary transfer; -inf when the input
/// is stage-local, i.e. stage 0 forwards and last-stage gradients, whose
/// producing op is part of the prefix itself and therefore already counted
/// in the free time).
std::vector<MacroStep> optimal_stage_steps(int m, int cap, double fdur,
                                           double bdur, double wdur,
                                           const std::vector<double>& af,
                                           const std::vector<double>& ab) {
  const int n = m + 1;
  const auto idx = [n](int fa, int bb, int ww) {
    return (fa * n + bb) * n + ww;
  };
  std::vector<double> best(static_cast<std::size_t>(n) * n * n, kInf);
  best[idx(0, 0, 0)] = 0.0;
  // Feasible states satisfy ww <= bb <= fa; iterate in lexicographic order
  // (every transition increases one count, so all predecessors precede).
  for (int fa = 0; fa <= m; ++fa) {
    for (int bb = 0; bb <= fa; ++bb) {
      for (int ww = 0; ww <= bb; ++ww) {
        const double t = best[idx(fa, bb, ww)];
        if (t == kInf) continue;
        if (fa < m && fa - ww < cap) {
          double& v = best[idx(fa + 1, bb, ww)];
          v = std::min(v, std::max(t, af[fa]) + fdur);
        }
        if (bb < fa) {
          double& v = best[idx(fa, bb + 1, ww)];
          v = std::min(v, std::max(t, ab[bb]) + bdur);
        }
        if (ww < bb) {
          double& v = best[idx(fa, bb, ww + 1)];
          v = std::min(v, t + wdur);
        }
      }
    }
  }
  if (best[idx(m, m, m)] == kInf) {
    throw std::logic_error("ZB2P stage DP found no feasible interleaving");
  }
  // Backtrack from the full state: a predecessor is on an optimal path iff
  // re-applying its transition reproduces this state's exact value.
  std::vector<MacroStep> rev;
  rev.reserve(static_cast<std::size_t>(3) * m);
  int fa = m, bb = m, ww = m;
  while (fa + bb + ww > 0) {
    const double v = best[idx(fa, bb, ww)];
    if (ww > 0) {
      const double pt = best[idx(fa, bb, ww - 1)];
      if (pt < kInf && pt + wdur <= v + kEps) {
        rev.push_back({StepKind::kBackwardW, --ww});
        continue;
      }
    }
    if (bb > 0 && ww < bb) {
      const double pt = best[idx(fa, bb - 1, ww)];
      if (pt < kInf && bb - 1 < fa &&
          std::max(pt, ab[bb - 1]) + bdur <= v + kEps) {
        rev.push_back({StepKind::kBackward, --bb});
        continue;
      }
    }
    const double pt =
        fa > 0 && bb < fa ? best[idx(fa - 1, bb, ww)] : kInf;
    if (!(pt < kInf && fa - 1 - ww < cap &&
          std::max(pt, af[fa - 1]) + fdur <= v + kEps)) {
      throw std::logic_error("ZB2P stage DP backtrack lost the optimal path");
    }
    rev.push_back({StepKind::kForward, --fa});
  }
  return {rev.rbegin(), rev.rend()};
}

/// Macro-step-granularity timing of a decoupled {F, B, W} plan: the exact
/// event times the discrete-event simulator would assign to its macro steps
/// under `d`'s per-stage durations and per-boundary transfer time. This is
/// the ZB2P refinement loop's makespan oracle (simulating the emitted IR
/// would price identically but cost ~30x more per evaluation).
struct PlanTimes {
  double makespan = 0;
  /// Per (stage, mb): end time of the forward / backward-B macro step.
  std::vector<std::vector<double>> fend, bend;
};

/// Throws std::logic_error when the plan deadlocks (dataflow_order).
PlanTimes simulate_plan(const LayerwisePlan& plan, const StageDurations& d) {
  const int p = static_cast<int>(plan.steps.size());
  int m = 0;
  for (const auto& steps : plan.steps) {
    for (const MacroStep& st : steps) m = std::max(m, st.mb + 1);
  }
  PlanTimes t;
  t.fend.assign(p, std::vector<double>(m, kInf));
  t.bend.assign(p, std::vector<double>(m, kInf));
  std::vector<double> now(static_cast<std::size_t>(p), 0.0);
  // Every producer is timed before its consumer, so each step starts when
  // both its stage and its input are free.
  for (const PlacedStep& ps : dataflow_order(plan, m)) {
    const int i = ps.stage;
    const int mb = ps.step.mb;
    switch (ps.step.kind) {
      case StepKind::kForward: {
        const double avail = i == 0 ? 0.0 : t.fend[i - 1][mb] + d.comm;
        now[i] = std::max(now[i], avail) + d.f[i];
        t.fend[i][mb] = now[i];
        break;
      }
      case StepKind::kBackward: {
        const double own = t.fend[i][mb];
        const double grad = i == p - 1 ? own : t.bend[i + 1][mb] + d.comm;
        now[i] = std::max(now[i], std::max(own, grad)) + d.b[i];
        t.bend[i][mb] = now[i];
        break;
      }
      case StepKind::kBackwardW:
        now[i] = std::max(now[i], t.bend[i][mb]) + d.w[i];
        break;
    }
  }
  for (const double n : now) t.makespan = std::max(t.makespan, n);
  return t;
}

}  // namespace

LayerwisePlan plan_zb1p(const PipelineProblem& pr, const core::CostModel& cost,
                        const Zb1pOptions& opt) {
  core::validate_problem(pr, core::layerwise_requirements("ZB1P"));
  const int cap = opt.max_outstanding > 0 ? opt.max_outstanding
                                          : std::min(pr.p, pr.m);
  const StageDurations d = stage_durations(pr, cost);
  return greedy_plan(pr, d, cap, "ZB1P");
}

LayerwisePlan plan_zb2p(const PipelineProblem& pr, const core::CostModel& cost,
                        const Zb1pOptions& opt) {
  core::validate_problem(pr, core::layerwise_requirements("ZB2P"));
  const int p = pr.p;
  const int m = pr.m;
  const int cap = opt.max_outstanding > 0 ? opt.max_outstanding
                                          : std::min(2 * p, m);
  const StageDurations d = stage_durations(pr, cost);

  // Seed with the greedy event-driven constructor at the ZB2P cap, then
  // re-optimize one stage at a time with the exact interleaving DP until no
  // stage can improve the simulated makespan (coordinate descent; each
  // accepted move strictly lowers the makespan, so termination is
  // guaranteed — the sweep bound is a safety net, not a tuning knob).
  LayerwisePlan plan = greedy_plan(pr, d, cap, "ZB2P");
  PlanTimes times = simulate_plan(plan, d);
  for (int sweep = 0; sweep < 4 * p; ++sweep) {
    bool improved = false;
    for (int i = p - 1; i >= 0; --i) {
      std::vector<double> af(m, -kInf), ab(m, -kInf);
      for (int mb = 0; mb < m; ++mb) {
        if (i > 0) af[mb] = times.fend[i - 1][mb] + d.comm;
        if (i < p - 1) ab[mb] = times.bend[i + 1][mb] + d.comm;
      }
      std::vector<MacroStep> steps =
          optimal_stage_steps(m, cap, d.f[i], d.b[i], d.w[i], af, ab);
      if (steps == plan.steps[i]) continue;
      LayerwisePlan trial = plan;
      trial.steps[static_cast<std::size_t>(i)] = std::move(steps);
      // The DP prices arrivals as fixed, but moving this stage's sends can
      // invert the cross-stage wait order and deadlock the trial plan
      // (stage i holds B(a) for F(b) while stage i+1 holds B(a)'s input
      // behind F(b)'s). dataflow_order rejects such a trial with a
      // logic_error; it is simply not an improvement.
      PlanTimes tt;
      try {
        tt = simulate_plan(trial, d);
      } catch (const std::logic_error&) {
        continue;
      }
      if (tt.makespan < times.makespan - kEps) {
        plan = std::move(trial);
        times = tt;
        improved = true;
      }
    }
    if (!improved) break;
  }
  return plan;
}

core::Schedule build_zb1p(const PipelineProblem& pr, const core::CostModel& cost,
                          const Zb1pOptions& opt) {
  HELIX_PROF_SCOPE("build.zb1p");
  return emit_layerwise(pr, plan_zb1p(pr, cost, opt));
}

core::Schedule build_zb2p(const PipelineProblem& pr, const core::CostModel& cost,
                          const Zb1pOptions& opt) {
  HELIX_PROF_SCOPE("build.zb2p");
  return emit_layerwise(pr, plan_zb2p(pr, cost, opt));
}

}  // namespace helix::schedules
