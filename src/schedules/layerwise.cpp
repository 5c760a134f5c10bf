#include "schedules/layerwise.h"
#include "obs/prof.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/problem_check.h"

namespace helix::schedules {

using core::DataSlot;
using core::OpId;
using core::OpKind;
using core::PipelineProblem;
using core::Schedule;
using core::ScheduleBuilder;
using Handoff = ScheduleBuilder::Handoff;

LayerwisePlan uniform_plan(std::string name, const PipelineProblem& pr) {
  if (pr.L % pr.p != 0) throw std::invalid_argument("L must be divisible by p");
  LayerwisePlan plan;
  plan.name = std::move(name);
  plan.layers_per_stage.assign(pr.p, pr.L / pr.p);
  plan.recompute_layers.assign(pr.p, 0);
  plan.steps.resize(pr.p);
  return plan;
}

namespace {

std::string plan_error(const LayerwisePlan& plan, int stage = -1,
                       std::size_t step = 0) {
  std::string where = "layer-wise plan '" + plan.name + "'";
  if (stage >= 0) {
    where += ", stage " + std::to_string(stage) + ", step " + std::to_string(step);
  }
  return where + ": ";
}

void check_virtual_chunks(const LayerwisePlan& plan) {
  if (plan.virtual_chunks < 1) {
    throw std::invalid_argument(plan_error(plan) + "virtual_chunks=" +
                                std::to_string(plan.virtual_chunks) +
                                " must be >= 1");
  }
}

struct Emitter {
  const PipelineProblem& pr;
  const LayerwisePlan& plan;
  ScheduleBuilder& b;
  int chunks;
  std::vector<int> first_layer;  ///< per chunk, plus L past the last one

  // Data-flow state per (chunk, mb): the boundary values each chunk
  // receives, and the last forward op of each chunk.
  std::vector<std::vector<Handoff>> fwd_in, bwd_in;
  std::vector<std::vector<OpId>> fwd_out;

  Emitter(const PipelineProblem& pr_, const LayerwisePlan& plan_,
          ScheduleBuilder& b_)
      : pr(pr_), plan(plan_), b(b_), chunks(pr_.p * plan_.virtual_chunks) {
    first_layer.assign(static_cast<std::size_t>(chunks) + 1, 0);
    for (int c = 0; c < chunks; ++c) {
      first_layer[c + 1] =
          first_layer[c] + plan.layers_per_stage[stage_of(c)] / plan.virtual_chunks;
    }
    fwd_in.assign(chunks, std::vector<Handoff>(pr.m));
    bwd_in.assign(chunks, std::vector<Handoff>(pr.m));
    fwd_out.assign(chunks, std::vector<OpId>(pr.m, core::kNoOp));
  }

  int stage_of(int c) const { return c % pr.p; }

  bool is_recomputed(int c, int layer) const {
    return layer - first_layer[c] < plan.recompute_layers[stage_of(c)];
  }

  /// Pass chunk `from`'s boundary value to chunk `to`: on the stage when
  /// both chunks live there, else by a Send whose Recv `to` posts.
  Handoff hand_over(int from, int to, OpId value, int mb, int layer,
                    DataSlot slot) {
    if (stage_of(from) == stage_of(to)) return Handoff::of(value);
    return Handoff::of(b.add_send(stage_of(from), stage_of(to),
                                  pr.comm.boundary, value, mb, layer, slot));
  }

  void forward(int c, int mb) {
    const int i = stage_of(c);
    OpId prev = c == 0 ? b.add(OpKind::kEmbedFwd, i, mb, 0)
                       : fwd_in[c][mb].consume(b);
    for (int l = first_layer[c]; l < first_layer[c + 1]; ++l) {
      const bool rcl = is_recomputed(c, l);
      b.add(OpKind::kFwdPre, i, mb, l, {prev});
      b.with_memory(rcl ? pr.act.full_layer_recompute_stash : pr.act.pre, 0);
      b.add(OpKind::kFwdAttn, i, mb, l);
      b.with_memory(rcl ? 0 : pr.act.attn, 0);
      prev = b.add(OpKind::kFwdPost, i, mb, l);
      b.with_memory(rcl ? 0 : pr.act.post, 0);
    }
    fwd_out[c][mb] = prev;
    if (c + 1 < chunks) {
      // The payload is the input of the next chunk's first layer.
      fwd_in[c + 1][mb] = hand_over(c, c + 1, prev, mb, first_layer[c + 1],
                                    DataSlot::kFwdBoundary);
    }
  }

  void backward(int c, int mb) {
    const bool dw = plan.decouple_w;
    const int i = stage_of(c);
    OpId prev;
    if (c == chunks - 1) {
      if (pr.include_lm_head) {
        prev = b.add(OpKind::kLmHeadLoss, i, mb, pr.L - 1, {fwd_out[c][mb]});
        b.with_memory(dw ? pr.head_stash_bytes : 0, 0,
                      pr.logits_transient_bytes);
        if (dw) b.decoupled();  // LM-head backward-W deferred (Section 5.4)
      } else {
        prev = fwd_out[c][mb];
      }
    } else {
      prev = bwd_in[c][mb].consume(b);
    }
    for (int l = first_layer[c + 1] - 1; l >= first_layer[c]; --l) {
      const bool rcl = is_recomputed(c, l);
      if (rcl) {
        // Full activation recomputation: re-run the layer forward from the
        // stashed boundary input, restoring all intermediate stashes.
        b.add(OpKind::kRecomputePre, i, mb, l);
        b.with_memory(pr.act.pre, 0);
        b.add(OpKind::kRecomputeAttn, i, mb, l);
        b.with_memory(pr.act.attn, 0);
        b.add(OpKind::kRecomputePost, i, mb, l);
        b.with_memory(pr.act.post, 0);
      }
      prev = b.add(OpKind::kBwdPost, i, mb, l, {prev});
      if (dw) {
        b.with_memory(pr.act.w_stash_post, 0).decoupled();
      } else {
        b.with_memory(0, pr.act.post);
      }
      prev = b.add(OpKind::kBwdAttn, i, mb, l, {prev});
      b.with_memory(0, dw ? 0 : pr.act.attn);
      if (dw) b.decoupled();  // dWqkv deferred to the backward-W step
      prev = b.add(OpKind::kBwdPre, i, mb, l, {prev});
      if (dw) {
        b.with_memory(pr.act.w_stash_pre, 0).decoupled();
      } else {
        b.with_memory(0, pr.act.pre +
                             (rcl ? pr.act.full_layer_recompute_stash : 0));
      }
    }
    if (c > 0) {
      // The payload is the gradient consumed by BwdPost(first_layer - 1).
      bwd_in[c - 1][mb] = hand_over(c, c - 1, prev, mb, first_layer[c] - 1,
                                    DataSlot::kBwdBoundary);
    } else {
      b.add(OpKind::kEmbedBwd, i, mb, 0, {prev});
    }
  }

  void backward_w(int c, int mb) {
    const int i = stage_of(c);
    for (int l = first_layer[c + 1] - 1; l >= first_layer[c]; --l) {
      b.add(OpKind::kBwdWPost, i, mb, l);
      b.with_memory(0, pr.act.post + pr.act.w_stash_post);
      b.add(OpKind::kBwdWPre, i, mb, l);
      b.with_memory(0, pr.act.pre + pr.act.attn + pr.act.w_stash_pre);
    }
    if (c == chunks - 1 && pr.include_lm_head) {
      // Deferred LM-head / embedding backward-W releases the fp32 gradient
      // stash (the ZB1P final-stage spike, Section 5.4). Marked decoupled so
      // interpreters/validators tell it apart from the regular embedding
      // backward by flag, not by layer — at L == 1 the layers coincide.
      b.add(OpKind::kEmbedBwd, i, mb, pr.L - 1);
      b.with_memory(0, pr.head_stash_bytes).decoupled();
    }
  }
};

}  // namespace

std::vector<PlacedStep> dataflow_order(const LayerwisePlan& plan, int m) {
  const int p = static_cast<int>(plan.steps.size());
  check_virtual_chunks(plan);
  const int v = plan.virtual_chunks;
  std::size_t total = 0;
  for (int i = 0; i < p; ++i) {
    const std::vector<MacroStep>& steps = plan.steps[i];
    for (std::size_t k = 0; k < steps.size(); ++k) {
      const MacroStep& st = steps[k];
      if (st.mb < 0 || st.mb >= m || st.chunk < 0 || st.chunk >= v) {
        throw std::invalid_argument(
            plan_error(plan, i, k) + "micro batch " + std::to_string(st.mb) +
            ", chunk " + std::to_string(st.chunk) + " is outside [0, m=" +
            std::to_string(m) + ") x [0, virtual_chunks=" + std::to_string(v) + ")");
      }
    }
    total += steps.size();
  }

  // Visited forwards / backward-Bs per (chunk, mb).
  const std::size_t chunks = static_cast<std::size_t>(p) * static_cast<std::size_t>(v);
  const auto at = [m](std::size_t c, int mb) {
    return c * static_cast<std::size_t>(m) + static_cast<std::size_t>(mb);
  };
  std::vector<bool> f_done(chunks * static_cast<std::size_t>(m), false);
  std::vector<bool> b_done(f_done.size(), false);
  std::vector<std::size_t> next(static_cast<std::size_t>(p), 0);
  std::vector<PlacedStep> order;
  order.reserve(total);
  while (order.size() < total) {
    const std::size_t visited = order.size();
    for (int i = 0; i < p; ++i) {
      for (; next[i] < plan.steps[i].size(); ++next[i]) {
        const MacroStep st = plan.steps[i][next[i]];
        const std::size_t c = static_cast<std::size_t>(st.chunk) * p + i;
        bool ready = false;
        switch (st.kind) {
          case StepKind::kForward:
            ready = c == 0 || f_done[at(c - 1, st.mb)];
            break;
          case StepKind::kBackward:
            ready = f_done[at(c, st.mb)] &&
                    (c + 1 == chunks || b_done[at(c + 1, st.mb)]);
            break;
          case StepKind::kBackwardW:
            ready = b_done[at(c, st.mb)];
            break;
        }
        if (!ready) break;
        if (st.kind == StepKind::kForward) f_done[at(c, st.mb)] = true;
        if (st.kind == StepKind::kBackward) b_done[at(c, st.mb)] = true;
        order.push_back({i, st});
      }
    }
    if (order.size() == visited) {
      int i = 0;
      while (next[i] == plan.steps[i].size()) ++i;
      throw std::logic_error(plan_error(plan, i, next[i]) +
                             "data-flow cycle: no stage can run its next step");
    }
  }
  return order;
}

Schedule emit_layerwise(const PipelineProblem& pr, const LayerwisePlan& plan) {
  const int p = pr.p;
  const auto refuse = [&plan](const std::string& why) {
    throw std::invalid_argument(plan_error(plan) + why);
  };
  if (static_cast<int>(plan.layers_per_stage.size()) != p ||
      static_cast<int>(plan.steps.size()) != p) {
    refuse("plan shape does not match p=" + std::to_string(p) + " stages");
  }
  if (static_cast<int>(plan.recompute_layers.size()) != p) {
    refuse("recompute_layers has " + std::to_string(plan.recompute_layers.size()) +
           " entries, need one per stage (p=" + std::to_string(p) + ")");
  }
  if (std::accumulate(plan.layers_per_stage.begin(), plan.layers_per_stage.end(), 0) != pr.L) {
    refuse("partition does not cover all L=" + std::to_string(pr.L) + " layers");
  }
  check_virtual_chunks(plan);
  for (int i = 0; i < p; ++i) {
    if (plan.layers_per_stage[i] % plan.virtual_chunks != 0) {
      refuse("stage " + std::to_string(i) + " holds " +
             std::to_string(plan.layers_per_stage[i]) +
             " layers, not divisible by virtual_chunks=" +
             std::to_string(plan.virtual_chunks));
    }
  }

  ScheduleBuilder b(plan.name, p, pr.m, pr.L);
  Emitter em(pr, plan, b);
  for (const PlacedStep& s : dataflow_order(plan, pr.m)) {
    const int c = s.step.chunk * p + s.stage;
    switch (s.step.kind) {
      case StepKind::kForward:
        em.forward(c, s.step.mb);
        break;
      case StepKind::kBackward:
        em.backward(c, s.step.mb);
        break;
      case StepKind::kBackwardW:
        em.backward_w(c, s.step.mb);
        break;
    }
  }
  for (int s = 0; s < p; ++s) b.add_optim_step(s);
  return std::move(b).finish();
}

std::vector<MacroStep> one_f_one_b_order(int n, int warmup) {
  std::vector<MacroStep> s;
  s.reserve(2 * static_cast<std::size_t>(n));
  for (int k = 0; k < warmup; ++k) s.push_back({StepKind::kForward, k});
  for (int k = 0; k < n - warmup; ++k) {
    s.push_back({StepKind::kForward, warmup + k});
    s.push_back({StepKind::kBackward, k});
  }
  for (int k = n - warmup; k < n; ++k) s.push_back({StepKind::kBackward, k});
  return s;
}

LayerwisePlan plan_1f1b(const PipelineProblem& pr) {
  core::validate_problem(pr, core::layerwise_requirements("1F1B"));
  LayerwisePlan plan = uniform_plan("1F1B", pr);
  for (int i = 0; i < pr.p; ++i) {
    plan.steps[i] = one_f_one_b_order(pr.m, std::min(pr.p - 1 - i, pr.m));
  }
  return plan;
}

core::Schedule build_1f1b(const PipelineProblem& pr) {
  HELIX_PROF_SCOPE("build.1f1b");
  return emit_layerwise(pr, plan_1f1b(pr));
}

LayerwisePlan plan_gpipe(const PipelineProblem& pr) {
  core::validate_problem(pr, core::layerwise_requirements("GPipe"));
  LayerwisePlan plan = uniform_plan("GPipe", pr);
  for (int i = 0; i < pr.p; ++i) {
    auto& s = plan.steps[i];
    for (int j = 0; j < pr.m; ++j) s.push_back({StepKind::kForward, j});
    for (int j = pr.m - 1; j >= 0; --j) s.push_back({StepKind::kBackward, j});
  }
  return plan;
}

core::Schedule build_gpipe(const PipelineProblem& pr) {
  HELIX_PROF_SCOPE("build.gpipe");
  return emit_layerwise(pr, plan_gpipe(pr));
}

}  // namespace helix::schedules
