#include "core/filo.h"

#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/partition.h"
#include "core/problem_check.h"
#include "core/reorder.h"
#include "obs/prof.h"

namespace helix::core {

namespace {

using Handoff = ScheduleBuilder::Handoff;

/// Per-micro-batch handoffs threaded through the data flow.
struct FlowState {
  std::vector<OpId> combo_out;       ///< producer of pre(c) output, per mb
  std::vector<Handoff> attn_ready;   ///< pre output en route to attn stage
  std::vector<Handoff> attn_out;     ///< attn output en route to combo stage
  std::vector<Handoff> grad_ready;   ///< combo grad en route to attn stage
  std::vector<Handoff> grad_to_combo;///< attn grad en route to combo stage
  /// Last forward op of combo c for mb g: the op whose recompute stashes the
  /// backward-pass recompute of combo c replays ([L+1][m], set under rc).
  std::vector<std::vector<OpId>> fwd_at_combo;

  explicit FlowState(int m)
      : combo_out(m, kNoOp), attn_ready(m), attn_out(m), grad_ready(m),
        grad_to_combo(m) {}
};

/// Up to two deps, skipping kNoOp and a repeat, for ScheduleBuilder::add.
struct Deps {
  OpId ids[2] = {kNoOp, kNoOp};
  std::size_t n = 0;
  operator std::span<const OpId>() const { return {ids, n}; }
};
Deps deps2(OpId a, OpId b) {
  Deps d;
  if (a != kNoOp) d.ids[d.n++] = a;
  if (b != kNoOp && b != a) d.ids[d.n++] = b;
  return d;
}
Deps dep(OpId a) { return deps2(a, kNoOp); }

}  // namespace

Schedule build_helix_schedule(const PipelineProblem& pr, const HelixOptions& opt) {
  // Two sites behind one entry point; the SCOPE macro's static-local id
  // would freeze on whichever variant ran first, so intern both.
  static const obs::prof::SiteId kNaiveSite = obs::prof::intern(
      "build.helix_naive", obs::prof::SiteKind::kTimer);
  static const obs::prof::SiteId kTwoFoldSite = obs::prof::intern(
      "build.helix_two_fold", obs::prof::SiteKind::kTimer);
  const obs::prof::ScopedTimer prof_timer(opt.two_fold ? kTwoFoldSite
                                                       : kNaiveSite);
  const int p = pr.p;
  const int m = pr.m;
  const int L = pr.L;
  validate_problem(pr, helix_requirements(opt.two_fold, p));
  const int q = filo_loop_size(p, opt.two_fold);
  const int loops = m / q;
  const int per_fold = opt.two_fold ? 2 : 1;
  const bool rc = opt.recompute_without_attention;

  ScheduleBuilder b(opt.two_fold ? "helix-two-fold" : "helix-naive", p, m, L);
  FlowState flow(m);
  if (rc) {
    flow.fwd_at_combo.assign(static_cast<std::size_t>(L) + 1,
                             std::vector<OpId>(static_cast<std::size_t>(m), kNoOp));
  }

  // ----------------------------------------------------------------- forward
  // Layer-major sweep: all micro batches stream through combo c before the
  // pipeline advances to combo c+1, so successive FILO loops pipeline behind
  // each other and the fill/drain bubble is paid once per iteration (Table
  // 2's bubble is independent of m). A FILO "loop" admits q micro batches
  // and determines the fold -> attention-stage mapping.
  //
  // Two-fold handoff: the two micro batches of a fold form one scheduling
  // block; both p2p messages are posted after the block's compute finishes
  // and serialize on the comm stream, so the receiver computes the first
  // micro batch while the second is still in flight (Fig. 6b). This is what
  // doubles the fill/drain ladder relative to the naive schedule (Fig. 7).
  for (int c = 0; c <= L; ++c) {
    const int owner = combo_stage(c, p);
    // Combo c: post-attention(c-1) + pre-attention(c), every loop's fold
    // blocks in order. All combo work of step c precedes the stage's
    // attention duties for layer c so downstream stages are fed first.
    for (int r = 0; r < loops; ++r) {
      const int base = r * q;
      for (int f = 0; f < p; ++f) {
        OpId block_last = kNoOp;
        for (int k = 0; k < per_fold; ++k) {
          const int g = base + f * per_fold + k;
          OpId prev = kNoOp;
          if (c == 0) {
            prev = b.add(OpKind::kEmbedFwd, owner, g, 0);
            // Stash of the combo-0 input (embedding output) under recompute.
            if (rc) b.with_memory(pr.act.post_recompute, 0);
          } else {
            const OpId in = flow.attn_out[g].consume(b);
            prev = b.add(OpKind::kFwdPost, owner, g, c - 1, dep(in));
            b.with_memory(rc ? pr.act.post_recompute : pr.act.post, 0);
          }
          if (c < L) {
            prev = b.add(OpKind::kFwdPre, owner, g, c, dep(prev));
            b.with_memory(rc ? 0 : pr.act.pre, 0);
          }
          flow.combo_out[g] = prev;  // at c == L this is FwdPost(L-1)
          if (rc) {
            flow.fwd_at_combo[static_cast<std::size_t>(c)]
                             [static_cast<std::size_t>(g)] = prev;
          }
          block_last = prev;
        }
        if (c == L) continue;
        // Ship {residual, LN output, QKV weights} of the whole fold to its
        // attention stage.
        const int a = attention_stage(c, f, p);
        for (int k = 0; k < per_fold; ++k) {
          const int g = base + f * per_fold + k;
          if (a != owner) {
            auto t = b.add_send(owner, a, pr.comm.pre_to_attn,
                                flow.combo_out[g], g, c, DataSlot::kPreToAttn);
            if (per_fold > 1) b.add_dep(t.send, block_last);
            flow.attn_ready[g] = Handoff::of(t);
          } else {
            flow.attn_ready[g] = Handoff::of(flow.combo_out[g]);
          }
        }
      }
    }
    if (c == L) continue;
    // Attention of layer c, fold blocks distributed across all stages
    // (Section 4.2: fold f of layer l runs on stage (l + f + 1) mod p).
    for (int r = 0; r < loops; ++r) {
      const int base = r * q;
      for (int f = 0; f < p; ++f) {
        const int a = attention_stage(c, f, p);
        const int next_owner = combo_stage(c + 1, p);
        std::vector<OpId> attn_ids(static_cast<std::size_t>(per_fold));
        for (int k = 0; k < per_fold; ++k) {
          const int g = base + f * per_fold + k;
          const OpId in = flow.attn_ready[g].consume(b);
          attn_ids[static_cast<std::size_t>(k)] =
              b.add(OpKind::kFwdAttn, a, g, c, dep(in));
          b.with_memory(rc ? pr.act.attn_recompute : pr.act.attn, 0);
        }
        for (int k = 0; k < per_fold; ++k) {
          const int g = base + f * per_fold + k;
          if (next_owner != a) {
            auto t = b.add_send(a, next_owner, pr.comm.attn_to_post,
                                attn_ids[static_cast<std::size_t>(k)], g, c,
                                DataSlot::kAttnToPost);
            if (per_fold > 1) b.add_dep(t.send, attn_ids.back());
            flow.attn_out[g] = Handoff::of(t);
          } else {
            flow.attn_out[g] =
                Handoff::of(attn_ids[static_cast<std::size_t>(k)]);
          }
        }
      }
    }
  }

  // ---------------------------------------------------------------- backward
  for (int c = L; c >= 0; --c) {
    const int owner = combo_stage(c, p);
    // Combo c backward, loops, fold blocks and micro batches in reverse
    // (first-in-last-out).
    for (int r = loops - 1; r >= 0; --r) {
      const int base = r * q;
      for (int f = p - 1; f >= 0; --f) {
        std::vector<OpId> bwd_post(static_cast<std::size_t>(per_fold), kNoOp);
        OpId block_last = kNoOp;
        for (int k = per_fold - 1; k >= 0; --k) {
          const int g = base + f * per_fold + k;
          OpId grad_in;
          if (c == L) {
            grad_in = b.add(OpKind::kLmHeadLoss, owner, g, L - 1,
                            dep(flow.combo_out[g]));
            b.with_memory(0, 0, pr.logits_transient_bytes);
          } else {
            grad_in = flow.grad_to_combo[g].consume(b);
          }
          OpId rc_post = kNoOp;
          OpId rc_pre = kNoOp;
          if (rc) {
            // Recompute is anchored on the forward op whose stash it replays
            // (the last forward op of combo c for this mb): any topological
            // reordering — the tuned list scheduler in particular — must
            // keep the recompute after the stash was written, but remains
            // free to run it before the gradient arrives, overlapping it
            // with the incoming transfer.
            const OpId fwd = flow.fwd_at_combo[static_cast<std::size_t>(c)]
                                              [static_cast<std::size_t>(g)];
            if (c > 0) {
              rc_post = b.add(OpKind::kRecomputePost, owner, g, c - 1,
                              dep(fwd));
              b.with_memory(pr.act.post - pr.act.post_recompute, 0);
            }
            if (c < L) {
              rc_pre = b.add(OpKind::kRecomputePre, owner, g, c,
                             deps2(fwd, rc_post));
              b.with_memory(pr.act.pre, 0);
            }
          }
          OpId prev = grad_in;
          if (c < L) {
            prev = b.add(OpKind::kBwdPre, owner, g, c, deps2(grad_in, rc_pre));
            b.with_memory(0, pr.act.pre);
          }
          if (c > 0) {
            prev = b.add(OpKind::kBwdPost, owner, g, c - 1, deps2(prev, rc_post));
            b.with_memory(0, pr.act.post);
            bwd_post[static_cast<std::size_t>(k)] = prev;
          } else {
            b.add(OpKind::kEmbedBwd, owner, g, 0, dep(prev));
            if (rc) b.with_memory(0, pr.act.post_recompute);
          }
          block_last = prev;
        }
        if (c == 0) continue;
        // Send {d residual, d attention-output} of the fold to the attention
        // stage of layer c-1.
        const int a = attention_stage(c - 1, f, p);
        for (int k = per_fold - 1; k >= 0; --k) {
          const int g = base + f * per_fold + k;
          if (a != owner) {
            auto t = b.add_send(owner, a, pr.comm.attn_to_post,
                                bwd_post[static_cast<std::size_t>(k)], g, c - 1,
                                DataSlot::kGradToAttn);
            if (per_fold > 1) b.add_dep(t.send, block_last);
            flow.grad_ready[g] = Handoff::of(t);
          } else {
            flow.grad_ready[g] =
                Handoff::of(bwd_post[static_cast<std::size_t>(k)]);
          }
        }
      }
    }
    if (c == 0) continue;
    // Attention backward of layer c-1, loops and fold blocks in reverse.
    for (int r = loops - 1; r >= 0; --r) {
      const int base = r * q;
      for (int f = p - 1; f >= 0; --f) {
        const int a = attention_stage(c - 1, f, p);
        const int prev_owner = combo_stage(c - 1, p);
        std::vector<OpId> bwd_ids(static_cast<std::size_t>(per_fold), kNoOp);
        for (int k = per_fold - 1; k >= 0; --k) {
          const int g = base + f * per_fold + k;
          const OpId in = flow.grad_ready[g].consume(b);
          bwd_ids[static_cast<std::size_t>(k)] =
              b.add(OpKind::kBwdAttn, a, g, c - 1, dep(in));
          b.with_memory(0, rc ? pr.act.attn_recompute : pr.act.attn);
        }
        for (int k = per_fold - 1; k >= 0; --k) {
          const int g = base + f * per_fold + k;
          if (prev_owner != a) {
            auto t = b.add_send(a, prev_owner, pr.comm.pre_to_attn,
                                bwd_ids[static_cast<std::size_t>(k)], g, c - 1,
                                DataSlot::kGradToPre);
            if (per_fold > 1) b.add_dep(t.send, bwd_ids.front());
            flow.grad_to_combo[g] = Handoff::of(t);
          } else {
            flow.grad_to_combo[g] =
                Handoff::of(bwd_ids[static_cast<std::size_t>(k)]);
          }
        }
      }
    }
  }

  for (int s = 0; s < p; ++s) {
    b.add_optim_step(s);
  }
  return std::move(b).finish();
}

Schedule build_helix_schedule_tuned(const PipelineProblem& problem,
                                    const HelixOptions& options,
                                    const CostModel& cost) {
  HELIX_PROF_SCOPE("build.helix_tuned");
  Schedule s = build_helix_schedule(problem, options);
  const int q = filo_loop_size(problem.p, options.two_fold);
  if (problem.m > q) s = reorder_stage_programs(std::move(s), cost);
  return s;
}

}  // namespace helix::core
