#include "runtime/interpreter.h"

#include <functional>
#include <sstream>
#include <thread>

#include "obs/clock.h"
#include "obs/memory.h"
#include "obs/prof.h"

namespace helix::runtime {

using core::DataSlot;
using core::Op;
using core::OpKind;
using nn::param_name;

Interpreter::Interpreter(const core::CompiledSchedule& schedule, int rank,
                         comm::Endpoint& comm, nn::ModelParams& params,
                         const nn::Batch& batch, InterpreterOptions options)
    : compiled_(schedule), rank_(rank), comm_(comm), params_(params),
      batch_(batch), opt_(options) {}

comm::Message Interpreter::take_slot(DataSlot slot, int mb, int layer) {
  const auto key = std::make_tuple(slot, mb, layer);
  const auto it = slots_.find(key);
  if (it == slots_.end()) {
    // Async engine: the value may still be in flight as a prefetched recv —
    // drain the handle here, at actual consumption, so any residual block
    // lands on the consuming op (recv_wait_exposed_ns) instead of at the
    // Recv's program position.
    const auto hit = recv_handles_.find(key);
    if (hit != recv_handles_.end()) {
      comm::RecvHandle handle = std::move(hit->second);
      recv_handles_.erase(hit);
      return handle.wait();
    }
    std::ostringstream os;
    os << "rank " << rank_ << ": missing value slot " << static_cast<int>(slot)
       << " mb=" << mb << " layer=" << layer;
    throw std::logic_error(os.str());
  }
  comm::Message msg = std::move(it->second);
  slots_.erase(it);
  return msg;
}

void Interpreter::put_slot(DataSlot slot, int mb, int layer, comm::Message msg) {
  const auto key = std::make_tuple(slot, mb, layer);
  if (!slots_.emplace(key, std::move(msg)).second) {
    throw std::logic_error("value slot written twice");
  }
}

void Interpreter::exec(const Op& op) {
  const int mb = op.mb;
  const int l = op.layer;
  const bool rc = opt_.recompute_without_attention;
  switch (op.kind) {
    case OpKind::kSend: {
      comm::Message msg = take_slot(op.slot, mb, l);
      if (opt_.async_comm) {
        // Fire-and-forget: the rank's comm worker delivers (and is drained
        // before the Endpoint goes away), so no handle needs keeping.
        (void)comm_.isend(op.peer, op.tag, std::move(msg));
      } else {
        comm_.send(op.peer, op.tag, std::move(msg));
      }
      break;
    }
    case OpKind::kRecv: {
      if (opt_.async_comm) {
        // Post only; take_slot drains the handle when a compute op consumes
        // the value.
        const auto key = std::make_tuple(op.slot, mb, l);
        if (!recv_handles_.emplace(key, comm_.irecv(op.peer, op.tag)).second) {
          throw std::logic_error("recv handle posted twice");
        }
      } else {
        put_slot(op.slot, mb, l, comm_.recv(op.peer, op.tag));
      }
      break;
    }
    case OpKind::kEmbedFwd: {
      Tensor x = tensor::embedding_forward(
          batch_.tokens[static_cast<std::size_t>(mb)], params_.wte, params_.wpe,
          params_.cfg.batch, params_.cfg.seq);
      if (rc) pre_stash_[{mb, 0}].x = x;  // combo-0 stash (Section 4.4.1)
      put_slot(DataSlot::kFwdBoundary, mb, 0, comm::make_message(std::move(x)));
      break;
    }
    case OpKind::kFwdPre: {
      comm::Message in = take_slot(DataSlot::kFwdBoundary, mb, l);
      Tensor x = std::move(in[0]);
      const nn::LayerParams& p = params_.layers[static_cast<std::size_t>(l)];
      nn::PreStash stash;
      Tensor ln1 = nn::pre_forward(x, p, &stash);
      if (!rc) pre_stash_[{mb, l}] = std::move(stash);
      // Ship {residual, LN output, QKV weights} (Section 4.2).
      put_slot(DataSlot::kPreToAttn, mb, l, comm::make_message(std::move(x), std::move(ln1), p.wqkv));
      break;
    }
    case OpKind::kFwdAttn: {
      comm::Message in = take_slot(DataSlot::kPreToAttn, mb, l);
      nn::AttnStash stash;
      Tensor ctx = nn::attn_forward(in[1], in[2], params_.cfg, &stash);
      attn_stash_[{mb, l}] = std::move(stash);
      put_slot(DataSlot::kAttnToPost, mb, l, comm::make_message(std::move(in[0]), std::move(ctx)));
      break;
    }
    case OpKind::kFwdPost: {
      comm::Message in = take_slot(DataSlot::kAttnToPost, mb, l);
      const nn::LayerParams& p = params_.layers[static_cast<std::size_t>(l)];
      nn::PostStash& stash = post_stash_[{mb, l}];
      Tensor y = nn::post_forward(in[0], in[1], p, opt_.mlp_chunks,
                                  /*keep_intermediates=*/!rc, &stash);
      put_slot(DataSlot::kFwdBoundary, mb, l + 1, comm::make_message(std::move(y)));
      break;
    }
    case OpKind::kLmHeadLoss: {
      comm::Message in = take_slot(DataSlot::kFwdBoundary, mb, compiled_.num_layers);
      const nn::HeadResult head = nn::lm_head_loss(
          in[0], params_.wlm, batch_.targets[static_cast<std::size_t>(mb)]);
      if (op.combines_w) {
        grads_.accumulate("wlm", mb, head.dwlm);
      } else {
        // ZB1P: defer the LM-head backward-W, stashing the fp32 inputs
        // (the Section 5.4 last-stage memory spike).
        Tensor dlogits;
        const Tensor logits = tensor::matmul(in[0], params_.wlm);
        (void)tensor::cross_entropy_forward_backward(
            logits, batch_.targets[static_cast<std::size_t>(mb)], dlogits);
        head_w_stash_[mb] = {in[0], std::move(dlogits)};
      }
      if (metrics_.micro_batch_losses.size() <
          static_cast<std::size_t>(compiled_.num_micro_batches)) {
        metrics_.micro_batch_losses.resize(
            static_cast<std::size_t>(compiled_.num_micro_batches), 0.0);
      }
      metrics_.micro_batch_losses[static_cast<std::size_t>(mb)] = head.loss;
      put_slot(DataSlot::kBwdBoundary, mb, compiled_.num_layers - 1, {head.dhidden});
      break;
    }
    case OpKind::kRecomputePost: {
      const nn::LayerParams& p = params_.layers[static_cast<std::size_t>(l)];
      nn::PostStash& stash = post_stash_.at({mb, l});
      Tensor y = nn::post_recompute(p, opt_.mlp_chunks, stash);
      // The recomputed output is the next pre-attention's input.
      pre_stash_[{mb, l + 1}].x = std::move(y);
      break;
    }
    case OpKind::kRecomputePre: {
      nn::PreStash& stash = pre_stash_.at({mb, l});
      const nn::LayerParams& p = params_.layers[static_cast<std::size_t>(l)];
      (void)tensor::layernorm_forward(stash.x, p.ln1_g, p.ln1_b, &stash.stats);
      break;
    }
    case OpKind::kBwdPost: {
      comm::Message in = take_slot(DataSlot::kBwdBoundary, mb, l);
      const nn::LayerParams& p = params_.layers[static_cast<std::size_t>(l)];
      const auto it = post_stash_.find({mb, l});
      if (it == post_stash_.end()) throw std::logic_error("missing post stash");
      if (op.combines_w) {
        nn::PostBackwardResult r =
            nn::post_backward(in[0], p, opt_.mlp_chunks, it->second);
        post_stash_.erase(it);
        grads_.accumulate(param_name(l, "wo"), mb, std::move(r.dwo));
        grads_.accumulate(param_name(l, "ln2_g"), mb, std::move(r.dln2_g));
        grads_.accumulate(param_name(l, "ln2_b"), mb, std::move(r.dln2_b));
        grads_.accumulate(param_name(l, "w1"), mb, std::move(r.dw1));
        grads_.accumulate(param_name(l, "w2"), mb, std::move(r.dw2));
        put_slot(DataSlot::kGradToAttn, mb, l, comm::make_message(std::move(r.dx), std::move(r.dctx)));
      } else {
        // Decoupled: input gradients now; forward stash kept for backward-W.
        nn::PostBackwardBResult r =
            nn::post_backward_b(in[0], p, opt_.mlp_chunks, it->second);
        post_w_stash_[{mb, l}] = std::move(r.w);
        put_slot(DataSlot::kGradToAttn, mb, l, comm::make_message(std::move(r.dx), std::move(r.dctx)));
      }
      break;
    }
    case OpKind::kBwdAttn: {
      comm::Message in = take_slot(DataSlot::kGradToAttn, mb, l);
      const auto it = attn_stash_.find({mb, l});
      if (it == attn_stash_.end()) throw std::logic_error("missing attn stash");
      if (op.combines_w) {
        nn::AttnBackwardResult r = nn::attn_backward(in[1], it->second, params_.cfg);
        attn_stash_.erase(it);
        put_slot(DataSlot::kGradToPre, mb, l,
                 comm::make_message(std::move(in[0]), std::move(r.dln1), std::move(r.dwqkv)));
      } else {
        // Decoupled: dqkv kept (with the attention stash) for dWqkv later.
        nn::AttnBackwardBResult r =
            nn::attn_backward_b(in[1], it->second, params_.cfg);
        dqkv_stash_[{mb, l}] = std::move(r.dqkv);
        // dWqkv placeholder: empty tensor signals "deferred" to BwdPre.
        put_slot(DataSlot::kGradToPre, mb, l,
                 comm::make_message(std::move(in[0]), std::move(r.dln1), Tensor{}));
      }
      break;
    }
    case OpKind::kBwdPre: {
      comm::Message in = take_slot(DataSlot::kGradToPre, mb, l);
      const nn::LayerParams& p = params_.layers[static_cast<std::size_t>(l)];
      const auto it = pre_stash_.find({mb, l});
      if (it == pre_stash_.end()) throw std::logic_error("missing pre stash");
      if (op.combines_w) {
        if (!in[2].empty()) grads_.accumulate(param_name(l, "wqkv"), mb, std::move(in[2]));
        nn::PreBackwardResult r =
            nn::pre_backward(in[1], in[0], it->second.x, it->second.stats, p);
        pre_stash_.erase(it);
        grads_.accumulate(param_name(l, "ln1_g"), mb, std::move(r.dln1_g));
        grads_.accumulate(param_name(l, "ln1_b"), mb, std::move(r.dln1_b));
        put_slot(DataSlot::kBwdBoundary, mb, l - 1, comm::make_message(std::move(r.dx)));
      } else {
        // Decoupled: keep dln1 and the pre stash for the backward-W step.
        Tensor dx = nn::pre_backward_b(in[1], in[0], it->second.x,
                                       it->second.stats, p);
        pre_dln1_stash_[{mb, l}] = std::move(in[1]);
        put_slot(DataSlot::kBwdBoundary, mb, l - 1, comm::make_message(std::move(dx)));
      }
      break;
    }
    case OpKind::kBwdWPost: {
      const nn::LayerParams& p = params_.layers[static_cast<std::size_t>(l)];
      const auto st = post_stash_.find({mb, l});
      const auto wst = post_w_stash_.find({mb, l});
      if (st == post_stash_.end() || wst == post_w_stash_.end()) {
        throw std::logic_error("missing backward-W stash (post)");
      }
      nn::PostBackwardWResult r =
          nn::post_backward_w(p, st->second, wst->second, opt_.mlp_chunks);
      post_stash_.erase(st);
      post_w_stash_.erase(wst);
      grads_.accumulate(param_name(l, "wo"), mb, std::move(r.dwo));
      grads_.accumulate(param_name(l, "ln2_g"), mb, std::move(r.dln2_g));
      grads_.accumulate(param_name(l, "ln2_b"), mb, std::move(r.dln2_b));
      grads_.accumulate(param_name(l, "w1"), mb, std::move(r.dw1));
      grads_.accumulate(param_name(l, "w2"), mb, std::move(r.dw2));
      break;
    }
    case OpKind::kBwdWPre: {
      const auto ast = attn_stash_.find({mb, l});
      const auto dq = dqkv_stash_.find({mb, l});
      const auto ps = pre_stash_.find({mb, l});
      const auto dl = pre_dln1_stash_.find({mb, l});
      if (ast == attn_stash_.end() || dq == dqkv_stash_.end() ||
          ps == pre_stash_.end() || dl == pre_dln1_stash_.end()) {
        throw std::logic_error("missing backward-W stash (pre)");
      }
      grads_.accumulate(param_name(l, "wqkv"), mb,
                        nn::attn_backward_w(ast->second, dq->second));
      const tensor::LayerNormParamGrads lng =
          nn::pre_backward_w(dl->second, ps->second.x, ps->second.stats);
      grads_.accumulate(param_name(l, "ln1_g"), mb, lng.dgamma);
      grads_.accumulate(param_name(l, "ln1_b"), mb, lng.dbeta);
      attn_stash_.erase(ast);
      dqkv_stash_.erase(dq);
      pre_stash_.erase(ps);
      pre_dln1_stash_.erase(dl);
      break;
    }
    case OpKind::kEmbedBwd: {
      if (!op.combines_w) {
        // Deferred LM-head backward-W on the last stage (ZB1P). Identified
        // by the decoupled flag: with L == 1 its layer (L-1) coincides with
        // the regular embedding backward's layer 0.
        const auto it = head_w_stash_.find(mb);
        if (it == head_w_stash_.end()) throw std::logic_error("missing head W stash");
        grads_.accumulate("wlm", mb,
                          tensor::matmul_tn(it->second.first, it->second.second));
        head_w_stash_.erase(it);
        break;
      }
      comm::Message in = take_slot(DataSlot::kBwdBoundary, mb, -1);
      Tensor dwte({params_.cfg.vocab, params_.cfg.hidden});
      Tensor dwpe({params_.cfg.seq, params_.cfg.hidden});
      tensor::embedding_backward(in[0], batch_.tokens[static_cast<std::size_t>(mb)],
                                 dwte, dwpe, params_.cfg.batch, params_.cfg.seq);
      grads_.accumulate("wte", mb, std::move(dwte));
      grads_.accumulate("wpe", mb, std::move(dwpe));
      break;
    }
    case OpKind::kOptimStep: {
      if (opt_.adam != nullptr) {
        nn::adam_step(params_, grads_, *opt_.adam, params_.cfg.lr);
      } else {
        nn::sgd_step(params_, grads_, params_.cfg.lr);
      }
      break;
    }
    case OpKind::kRecomputeAttn:
      throw std::logic_error(
          "numerical runtime does not implement full-layer recompute "
          "(AdaPipe is timing-model-only)");
  }
}

namespace {

std::int64_t tensor_bytes(const Tensor& t) noexcept {
  return t.numel() * static_cast<std::int64_t>(sizeof(float));
}

std::int64_t stats_bytes(const tensor::LayerNormStats& s) noexcept {
  return tensor_bytes(s.mean) + tensor_bytes(s.rstd);
}

}  // namespace

std::int64_t Interpreter::live_bytes() const {
  std::int64_t b = 0;
  for (const auto& [key, msg] : slots_) b += comm::message_bytes(msg);
  for (const auto& [key, s] : pre_stash_) b += tensor_bytes(s.x) + stats_bytes(s.stats);
  for (const auto& [key, s] : attn_stash_) b += tensor_bytes(s.ln1) + tensor_bytes(s.wqkv);
  for (const auto& [key, s] : post_stash_) {
    b += tensor_bytes(s.x) + tensor_bytes(s.ctx) + tensor_bytes(s.h1) +
         tensor_bytes(s.ln2) + tensor_bytes(s.a1) + tensor_bytes(s.g1) +
         stats_bytes(s.ln2_stats);
  }
  for (const auto& [key, s] : post_w_stash_) {
    b += tensor_bytes(s.dy) + tensor_bytes(s.da1) + tensor_bytes(s.dln2) +
         tensor_bytes(s.dh1);
  }
  for (const auto& [key, t] : dqkv_stash_) b += tensor_bytes(t);
  for (const auto& [key, t] : pre_dln1_stash_) b += tensor_bytes(t);
  for (const auto& [mb, p] : head_w_stash_) {
    b += tensor_bytes(p.first) + tensor_bytes(p.second);
  }
  return b;
}

void Interpreter::sync_memory(const Op& op) {
  using obs::LiveItemKind;
  using obs::live_item_key;
  obs::MemoryTracker& tracker = *opt_.memory;
  // Build the snapshot category-by-category in the containers' iteration
  // order; live_item_key makes that order key-sorted, as sync() requires.
  // Exactly mirrors the containers live_bytes() walks.
  std::vector<obs::LiveItem>& live = tracker.scratch();
  live.clear();
  const auto push = [&live](std::uint64_t key, std::int64_t bytes) {
    if (bytes > 0) live.push_back({key, bytes});
  };
  for (const auto& [key, msg] : slots_) {
    push(live_item_key(LiveItemKind::kSlot, static_cast<int>(std::get<0>(key)),
                       std::get<1>(key), std::get<2>(key)),
         comm::message_bytes(msg));
  }
  for (const auto& [key, s] : pre_stash_) {
    push(live_item_key(LiveItemKind::kPreStash, 0, key.mb, key.layer),
         tensor_bytes(s.x) + stats_bytes(s.stats));
  }
  for (const auto& [key, s] : attn_stash_) {
    push(live_item_key(LiveItemKind::kAttnStash, 0, key.mb, key.layer),
         tensor_bytes(s.ln1) + tensor_bytes(s.wqkv));
  }
  for (const auto& [key, s] : post_stash_) {
    push(live_item_key(LiveItemKind::kPostStash, 0, key.mb, key.layer),
         tensor_bytes(s.x) + tensor_bytes(s.ctx) + tensor_bytes(s.h1) +
             tensor_bytes(s.ln2) + tensor_bytes(s.a1) + tensor_bytes(s.g1) +
             stats_bytes(s.ln2_stats));
  }
  for (const auto& [key, s] : post_w_stash_) {
    push(live_item_key(LiveItemKind::kPostWStash, 0, key.mb, key.layer),
         tensor_bytes(s.dy) + tensor_bytes(s.da1) + tensor_bytes(s.dln2) +
             tensor_bytes(s.dh1));
  }
  for (const auto& [key, t] : dqkv_stash_) {
    push(live_item_key(LiveItemKind::kDqkvStash, 0, key.mb, key.layer),
         tensor_bytes(t));
  }
  for (const auto& [key, t] : pre_dln1_stash_) {
    push(live_item_key(LiveItemKind::kPreDln1Stash, 0, key.mb, key.layer),
         tensor_bytes(t));
  }
  for (const auto& [mb, p] : head_w_stash_) {
    push(live_item_key(LiveItemKind::kHeadWStash, 0, mb, -1),
         tensor_bytes(p.first) + tensor_bytes(p.second));
  }
  tracker.set_context(op.kind, op.mb, op.layer);
  tracker.sync(live);
}

void Interpreter::exec_traced(const Op& op, std::uint64_t tid) {
  // Recv blocked-wait is measured by the comm layer; snapshot its counter
  // around the op so the span carries exactly this op's blocked portion.
  // Under the async engine the exposed wait surfaces inside the *consuming*
  // compute op (take_slot drains the handle there), so that is the span it
  // lands on.
  const std::int64_t wait_before =
      opt_.comm_metrics != nullptr ? opt_.comm_metrics->recv_wait_exposed_ns.value
                                   : 0;
  const std::int64_t t0 = obs::now_ns();
  exec(op);
  const std::int64_t t1 = obs::now_ns();

  obs::Span span;
  span.kind = op.kind;
  span.stage = static_cast<std::int16_t>(rank_);
  span.mb = op.mb;
  span.layer = op.layer;
  span.start_ns = t0;
  span.end_ns = t1;
  span.wait_ns = opt_.comm_metrics != nullptr
                     ? opt_.comm_metrics->recv_wait_exposed_ns.value - wait_before
                     : 0;
  span.tid = tid;
  if (opt_.spans != nullptr) opt_.spans->record(span);

  if (opt_.runtime_metrics != nullptr) {
    opt_.runtime_metrics->ops_executed.inc();
    (core::is_comm(op.kind) ? opt_.runtime_metrics->comm_op_ns
                            : opt_.runtime_metrics->compute_ns)
        .add(t1 - t0);
    obs::Gauge& live = opt_.runtime_metrics->live_tensor_bytes;
    const std::int64_t prev_peak = live.high_water;
    live.set(live_bytes());
    if (opt_.flight != nullptr && live.high_water > prev_peak) {
      opt_.flight->record(obs::FlightEventType::kLivePeak, op.kind, op.mb,
                          op.layer, -1, -1, live.high_water, obs::now_ns());
    }
  }
  if (opt_.memory != nullptr) sync_memory(op);
}

void Interpreter::do_op(const Op& op, bool traced, std::uint64_t tid) {
  HELIX_PROF_SCOPE("runtime.exec");
  if (opt_.flight != nullptr) {
    opt_.flight->record(obs::FlightEventType::kOpStart, op.kind, op.mb,
                        op.layer, op.peer, op.tag, 0, obs::now_ns());
  }
  if (traced) {
    exec_traced(op, tid);
  } else {
    exec(op);
  }
  // Retirement is this rank's progress heartbeat: the watchdog samples
  // ops_retired, and last_op names what the rank finished before it stalled.
  const std::int64_t t_retire =
      (opt_.flight != nullptr || opt_.health != nullptr) ? obs::now_ns() : 0;
  if (opt_.flight != nullptr) {
    opt_.flight->record(obs::FlightEventType::kOpRetire, op.kind, op.mb,
                        op.layer, op.peer, op.tag, 0, t_retire);
  }
  if (opt_.health != nullptr) {
    opt_.health->last_op.store(
        obs::pack_flight_meta(obs::FlightEventType::kOpRetire, op.kind, op.mb,
                              op.layer, op.peer),
        std::memory_order_relaxed);
    opt_.health->ops_retired.fetch_add(1, std::memory_order_relaxed);
    opt_.health->last_progress_ns.store(t_retire, std::memory_order_relaxed);
  }
}

void Interpreter::prepare_async() {
  const core::OpId* prog = compiled_.program_begin(rank_);
  const std::size_t psize = compiled_.program_size(rank_);
  recv_queue_.clear();
  pending_sends_.clear();
  next_recv_ = 0;
  for (std::size_t i = 0; i < psize; ++i) {
    const OpKind k = compiled_.kind[static_cast<std::size_t>(prog[i])];
    if (k == OpKind::kRecv) recv_queue_.push_back(i);
    if (k == OpKind::kSend) pending_sends_.push_back(i);
  }
}

void Interpreter::prefetch_recvs(std::size_t i, bool traced, std::uint64_t tid) {
  const core::OpId* prog = compiled_.program_begin(rank_);
  const std::size_t psize = compiled_.program_size(rank_);
  // Window semantics: lookahead w posts every Recv at program index <= i+w
  // before op i executes; negative means the whole program (all up front).
  const std::size_t limit =
      opt_.recv_lookahead < 0
          ? psize
          : std::min(psize,
                     i + static_cast<std::size_t>(opt_.recv_lookahead) + 1);
  while (next_recv_ < recv_queue_.size() && recv_queue_[next_recv_] < limit) {
    do_op(compiled_.op(prog[recv_queue_[next_recv_]]), traced, tid);
    ++next_recv_;
  }
}

void Interpreter::post_ready_sends(bool traced, std::uint64_t tid) {
  const core::OpId* prog = compiled_.program_begin(rank_);
  // Post every Send whose value slot has been produced — i.e. as soon as
  // the producing compute op finished, not at the Send's program position
  // (which may sit behind unrelated compute, e.g. the two-fold generator's
  // fold-batched send blocks). In-program order among the ready ones keeps
  // same-destination posts FIFO.
  std::size_t kept = 0;
  for (std::size_t r = 0; r < pending_sends_.size(); ++r) {
    const Op& op = compiled_.op(prog[pending_sends_[r]]);
    if (slots_.find(std::make_tuple(op.slot, op.mb, op.layer)) != slots_.end()) {
      do_op(op, traced, tid);
    } else {
      pending_sends_[kept++] = pending_sends_[r];
    }
  }
  pending_sends_.resize(kept);
}

IterationMetrics Interpreter::run() {
  HELIX_PROF_SCOPE("runtime.run");
  const core::OpId* prog = compiled_.program_begin(rank_);
  const std::size_t psize = compiled_.program_size(rank_);
  HELIX_PROF_COUNT("runtime.ops", psize);
  const bool traced = opt_.spans != nullptr || opt_.runtime_metrics != nullptr ||
                      opt_.memory != nullptr;
  const std::uint64_t tid =
      traced ? std::hash<std::thread::id>{}(std::this_thread::get_id()) : 0;
  if (traced && opt_.spans != nullptr) opt_.spans->reserve(psize);
  if (!opt_.async_comm) {
    for (std::size_t i = 0; i < psize; ++i) do_op(compiled_.op(prog[i]), traced, tid);
    return metrics_;
  }
  // Async engine: comm ops execute (post) at the earliest legal moment and
  // are skipped at their program position; compute ops still run in exact
  // program order, so numerics match the blocking engine bit-for-bit.
  prepare_async();
  for (std::size_t i = 0; i < psize; ++i) {
    prefetch_recvs(i, traced, tid);
    const Op& op = compiled_.op(prog[i]);
    if (op.kind == OpKind::kRecv) continue;  // posted by the prefetch window
    if (op.kind == OpKind::kSend) {
      // Normally posted eagerly by post_ready_sends; the fallback covers a
      // Send fed directly by a Recv (slot still in a handle at this point).
      if (!pending_sends_.empty() && pending_sends_.front() == i) {
        do_op(op, traced, tid);
        pending_sends_.erase(pending_sends_.begin());
      }
      continue;
    }
    do_op(op, traced, tid);
    post_ready_sends(traced, tid);
  }
  return metrics_;
}

}  // namespace helix::runtime
