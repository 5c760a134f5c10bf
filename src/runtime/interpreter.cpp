#include "runtime/interpreter.h"

#include <algorithm>
#include <functional>
#include <string>
#include <thread>
#include <tuple>

#include "obs/clock.h"
#include "obs/health.h"
#include "obs/memory.h"
#include "obs/prof.h"

namespace helix::runtime {

using core::DataSlot;
using core::Op;
using core::OpKind;
using nn::param_name;

namespace {

// Bytes a slot or stash value holds: each stash type's formula, written once.
std::int64_t bytes_of(const Tensor& t) noexcept {
  return t.numel() * static_cast<std::int64_t>(sizeof(float));
}
std::int64_t bytes_of(const tensor::LayerNormStats& s) noexcept {
  return bytes_of(s.mean) + bytes_of(s.rstd);
}
std::int64_t bytes_of(const comm::Message& msg) noexcept {
  return comm::message_bytes(msg);
}
std::int64_t bytes_of(const nn::PreStash& s) noexcept {
  return bytes_of(s.x) + bytes_of(s.stats);
}
std::int64_t bytes_of(const nn::AttnStash& s) noexcept {
  return bytes_of(s.ln1) + bytes_of(s.wqkv);
}
std::int64_t bytes_of(const nn::PostStash& s) noexcept {
  return bytes_of(s.x) + bytes_of(s.ctx) + bytes_of(s.h1) + bytes_of(s.ln2) +
         bytes_of(s.a1) + bytes_of(s.g1) + bytes_of(s.ln2_stats);
}
std::int64_t bytes_of(const nn::PostWStash& s) noexcept {
  return bytes_of(s.dy) + bytes_of(s.da1) + bytes_of(s.dln2) + bytes_of(s.dh1);
}
std::int64_t bytes_of(const std::pair<Tensor, Tensor>& p) noexcept {
  return bytes_of(p.first) + bytes_of(p.second);
}

// Container keys, for error messages.
std::string describe(const std::tuple<DataSlot, int, int>& k) {
  return " " + std::to_string(static_cast<int>(std::get<0>(k))) +
         " mb=" + std::to_string(std::get<1>(k)) +
         " layer=" + std::to_string(std::get<2>(k));
}
std::string describe(int mb) { return " mb=" + std::to_string(mb); }
template <class Key>
std::string describe(const Key& k) {
  return " mb=" + std::to_string(k.mb) + " layer=" + std::to_string(k.layer);
}

}  // namespace

Interpreter::Interpreter(const core::CompiledSchedule& schedule, int rank,
                         comm::Endpoint& comm, nn::ModelParams& params,
                         const nn::Batch& batch, InterpreterOptions options)
    : compiled_(schedule), rank_(rank), comm_(comm), params_(params),
      batch_(batch), opt_(options),
      recompute_(std::ranges::any_of(schedule.schedule().ops, [](const Op& op) {
        return op.kind == OpKind::kRecomputePre || op.kind == OpKind::kRecomputePost;
      })) {}

template <class Map>
void Interpreter::put(Map& map, const typename Map::key_type& key,
                      typename Map::mapped_type value, const char* what) {
  const std::int64_t bytes = bytes_of(value);
  if (!map.emplace(key, std::move(value)).second) {
    throw std::logic_error("rank " + std::to_string(rank_) + ": " + what +
                           describe(key) + " written twice");
  }
  live_bytes_ += bytes;
}

template <class Map>
typename Map::mapped_type Interpreter::take(Map& map,
                                            const typename Map::key_type& key,
                                            const char* what) {
  const auto it = map.find(key);
  if (it == map.end()) {
    throw std::logic_error("rank " + std::to_string(rank_) + ": missing " + what +
                           describe(key));
  }
  typename Map::mapped_type value = std::move(it->second);
  map.erase(it);
  live_bytes_ -= bytes_of(value);
  return value;
}

comm::Message Interpreter::take_slot(DataSlot slot, int mb, int layer) {
  const auto key = std::make_tuple(slot, mb, layer);
  // Async engine: a received value may still be in flight as a prefetched
  // recv — drain the handle here, at actual consumption, so any residual
  // block lands on the consuming op (recv_wait_exposed_ns) instead of at the
  // Recv's program position.
  if (const auto hit = recv_handles_.find(key); hit != recv_handles_.end()) {
    comm::RecvHandle handle = std::move(hit->second);
    recv_handles_.erase(hit);
    return handle.wait();
  }
  return take(slots_, key, "value slot");
}

void Interpreter::put_slot(DataSlot slot, int mb, int layer, comm::Message msg) {
  put(slots_, std::make_tuple(slot, mb, layer), std::move(msg), "value slot");
}

void Interpreter::exec(const Op& op) {
  const int mb = op.mb;
  const int l = op.layer;
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
      // Combo-0 stash (Section 4.4.1).
      if (recompute_) put(pre_stash_, {mb, 0}, {.x = x, .stats = {}}, "pre stash");
      put_slot(DataSlot::kFwdBoundary, mb, 0, comm::make_message(std::move(x)));
      break;
    }
    case OpKind::kFwdPre: {
      comm::Message in = take_slot(DataSlot::kFwdBoundary, mb, l);
      Tensor x = std::move(in[0]);
      const nn::LayerParams& p = params_.layers[static_cast<std::size_t>(l)];
      nn::PreStash stash;
      Tensor ln1 = nn::pre_forward(x, p, &stash);
      if (!recompute_) put(pre_stash_, {mb, l}, std::move(stash), "pre stash");
      // Ship {residual, LN output, QKV weights} (Section 4.2).
      put_slot(DataSlot::kPreToAttn, mb, l, comm::make_message(std::move(x), std::move(ln1), p.wqkv));
      break;
    }
    case OpKind::kFwdAttn: {
      comm::Message in = take_slot(DataSlot::kPreToAttn, mb, l);
      nn::AttnStash stash;
      Tensor ctx = nn::attn_forward(in[1], in[2], params_.cfg, &stash);
      put(attn_stash_, {mb, l}, std::move(stash), "attn stash");
      put_slot(DataSlot::kAttnToPost, mb, l, comm::make_message(std::move(in[0]), std::move(ctx)));
      break;
    }
    case OpKind::kFwdPost: {
      comm::Message in = take_slot(DataSlot::kAttnToPost, mb, l);
      const nn::LayerParams& p = params_.layers[static_cast<std::size_t>(l)];
      nn::PostStash stash;
      Tensor y = nn::post_forward(in[0], in[1], p, opt_.mlp_chunks,
                                  /*keep_intermediates=*/!recompute_, &stash);
      put(post_stash_, {mb, l}, std::move(stash), "post stash");
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
        put(head_w_stash_, mb, {in[0], std::move(dlogits)}, "head W stash");
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
      nn::PostStash stash = take(post_stash_, {mb, l}, "post stash");
      Tensor y = nn::post_recompute(p, opt_.mlp_chunks, stash);
      put(post_stash_, {mb, l}, std::move(stash), "post stash");
      // The recomputed output is the next pre-attention's input; the last
      // layer's output feeds only the LM head, whose backward already ran.
      if (l + 1 < compiled_.num_layers) {
        put(pre_stash_, {mb, l + 1}, {.x = std::move(y), .stats = {}}, "pre stash");
      }
      break;
    }
    case OpKind::kRecomputePre: {
      nn::PreStash stash = take(pre_stash_, {mb, l}, "pre stash");
      const nn::LayerParams& p = params_.layers[static_cast<std::size_t>(l)];
      (void)tensor::layernorm_forward(stash.x, p.ln1_g, p.ln1_b, &stash.stats);
      put(pre_stash_, {mb, l}, std::move(stash), "pre stash");
      break;
    }
    // Backward ops take their forward stash; a decoupled backward-B puts it
    // back for the deferred backward-W, next to the gradients it stashes.
    case OpKind::kBwdPost: {
      comm::Message in = take_slot(DataSlot::kBwdBoundary, mb, l);
      const nn::LayerParams& p = params_.layers[static_cast<std::size_t>(l)];
      nn::PostStash stash = take(post_stash_, {mb, l}, "post stash");
      if (op.combines_w) {
        nn::PostBackwardResult r =
            nn::post_backward(in[0], p, opt_.mlp_chunks, stash);
        grads_.accumulate(param_name(l, "wo"), mb, std::move(r.dwo));
        grads_.accumulate(param_name(l, "ln2_g"), mb, std::move(r.dln2_g));
        grads_.accumulate(param_name(l, "ln2_b"), mb, std::move(r.dln2_b));
        grads_.accumulate(param_name(l, "w1"), mb, std::move(r.dw1));
        grads_.accumulate(param_name(l, "w2"), mb, std::move(r.dw2));
        put_slot(DataSlot::kGradToAttn, mb, l, comm::make_message(std::move(r.dx), std::move(r.dctx)));
      } else {
        nn::PostBackwardBResult r =
            nn::post_backward_b(in[0], p, opt_.mlp_chunks, stash);
        put(post_stash_, {mb, l}, std::move(stash), "post stash");
        put(post_w_stash_, {mb, l}, std::move(r.w), "post W stash");
        put_slot(DataSlot::kGradToAttn, mb, l, comm::make_message(std::move(r.dx), std::move(r.dctx)));
      }
      break;
    }
    case OpKind::kBwdAttn: {
      comm::Message in = take_slot(DataSlot::kGradToAttn, mb, l);
      nn::AttnStash stash = take(attn_stash_, {mb, l}, "attn stash");
      if (op.combines_w) {
        nn::AttnBackwardResult r = nn::attn_backward(in[1], stash, params_.cfg);
        put_slot(DataSlot::kGradToPre, mb, l,
                 comm::make_message(std::move(in[0]), std::move(r.dln1), std::move(r.dwqkv)));
      } else {
        nn::AttnBackwardBResult r = nn::attn_backward_b(in[1], stash, params_.cfg);
        put(attn_stash_, {mb, l}, std::move(stash), "attn stash");
        put(dqkv_stash_, {mb, l}, std::move(r.dqkv), "dqkv stash");
        // dWqkv placeholder: empty tensor signals "deferred" to BwdPre.
        put_slot(DataSlot::kGradToPre, mb, l,
                 comm::make_message(std::move(in[0]), std::move(r.dln1), Tensor{}));
      }
      break;
    }
    case OpKind::kBwdPre: {
      comm::Message in = take_slot(DataSlot::kGradToPre, mb, l);
      const nn::LayerParams& p = params_.layers[static_cast<std::size_t>(l)];
      nn::PreStash stash = take(pre_stash_, {mb, l}, "pre stash");
      if (op.combines_w) {
        if (!in[2].empty()) grads_.accumulate(param_name(l, "wqkv"), mb, std::move(in[2]));
        nn::PreBackwardResult r =
            nn::pre_backward(in[1], in[0], stash.x, stash.stats, p);
        grads_.accumulate(param_name(l, "ln1_g"), mb, std::move(r.dln1_g));
        grads_.accumulate(param_name(l, "ln1_b"), mb, std::move(r.dln1_b));
        put_slot(DataSlot::kBwdBoundary, mb, l - 1, comm::make_message(std::move(r.dx)));
      } else {
        Tensor dx = nn::pre_backward_b(in[1], in[0], stash.x, stash.stats, p);
        put(pre_stash_, {mb, l}, std::move(stash), "pre stash");
        put(pre_dln1_stash_, {mb, l}, std::move(in[1]), "pre dln1 stash");
        put_slot(DataSlot::kBwdBoundary, mb, l - 1, comm::make_message(std::move(dx)));
      }
      break;
    }
    case OpKind::kBwdWPost: {
      const nn::LayerParams& p = params_.layers[static_cast<std::size_t>(l)];
      const nn::PostStash stash = take(post_stash_, {mb, l}, "post stash");
      const nn::PostWStash w = take(post_w_stash_, {mb, l}, "post W stash");
      nn::PostBackwardWResult r =
          nn::post_backward_w(p, stash, w, opt_.mlp_chunks);
      grads_.accumulate(param_name(l, "wo"), mb, std::move(r.dwo));
      grads_.accumulate(param_name(l, "ln2_g"), mb, std::move(r.dln2_g));
      grads_.accumulate(param_name(l, "ln2_b"), mb, std::move(r.dln2_b));
      grads_.accumulate(param_name(l, "w1"), mb, std::move(r.dw1));
      grads_.accumulate(param_name(l, "w2"), mb, std::move(r.dw2));
      break;
    }
    case OpKind::kBwdWPre: {
      const nn::AttnStash attn = take(attn_stash_, {mb, l}, "attn stash");
      const Tensor dqkv = take(dqkv_stash_, {mb, l}, "dqkv stash");
      const nn::PreStash pre = take(pre_stash_, {mb, l}, "pre stash");
      const Tensor dln1 = take(pre_dln1_stash_, {mb, l}, "pre dln1 stash");
      grads_.accumulate(param_name(l, "wqkv"), mb, nn::attn_backward_w(attn, dqkv));
      const tensor::LayerNormParamGrads lng = nn::pre_backward_w(dln1, pre.x, pre.stats);
      grads_.accumulate(param_name(l, "ln1_g"), mb, lng.dgamma);
      grads_.accumulate(param_name(l, "ln1_b"), mb, lng.dbeta);
      break;
    }
    case OpKind::kEmbedBwd: {
      if (!op.combines_w) {
        // Deferred LM-head backward-W on the last stage (ZB1P). Identified
        // by the decoupled flag: with L == 1 its layer (L-1) coincides with
        // the regular embedding backward's layer 0.
        const auto [hidden, dlogits] = take(head_w_stash_, mb, "head W stash");
        grads_.accumulate("wlm", mb, tensor::matmul_tn(hidden, dlogits));
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

void Interpreter::sync_memory(obs::MemoryTracker& tracker, const Op& op) const {
  using obs::LiveItemKind;
  // One walk of the containers in key order; live_item_key orders the
  // categories, so the snapshot is key-sorted, as sync() requires.
  std::vector<obs::LiveItem>& live = tracker.scratch();
  live.clear();
  const auto walk = [&live](LiveItemKind kind, const auto& map, auto key_of) {
    for (const auto& [key, value] : map) {
      const auto [slot, mb, layer] = key_of(key);
      const std::int64_t bytes = bytes_of(value);
      if (bytes > 0) live.push_back({obs::live_item_key(kind, slot, mb, layer), bytes});
    }
  };
  const auto stash_key = [](const Key& k) { return std::tuple{0, k.mb, k.layer}; };
  walk(LiveItemKind::kSlot, slots_, [](const auto& k) {
    return std::tuple{static_cast<int>(std::get<0>(k)), std::get<1>(k), std::get<2>(k)};
  });
  walk(LiveItemKind::kPreStash, pre_stash_, stash_key);
  walk(LiveItemKind::kAttnStash, attn_stash_, stash_key);
  walk(LiveItemKind::kPostStash, post_stash_, stash_key);
  walk(LiveItemKind::kPostWStash, post_w_stash_, stash_key);
  walk(LiveItemKind::kDqkvStash, dqkv_stash_, stash_key);
  walk(LiveItemKind::kPreDln1Stash, pre_dln1_stash_, stash_key);
  walk(LiveItemKind::kHeadWStash, head_w_stash_,
       [](int mb) { return std::tuple{0, mb, -1}; });
  tracker.set_context(op.kind, op.mb, op.layer);
  tracker.sync(live);
}

void Interpreter::do_op(const Op& op) {
  HELIX_PROF_SCOPE("runtime.exec");
  obs::TraceCollector* const trace = opt_.trace;
  obs::FlightRecorder* const flight =
      opt_.health != nullptr ? &opt_.health->recorder(rank_) : nullptr;
  if (flight != nullptr) {
    flight->record(obs::FlightEventType::kOpStart, op.kind, op.mb, op.layer,
                   op.peer, op.tag, 0, obs::now_ns());
  }
  if (trace == nullptr) {
    exec(op);
  } else {
    // Recv blocked-wait is measured by the comm layer; its counter's delta
    // across the op is this op's exposed wait. Under the async engine that
    // wait surfaces inside the *consuming* compute op (take_slot drains the
    // handle there), so that is the span it lands on.
    const obs::Counter& wait = trace->comm(rank_).recv_wait_exposed_ns;
    const std::int64_t wait_before = wait.value;
    obs::Span span;
    span.kind = op.kind;
    span.stage = static_cast<std::int16_t>(rank_);
    span.mb = static_cast<std::int16_t>(op.mb);
    span.layer = static_cast<std::int16_t>(op.layer);
    span.tid = tid_;
    span.start_ns = obs::now_ns();
    exec(op);
    span.end_ns = obs::now_ns();
    span.wait_ns = wait.value - wait_before;
    trace->recorder(rank_).record(span);
    std::int64_t& peak = trace->live_peak(rank_);
    if (live_bytes_ > peak) {
      peak = live_bytes_;
      if (flight != nullptr) {
        flight->record(obs::FlightEventType::kLivePeak, op.kind, op.mb,
                       op.layer, -1, -1, peak, obs::now_ns());
      }
    }
    if (obs::MemoryTracker* tracker = trace->memory(rank_)) {
      sync_memory(*tracker, op);
    }
  }
  if (opt_.health != nullptr) {
    // Retirement is this rank's progress heartbeat: the watchdog samples
    // ops_retired, and last_op names what the rank finished before it
    // stalled.
    const std::int64_t t_retire = obs::now_ns();
    flight->record(obs::FlightEventType::kOpRetire, op.kind, op.mb, op.layer,
                   op.peer, op.tag, 0, t_retire);
    obs::RankHealth& cell = opt_.health->cell(rank_);
    cell.last_op.store(
        obs::pack_flight_meta(obs::FlightEventType::kOpRetire, op.kind, op.mb,
                              op.layer, op.peer),
        std::memory_order_relaxed);
    cell.ops_retired.fetch_add(1, std::memory_order_relaxed);
    cell.last_progress_ns.store(t_retire, std::memory_order_relaxed);
  }
}

void Interpreter::prepare_async() {
  const core::OpId* prog = compiled_.program_begin(rank_);
  const std::size_t psize = compiled_.program_size(rank_);
  recv_queue_.clear();
  pending_sends_.clear();
  next_recv_ = 0;
  for (std::size_t i = 0; i < psize; ++i) {
    const OpKind k = compiled_.op(prog[i]).kind;
    if (k == OpKind::kRecv) recv_queue_.push_back(i);
    if (k == OpKind::kSend) pending_sends_.push_back(i);
  }
}

void Interpreter::prefetch_recvs(std::size_t i) {
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
    do_op(compiled_.op(prog[recv_queue_[next_recv_]]));
    ++next_recv_;
  }
}

void Interpreter::post_ready_sends() {
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
      do_op(op);
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
  if (opt_.trace != nullptr) {
    tid_ = std::hash<std::thread::id>{}(std::this_thread::get_id());
    opt_.trace->recorder(rank_).reserve(psize);
  }
  if (!opt_.async_comm) {
    for (std::size_t i = 0; i < psize; ++i) do_op(compiled_.op(prog[i]));
  } else {
    // Async engine: comm ops execute (post) at the earliest legal moment and
    // are skipped at their program position; compute ops still run in exact
    // program order, so numerics match the blocking engine bit-for-bit.
    prepare_async();
    for (std::size_t i = 0; i < psize; ++i) {
      prefetch_recvs(i);
      const Op& op = compiled_.op(prog[i]);
      if (op.kind == OpKind::kRecv) continue;  // posted by the prefetch window
      if (op.kind == OpKind::kSend) {
        // Normally posted eagerly by post_ready_sends; the fallback covers a
        // Send fed directly by a Recv (slot still in a handle at this point).
        if (!pending_sends_.empty() && pending_sends_.front() == i) {
          do_op(op);
          pending_sends_.erase(pending_sends_.begin());
        }
        continue;
      }
      do_op(op);
      post_ready_sends();
    }
  }
  // Every slot is consumed and every stash taken within the iteration; a
  // value still held here was written for a consumer the program lacks.
  if (live_bytes_ != 0) {
    throw std::logic_error("rank " + std::to_string(rank_) + ": " +
                           std::to_string(live_bytes_) +
                           " bytes of slots and stashes outlive the iteration");
  }
  return metrics_;
}

}  // namespace helix::runtime
