#include "core/ir.h"

#include <stdexcept>

namespace helix::core {

const char* to_string(OpKind k) noexcept {
  switch (k) {
    case OpKind::kEmbedFwd: return "EmbedFwd";
    case OpKind::kFwdPre: return "FwdPre";
    case OpKind::kFwdAttn: return "FwdAttn";
    case OpKind::kFwdPost: return "FwdPost";
    case OpKind::kLmHeadLoss: return "LmHeadLoss";
    case OpKind::kBwdPost: return "BwdPost";
    case OpKind::kBwdAttn: return "BwdAttn";
    case OpKind::kBwdPre: return "BwdPre";
    case OpKind::kBwdWPre: return "BwdWPre";
    case OpKind::kBwdWPost: return "BwdWPost";
    case OpKind::kEmbedBwd: return "EmbedBwd";
    case OpKind::kRecomputePre: return "RecomputePre";
    case OpKind::kRecomputeAttn: return "RecomputeAttn";
    case OpKind::kRecomputePost: return "RecomputePost";
    case OpKind::kSend: return "Send";
    case OpKind::kRecv: return "Recv";
    case OpKind::kOptimStep: return "OptimStep";
  }
  return "?";
}

std::string describe(const Op& op) {
  return std::string(to_string(op.kind)) + "(id=" + std::to_string(op.id) +
         ", stage=" + std::to_string(op.stage) + ", mb=" + std::to_string(op.mb) +
         ", layer=" + std::to_string(op.layer) + ")";
}

std::vector<const Op*> Schedule::op_index() const {
  std::vector<const Op*> idx(total_ops(), nullptr);
  for (const auto& ops : stage_ops) {
    for (const auto& op : ops) {
      if (op.id >= 0 && static_cast<std::size_t>(op.id) < idx.size()) {
        idx[op.id] = &op;
      }
    }
  }
  return idx;
}

ScheduleBuilder::ScheduleBuilder(std::string name, int num_stages,
                                 int num_micro_batches, int num_layers) {
  if (num_stages < 1) throw std::invalid_argument("num_stages must be >= 1");
  sched_.name = std::move(name);
  sched_.num_stages = num_stages;
  sched_.num_micro_batches = num_micro_batches;
  sched_.num_layers = num_layers;
  sched_.stage_ops.resize(num_stages);
}

OpId ScheduleBuilder::add(OpKind kind, int stage, int mb, int layer,
                          std::vector<OpId> deps) {
  if (stage < 0 || stage >= sched_.num_stages) {
    throw std::out_of_range("stage out of range");
  }
  Op op;
  op.id = next_id_++;
  op.kind = kind;
  op.stage = static_cast<std::int16_t>(stage);
  op.mb = static_cast<std::int16_t>(mb);
  op.layer = static_cast<std::int16_t>(layer);
  op.deps = std::move(deps);
  locator_.emplace_back(stage, static_cast<int>(sched_.stage_ops[stage].size()));
  sched_.stage_ops[stage].push_back(std::move(op));
  last_ = next_id_ - 1;
  return last_;
}

Op& ScheduleBuilder::op(OpId id) {
  if (id < 0 || id >= next_id_) throw std::out_of_range("bad op id");
  auto [stage, index] = locator_[static_cast<std::size_t>(id)];
  return sched_.stage_ops[stage][static_cast<std::size_t>(index)];
}

ScheduleBuilder& ScheduleBuilder::with_memory(std::int64_t alloc,
                                              std::int64_t free_bytes,
                                              std::int64_t transient) {
  Op& o = op(last_);
  o.alloc_bytes = alloc;
  o.free_bytes = free_bytes;
  o.transient_bytes = transient;
  return *this;
}

ScheduleBuilder& ScheduleBuilder::decoupled() {
  op(last_).combines_w = false;
  return *this;
}

OpId ScheduleBuilder::add_transfer(int src, int dst, std::int64_t elems,
                                   OpId producer, int mb, int layer,
                                   DataSlot slot) {
  const PendingTransfer t = add_send(src, dst, elems, producer, mb, layer, slot);
  return add_recv(t);
}

ScheduleBuilder::PendingTransfer ScheduleBuilder::add_send(
    int src, int dst, std::int64_t elems, OpId producer, int mb, int layer,
    DataSlot slot) {
  if (src == dst) throw std::invalid_argument("transfer src == dst");
  PendingTransfer t;
  t.tag = next_tag_++;
  t.src = src;
  t.dst = dst;
  t.elems = elems;
  t.mb = mb;
  t.layer = layer;
  t.slot = slot;
  t.send = add(OpKind::kSend, src, mb, layer,
               producer == kNoOp ? std::vector<OpId>{}
                                 : std::vector<OpId>{producer});
  Op& s = op(t.send);
  s.peer = static_cast<std::int16_t>(dst);
  s.tag = t.tag;
  s.comm_elems = elems;
  s.slot = slot;
  return t;
}

OpId ScheduleBuilder::add_recv(const PendingTransfer& t) {
  const OpId recv = add(OpKind::kRecv, t.dst, t.mb, t.layer);
  Op& r = op(recv);
  r.peer = static_cast<std::int16_t>(t.src);
  r.tag = t.tag;
  r.comm_elems = t.elems;
  r.slot = t.slot;
  return recv;
}

OpId ScheduleBuilder::add_optim_step(int stage) {
  if (stage < 0 || stage >= sched_.num_stages) {
    throw std::out_of_range("stage out of range");
  }
  std::vector<OpId> deps;
  for (const Op& o : sched_.stage_ops[static_cast<std::size_t>(stage)]) {
    if (produces_grad(o.kind)) deps.push_back(o.id);
  }
  return add(OpKind::kOptimStep, stage, -1, -1, std::move(deps));
}

Schedule ScheduleBuilder::finish() && { return std::move(sched_); }

}  // namespace helix::core
