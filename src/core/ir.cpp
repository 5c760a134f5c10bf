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

DepLists pack_deps(const Schedule& sched) {
  const std::size_t n = sched.ops.size();
  const auto known = [n](OpId id) { return id >= 0 && static_cast<std::size_t>(id) < n; };
  DepLists out;
  out.offset.assign(n + 1, 0);
  for (const Dep& d : sched.deps) {
    if (known(d.op)) ++out.offset[static_cast<std::size_t>(d.op) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) out.offset[i + 1] += out.offset[i];
  out.edges.resize(out.offset[n]);
  std::vector<std::uint32_t> at(out.offset.begin(), out.offset.end() - 1);
  for (const Dep& d : sched.deps) {
    if (known(d.op)) out.edges[at[static_cast<std::size_t>(d.op)]++] = d.dep;
  }
  return out;
}

std::string store_fault(const Schedule& sched) {
  const std::size_t n = sched.ops.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (sched.ops[i].id != static_cast<OpId>(i)) {
      return describe(sched.ops[i]) + " is stored at index " + std::to_string(i);
    }
  }
  if (sched.num_stages < 0 ||
      sched.programs.size() != static_cast<std::size_t>(sched.num_stages)) {
    return "num_stages is " + std::to_string(sched.num_stages) +
           " but the schedule holds " + std::to_string(sched.programs.size()) +
           " stage programs";
  }
  std::vector<int> home(n, -1);  // the program holding each op
  for (std::size_t s = 0; s < sched.programs.size(); ++s) {
    for (const OpId id : sched.programs[s]) {
      if (id < 0 || static_cast<std::size_t>(id) >= n) {
        return "stage " + std::to_string(s) + "'s program holds op id " +
               std::to_string(id) + " outside [0, " + std::to_string(n) + ")";
      }
      const Op& op = sched.ops[static_cast<std::size_t>(id)];
      int& h = home[static_cast<std::size_t>(id)];
      if (h >= 0) {
        return describe(op) + " sits in stage " + std::to_string(h) +
               "'s program and again in stage " + std::to_string(s) + "'s";
      }
      h = static_cast<int>(s);
      if (op.stage != static_cast<int>(s)) {
        return describe(op) + " sits in stage " + std::to_string(s) + "'s program";
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (home[i] < 0) return describe(sched.ops[i]) + " sits in no stage program";
  }
  for (const Dep& d : sched.deps) {
    if (d.op < 0 || static_cast<std::size_t>(d.op) >= n) {
      return "a dependency on op id " + std::to_string(d.dep) +
             " names unknown op id " + std::to_string(d.op);
    }
    if (d.dep < 0 || static_cast<std::size_t>(d.dep) >= n) {
      return describe(sched.ops[static_cast<std::size_t>(d.op)]) +
             " depends on unknown op id " + std::to_string(d.dep);
    }
  }
  return {};
}

ScheduleBuilder::ScheduleBuilder(std::string name, int num_stages,
                                 int num_micro_batches, int num_layers) {
  if (num_stages < 1) throw std::invalid_argument("num_stages must be >= 1");
  sched_.name = std::move(name);
  sched_.num_stages = num_stages;
  sched_.num_micro_batches = num_micro_batches;
  sched_.num_layers = num_layers;
  sched_.programs.resize(num_stages);
}

OpId ScheduleBuilder::add(OpKind kind, int stage, int mb, int layer,
                          std::span<const OpId> deps) {
  if (stage < 0 || stage >= sched_.num_stages) {
    throw std::out_of_range("stage out of range");
  }
  Op& op = sched_.ops.emplace_back();
  op.id = static_cast<OpId>(sched_.ops.size() - 1);
  op.kind = kind;
  op.stage = static_cast<std::int16_t>(stage);
  op.mb = static_cast<std::int16_t>(mb);
  op.layer = static_cast<std::int16_t>(layer);
  sched_.programs[static_cast<std::size_t>(stage)].push_back(op.id);
  for (const OpId d : deps) sched_.deps.push_back({op.id, d});
  return op.id;
}

void ScheduleBuilder::add_dep(OpId op, OpId dep) {
  if (op < 0 || static_cast<std::size_t>(op) >= sched_.ops.size()) {
    throw std::out_of_range("bad op id");
  }
  sched_.deps.push_back({op, dep});
}

Op& ScheduleBuilder::last() {
  if (sched_.ops.empty()) throw std::out_of_range("no op added yet");
  return sched_.ops.back();
}

ScheduleBuilder& ScheduleBuilder::with_memory(std::int64_t alloc,
                                              std::int64_t free_bytes,
                                              std::int64_t transient) {
  Op& o = last();
  o.alloc_bytes = alloc;
  o.free_bytes = free_bytes;
  o.transient_bytes = transient;
  return *this;
}

ScheduleBuilder& ScheduleBuilder::decoupled() {
  last().combines_w = false;
  return *this;
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
               std::span<const OpId>(&producer, producer == kNoOp ? 0 : 1));
  Op& s = last();
  s.peer = static_cast<std::int16_t>(dst);
  s.tag = t.tag;
  s.comm_elems = elems;
  s.slot = slot;
  return t;
}

OpId ScheduleBuilder::add_recv(const PendingTransfer& t) {
  const OpId recv = add(OpKind::kRecv, t.dst, t.mb, t.layer);
  Op& r = last();
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
  const OpId optim = add(OpKind::kOptimStep, stage, -1, -1);
  const std::vector<OpId>& program = sched_.programs[static_cast<std::size_t>(stage)];
  for (std::size_t i = 0; i + 1 < program.size(); ++i) {
    const OpId id = program[i];
    if (produces_grad(sched_.ops[static_cast<std::size_t>(id)].kind)) add_dep(optim, id);
  }
  return optim;
}

Schedule ScheduleBuilder::finish() && { return std::move(sched_); }

}  // namespace helix::core
