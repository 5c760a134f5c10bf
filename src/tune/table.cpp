#include "tune/table.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "core/validator.h"

namespace helix::tune {

using core::Op;
using core::OpId;
using core::OpKind;

CellKind classify(OpKind k) noexcept {
  switch (k) {
    case OpKind::kEmbedFwd:
    case OpKind::kFwdPre:
    case OpKind::kFwdAttn:
    case OpKind::kFwdPost:
      return CellKind::kForward;
    case OpKind::kLmHeadLoss:
    case OpKind::kBwdPost:
    case OpKind::kBwdAttn:
    case OpKind::kBwdPre:
    case OpKind::kEmbedBwd:
      return CellKind::kBackwardB;
    case OpKind::kBwdWPre:
    case OpKind::kBwdWPost:
      return CellKind::kBackwardW;
    case OpKind::kRecomputePre:
    case OpKind::kRecomputeAttn:
    case OpKind::kRecomputePost:
      return CellKind::kRecompute;
    case OpKind::kSend:
    case OpKind::kRecv:
      return CellKind::kComm;
    case OpKind::kOptimStep:
      return CellKind::kOptim;
  }
  return CellKind::kForward;
}

const char* to_string(CellKind k) noexcept {
  switch (k) {
    case CellKind::kForward:
      return "F";
    case CellKind::kBackwardB:
      return "B";
    case CellKind::kBackwardW:
      return "W";
    case CellKind::kRecompute:
      return "R";
    case CellKind::kComm:
      return "C";
    case CellKind::kOptim:
      return "O";
  }
  return "?";
}

Table Table::lift(const core::Schedule& sched) {
  Table t;
  t.name_ = sched.name;
  t.num_micro_batches_ = sched.num_micro_batches;
  t.num_layers_ = sched.num_layers;
  t.rows_.resize(sched.stage_ops.size());

  const std::size_t total = sched.total_ops();
  t.pos_.assign(total, CellRef{});
  t.succ_.assign(total, {});
  std::vector<bool> seen(total, false);

  // Send id per rendezvous tag, to add the send->recv edges below.
  std::map<std::int32_t, OpId> send_by_tag;

  for (std::size_t r = 0; r < sched.stage_ops.size(); ++r) {
    auto& row = t.rows_[r];
    row.reserve(sched.stage_ops[r].size());
    for (const Op& op : sched.stage_ops[r]) {
      if (op.id < 0 || static_cast<std::size_t>(op.id) >= total ||
          seen[static_cast<std::size_t>(op.id)]) {
        throw std::invalid_argument(
            "tune::Table::lift: schedule \"" + sched.name +
            "\" does not have dense unique op ids (op id " +
            std::to_string(op.id) + " of " + std::to_string(total) + " ops)");
      }
      seen[static_cast<std::size_t>(op.id)] = true;
      t.pos_[static_cast<std::size_t>(op.id)] =
          CellRef{static_cast<int>(r), static_cast<int>(row.size())};
      row.push_back(Cell{op, classify(op.kind)});
      if (op.kind == OpKind::kSend && op.tag >= 0) send_by_tag[op.tag] = op.id;
    }
  }

  for (const auto& row : t.rows_) {
    for (const Cell& c : row) {
      for (const OpId d : c.op.deps) {
        if (d < 0 || static_cast<std::size_t>(d) >= total) {
          throw std::invalid_argument(
              "tune::Table::lift: op " + std::to_string(c.op.id) +
              " depends on unknown op " + std::to_string(d));
        }
        t.succ_[static_cast<std::size_t>(d)].push_back(c.op.id);
      }
      if (c.op.kind == OpKind::kRecv && c.op.tag >= 0) {
        const auto it = send_by_tag.find(c.op.tag);
        if (it != send_by_tag.end()) {
          t.succ_[static_cast<std::size_t>(it->second)].push_back(c.op.id);
        }
      }
    }
  }

  // Materialize the validator's ordering constraints — which generators
  // encode through stream order alone — as implicit succ_ edges. They only
  // constrain mutation (lower() never emits them), and they make every swap
  // the reachability check admits semantics-preserving by construction, not
  // just acyclic.
  for (const auto& [a, b] : core::semantic_order_edges(sched)) {
    t.succ_[static_cast<std::size_t>(a)].push_back(b);
  }

  t.visit_mark_.assign(total, 0);
  t.visit_queue_.reserve(total);
  return t;
}

core::Schedule Table::lower() const {
  core::Schedule out;
  out.name = name_;
  out.num_stages = ranks();
  out.num_micro_batches = num_micro_batches_;
  out.num_layers = num_layers_;
  out.stage_ops.resize(rows_.size());
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    out.stage_ops[r].reserve(rows_[r].size());
    for (const Cell& c : rows_[r]) out.stage_ops[r].push_back(c.op);
  }
  return out;
}

std::optional<CellRef> Table::find(OpId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= pos_.size()) return std::nullopt;
  return pos_[static_cast<std::size_t>(id)];
}

bool Table::reaches_excluding_stream_edge(OpId from, OpId to) const {
  // BFS over the dependency graph: static successors (deps, send->recv) plus
  // the dynamic stream-successor of every visited op — except the direct
  // from->to stream edge, which is exactly the edge the swap would reverse.
  ++visit_epoch_;
  if (visit_epoch_ == 0) {  // epoch counter wrapped: reset marks once
    std::fill(visit_mark_.begin(), visit_mark_.end(), 0);
    visit_epoch_ = 1;
  }
  visit_queue_.clear();

  const auto push = [&](OpId id) {
    auto& mark = visit_mark_[static_cast<std::size_t>(id)];
    if (mark == visit_epoch_) return;
    mark = visit_epoch_;
    visit_queue_.push_back(id);
  };

  const auto expand = [&](OpId id, bool skip_stream_edge) {
    for (const OpId s : succ_[static_cast<std::size_t>(id)]) push(s);
    const CellRef at = pos_[static_cast<std::size_t>(id)];
    const auto& row = rows_[static_cast<std::size_t>(at.rank)];
    if (at.slot + 1 < static_cast<int>(row.size())) {
      const OpId next = row[static_cast<std::size_t>(at.slot + 1)].op.id;
      if (!(skip_stream_edge && next == to)) push(next);
    }
  };

  expand(from, /*skip_stream_edge=*/true);
  for (std::size_t head = 0; head < visit_queue_.size(); ++head) {
    const OpId cur = visit_queue_[head];
    if (cur == to) return true;
    expand(cur, /*skip_stream_edge=*/false);
  }
  return false;
}

bool Table::can_swap(int rank, int slot) const {
  if (rank < 0 || rank >= ranks()) return false;
  const auto& row = rows_[static_cast<std::size_t>(rank)];
  if (slot < 0 || slot + 1 >= static_cast<int>(row.size())) return false;
  const OpId a = row[static_cast<std::size_t>(slot)].op.id;
  const OpId b = row[static_cast<std::size_t>(slot + 1)].op.id;
  return !reaches_excluding_stream_edge(a, b);
}

bool Table::try_swap(int rank, int slot) {
  if (!can_swap(rank, slot)) return false;
  auto& row = rows_[static_cast<std::size_t>(rank)];
  std::swap(row[static_cast<std::size_t>(slot)],
            row[static_cast<std::size_t>(slot + 1)]);
  pos_[static_cast<std::size_t>(row[static_cast<std::size_t>(slot)].op.id)] =
      CellRef{rank, slot};
  pos_[static_cast<std::size_t>(
      row[static_cast<std::size_t>(slot + 1)].op.id)] = CellRef{rank, slot + 1};
  return true;
}

int Table::try_move(int rank, int from, int to) {
  if (rank < 0 || rank >= ranks()) return from;
  const int n = slots(rank);
  if (from < 0 || from >= n) return from;
  if (to < 0) to = 0;
  if (to >= n) to = n - 1;
  int cur = from;
  while (cur < to) {
    if (!try_swap(rank, cur)) break;
    ++cur;
  }
  while (cur > to) {
    if (!try_swap(rank, cur - 1)) break;
    --cur;
  }
  return cur;
}

std::uint64_t Table::fingerprint() const {
  // FNV-1a over the payload identity and order of every cell. Op ids alone
  // would collide across regeneration mutations (a rebuilt schedule reuses
  // the same dense ids for different ops), so the payload fields that
  // distinguish those are mixed in too.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(rows_.size()));
  for (const auto& row : rows_) {
    mix(static_cast<std::uint64_t>(row.size()));
    for (const Cell& c : row) {
      mix(static_cast<std::uint64_t>(c.op.id));
      mix(static_cast<std::uint64_t>(c.op.kind));
      mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(c.op.mb)));
      mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(c.op.layer)));
      mix(static_cast<std::uint64_t>(c.op.combines_w ? 1 : 2));
      mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(c.op.tag)));
    }
  }
  return h;
}

}  // namespace helix::tune
