#include "tune/table.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "core/validator.h"
#include "obs/prof.h"

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

namespace {

using Edges = std::vector<std::pair<OpId, OpId>>;

/// Pack `edges` into CSR adjacency keyed by each edge's source (forward) or
/// target (backward): one counting pass, one filling pass.
void pack_csr(std::size_t n, const Edges& edges, bool forward,
              std::vector<std::uint32_t>& begin, std::vector<OpId>& adj) {
  begin.assign(n + 1, 0);
  for (const auto& [a, b] : edges) ++begin[static_cast<std::size_t>(forward ? a : b)];
  std::partial_sum(begin.begin(), begin.end(), begin.begin());
  adj.resize(edges.size());
  // Filling backwards leaves begin[v] at the start of v's range.
  for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
    const OpId key = forward ? it->first : it->second;
    adj[--begin[static_cast<std::size_t>(key)]] = forward ? it->second : it->first;
  }
}

/// Per-thread scratch for the legality search and the order repair: visit
/// marks by epoch, the two cones, and the pooled indices.
struct Scratch {
  std::vector<std::uint32_t> mark;
  std::uint32_t epoch = 0;
  std::vector<OpId> fwd, bwd;
  std::vector<std::int32_t> pool;

  /// Start a new visit over `n` ops: every mark reads as unvisited.
  void begin_visit(std::size_t n) {
    if (mark.size() < n) mark.resize(n, 0);
    if (++epoch == 0) {  // epoch counter wrapped: reset marks once
      std::fill(mark.begin(), mark.end(), 0);
      epoch = 1;
    }
  }
  /// Mark `id` visited; false when it already was.
  bool visit(OpId id) {
    std::uint32_t& m = mark[static_cast<std::size_t>(id)];
    if (m == epoch) return false;
    m = epoch;
    return true;
  }
};

thread_local Scratch scratch;

}  // namespace

Table Table::lift(const core::Schedule& sched) {
  Table t;
  t.name_ = sched.name;
  t.num_micro_batches_ = sched.num_micro_batches;
  t.num_layers_ = sched.num_layers;
  t.rows_.resize(sched.stage_ops.size());

  const std::size_t total = sched.total_ops();
  t.pos_.assign(total, CellRef{});
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

  // The validator's ordering constraints — which generators encode through
  // stream order alone — join the explicit edges. They only constrain
  // mutation (lower() never emits them), and they make every swap the
  // legality check admits semantics-preserving by construction, not just
  // acyclic.
  Edges edges = core::semantic_order_edges(sched);
  for (const auto& row : t.rows_) {
    for (const Cell& c : row) {
      for (const OpId d : c.op.deps) {
        if (d < 0 || static_cast<std::size_t>(d) >= total) {
          throw std::invalid_argument(
              "tune::Table::lift: op " + std::to_string(c.op.id) +
              " depends on unknown op " + std::to_string(d));
        }
        edges.emplace_back(d, c.op.id);
      }
      if (c.op.kind == OpKind::kRecv && c.op.tag >= 0) {
        const auto it = send_by_tag.find(c.op.tag);
        if (it != send_by_tag.end()) edges.emplace_back(it->second, c.op.id);
      }
    }
  }
  auto graph = std::make_shared<Graph>();
  pack_csr(total, edges, /*forward=*/true, graph->succ_begin, graph->succ);
  pack_csr(total, edges, /*forward=*/false, graph->pred_begin, graph->pred);

  // Kahn's algorithm over the static edges plus row order gives the first
  // topological index; an op it never reaches sits on a cycle.
  std::vector<std::uint32_t> indeg(total);
  std::vector<OpId> ready;
  ready.reserve(total);
  for (const auto& row : t.rows_) {
    for (std::size_t s = 0; s < row.size(); ++s) {
      const auto id = static_cast<std::size_t>(row[s].op.id);
      indeg[id] = graph->pred_begin[id + 1] - graph->pred_begin[id] + (s > 0 ? 1 : 0);
      if (indeg[id] == 0) ready.push_back(row[s].op.id);
    }
  }
  t.ord_.assign(total, -1);
  const auto release = [&](OpId v) {
    if (--indeg[static_cast<std::size_t>(v)] == 0) ready.push_back(v);
  };
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const OpId cur = ready[head];
    t.ord_[static_cast<std::size_t>(cur)] = static_cast<std::int32_t>(head);
    const auto c = static_cast<std::size_t>(cur);
    for (std::uint32_t e = graph->succ_begin[c]; e < graph->succ_begin[c + 1]; ++e) {
      release(graph->succ[e]);
    }
    const CellRef at = t.pos_[c];
    const auto& row = t.rows_[static_cast<std::size_t>(at.rank)];
    if (at.slot + 1 < static_cast<int>(row.size())) {
      release(row[static_cast<std::size_t>(at.slot + 1)].op.id);
    }
  }
  if (ready.size() != total) {
    OpId stuck = 0;
    while (t.ord_[static_cast<std::size_t>(stuck)] >= 0) ++stuck;
    throw std::invalid_argument(
        "tune::Table::lift: schedule \"" + sched.name +
        "\" has a row order that is cyclic under its deps, send->recv and "
        "semantic order edges (op " + std::to_string(stuck) + " is never ready)");
  }
  t.graph_ = std::move(graph);
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

bool Table::reaches(OpId from, OpId to) const {
  // Every op on a path from -> to is indexed between the two, so the search
  // never expands an op at or above ord_[to]. Row successors are dynamic;
  // from's is `to` itself, the stream edge the swap would reverse.
  const std::int32_t bound = ord_[static_cast<std::size_t>(to)];
  Scratch& sc = scratch;
  sc.begin_visit(pos_.size());
  sc.fwd.clear();
  sc.visit(from);
  sc.fwd.push_back(from);
  const auto push = [&](OpId v) {
    if (v == to) return true;
    if (ord_[static_cast<std::size_t>(v)] < bound && sc.visit(v)) sc.fwd.push_back(v);
    return false;
  };
  bool found = false;
  for (std::size_t head = 0; head < sc.fwd.size() && !found; ++head) {
    const auto cur = static_cast<std::size_t>(sc.fwd[head]);
    for (std::uint32_t e = graph_->succ_begin[cur];
         e < graph_->succ_begin[cur + 1] && !found; ++e) {
      found = push(graph_->succ[e]);
    }
    const CellRef at = pos_[cur];
    const auto& row = rows_[static_cast<std::size_t>(at.rank)];
    if (!found && head > 0 && at.slot + 1 < static_cast<int>(row.size())) {
      found = push(row[static_cast<std::size_t>(at.slot + 1)].op.id);
    }
  }
  HELIX_PROF_COUNT("tune.legality.checks", 1);
  HELIX_PROF_COUNT("tune.legality.visited", sc.fwd.size());
  return found;
}

void Table::repair_order(OpId a, OpId b) {
  // The stream edge b -> a is the only one ord_ now violates. Walk back from
  // b over static predecessors and row predecessors, above ord_[a]; the
  // forward cone of a below ord_[b] is still in scratch from reaches(a, b).
  // The two cones are disjoint (else a ->* b), and giving b's cone the lower
  // half of their pooled indices, each cone in its old order, restores a
  // topological index.
  const std::int32_t lower = ord_[static_cast<std::size_t>(a)];
  Scratch& sc = scratch;
  sc.begin_visit(pos_.size());
  sc.bwd.clear();
  sc.visit(b);
  sc.bwd.push_back(b);
  const auto push = [&](OpId v) {
    if (ord_[static_cast<std::size_t>(v)] > lower && sc.visit(v)) sc.bwd.push_back(v);
  };
  for (std::size_t head = 0; head < sc.bwd.size(); ++head) {
    const auto cur = static_cast<std::size_t>(sc.bwd[head]);
    for (std::uint32_t e = graph_->pred_begin[cur]; e < graph_->pred_begin[cur + 1]; ++e) {
      push(graph_->pred[e]);
    }
    const CellRef at = pos_[cur];
    if (at.slot > 0) {
      push(rows_[static_cast<std::size_t>(at.rank)][static_cast<std::size_t>(at.slot - 1)]
               .op.id);
    }
  }
  const auto by_ord = [this](OpId x, OpId y) {
    return ord_[static_cast<std::size_t>(x)] < ord_[static_cast<std::size_t>(y)];
  };
  std::sort(sc.bwd.begin(), sc.bwd.end(), by_ord);
  std::sort(sc.fwd.begin(), sc.fwd.end(), by_ord);
  sc.pool.clear();
  for (const OpId v : sc.bwd) sc.pool.push_back(ord_[static_cast<std::size_t>(v)]);
  for (const OpId v : sc.fwd) sc.pool.push_back(ord_[static_cast<std::size_t>(v)]);
  std::sort(sc.pool.begin(), sc.pool.end());
  std::size_t i = 0;
  for (const OpId v : sc.bwd) ord_[static_cast<std::size_t>(v)] = sc.pool[i++];
  for (const OpId v : sc.fwd) ord_[static_cast<std::size_t>(v)] = sc.pool[i++];
  HELIX_PROF_COUNT("tune.legality.visited", sc.pool.size());
}

bool Table::can_swap(int rank, int slot) const {
  if (rank < 0 || rank >= ranks()) return false;
  const auto& row = rows_[static_cast<std::size_t>(rank)];
  if (slot < 0 || slot + 1 >= static_cast<int>(row.size())) return false;
  const OpId a = row[static_cast<std::size_t>(slot)].op.id;
  const OpId b = row[static_cast<std::size_t>(slot + 1)].op.id;
  return !reaches(a, b);
}

bool Table::try_swap(int rank, int slot) {
  if (!can_swap(rank, slot)) return false;
  auto& row = rows_[static_cast<std::size_t>(rank)];
  std::swap(row[static_cast<std::size_t>(slot)],
            row[static_cast<std::size_t>(slot + 1)]);
  const OpId b = row[static_cast<std::size_t>(slot)].op.id;
  const OpId a = row[static_cast<std::size_t>(slot + 1)].op.id;
  pos_[static_cast<std::size_t>(b)] = CellRef{rank, slot};
  pos_[static_cast<std::size_t>(a)] = CellRef{rank, slot + 1};
  repair_order(a, b);
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
  // The payload identity and order of every cell, packed losslessly into two
  // words per cell, each mixed in with one 64-bit multiply-xorshift step. Op
  // ids alone would collide across regeneration mutations (a rebuilt
  // schedule reuses the same dense ids for different ops), so the payload
  // fields that distinguish those are mixed in too.
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  const auto mix = [&h](std::uint64_t v) {
    h = (h ^ v) * 0xbf58476d1ce4e5b9ull;
    h ^= h >> 31;
  };
  mix(rows_.size());
  for (const auto& row : rows_) {
    mix(row.size());
    for (const Cell& c : row) {
      const core::Op& op = c.op;
      mix(std::uint64_t{static_cast<std::uint32_t>(op.id)} << 32 |
          static_cast<std::uint32_t>(op.tag));
      mix(std::uint64_t{static_cast<std::uint16_t>(op.mb)} << 48 |
          std::uint64_t{static_cast<std::uint16_t>(op.layer)} << 32 |
          std::uint64_t{static_cast<std::uint8_t>(op.kind)} << 8 |
          (op.combines_w ? 1u : 0u));
    }
  }
  return h;
}

}  // namespace helix::tune
