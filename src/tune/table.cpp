#include "tune/table.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "core/validator.h"
#include "obs/prof.h"

namespace helix::tune {

using core::Op;
using core::OpId;
using core::OpKind;

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

Table Table::lift(core::Schedule sched) {
  if (const std::string fault = core::store_fault(sched); !fault.empty()) {
    throw std::invalid_argument("tune::Table::lift: schedule \"" + sched.name +
                                "\": " + fault);
  }
  const std::size_t total = sched.ops.size();

  // Send id per rendezvous tag, to add the send->recv edges below: a dense
  // table, as builder tags run densely from 0. A tag outside [0, total),
  // which compile refuses, joins no edge.
  const auto in_table = [total](std::int32_t tag) {
    return tag >= 0 && static_cast<std::size_t>(tag) < total;
  };
  std::vector<OpId> send_by_tag(total, core::kNoOp);
  for (const auto& row : sched.programs) {
    for (const OpId id : row) {
      const Op& op = sched.ops[static_cast<std::size_t>(id)];
      if (op.kind == OpKind::kSend && in_table(op.tag)) {
        send_by_tag[static_cast<std::size_t>(op.tag)] = id;
      }
    }
  }

  // The validator's ordering constraints — which generators encode through
  // stream order alone — join the explicit edges. They only constrain
  // mutation (lower() never emits them), and they make every swap the
  // legality check admits semantics-preserving by construction, not just
  // acyclic.
  Edges edges = core::semantic_order_edges(sched);
  const core::DepLists deps = core::pack_deps(sched);
  for (const auto& row : sched.programs) {
    for (const OpId id : row) {
      const auto ui = static_cast<std::size_t>(id);
      for (std::uint32_t e = deps.offset[ui]; e < deps.offset[ui + 1]; ++e) {
        edges.emplace_back(deps.edges[e], id);
      }
      const Op& op = sched.ops[ui];
      if (op.kind == OpKind::kRecv && in_table(op.tag)) {
        const OpId send = send_by_tag[static_cast<std::size_t>(op.tag)];
        if (send != core::kNoOp) edges.emplace_back(send, id);
      }
    }
  }
  auto lifted = std::make_shared<Lift>();
  pack_csr(total, edges, /*forward=*/true, lifted->succ_begin, lifted->succ);
  pack_csr(total, edges, /*forward=*/false, lifted->pred_begin, lifted->pred);
  std::vector<std::vector<OpId>> rows = std::move(sched.programs);
  sched.programs.clear();
  lifted->sched = std::move(sched);

  Table t;
  t.lift_ = std::move(lifted);
  t.set_order(std::move(rows));
  return t;
}

void Table::set_order(std::vector<std::vector<OpId>> rows) {
  // Kahn's algorithm over the static edges plus row order gives the
  // topological index; an op it never reaches sits on a cycle.
  const Lift& g = *lift_;
  const std::size_t total = g.sched.ops.size();
  std::vector<CellRef> pos(total);
  std::vector<std::uint32_t> indeg(total);
  std::vector<OpId> ready;
  ready.reserve(total);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t s = 0; s < rows[r].size(); ++s) {
      const auto id = static_cast<std::size_t>(rows[r][s]);
      pos[id] = CellRef{static_cast<int>(r), static_cast<int>(s)};
      indeg[id] = g.pred_begin[id + 1] - g.pred_begin[id] + (s > 0 ? 1 : 0);
      if (indeg[id] == 0) ready.push_back(rows[r][s]);
    }
  }
  std::vector<std::int32_t> ord(total, -1);
  const auto release = [&](OpId v) {
    if (--indeg[static_cast<std::size_t>(v)] == 0) ready.push_back(v);
  };
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const OpId cur = ready[head];
    const auto c = static_cast<std::size_t>(cur);
    ord[c] = static_cast<std::int32_t>(head);
    for (std::uint32_t e = g.succ_begin[c]; e < g.succ_begin[c + 1]; ++e) {
      release(g.succ[e]);
    }
    const CellRef at = pos[c];
    const auto& row = rows[static_cast<std::size_t>(at.rank)];
    if (at.slot + 1 < static_cast<int>(row.size())) {
      release(row[static_cast<std::size_t>(at.slot + 1)]);
    }
  }
  if (ready.size() != total) {
    OpId stuck = 0;
    while (ord[static_cast<std::size_t>(stuck)] >= 0) ++stuck;
    throw std::invalid_argument(
        "tune::Table: schedule \"" + g.sched.name +
        "\" has a row order that is cyclic under its deps, send->recv and "
        "semantic order edges (op " + std::to_string(stuck) + " is never ready)");
  }
  rows_ = std::move(rows);
  pos_ = std::move(pos);
  ord_ = std::move(ord);
}

bool Table::reorder(std::vector<std::vector<OpId>> rows) {
  if (rows == rows_) return false;
  // Row r permutes the old row r when it is as long and names each op of
  // that row once.
  std::vector<std::uint8_t> seen(pos_.size(), 0);
  bool permutes = rows.size() == rows_.size();
  for (std::size_t r = 0; permutes && r < rows.size(); ++r) {
    permutes = rows[r].size() == rows_[r].size();
    for (std::size_t i = 0; permutes && i < rows[r].size(); ++i) {
      const auto at = find(rows[r][i]);
      permutes = at && at->rank == static_cast<int>(r) &&
                 !std::exchange(seen[static_cast<std::size_t>(rows[r][i])], 1);
    }
  }
  if (!permutes) {
    throw std::invalid_argument("tune::Table::reorder: the new rows of schedule \"" +
                                lift_->sched.name + "\" do not permute each row's ops");
  }
  set_order(std::move(rows));
  return true;
}

core::Schedule Table::lower() const {
  const core::Schedule& lifted = lift_->sched;
  core::Schedule out;
  out.name = lifted.name;
  out.num_stages = ranks();
  out.num_micro_batches = lifted.num_micro_batches;
  out.num_layers = lifted.num_layers;
  out.ops = lifted.ops;
  out.deps = lifted.deps;
  out.programs = rows_;
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
    for (std::uint32_t e = lift_->succ_begin[cur];
         e < lift_->succ_begin[cur + 1] && !found; ++e) {
      found = push(lift_->succ[e]);
    }
    const CellRef at = pos_[cur];
    const auto& row = rows_[static_cast<std::size_t>(at.rank)];
    if (!found && head > 0 && at.slot + 1 < static_cast<int>(row.size())) {
      found = push(row[static_cast<std::size_t>(at.slot + 1)]);
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
    for (std::uint32_t e = lift_->pred_begin[cur]; e < lift_->pred_begin[cur + 1]; ++e) {
      push(lift_->pred[e]);
    }
    const CellRef at = pos_[cur];
    if (at.slot > 0) {
      push(rows_[static_cast<std::size_t>(at.rank)][static_cast<std::size_t>(at.slot - 1)]);
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
  return !reaches(row[static_cast<std::size_t>(slot)],
                  row[static_cast<std::size_t>(slot + 1)]);
}

bool Table::try_swap(int rank, int slot) {
  if (!can_swap(rank, slot)) return false;
  auto& row = rows_[static_cast<std::size_t>(rank)];
  std::swap(row[static_cast<std::size_t>(slot)],
            row[static_cast<std::size_t>(slot + 1)]);
  const OpId b = row[static_cast<std::size_t>(slot)];
  const OpId a = row[static_cast<std::size_t>(slot + 1)];
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
    for (const OpId id : row) {
      const Op& op = lift_->sched.ops[static_cast<std::size_t>(id)];
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
