#include "core/validator.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <optional>
#include <ranges>
#include <stdexcept>

#include "core/compiled.h"
#include "obs/prof.h"

namespace helix::core {

namespace {

constexpr std::size_t kNumKinds = static_cast<std::size_t>(OpKind::kOptimStep) + 1;

bool outside_order(OpKind k) {
  return is_comm(k) || is_recompute(k) || k == OpKind::kOptimStep;
}

/// The structural checks compile does not make: matched Send/Recv peers and
/// payload sizes, non-empty payloads, non-negative memory deltas, and
/// balanced alloc/free per stage.
void check_compiled(const CompiledSchedule& cs, ValidationResult& res) {
  for (const Op& s : cs.schedule().ops) {
    if (s.kind != OpKind::kSend) continue;
    const Op& r = cs.op(cs.recv_of_tag[static_cast<std::size_t>(s.tag)]);
    if (s.comm_elems <= 0) res.fail(describe(s) + ": empty payload");
    if (s.peer != r.stage || r.peer != s.stage) {
      res.fail("tag " + std::to_string(s.tag) + ": peer mismatch " +
               describe(s) + " vs " + describe(r));
    }
    if (s.comm_elems != r.comm_elems) {
      res.fail("tag " + std::to_string(s.tag) + ": payload size mismatch " +
               describe(s) + " vs " + describe(r));
    }
  }
  for (int s = 0; s < cs.num_stages; ++s) {
    std::int64_t balance = 0;
    for (const OpId* it = cs.program_begin(s); it != cs.program_end(s); ++it) {
      const Op& op = cs.op(*it);
      if (op.alloc_bytes < 0 || op.free_bytes < 0 || op.transient_bytes < 0) {
        res.fail(describe(op) + ": negative memory delta");
      }
      balance += op.alloc_bytes - op.free_bytes;
    }
    if (balance != 0) {
      res.fail("stage " + std::to_string(s) + ": unbalanced activation memory (" +
               std::to_string(balance) + " bytes leak)");
    }
  }
}

/// Compile a copy of `sched`; empty, with compile's message in `res`, when
/// compile rejects it.
std::optional<CompiledSchedule> compile(const Schedule& sched, ValidationResult& res) {
  try {
    return CompiledSchedule::build(sched);
  } catch (const std::logic_error& e) {
    res.fail(e.what());
    return std::nullopt;
  }
}

std::string program_entry_fault(const Schedule& sched, std::size_t stage, OpId id) {
  return "stage " + std::to_string(stage) + "'s program holds op id " + std::to_string(id) +
         " outside [0, " + std::to_string(sched.ops.size()) + ")";
}

std::string entry_name(const MicroBatchOrder::Entry& e) {
  if (e.kind == OpKind::kEmbedBwd && e.anchor >= 0) {
    return "deferred head backward-W (decoupled EmbedBwd, layer " +
           std::to_string(e.layer) + ")";
  }
  return std::string(to_string(e.kind)) + "(layer " + std::to_string(e.layer) + ")";
}

/// An op the order places, for a micro batch in [0, m).
struct Placed {
  int mb;
  int pos;
  OpId id;
};

/// Stable counting sort of `in` into `out` by key(x) in [0, buckets).
template <typename Key>
void counting_sort(const std::vector<Placed>& in, std::size_t buckets, Key key,
                   std::vector<Placed>& out) {
  std::vector<std::uint32_t> start(buckets + 1, 0);
  for (const Placed& x : in) ++start[static_cast<std::size_t>(key(x)) + 1];
  std::partial_sum(start.begin(), start.end(), start.begin());
  out.resize(in.size());
  for (const Placed& x : in) out[start[static_cast<std::size_t>(key(x))]++] = x;
}

/// The ops `ids` names that the order places for a micro batch in [0, m),
/// sorted by (micro batch, position) with ties in `ids` order: a stable
/// counting sort by position, then one by micro batch.
template <typename Ids>
std::vector<Placed> group_by_position(const MicroBatchOrder& order, int m,
                                      const std::vector<Op>& ops, const Ids& ids) {
  std::vector<Placed> placed;
  int mbs = 0;  // one past the largest micro batch placed
  for (const OpId id : ids) {
    const Op& op = ops[static_cast<std::size_t>(id)];
    if (outside_order(op.kind) || op.mb < 0 || op.mb >= m) continue;
    const int pos = order.position(op.kind, op.layer, op.combines_w);
    if (pos < 0) continue;
    placed.push_back({op.mb, pos, id});
    mbs = std::max(mbs, op.mb + 1);
  }
  std::vector<Placed> by_pos;
  counting_sort(placed, static_cast<std::size_t>(order.size()),
                [](const Placed& x) { return x.pos; }, by_pos);
  counting_sort(by_pos, static_cast<std::size_t>(mbs), [](const Placed& x) { return x.mb; },
                placed);
  return placed;
}

/// Calls visit(mb, before, after, before_pos) for every per-micro-batch order
/// edge among `placed` (as group_by_position returns it): micro batch by
/// micro batch, the chain edges, then each follower after its anchor. Of two
/// ops at one (micro batch, position), the first wins.
template <typename Visit>
void for_each_order_edge(const MicroBatchOrder& order, const std::vector<Placed>& placed,
                         Visit&& visit) {
  for (std::size_t lo = 0, hi = 0; lo < placed.size(); lo = hi) {
    const int mb = placed[lo].mb;
    while (hi < placed.size() && placed[hi].mb == mb) ++hi;
    const auto first = placed.begin() + static_cast<std::ptrdiff_t>(lo);
    const auto last = placed.begin() + static_cast<std::ptrdiff_t>(hi);
    OpId prev = kNoOp;  // the previous chain op, at prev_pos
    int prev_pos = -1;
    int last_pos = -1;  // the previous entry's position, to skip duplicates
    for (auto it = first; it != last; ++it) {
      if (it->pos == last_pos) continue;
      last_pos = it->pos;
      const int anchor = order.at(it->pos).anchor;
      if (anchor < 0) {
        if (prev != kNoOp) visit(mb, prev, it->id, prev_pos);
        prev = it->id;
        prev_pos = it->pos;
      } else {
        const auto a = std::lower_bound(
            first, last, anchor, [](const Placed& x, int pos) { return x.pos < pos; });
        if (a != last && a->pos == anchor) visit(mb, a->id, it->id, anchor);
      }
    }
  }
}

/// Bounds of the witness walk: how many edges deep it goes, and how many
/// predecessors it may examine before it gives up.
constexpr int kWitnessDepth = 4;
constexpr std::size_t kWitnessBudget = 64;
/// The walk's (op, depth) stack: at most one entry per examined predecessor,
/// plus the start.
using WitnessStack = std::array<std::pair<OpId, int>, kWitnessBudget + 1>;

/// Whether a short path a ->+ b is found for the order edge (a, b): a walk
/// back from b over dependencies and a Recv's matching Send, at most
/// kWitnessDepth edges deep, that reaches a or an op after a on a's stage
/// and stream (stream edges lead from a to it). `lane_pos` holds each op's
/// (stage, stream) in its high word and its place on that stream below. A
/// walk that spends its budget certifies nothing.
bool certified(const CompiledSchedule& cs, const std::vector<std::int64_t>& lane_pos,
               WitnessStack& stack, OpId a, OpId b) {
  const std::int64_t from = lane_pos[static_cast<std::size_t>(a)];
  const auto hit = [&](OpId v) {
    const std::int64_t at = lane_pos[static_cast<std::size_t>(v)];
    return (at >> 32) == (from >> 32) && at >= from;
  };
  if (hit(b)) return true;
  std::size_t top = 0;
  std::size_t examined = 0;
  stack[top++] = {b, 0};
  // 1 when v certifies the edge, -1 when the budget is spent, else 0.
  const auto step = [&](OpId v, int depth) {
    if (hit(v)) return 1;
    if (++examined > kWitnessBudget) return -1;
    if (depth < kWitnessDepth) stack[top++] = {v, depth};
    return 0;
  };
  while (top > 0) {
    const auto [u, depth] = stack[--top];
    for (const OpId* d = cs.deps_begin(u); d != cs.deps_end(u); ++d) {
      if (const int r = step(*d, depth + 1); r != 0) return r > 0;
    }
    if (const OpId send = cs.matching_send[static_cast<std::size_t>(u)]; send != kNoOp) {
      if (const int r = step(send, depth + 1); r != 0) return r > 0;
    }
  }
  return false;
}

}  // namespace

MicroBatchOrder::MicroBatchOrder(int num_layers) : num_layers_(num_layers) {
  if (num_layers < 0 || num_layers > kMaxShape) {
    throw std::invalid_argument("MicroBatchOrder: num_layers " +
                                std::to_string(num_layers) + " outside [0, " +
                                std::to_string(kMaxShape) + "]");
  }
  const int L = num_layers;
  index_.assign(kNumKinds * static_cast<std::size_t>(L + 2), -1);
  add(OpKind::kEmbedFwd, 0, -1);
  for (int l = 0; l < L; ++l) {
    add(OpKind::kFwdPre, l, -1);
    add(OpKind::kFwdAttn, l, -1);
    add(OpKind::kFwdPost, l, -1);
  }
  const int head = add(OpKind::kLmHeadLoss, L - 1, -1);
  for (int l = L - 1; l >= 0; --l) {
    add(OpKind::kBwdPost, l, -1);
    add(OpKind::kBwdAttn, l, -1);
    add(OpKind::kBwdPre, l, -1);
  }
  add(OpKind::kEmbedBwd, 0, -1);
  chain_length_ = size();
  for (int l = 0; l < L; ++l) {
    add(OpKind::kBwdWPost, l, position(OpKind::kBwdPost, l, true));
    add(OpKind::kBwdWPre, l, position(OpKind::kBwdPre, l, true));
  }
  // position() finds the flush by its flag, so it stays out of index_.
  flush_ = size();
  entries_.push_back({OpKind::kEmbedBwd, L - 1, head});
}

int MicroBatchOrder::add(OpKind kind, int layer, int anchor) {
  const int pos = size();
  entries_.push_back({kind, layer, anchor});
  index_[static_cast<std::size_t>(kind) * static_cast<std::size_t>(num_layers_ + 2) +
         static_cast<std::size_t>(layer + 1)] = pos;
  return pos;
}

ValidationResult validate_structure(const Schedule& sched) {
  ValidationResult res;
  if (const auto cs = compile(sched, res)) check_compiled(*cs, res);
  return res;
}

ValidationResult validate_semantics(const Schedule& sched) {
  ValidationResult res;
  const std::optional<CompiledSchedule> cs = compile(sched, res);
  return cs ? validate_semantics(*cs) : res;
}

ValidationResult validate_semantics(const CompiledSchedule& cs) {
  ValidationResult res;
  check_compiled(cs, res);
  if (!res.ok) return res;
  const MicroBatchOrder order(cs.num_layers);
  const std::size_t n = cs.num_ops();
  const int m = cs.num_micro_batches;

  // No two ops may share a (micro batch, kind, layer) — keyed (mb, position)
  // where the order holds the op, else (mb, kind, layer) — and the deferred
  // flush is one per micro batch at any layer. The ops the order places for
  // a micro batch in [0, m) are grouped by (mb, position) in id order; the
  // rest, only in malformed IR, are keyed (mb, -1, kind, layer) or (mb, pos,
  // 0, 0) and sorted. No key of one run equals a key of the other, so
  // walking both in key order reports duplicates as one sort of all keys
  // would.
  const std::vector<Op>& ops = cs.schedule().ops;
  const std::vector<Placed> placed =
      group_by_position(order, m, ops, std::views::iota(OpId{0}, static_cast<OpId>(n)));
  using Key = std::array<int, 4>;
  std::vector<std::pair<Key, OpId>> stray;
  for (const Op& op : ops) {
    if (outside_order(op.kind)) continue;
    const int pos = order.position(op.kind, op.layer, op.combines_w);
    if (pos >= 0 && op.mb >= 0 && op.mb < m) continue;
    stray.push_back({{op.mb, pos, pos < 0 ? static_cast<int>(op.kind) : 0,
                      pos < 0 ? op.layer : 0},
                     op.id});
  }
  std::sort(stray.begin(), stray.end());
  const auto key = [](const Placed& x) { return Key{x.mb, x.pos, 0, 0}; };
  for (std::size_t i = 0, j = 0; i < placed.size() || j < stray.size();) {
    if (j == stray.size() || (i < placed.size() && key(placed[i]) < stray[j].first)) {
      if (i > 0 && placed[i].mb == placed[i - 1].mb && placed[i].pos == placed[i - 1].pos) {
        res.fail("duplicate semantic op " + describe(cs.op(placed[i].id)));
      }
      ++i;
    } else {
      if (j > 0 && stray[j].first == stray[j - 1].first) {
        res.fail("duplicate semantic op " + describe(cs.op(stray[j].second)));
      }
      ++j;
    }
  }
  if (!res.ok) return res;

  // Every order edge (a, b) must hold in the graph. Most are certified by a
  // short path a ->+ b (certified()). A micro batch with an edge the walk
  // cannot certify gets one pass over the topological order, giving
  // reach[v], the furthest chain position of that micro batch with a path to
  // v; the edge holds when reach[b] is at least a's position. Along any path
  // a ->+ b the pass carries reach >= a's position, so a certified edge is
  // one the pass accepts, and skipping the pass for a micro batch whose
  // edges are all certified changes no verdict. For a follower the pass is
  // exact once the chain holds; for a chain edge, a later chain op reaching
  // b could mask a missing a -> b, but then the last broken chain edge is
  // caught, since nothing after it can reach back without a cycle.
  std::vector<int> chain_pos(n, -1);  ///< chain position of each chain op
  for (const Placed& x : placed) {
    if (x.pos < order.chain_length()) chain_pos[static_cast<std::size_t>(x.id)] = x.pos;
  }
  std::vector<std::array<int, 4>> edges;  // (mb, before, after, before_pos)
  for_each_order_edge(order, placed, [&edges](int mb, OpId a, OpId b, int a_pos) {
    edges.push_back({mb, a, b, a_pos});
  });
  std::vector<std::int64_t> lane_pos(n);
  for (int s = 0; s < cs.num_stages; ++s) {
    std::int64_t next[2] = {std::int64_t{2 * s} << 32, std::int64_t{2 * s + 1} << 32};
    for (const OpId* it = cs.program_begin(s); it != cs.program_end(s); ++it) {
      lane_pos[static_cast<std::size_t>(*it)] = next[is_comm(cs.op(*it).kind) ? 1 : 0]++;
    }
  }
  WitnessStack stack{};
  std::vector<int> reach;
  std::int64_t passes = 0;
  for (std::size_t lo = 0, hi = 0; lo < edges.size(); lo = hi) {
    const int mb = edges[lo][0];
    bool proven = true;
    for (hi = lo; hi < edges.size() && edges[hi][0] == mb; ++hi) {
      proven = proven && certified(cs, lane_pos, stack, edges[hi][1], edges[hi][2]);
    }
    if (proven) continue;
    ++passes;
    reach.assign(n, -1);
    for (const OpId u : cs.topo) {
      const auto ui = static_cast<std::size_t>(u);
      const int r = ops[ui].mb == mb ? std::max(reach[ui], chain_pos[ui]) : reach[ui];
      if (r < 0) continue;
      for (const OpId* v = cs.succ_begin(u); v != cs.succ_end(u); ++v) {
        int& rv = reach[static_cast<std::size_t>(*v)];
        rv = std::max(rv, r);
      }
    }
    for (std::size_t k = lo; k < hi; ++k) {
      const auto& [emb, a, b, a_pos] = edges[k];
      if (reach[static_cast<std::size_t>(b)] < a_pos) {
        res.fail("missing ordering: mb " + std::to_string(emb) + ": " +
                 describe(cs.op(a)) + " -> " + describe(cs.op(b)));
      }
    }
  }
  HELIX_PROF_COUNT("core.validate.order_passes", passes);

  // A stage's OptimStep must follow every gradient producer of that stage,
  // or a reordered linearization could apply a partial gradient sum (the
  // helix-tuned divergence the equivalence harness caught). All of them run
  // on the stage's compute stream, so reachability is program order.
  for (int s = 0; s < cs.num_stages; ++s) {
    OpId optim = kNoOp;
    for (const OpId* it = cs.compute_begin(s); it != cs.compute_end(s); ++it) {
      const OpKind k = cs.op(*it).kind;
      if (k == OpKind::kOptimStep && optim == kNoOp) {
        optim = *it;
      } else if (optim != kNoOp && produces_grad(k)) {
        res.fail("missing ordering: " + describe(cs.op(*it)) + " -> " +
                 describe(cs.op(optim)) +
                 " (optimizer could apply a partial gradient sum)");
      }
    }
  }
  return res;
}

ValidationResult validate_coverage(const Schedule& sched) {
  ValidationResult res;
  const int S = sched.num_stages;
  const int m = sched.num_micro_batches;
  const int L = sched.num_layers;
  const auto shape = [&] {
    return std::to_string(S) + " stages, " + std::to_string(m) +
           " micro batches, " + std::to_string(L) + " layers";
  };
  if (S < 0 || m < 0 || m > kMaxShape || L < 0 || L > kMaxShape) {
    res.fail("shape outside [0, " + std::to_string(kMaxShape) + "]: " + shape());
    return res;
  }
  const MicroBatchOrder order(L);
  // Every stage needs an OptimStep and every micro batch its chain (LmHeadLoss
  // aside): a schedule with fewer ops cannot cover its shape, and failing it
  // here keeps the tables below proportional to the schedule.
  const auto n = static_cast<std::int64_t>(sched.total_ops());
  if (S > n || std::int64_t{m} * (order.chain_length() - 1) > n) {
    res.fail(std::to_string(n) + " ops cannot cover " + shape());
    return res;
  }
  const auto width = static_cast<std::size_t>(order.size());

  // Per (micro batch, position): the op count and the last op's combines_w
  // (an absent op reads as combined, so it expects no follower).
  std::vector<int> count(static_cast<std::size_t>(m) * width, 0);
  std::vector<std::uint8_t> combines(count.size(), 1);
  constexpr int kRecomputeKinds = 3;
  std::vector<int> recomputes(static_cast<std::size_t>(m) * kRecomputeKinds *
                                  static_cast<std::size_t>(L), 0);
  std::vector<int> optim_per_stage(static_cast<std::size_t>(S), 0);
  bool any_head = false;

  for (std::size_t s = 0; s < sched.programs.size(); ++s) {
    for (const OpId id : sched.programs[s]) {
      if (id < 0 || static_cast<std::size_t>(id) >= sched.ops.size()) {
        res.fail(program_entry_fault(sched, s, id));
        return res;
      }
      const Op& op = sched.ops[static_cast<std::size_t>(id)];
      if (is_comm(op.kind)) continue;
      if (op.kind == OpKind::kOptimStep) {
        if (op.stage < 0 || op.stage >= S) {
          res.fail(describe(op) + ": stage out of range [0, " + std::to_string(S) + ")");
        } else {
          ++optim_per_stage[static_cast<std::size_t>(op.stage)];
        }
        continue;
      }
      if (op.mb < 0 || op.mb >= m) {
        res.fail(describe(op) + ": micro batch out of range [0, " +
                 std::to_string(m) + ")");
        continue;
      }
      if (op.layer < 0 || op.layer >= L) {
        res.fail(describe(op) + ": layer out of range [0, " + std::to_string(L) +
                 ")");
        continue;
      }
      if (is_recompute(op.kind)) {
        const int k = static_cast<int>(op.kind) - static_cast<int>(OpKind::kRecomputePre);
        ++recomputes[static_cast<std::size_t>((op.mb * kRecomputeKinds + k) * L + op.layer)];
        continue;
      }
      const int pos = order.position(op.kind, op.layer, op.combines_w);
      if (pos < 0) {  // a chain kind at a layer the chain does not visit
        res.fail("mb " + std::to_string(op.mb) + ": unexpected " + describe(op));
        continue;
      }
      // Only the flush can sit off its entry's layer: position() finds it
      // by flag.
      if (op.layer != order.at(pos).layer) {
        res.fail(describe(op) + ": deferred head backward-W must sit at layer "
                 "L-1 (" + std::to_string(L - 1) + ")");
      }
      const std::size_t cell = static_cast<std::size_t>(op.mb) * width +
                               static_cast<std::size_t>(pos);
      ++count[cell];
      combines[cell] = op.combines_w ? 1 : 0;
      any_head = any_head || op.kind == OpKind::kLmHeadLoss;
    }
  }
  if (!res.ok) return res;

  for (int s = 0; s < S; ++s) {
    if (optim_per_stage[static_cast<std::size_t>(s)] != 1) {
      res.fail("stage " + std::to_string(s) + ": expected exactly 1 OptimStep, got " +
               std::to_string(optim_per_stage[static_cast<std::size_t>(s)]));
    }
  }
  for (int mb = 0; mb < m; ++mb) {
    const std::size_t row = static_cast<std::size_t>(mb) * width;
    for (int p = 0; p < order.size(); ++p) {
      const MicroBatchOrder::Entry& e = order.at(p);
      int want = 1;
      if (e.anchor >= 0) {
        const std::size_t a = row + static_cast<std::size_t>(e.anchor);
        want = count[a] > 0 && combines[a] == 0 ? 1 : 0;
      } else if (e.kind == OpKind::kLmHeadLoss) {
        want = any_head ? 1 : 0;  // modeled by all micro batches or none
      }
      const int got = count[row + static_cast<std::size_t>(p)];
      if (got != want) {
        res.fail("mb " + std::to_string(mb) + ": expected " + std::to_string(want) +
                 "x " + entry_name(e) + ", got " + std::to_string(got));
      }
    }
    for (int k = 0; k < kRecomputeKinds; ++k) {
      for (int l = 0; l < L; ++l) {
        const int got =
            recomputes[static_cast<std::size_t>((mb * kRecomputeKinds + k) * L + l)];
        if (got > 1) {
          res.fail("mb " + std::to_string(mb) + ": " +
                   to_string(static_cast<OpKind>(static_cast<int>(OpKind::kRecomputePre) + k)) +
                   "(layer " + std::to_string(l) + ") executed " + std::to_string(got) +
                   " times (recompute is at most once)");
        }
      }
    }
  }
  return res;
}

std::vector<std::pair<OpId, OpId>> semantic_order_edges(const Schedule& sched) {
  const MicroBatchOrder order(sched.num_layers);
  std::vector<OpId> ids;  // program order, so the first of a duplicate wins
  ids.reserve(sched.total_ops());
  for (std::size_t s = 0; s < sched.programs.size(); ++s) {
    for (const OpId id : sched.programs[s]) {
      if (id < 0 || static_cast<std::size_t>(id) >= sched.ops.size()) {
        throw std::invalid_argument(program_entry_fault(sched, s, id));
      }
      ids.push_back(id);
    }
  }
  std::vector<std::pair<OpId, OpId>> edges;
  for_each_order_edge(order, group_by_position(order, sched.num_micro_batches, sched.ops, ids),
                      [&edges](int, OpId a, OpId b, int) { edges.emplace_back(a, b); });
  for (const auto& program : sched.programs) {
    OpId optim = kNoOp;
    for (const OpId id : program) {
      if (sched.ops[static_cast<std::size_t>(id)].kind == OpKind::kOptimStep) optim = id;
    }
    if (optim == kNoOp) continue;
    for (const OpId id : program) {
      if (produces_grad(sched.ops[static_cast<std::size_t>(id)].kind)) {
        edges.emplace_back(id, optim);
      }
    }
  }
  return edges;
}

}  // namespace helix::core
