#include "tune/mutate.h"

#include <utility>
#include <vector>

#include "core/filo.h"
#include "core/reorder.h"
#include "core/validator.h"
#include "schedules/interleaved.h"

namespace helix::tune {

using core::OpId;
using core::OpKind;

const char* to_string(MutationKind k) noexcept {
  switch (k) {
    case MutationKind::kSwapAdjacent:
      return "swap";
    case MutationKind::kMoveWEarlier:
      return "w-earlier";
    case MutationKind::kMoveWLater:
      return "w-later";
    case MutationKind::kHoistRecv:
      return "hoist-recv";
    case MutationKind::kPushRecv:
      return "push-recv";
    case MutationKind::kWidenLookahead:
      return "widen-la";
    case MutationKind::kNarrowLookahead:
      return "narrow-la";
    case MutationKind::kRelist:
      return "relist";
    case MutationKind::kToggleRecompute:
      return "toggle-rc";
    case MutationKind::kRechunk:
      return "rechunk";
  }
  return "?";
}

namespace {

constexpr int kMaxMove = 8;        ///< farthest a move mutation travels, in slots
constexpr int kSwapAttempts = 16;  ///< random tries before kSwapAdjacent gives up

int rand_below(std::mt19937_64& rng, int n) {
  return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
}

/// Grid positions of every cell satisfying `pred`, in row-major order
/// (deterministic target selection).
template <typename Pred>
std::vector<CellRef> collect(const Table& t, Pred pred) {
  std::vector<CellRef> out;
  for (int r = 0; r < t.ranks(); ++r) {
    for (int s = 0; s < t.slots(r); ++s) {
      if (pred(t.op(r, s))) out.push_back(CellRef{r, s});
    }
  }
  return out;
}

bool random_swap(Table& t, std::mt19937_64& rng) {
  for (int i = 0; i < kSwapAttempts; ++i) {
    const int r = rand_below(rng, t.ranks());
    if (t.slots(r) < 2) continue;
    const int s = rand_below(rng, t.slots(r) - 1);
    if (t.try_swap(r, s)) return true;
  }
  return false;
}

/// Move one random cell from `targets` by up to kMaxMove slots in the given
/// direction; applied when it travels at least one slot.
bool move_random(Table& t, std::mt19937_64& rng,
                 const std::vector<CellRef>& targets, bool earlier) {
  if (targets.empty()) return false;
  const CellRef at = targets[static_cast<std::size_t>(
      rand_below(rng, static_cast<int>(targets.size())))];
  const int delta = 1 + rand_below(rng, kMaxMove);
  const int to = earlier ? at.slot - delta : at.slot + delta;
  return t.try_move(at.rank, at.slot, to) != at.slot;
}

/// Shift every Recv cell one slot in the given direction (the whole-table
/// lookahead-window knob). Positions are re-resolved through op ids because
/// each move invalidates earlier CellRefs.
bool shift_all_recvs(Table& t, bool earlier) {
  std::vector<OpId> recvs;
  for (const CellRef at :
       collect(t, [](const core::Op& op) { return op.kind == OpKind::kRecv; })) {
    recvs.push_back(t.op(at.rank, at.slot).id);
  }
  bool moved = false;
  for (const OpId id : recvs) {
    const auto at = t.find(id);
    if (!at) continue;
    const int to = earlier ? at->slot - 1 : at->slot + 1;
    if (t.try_move(at->rank, at->slot, to) != at->slot) moved = true;
  }
  return moved;
}

/// Rebuild a helix-family schedule with the recompute knob flipped.
bool toggle_recompute(Genome& g) {
  const std::string& fam = g.prov.family;
  const bool helix = fam == "helix_naive" || fam == "helix_two_fold" ||
                     fam == "helix_two_fold_rc" || fam == "helix_tuned";
  if (!helix) return false;
  const bool two_fold = fam != "helix_naive";
  const bool rc = !g.prov.recompute;
  g.table = Table::lift(core::build_helix_schedule(
      g.prov.problem,
      {.two_fold = two_fold, .recompute_without_attention = rc}));
  g.prov.recompute = rc;
  g.prov.lookahead_shift = 0;  // order edits were discarded by the rebuild
  return true;
}

/// Rebuild an interleaved schedule with the next legal virtual-chunk count.
bool rechunk(Genome& g) {
  if (g.prov.family != "interleaved") return false;
  const int p = g.prov.problem.p;
  const int L = g.prov.problem.L;
  const int max_v = p > 0 ? L / p : 0;
  for (int step = 1; step <= max_v; ++step) {
    const int v = (g.prov.virtual_chunks - 1 + step) % max_v + 1;  // cycle 1..max_v
    if (v == g.prov.virtual_chunks || L % (p * v) != 0) continue;
    if (g.prov.problem.m % p != 0) return false;
    g.table = Table::lift(schedules::build_interleaved_1f1b(
        g.prov.problem, {.virtual_chunks = v}));
    g.prov.virtual_chunks = v;
    g.prov.lookahead_shift = 0;
    return true;
  }
  return false;
}

}  // namespace

bool apply_mutation(Genome& g, MutationKind kind, std::mt19937_64& rng,
                    const core::CostModel& cost) {
  bool applied = false;
  switch (kind) {
    case MutationKind::kSwapAdjacent:
      applied = random_swap(g.table, rng);
      break;
    case MutationKind::kMoveWEarlier:
    case MutationKind::kMoveWLater:
      applied = move_random(
          g.table, rng,
          collect(g.table,
                  [](const core::Op& op) { return core::is_backward_w(op.kind); }),
          kind == MutationKind::kMoveWEarlier);
      break;
    case MutationKind::kHoistRecv:
    case MutationKind::kPushRecv:
      applied = move_random(
          g.table, rng,
          collect(g.table,
                  [](const core::Op& op) { return op.kind == OpKind::kRecv; }),
          kind == MutationKind::kHoistRecv);
      break;
    case MutationKind::kWidenLookahead:
      applied = shift_all_recvs(g.table, /*earlier=*/true);
      if (applied) ++g.prov.lookahead_shift;
      break;
    case MutationKind::kNarrowLookahead:
      applied = shift_all_recvs(g.table, /*earlier=*/false);
      if (applied) --g.prov.lookahead_shift;
      break;
    case MutationKind::kRelist: {
      // The list scheduler honors explicit deps only, while generators
      // encode part of the semantic order through stream order (see
      // core::semantic_order_edges). Run it on a dep-augmented lowered copy
      // and keep only the order it picks: the table's shared ops stay the
      // IR the runtime would execute.
      core::Schedule s = g.table.lower();
      for (const auto& [a, b] : core::semantic_order_edges(s)) s.deps.push_back({b, a});
      std::vector<std::vector<OpId>> rows =
          core::reorder_stage_programs(std::move(s), cost).programs;
      applied = g.table.reorder(std::move(rows));
      break;
    }
    case MutationKind::kToggleRecompute:
      applied = toggle_recompute(g);
      break;
    case MutationKind::kRechunk:
      applied = rechunk(g);
      break;
  }
  if (applied) {
    g.lineage += " +";
    g.lineage += to_string(kind);
  }
  return applied;
}

}  // namespace helix::tune
