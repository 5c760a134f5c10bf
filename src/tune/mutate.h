#pragma once

#include <random>
#include <string>

#include "core/cost.h"
#include "core/problem.h"
#include "tune/table.h"

// Mutation operators over tune::Table (DESIGN §15). Two classes:
//
//  * Order mutations (swap / move-W / hoist- and push-recv / widen- and
//    narrow-lookahead / relist) permute cells within rows — through the
//    table's safe-swap primitive, or for relist through Table::reorder,
//    which re-indexes the whole new order and refuses a cyclic one — so
//    they preserve well-formedness by construction: ops, payloads and
//    dependencies are untouched and the graph stays acyclic. Each swap
//    costs a check bounded by the table's topological index, not a walk of
//    the whole graph, so the lookahead knobs can shift every Recv cheaply.
//    The mutated table keeps sharing its parent's lift: the same op
//    records and constraint graph.
//  * Regeneration mutations (toggle-recompute, re-chunk) flip a provenance
//    knob and rebuild the schedule from its family generator, because they
//    change the op payload itself (different stash sizes / different op
//    set). They discard earlier order edits and lift anew; the search
//    keeps both branches in its population, so nothing is lost globally.
//
// Every operator is deterministic given the RNG state; the search layer owns
// one seeded engine per run.
namespace helix::tune {

enum class MutationKind : std::uint8_t {
  kSwapAdjacent,     ///< swap one random safe adjacent pair
  kMoveWEarlier,     ///< move a decoupled backward-W cell earlier
  kMoveWLater,       ///< move a decoupled backward-W cell later
  kHoistRecv,        ///< move one Recv earlier (prefetch)
  kPushRecv,         ///< move one Recv later (just-in-time)
  kWidenLookahead,   ///< hoist every Recv one slot earlier
  kNarrowLookahead,  ///< push every Recv one slot later
  kRelist,           ///< re-derive all row orders by list scheduling
  kToggleRecompute,  ///< flip recomputation-without-attention (helix only)
  kRechunk,          ///< next virtual-chunk count (interleaved only)
};
inline constexpr int kNumMutationKinds = 10;

const char* to_string(MutationKind k) noexcept;

/// Where a table came from and which regeneration knobs produced it.
struct Provenance {
  core::PipelineProblem problem;
  std::string family;        ///< schedules::family_registry key
  bool recompute = false;    ///< helix recomputation-without-attention
  int virtual_chunks = 2;    ///< interleaved chunk count
  int lookahead_shift = 0;   ///< net widen/narrow-lookahead bookkeeping
};

/// One search individual: the table plus its provenance and a human-readable
/// mutation lineage ("helix_naive +relist +swap ..."). Copying a genome
/// copies the table's order (rows, positions and topological index, all op
/// ids) and shares its lift; no op is copied.
struct Genome {
  Table table;
  Provenance prov;
  std::string lineage;
};

/// Apply `kind` to `g` in place. Returns false when the mutation does not
/// apply (no W cells to move, non-helix family for toggle-recompute, every
/// candidate swap refused, ...) — the genome is unchanged in that case.
/// `cost` prices the relist operator's list scheduling. A move mutation
/// travels at most 8 slots, and kSwapAdjacent gives up after 16 refused
/// random tries.
bool apply_mutation(Genome& g, MutationKind kind, std::mt19937_64& rng,
                    const core::CostModel& cost);

}  // namespace helix::tune
