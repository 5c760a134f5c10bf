#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/ir.h"

// Tabular schedule representation (ROADMAP item 1; DESIGN §15).
//
// A tune::Table is the schedule-as-data view of a core::Schedule: a
// rank × slot grid where row r lists stage r's program and each cell wraps
// one typed IR op (forward / backward-B / backward-W / recompute /
// send-recv / optimizer). The two views round-trip losslessly —
// lower(lift(s)) is op-for-op identical to s, every field and dependency
// preserved — so anything the simulator, validators or runtime accept as a
// Schedule is reachable from a Table and vice versa.
//
// The point of the representation is safe mutation. Order edits go through
// try_swap / try_move, which admit an edit only when the constraint graph
// (op deps + send->recv rendezvous + per-stage stream order + the
// per-micro-batch order edges of core::semantic_order_edges, which the
// validators enforce) stays acyclic; a Table therefore stays executable and
// semantics-preserving *by construction*, and the search layer
// (tune/search.h) never has to repair candidates. Regeneration knobs
// (recompute set, chunking) live one level up in tune/mutate.h, since they
// change the op payload, not just the order.
namespace helix::tune {

/// Coarse cell type for mutation targeting; derived from the op kind.
enum class CellKind : std::uint8_t {
  kForward,    ///< EmbedFwd, FwdPre/Attn/Post
  kBackwardB,  ///< LmHeadLoss, BwdPost/Attn/Pre, EmbedBwd
  kBackwardW,  ///< decoupled BwdWPre/BwdWPost
  kRecompute,  ///< RecomputePre/Attn/Post
  kComm,       ///< Send / Recv
  kOptim,      ///< OptimStep
};

CellKind classify(core::OpKind k) noexcept;
const char* to_string(CellKind k) noexcept;

/// One grid cell: the IR op, verbatim (the table owns a copy), plus its
/// coarse type.
struct Cell {
  core::Op op;
  CellKind kind = CellKind::kForward;
};

/// Grid position of a cell: row `rank`, column `slot`.
struct CellRef {
  int rank = -1;
  int slot = -1;
};

class Table {
 public:
  /// Empty table (0 ranks); assign from lift() before use.
  Table() = default;

  /// Build the tabular view of `sched`. Requires dense op ids (what every
  /// ScheduleBuilder-produced schedule has); throws std::invalid_argument
  /// otherwise.
  static Table lift(const core::Schedule& sched);

  /// Reconstruct the Schedule. Exact inverse of lift on an unmutated table;
  /// after mutations, the same ops with the mutated per-row order.
  core::Schedule lower() const;

  int ranks() const noexcept { return static_cast<int>(rows_.size()); }
  int slots(int rank) const {
    return static_cast<int>(rows_[static_cast<std::size_t>(rank)].size());
  }
  const Cell& cell(int rank, int slot) const {
    return rows_[static_cast<std::size_t>(rank)][static_cast<std::size_t>(slot)];
  }
  const std::vector<Cell>& row(int rank) const {
    return rows_[static_cast<std::size_t>(rank)];
  }
  std::size_t total_cells() const noexcept { return pos_.size(); }
  const std::string& name() const noexcept { return name_; }
  int num_micro_batches() const noexcept { return num_micro_batches_; }
  int num_layers() const noexcept { return num_layers_; }

  /// Grid position of op `id`; nullopt for an unknown id.
  std::optional<CellRef> find(core::OpId id) const;

  /// Would try_swap(rank, slot) succeed? (No dependency path — other than
  /// the direct stream edge — from the cell at `slot` to the cell at
  /// `slot + 1`.)
  bool can_swap(int rank, int slot) const;

  /// Swap the adjacent cells (rank, slot) and (rank, slot + 1) if doing so
  /// keeps the dependency graph acyclic; returns whether the swap was
  /// applied. This is the only order-mutation primitive — every legal
  /// reordering is a sequence of safe adjacent swaps.
  bool try_swap(int rank, int slot);

  /// Move the cell at (rank, from) toward slot `to` by chained safe swaps,
  /// stopping early at the first refused swap. Returns the slot actually
  /// reached (== from when nothing moved).
  int try_move(int rank, int from, int to);

  /// Content hash over every cell (id, kind, payload identity and row
  /// order). Two tables with the same fingerprint hold the same schedule;
  /// the search layer uses it for candidate dedup.
  std::uint64_t fingerprint() const;

 private:
  /// True when a path A ->* B exists that does not use the direct A->B
  /// stream edge (BFS over dep edges, send->recv rendezvous edges and
  /// stream-successor edges).
  bool reaches_excluding_stream_edge(core::OpId from, core::OpId to) const;

  std::string name_;
  int num_micro_batches_ = 0;
  int num_layers_ = 0;
  std::vector<std::vector<Cell>> rows_;
  std::vector<CellRef> pos_;  ///< op id -> grid position
  /// Static successor adjacency (op id -> consumer op ids): reversed deps,
  /// the send->recv rendezvous edge and core::semantic_order_edges. Stream
  /// edges are implicit in the row order and added dynamically during
  /// reachability checks.
  std::vector<std::vector<core::OpId>> succ_;
  mutable std::vector<std::uint32_t> visit_mark_;  ///< BFS scratch (epochs)
  mutable std::uint32_t visit_epoch_ = 0;
  mutable std::vector<core::OpId> visit_queue_;    ///< BFS scratch
};

}  // namespace helix::tune
