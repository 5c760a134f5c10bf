#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/ir.h"

// Tabular schedule representation (DESIGN §15).
//
// A tune::Table is the schedule-as-data view of a core::Schedule: a
// rank × slot grid where row r lists stage r's program as op ids. The op
// records and the dependency arena live once, in an immutable lift that
// every copy of the table shares; a table is an order over that lift. The two views round-trip
// losslessly — lower(lift(s)) is op-for-op identical to s, every field and
// dependency preserved — so anything the simulator, validators or runtime
// accept as a Schedule is reachable from a Table and vice versa.
//
// The point of the representation is safe mutation. Order edits go through
// try_swap / try_move, which admit an edit only when the constraint graph
// (op deps + send->recv rendezvous + per-stage stream order + the
// per-micro-batch order edges of core::semantic_order_edges, which the
// validators enforce) stays acyclic; a Table therefore stays executable and
// semantics-preserving *by construction*, and the search layer
// (tune/search.h) never has to repair candidates. reorder() installs a whole
// new order (the relist mutation's) over the same lift. Regeneration knobs
// (recompute set, chunking) live one level up in tune/mutate.h, since they
// change the ops themselves and so lift anew.
//
// Legality is checked locally. Order edits never change the static edges
// (deps, send->recv, semantic order), so lift packs them once into an
// immutable CSR graph that sits in the shared lift beside the ops. Each
// table keeps a topological index of its ops over those edges plus row
// order: a path a ->* b only passes through ops indexed below b, so the swap
// check searches that window alone, and an accepted swap repairs the index
// over the two cones the check and one backward walk visit (Pearce & Kelly,
// "A Dynamic Topological Sort Algorithm for Directed Acyclic Graphs",
// JEA 2006). Copying a table copies three id vectors — rows, positions and
// that index — and never an op.
namespace helix::tune {

/// Grid position of a cell: row `rank`, column `slot`.
struct CellRef {
  int rank = -1;
  int slot = -1;
};

class Table {
 public:
  /// Empty table (0 ranks); assign from lift() before use.
  Table() = default;

  /// Build the tabular view of `sched`, taking it over. Requires a
  /// well-formed store (core::store_fault finds nothing: what every
  /// ScheduleBuilder-produced schedule is) and a row order that is acyclic
  /// under the constraint graph; throws std::invalid_argument naming the
  /// schedule otherwise. A Send or Recv tag outside [0, ops.size()), which
  /// compile refuses, joins no send->recv edge.
  static Table lift(core::Schedule sched);

  /// Reconstruct the Schedule: a copy of the lift's ops and dependency
  /// arena with this table's rows as the stage programs. Exact inverse of
  /// lift on an unmutated table; after mutations, the same ops with the
  /// mutated per-row order.
  core::Schedule lower() const;

  int ranks() const noexcept { return static_cast<int>(rows_.size()); }
  int slots(int rank) const {
    return static_cast<int>(rows_[static_cast<std::size_t>(rank)].size());
  }
  /// The op at (rank, slot): the lift's own record, shared by every copy of
  /// this table.
  const core::Op& op(int rank, int slot) const {
    return lift_->sched.ops[static_cast<std::size_t>(
        rows_[static_cast<std::size_t>(rank)][static_cast<std::size_t>(slot)])];
  }
  std::size_t total_cells() const noexcept { return pos_.size(); }

  /// Grid position of op `id`; nullopt for an unknown id.
  std::optional<CellRef> find(core::OpId id) const;

  /// Would try_swap(rank, slot) succeed? (No dependency path — other than
  /// the direct stream edge — from the cell at `slot` to the cell at
  /// `slot + 1`.) Searches only the ops the topological index places
  /// between the two cells.
  bool can_swap(int rank, int slot) const;

  /// Swap the adjacent cells (rank, slot) and (rank, slot + 1) if doing so
  /// keeps the dependency graph acyclic, and repair the topological index
  /// locally; returns whether the swap was applied. Every legal reordering
  /// is a sequence of safe adjacent swaps.
  bool try_swap(int rank, int slot);

  /// Move the cell at (rank, from) toward slot `to` by chained safe swaps,
  /// stopping early at the first refused swap. Returns the slot actually
  /// reached (== from when nothing moved).
  int try_move(int rank, int from, int to);

  /// Install `rows` as the whole order, over the same lift, and rebuild the
  /// topological index. Each row must be a permutation of the same row's op
  /// ids. Returns false, leaving the table unchanged, when `rows` is the
  /// current order. Throws std::invalid_argument naming the schedule when
  /// `rows` is not such a permutation or is cyclic under the constraint
  /// graph.
  bool reorder(std::vector<std::vector<core::OpId>> rows);

  /// Content hash over every cell (id, kind, payload identity and row
  /// order). Two tables with the same fingerprint hold the same schedule;
  /// the search layer uses it for candidate dedup.
  std::uint64_t fingerprint() const;

 private:
  /// What lift derives from a schedule and order edits never change: the
  /// schedule's store with its programs moved out into the table's rows
  /// (so `sched.programs` is empty), and the static constraint graph in CSR
  /// form — op a's successors are succ[succ_begin[a] .. succ_begin[a + 1]),
  /// and likewise for predecessors. Stream edges are implicit in each
  /// table's row order.
  struct Lift {
    core::Schedule sched;
    std::vector<std::uint32_t> succ_begin, pred_begin;  ///< n + 1 offsets
    std::vector<core::OpId> succ, pred;
  };

  /// Install `rows` with fresh positions and a fresh topological index:
  /// Kahn's algorithm over the static edges plus row order. Throws
  /// std::invalid_argument naming the schedule, leaving the table
  /// unchanged, when the order is cyclic.
  void set_order(std::vector<std::vector<core::OpId>> rows);

  /// True when a path from -> to exists that does not use the direct
  /// from -> to stream edge (`from` is `to`'s row predecessor). Leaves the
  /// ops it visited, all indexed below `to`, in the thread's scratch for
  /// repair_order.
  bool reaches(core::OpId from, core::OpId to) const;

  /// Restore ord_ after the stream edge a -> b turned into b -> a. The ops
  /// reachable from a below ord_[b] are the ones reaches(a, b) just visited;
  /// the ops reaching b above ord_[a] are walked here. Their indices are
  /// pooled and reassigned, b's cone first.
  void repair_order(core::OpId a, core::OpId b);

  std::shared_ptr<const Lift> lift_;  ///< shared by every copy of a lift
  std::vector<std::vector<core::OpId>> rows_;
  std::vector<CellRef> pos_;       ///< op id -> grid position
  std::vector<std::int32_t> ord_;  ///< op id -> topological index
};

}  // namespace helix::tune
