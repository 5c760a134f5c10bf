#pragma once

#include <cstdint>
#include <vector>

#include "core/ir.h"
#include "mem/caching_allocator.h"

// Memory observability for the numerical runtime: a per-rank MemoryTracker
// shadow-allocates the interpreter's live tensor state (value slots and
// stashes — the same items its running live-byte total counts) on a
// mem::CachingAllocator behavioural model, so a real training iteration
// produces a measured, attributable allocator timeline:
//
//  * every allocator event (alloc / free / segment traffic) is tagged with
//    the span context of the op that caused it — (op kind, micro batch,
//    layer) — which makes peaks decomposable into "whose bytes";
//  * the event stream carries post-event AllocatorStats snapshots, giving a
//    live / reserved / fragmentation timeline for Chrome-trace counter
//    tracks (obs/export.h) without replaying the allocator;
//  * peak_attribution() reports, for the measured allocated peak, how many
//    live bytes each (producing op kind, layer) contributed.
//
// Threading model: one MemoryTracker per rank, written only by its owner
// rank thread during the iteration (same discipline as SpanRecorder), read
// after comm::World::run joins. Sync happens at op granularity with frees
// issued before allocations, so the allocator's allocated_bytes equals the
// live-item total at every op boundary exactly (rounded to the allocator
// granularity) and the measured peak is the max over op boundaries.
//
// Detachment guarantee: the tracker only ever reads item *sizes* computed
// from tensor shapes — never tensor data — and exists only after
// TraceCollector::enable_memory(); the interpreter walks its containers for a
// snapshot only when it finds one. Numerics are bit-identical with tracking
// attached or detached, and detached runs do zero extra work.
namespace helix::obs {

/// Span context a memory event is tagged with: the op whose execution caused
/// the allocator transition.
struct MemTag {
  core::OpKind kind = core::OpKind::kFwdPre;
  std::int16_t mb = -1;
  std::int16_t layer = -1;
  bool valid = false;
};

/// One tagged allocator transition of a traced iteration.
struct MemoryEvent {
  std::int64_t t_ns = 0;  ///< wall clock, absolute (exporters rebase to epoch)
  mem::AllocatorEvent ev;
  MemTag tag;
};

/// Category of one live interpreter item (one per slot or stash container
/// of runtime::Interpreter).
enum class LiveItemKind : std::uint8_t {
  kSlot,         ///< value slot keyed (DataSlot, mb, layer)
  kPreStash,
  kAttnStash,
  kPostStash,
  kPostWStash,   ///< decoupled backward-W stash (ZB1P)
  kDqkvStash,
  kPreDln1Stash,
  kHeadWStash,
};
const char* to_string(LiveItemKind k) noexcept;

/// Stable identity + current size of one live item. Keys order first by
/// category, then by the owning container's iteration order, so a snapshot
/// built container-by-container is already key-sorted (sync requires this).
struct LiveItem {
  std::uint64_t key = 0;
  std::int64_t bytes = 0;
};

/// Pack (category, slot kind, mb, layer) into a sort key consistent with the
/// interpreter's container iteration order. `slot` is the DataSlot for
/// kSlot items and 0 otherwise; mb/layer use -1 for "not applicable".
constexpr std::uint64_t live_item_key(LiveItemKind kind, int slot, int mb,
                                      int layer) noexcept {
  return (static_cast<std::uint64_t>(kind) << 56) |
         (static_cast<std::uint64_t>(static_cast<std::uint8_t>(slot + 1)) << 40) |
         (static_cast<std::uint64_t>(static_cast<std::uint16_t>(mb + 1)) << 16) |
         static_cast<std::uint64_t>(static_cast<std::uint16_t>(layer + 1));
}

/// "Whose bytes" at the measured allocated peak: live bytes attributed to
/// the (op kind, layer) whose execution allocated them.
struct AttributionRow {
  core::OpKind kind = core::OpKind::kFwdPre;
  std::int16_t layer = -1;
  std::int64_t bytes = 0;
};

/// Per-rank instrumented allocator + tagged event log. See file comment.
class MemoryTracker final : public mem::AllocatorEventSink {
 public:
  explicit MemoryTracker(mem::AllocatorConfig config = {});

  /// Reset the allocator, shadow state, event log and peak attribution for a
  /// fresh iteration (TraceCollector::begin_iteration calls this).
  void begin_iteration();

  /// Tag subsequent events with the op now executing on this rank.
  void set_context(core::OpKind kind, int mb, int layer) noexcept {
    ctx_ = {kind, static_cast<std::int16_t>(mb), static_cast<std::int16_t>(layer),
            true};
  }

  /// Diff `live` (key-sorted, the caller's current live-item snapshot)
  /// against the shadow state: vanished or resized items are freed first,
  /// then new or resized items allocated, all on the behavioural allocator.
  void sync(const std::vector<LiveItem>& live);

  /// Reusable snapshot buffer so per-op syncs do not allocate.
  std::vector<LiveItem>& scratch() noexcept { return scratch_; }

  const std::vector<MemoryEvent>& events() const noexcept { return events_; }
  const mem::CachingAllocator& allocator() const noexcept { return alloc_; }
  std::int64_t peak_allocated() const noexcept {
    return alloc_.stats().peak_allocated;
  }

  /// Attribution of the measured allocated peak, aggregated by (producing op
  /// kind, layer) and sorted by bytes descending.
  std::vector<AttributionRow> peak_attribution() const;

 private:
  void on_event(const mem::AllocatorEvent& ev) override;

  struct ShadowRef {
    mem::BlockId block = 0;
    std::int64_t bytes = 0;
  };
  struct LiveBlock {
    MemTag tag;
    std::int64_t bytes = 0;
  };

  mem::AllocatorConfig config_;
  mem::CachingAllocator alloc_;
  MemTag ctx_;
  std::vector<std::pair<std::uint64_t, ShadowRef>> shadow_;  ///< key-sorted
  std::vector<std::pair<mem::BlockId, LiveBlock>> live_blocks_;  ///< id-sorted
  std::vector<MemoryEvent> events_;
  std::vector<LiveItem> scratch_;
  std::int64_t peak_seen_ = 0;
  std::vector<AttributionRow> peak_rows_;  ///< snapshot at peak_seen_
};

}  // namespace helix::obs
