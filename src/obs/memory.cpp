#include "obs/memory.h"

#include <algorithm>
#include <map>
#include <utility>

#include "obs/clock.h"

namespace helix::obs {

const char* to_string(LiveItemKind k) noexcept {
  switch (k) {
    case LiveItemKind::kSlot: return "slot";
    case LiveItemKind::kPreStash: return "pre-stash";
    case LiveItemKind::kAttnStash: return "attn-stash";
    case LiveItemKind::kPostStash: return "post-stash";
    case LiveItemKind::kPostWStash: return "post-w-stash";
    case LiveItemKind::kDqkvStash: return "dqkv-stash";
    case LiveItemKind::kPreDln1Stash: return "pre-dln1-stash";
    case LiveItemKind::kHeadWStash: return "head-w-stash";
  }
  return "?";
}

MemoryTracker::MemoryTracker(mem::AllocatorConfig config)
    : config_(config), alloc_(config) {
  alloc_.set_event_sink(this);
}

void MemoryTracker::begin_iteration() {
  alloc_ = mem::CachingAllocator(config_);
  alloc_.set_event_sink(this);
  ctx_ = {};
  shadow_.clear();
  live_blocks_.clear();
  events_.clear();
  peak_seen_ = 0;
  peak_rows_.clear();
}

void MemoryTracker::sync(const std::vector<LiveItem>& live) {
  // Frees first, then allocations: the allocator's allocated_bytes matches
  // the live-item total at every op boundary (no transient double-counting),
  // and the alloc order is deterministic (ascending item key).
  std::vector<std::pair<std::uint64_t, ShadowRef>> next;
  next.reserve(live.size());
  std::vector<std::size_t> pending;
  std::size_t si = 0;
  for (const LiveItem& item : live) {
    while (si < shadow_.size() && shadow_[si].first < item.key) {
      alloc_.free(shadow_[si].second.block);  // item vanished
      ++si;
    }
    if (si < shadow_.size() && shadow_[si].first == item.key &&
        shadow_[si].second.bytes == item.bytes) {
      next.push_back(shadow_[si]);  // unchanged
      ++si;
      continue;
    }
    if (si < shadow_.size() && shadow_[si].first == item.key) {
      alloc_.free(shadow_[si].second.block);  // resized (e.g. recompute refill)
      ++si;
    }
    next.push_back({item.key, {0, item.bytes}});
    pending.push_back(next.size() - 1);
  }
  while (si < shadow_.size()) {
    alloc_.free(shadow_[si].second.block);
    ++si;
  }
  for (const std::size_t idx : pending) {
    next[idx].second.block = alloc_.allocate(next[idx].second.bytes);
  }
  shadow_ = std::move(next);
}

void MemoryTracker::on_event(const mem::AllocatorEvent& ev) {
  events_.push_back({now_ns(), ev, ctx_});
  if (ev.kind == mem::AllocatorEventKind::kAlloc) {
    // Block ids are monotonically increasing, so push_back keeps the live
    // list sorted for the binary search on free.
    live_blocks_.push_back({ev.block, {ctx_, ev.rounded_bytes}});
    if (ev.stats.allocated_bytes > peak_seen_) {
      peak_seen_ = ev.stats.allocated_bytes;
      // Re-snapshot the attribution at every new peak; the surviving
      // snapshot describes the iteration's measured allocated peak.
      std::map<std::pair<int, int>, std::int64_t> by_tag;
      for (const auto& [block, lb] : live_blocks_) {
        by_tag[{static_cast<int>(lb.tag.kind), lb.tag.layer}] += lb.bytes;
      }
      peak_rows_.clear();
      peak_rows_.reserve(by_tag.size());
      for (const auto& [tag, bytes] : by_tag) {
        peak_rows_.push_back({static_cast<core::OpKind>(tag.first),
                              static_cast<std::int16_t>(tag.second), bytes});
      }
      std::stable_sort(peak_rows_.begin(), peak_rows_.end(),
                       [](const AttributionRow& a, const AttributionRow& b) {
                         return a.bytes > b.bytes;
                       });
    }
  } else if (ev.kind == mem::AllocatorEventKind::kFree) {
    const auto it = std::lower_bound(
        live_blocks_.begin(), live_blocks_.end(), ev.block,
        [](const auto& a, mem::BlockId b) { return a.first < b; });
    if (it != live_blocks_.end() && it->first == ev.block) {
      live_blocks_.erase(it);
    }
  }
}

std::vector<AttributionRow> MemoryTracker::peak_attribution() const {
  return peak_rows_;
}

}  // namespace helix::obs
