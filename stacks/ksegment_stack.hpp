// KSegmentStack: the k-stack (Henzinger et al. 2013, simplified) — a
// Treiber stack of segments, each holding up to k items in CAS-able cells.
// Any of the top segment's k items may be popped, giving k-relaxed LIFO.
//
// Segment removal uses the k-stack's deleted-mark protocol: a popper that
// finds the top segment empty marks it deleted, re-scans (a pusher that
// saw the mark retracts its item; one that didn't is visible to the
// re-scan by seq_cst ordering), and only then unlinks. Failure anywhere
// rolls the mark back.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "core/substack.hpp"  // hop_rand
#include "reclaim/alloc.hpp"
#include "reclaim/epoch.hpp"
#include "sched/hook.hpp"

namespace r2d::stacks {

template <typename T, typename Reclaimer = reclaim::EpochReclaimer,
          template <typename> class Alloc = reclaim::PoolAlloc>
class KSegmentStack {
  struct Item {
    T value;
  };

  struct Segment {
    explicit Segment(std::size_t k, Segment* below)
        : k(k), next(below), cells(new std::atomic<Item*>[k]) {
      for (std::size_t i = 0; i < k; ++i) {
        cells[i].store(nullptr, std::memory_order_relaxed);
      }
    }
    // Items left in the cells belong to the stack's item allocator; the
    // stack's destructor drains them before releasing the segment (a
    // segment retired mid-run is certified empty first).
    const std::size_t k;
    Segment* const next;  ///< toward the bottom; immutable after linking
    std::atomic<bool> deleted{false};
    std::unique_ptr<std::atomic<Item*>[]> cells;
  };

 public:
  using value_type = T;
  using reclaimer_type = Reclaimer;
  using allocator_type = Alloc<Item>;

  explicit KSegmentStack(std::size_t k) : k_(std::max<std::size_t>(1, k)) {
    top_.store(seg_alloc_.acquire(k_, nullptr), std::memory_order_relaxed);
  }

  KSegmentStack(const KSegmentStack&) = delete;
  KSegmentStack& operator=(const KSegmentStack&) = delete;

  ~KSegmentStack() {
    Segment* segment = top_.load(std::memory_order_relaxed);
    while (segment != nullptr) {
      Segment* next = segment->next;
      for (std::size_t i = 0; i < segment->k; ++i) {
        if (Item* item = segment->cells[i].load(std::memory_order_relaxed)) {
          item_alloc_.release(item);
        }
      }
      seg_alloc_.release(segment);
      segment = next;
    }
  }

  void push(T value) {
    auto guard = reclaimer_.pin();
    Item* item = item_alloc_.acquire(std::move(value));
    while (true) {
      Segment* top = guard.protect(top_);
      if (try_insert(top, item)) return;
      // Top segment full: stack a fresh segment on it.
      Segment* grown = seg_alloc_.acquire(k_, top);
      Segment* expected = top;
      if (!top_.compare_exchange_strong(expected, grown,
                                        std::memory_order_release,
                                        std::memory_order_relaxed)) {
        seg_alloc_.release(grown);
      }
    }
  }

  std::optional<T> pop() {
    auto guard = reclaimer_.pin();
    while (true) {
      Segment* top = guard.protect(top_);
      if (Item* item = try_remove(top)) {
        T value = std::move(item->value);
        guard.retire(item, item_alloc_);
        return value;
      }
      // Top observed empty. Bottom segment: report empty instead of
      // unlinking the last segment.
      if (top->next == nullptr) {
        if (scan_empty(top)) return std::nullopt;
        continue;
      }
      // Exclusive marker: only the thread whose CAS set the mark may
      // unlink or roll back, so an unlinked segment can never be
      // un-marked (which would let a racing pusher strand an item in it).
      bool unmarked = false;
      if (!top->deleted.compare_exchange_strong(unmarked, true,
                                                std::memory_order_seq_cst,
                                                std::memory_order_relaxed)) {
        continue;  // another popper owns the removal; retry from top_
      }
      if (!scan_empty(top)) {
        top->deleted.store(false, std::memory_order_seq_cst);
        continue;
      }
      Segment* expected = top;
      if (top_.compare_exchange_strong(expected, top->next,
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
        // Mark stays set: stragglers keep retracting.
        guard.retire(top, seg_alloc_);
      } else {
        // A pusher stacked a new segment above us (only the marker may
        // unlink, so top_ changing means growth): the segment stays
        // reachable — revive it.
        top->deleted.store(false, std::memory_order_seq_cst);
      }
    }
  }

  /// Racy probe. Only the protected top segment may be inspected (lower
  /// segments can be unlinked and freed mid-walk under hazard-pointer
  /// reclamation), so while an empty top still covers other segments this
  /// conservatively reports non-empty.
  bool empty() {
    auto guard = reclaimer_.pin();
    Segment* top = guard.protect(top_);
    if (!scan_empty(top)) return false;
    return top->next == nullptr;
  }

  /// Racy lower-bound approximation: counts the top segment only (see
  /// empty() for why the chain cannot be traversed).
  std::uint64_t approx_size() {
    auto guard = reclaimer_.pin();
    Segment* top = guard.protect(top_);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < k_; ++i) {
      if (top->cells[i].load(std::memory_order_acquire) != nullptr) ++total;
    }
    return total;
  }

 private:
  /// Insert into any free cell of `segment`; retracts (and reports
  /// failure) when the segment was concurrently marked deleted.
  bool try_insert(Segment* segment, Item* item) {
    const std::size_t start =
        static_cast<std::size_t>(core::hop_rand()) % k_;
    for (std::size_t probe = 0; probe < k_; ++probe) {
      // Forced miss skips the cell, as if another thread won its CAS;
      // scan_empty stays unhooked so emptiness is never falsely certified.
      if (R2D_HOOK_POINT(kSegmentCell)) [[unlikely]] continue;
      auto& cell = segment->cells[(start + probe) % k_];
      Item* expected = nullptr;
      if (cell.load(std::memory_order_acquire) != nullptr) continue;
      if (cell.compare_exchange_strong(expected, item,
                                       std::memory_order_seq_cst,
                                       std::memory_order_relaxed)) {
        if (!segment->deleted.load(std::memory_order_seq_cst)) return true;
        // The segment is being unlinked: take the item back if no popper
        // beat us to it (in which case the push still counts).
        Item* mine = item;
        return !cell.compare_exchange_strong(mine, nullptr,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed);
      }
    }
    return false;
  }

  Item* try_remove(Segment* segment) {
    const std::size_t start =
        static_cast<std::size_t>(core::hop_rand()) % k_;
    for (std::size_t probe = 0; probe < k_; ++probe) {
      if (R2D_HOOK_POINT(kSegmentCell)) [[unlikely]] continue;
      auto& cell = segment->cells[(start + probe) % k_];
      Item* item = cell.load(std::memory_order_acquire);
      if (item == nullptr) continue;
      if (cell.compare_exchange_strong(item, nullptr,
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
        return item;
      }
    }
    return nullptr;
  }

  bool scan_empty(Segment* segment) const {
    for (std::size_t i = 0; i < k_; ++i) {
      if (segment->cells[i].load(std::memory_order_seq_cst) != nullptr) {
        return false;
      }
    }
    return true;
  }

  const std::size_t k_;
  // Allocators before reclaimer_: its destructor drains deferred retires
  // (items and segments) into them (DESIGN.md §10).
  [[no_unique_address]] Alloc<Item> item_alloc_;
  [[no_unique_address]] Alloc<Segment> seg_alloc_;
  std::atomic<Segment*> top_{nullptr};
  Reclaimer reclaimer_;
};

}  // namespace r2d::stacks
