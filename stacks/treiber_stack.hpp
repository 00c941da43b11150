// TreiberStack: the strict lock-free baseline (Treiber 1986).
//
// A single packed-head column (core/substack.hpp) behind the pluggable
// reclamation policy. This is the stack every figure compares against and
// the sub-structure the distributed designs shard. Pushes link onto the
// packed head without dereferencing it, so they never touch the reclaimer;
// only pops (which read head->next) pin.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <utility>

#include "core/substack.hpp"
#include "reclaim/alloc.hpp"
#include "reclaim/epoch.hpp"
#include "sched/hook.hpp"

namespace r2d::stacks {

template <typename T, typename Reclaimer = reclaim::EpochReclaimer,
          template <typename> class Alloc = reclaim::PoolAlloc>
class TreiberStack {
  using Node = core::StackNode<T>;

 public:
  using value_type = T;
  using reclaimer_type = Reclaimer;
  using allocator_type = Alloc<Node>;

  TreiberStack() = default;
  TreiberStack(const TreiberStack&) = delete;
  TreiberStack& operator=(const TreiberStack&) = delete;
  ~TreiberStack() { core::drain_column(column_, alloc_); }

  void push(T value) {
    Node* node = alloc_.acquire(nullptr, std::move(value));
    std::uint64_t word = column_.head.load(std::memory_order_acquire);
    while (true) {
      // Hook per CAS attempt: a preemption (or forced retry) here lands
      // between reading the head and publishing against it.
      if (R2D_HOOK_POINT(kStackCas)) [[unlikely]] {
        word = column_.head.load(std::memory_order_acquire);
        continue;
      }
      node->next = core::head_node<T>(word);
      if (column_.head.compare_exchange_weak(
              word, core::pack_head(node, core::packed_count_after_push(word)),
              std::memory_order_release, std::memory_order_acquire)) {
        return;
      }
    }
  }

  std::optional<T> pop() {
    // Word-only empty probe before paying for a pin.
    if (column_.head.load(std::memory_order_acquire) == 0) {
      return std::nullopt;
    }
    auto guard = reclaimer_.pin();
    std::uint64_t word = guard.protect_word(column_.head, core::head_node<T>);
    while (true) {
      // Forced miss reads as a lost CAS: re-cover the head and retry.
      if (R2D_HOOK_POINT(kStackCas)) [[unlikely]] {
        word = guard.protect_word(column_.head, core::head_node<T>);
        continue;
      }
      Node* head = core::head_node<T>(word);
      if (head == nullptr) return std::nullopt;
      Node* next = head->next;
      if (column_.head.compare_exchange_weak(
              word,
              core::pack_head(next, core::packed_count_after_pop(word, next)),
              std::memory_order_acq_rel, std::memory_order_relaxed)) {
        T value = std::move(head->value);
        guard.retire(head, alloc_);
        return value;
      }
      // Re-cover the new head before dereferencing it (hazard policies
      // must republish).
      word = guard.protect_word(column_.head, core::head_node<T>);
    }
  }

  bool empty() const {
    return column_.head.load(std::memory_order_acquire) == 0;
  }

  std::uint64_t approx_size() const {
    return core::head_count(column_.head.load(std::memory_order_acquire));
  }

 private:
  core::StackColumn<T> column_;
  // alloc_ before reclaimer_: deferred retires drain into it (DESIGN.md §10).
  [[no_unique_address]] Alloc<Node> alloc_;
  Reclaimer reclaimer_;
};

}  // namespace r2d::stacks
