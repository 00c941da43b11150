// Distributed (unbounded-relaxation) stack designs: a width-array of
// Treiber columns with three placement policies.
//
//   RandomStack    — uniform random column per operation
//   RandomC2Stack  — power-of-two-choices on the column counts
//   KRobinStack    — per-thread round-robin over the columns
//
// None of these maintain a window, so their rank error is unbounded in
// theory (bounded in practice by balance); they are the paper's
// load-balancing comparison points for Figure 2. All placement decisions
// read packed head words (count + pointer in one atomic), so pushes and
// count probes never pin the reclaimer — only pops do.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "core/substack.hpp"
#include "reclaim/alloc.hpp"
#include "reclaim/epoch.hpp"
#include "sched/hook.hpp"

namespace r2d::stacks {

namespace detail {

/// Shared column-array machinery: storage, node allocation, single-column
/// push/pop attempts, and the pop fallback scan that distinguishes "my
/// column is empty" from "the stack is empty".
template <typename T, typename Reclaimer, template <typename> class Alloc>
class ColumnArrayStack {
  protected:
  using Node = core::StackNode<T>;
  using Column = core::StackColumn<T>;
  using Guard = decltype(std::declval<Reclaimer&>().pin());

  explicit ColumnArrayStack(std::size_t width)
      : width_(std::max<std::size_t>(1, width)),
        columns_(new Column[width_]) {}

  ~ColumnArrayStack() {
    for (std::size_t i = 0; i < width_; ++i) {
      core::drain_column(columns_[i], alloc_);
    }
  }

  Node* make_node(T&& value) {
    return alloc_.acquire(nullptr, std::move(value));
  }

  /// One CAS attempt; on success the node is linked. No dereference, no
  /// guard.
  bool try_push_at(std::size_t index, Node* node) {
    Column& column = columns_[index];
    std::uint64_t word = column.head.load(std::memory_order_acquire);
    node->next = core::head_node<T>(word);
    return column.head.compare_exchange_strong(
        word, core::pack_head(node, core::packed_count_after_push(word)),
        std::memory_order_release, std::memory_order_relaxed);
  }

  /// One CAS attempt; nullopt when the column was empty or contended
  /// (`was_empty` tells which).
  std::optional<T> try_pop_at(Guard& guard, std::size_t index,
                              bool& was_empty) {
    Column& column = columns_[index];
    const std::uint64_t word =
        guard.protect_word(column.head, core::head_node<T>);
    Node* head = core::head_node<T>(word);
    was_empty = head == nullptr;
    if (head == nullptr) return std::nullopt;
    Node* next = head->next;
    std::uint64_t expected = word;
    if (column.head.compare_exchange_strong(
            expected,
            core::pack_head(next, core::packed_count_after_pop(word, next)),
            std::memory_order_acq_rel, std::memory_order_relaxed)) {
      T value = std::move(head->value);
      guard.retire(head, alloc_);
      return value;
    }
    return std::nullopt;
  }

  std::uint64_t count_at(std::size_t index) const {
    return core::head_count(columns_[index].head.load(std::memory_order_acquire));
  }

  /// Sweep every column once; returns nullopt only after observing all of
  /// them empty in one contention-free pass.
  std::optional<T> pop_scan(Guard& guard) {
    while (true) {
      std::size_t empties = 0;
      for (std::size_t i = 0; i < width_; ++i) {
        bool was_empty = false;
        if (auto v = try_pop_at(guard, i, was_empty)) return v;
        if (was_empty) ++empties;
      }
      if (empties == width_) return std::nullopt;
    }
  }

 public:
  bool empty() const {
    for (std::size_t i = 0; i < width_; ++i) {
      if (columns_[i].head.load(std::memory_order_acquire) != 0) {
        return false;
      }
    }
    return true;
  }

  /// Racy sum of the column counts — a pure packed-word scan.
  std::uint64_t approx_size() const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < width_; ++i) total += count_at(i);
    return total;
  }

 protected:
  std::size_t width_;
  std::unique_ptr<Column[]> columns_;
  // alloc_ before reclaimer_: deferred retires drain into it (DESIGN.md §10).
  [[no_unique_address]] Alloc<Node> alloc_;
  Reclaimer reclaimer_;
};

}  // namespace detail

template <typename T, typename Reclaimer = reclaim::EpochReclaimer,
          template <typename> class Alloc = reclaim::PoolAlloc>
class RandomStack : public detail::ColumnArrayStack<T, Reclaimer, Alloc> {
  using Base = detail::ColumnArrayStack<T, Reclaimer, Alloc>;
  using Node = typename Base::Node;

 public:
  using value_type = T;
  using reclaimer_type = Reclaimer;

  explicit RandomStack(std::size_t width) : Base(width) {}

  void push(T value) {
    Node* node = this->make_node(std::move(value));
    while (true) {
      // Forced miss re-picks, as if the chosen column's CAS was lost;
      // pop_scan stays unhooked so its certification is never skewed.
      if (R2D_HOOK_POINT(kColumnPick)) [[unlikely]] continue;
      if (this->try_push_at(this->random_index(), node)) return;
    }
  }

  std::optional<T> pop() {
    auto guard = this->reclaimer_.pin();
    // A few random probes, then the certified scan.
    for (std::size_t probe = 0; probe < this->width_; ++probe) {
      if (R2D_HOOK_POINT(kColumnPick)) [[unlikely]] continue;
      bool was_empty = false;
      if (auto v = this->try_pop_at(guard, this->random_index(), was_empty)) {
        return v;
      }
    }
    return this->pop_scan(guard);
  }

 private:
  std::size_t random_index() const {
    return static_cast<std::size_t>(core::hop_rand()) % this->width_;
  }
};

template <typename T, typename Reclaimer = reclaim::EpochReclaimer,
          template <typename> class Alloc = reclaim::PoolAlloc>
class RandomC2Stack : public detail::ColumnArrayStack<T, Reclaimer, Alloc> {
  using Base = detail::ColumnArrayStack<T, Reclaimer, Alloc>;
  using Node = typename Base::Node;

 public:
  using value_type = T;
  using reclaimer_type = Reclaimer;

  explicit RandomC2Stack(std::size_t width) : Base(width) {}

  void push(T value) {
    Node* node = this->make_node(std::move(value));
    while (true) {
      if (R2D_HOOK_POINT(kColumnPick)) [[unlikely]] continue;
      const auto [a, b] = sample_two();
      // Push to the shorter column: keeps the columns balanced, which is
      // what bounds the observed rank error. Both counts come from one
      // packed-word load each — the c2 choice is guard-free.
      const std::size_t target =
          this->count_at(a) <= this->count_at(b) ? a : b;
      if (this->try_push_at(target, node)) return;
    }
  }

  std::optional<T> pop() {
    auto guard = this->reclaimer_.pin();
    for (std::size_t probe = 0; probe < this->width_; ++probe) {
      if (R2D_HOOK_POINT(kColumnPick)) [[unlikely]] continue;
      const auto [a, b] = sample_two();
      // Pop from the taller column: its top is the more recent push.
      const std::size_t target =
          this->count_at(a) >= this->count_at(b) ? a : b;
      bool was_empty = false;
      if (auto v = this->try_pop_at(guard, target, was_empty)) return v;
    }
    return this->pop_scan(guard);
  }

 private:
  std::pair<std::size_t, std::size_t> sample_two() const {
    const std::uint64_t r = core::hop_rand();
    return {static_cast<std::size_t>(r >> 32) % this->width_,
            static_cast<std::size_t>(r & 0xffffffffu) % this->width_};
  }
};

template <typename T, typename Reclaimer = reclaim::EpochReclaimer,
          template <typename> class Alloc = reclaim::PoolAlloc>
class KRobinStack : public detail::ColumnArrayStack<T, Reclaimer, Alloc> {
  using Base = detail::ColumnArrayStack<T, Reclaimer, Alloc>;
  using Node = typename Base::Node;

 public:
  using value_type = T;
  using reclaimer_type = Reclaimer;

  explicit KRobinStack(std::size_t width) : Base(width) {}

  void push(T value) {
    Node* node = this->make_node(std::move(value));
    std::size_t index = next_index();
    while (true) {
      if (R2D_HOOK_POINT(kColumnPick)) [[unlikely]] {
        index = next_index();
        continue;
      }
      if (this->try_push_at(index, node)) return;
      index = next_index();
    }
  }

  std::optional<T> pop() {
    auto guard = this->reclaimer_.pin();
    for (std::size_t probe = 0; probe < this->width_; ++probe) {
      if (R2D_HOOK_POINT(kColumnPick)) [[unlikely]] continue;
      bool was_empty = false;
      if (auto v = this->try_pop_at(guard, next_index(), was_empty)) {
        return v;
      }
    }
    return this->pop_scan(guard);
  }

 private:
  /// Per-thread rotation: consecutive operations by one thread visit
  /// consecutive columns, the paper's "round robin" placement.
  std::size_t next_index() {
    thread_local std::uint64_t cursor = core::hop_rand();
    return static_cast<std::size_t>(cursor++) % this->width_;
  }
};

}  // namespace r2d::stacks
