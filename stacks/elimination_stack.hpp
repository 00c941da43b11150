// EliminationStack: Treiber with an elimination back-off array
// (Hendler, Shavit, Yerushalmi 2004, simplified).
//
// After `cas_attempts` failed CASes on the central stack, an operation
// publishes a request in a random collision slot (or claims an opposite
// request already there). A push/pop pair that meets in a slot exchanges
// the value and never touches the central stack — which is why the scheme
// only helps symmetric workloads (the E8 ablation).
//
// Collision records live in a process-lifetime static pool (claimed per
// thread, never freed): a delayed partner may CAS a record's word long
// after the owner gave up, so records can never be stack-allocated. A
// sequence number packed into the state word makes stale claims fail.
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
#include "reclaim/slot_registry.hpp"
#include "sched/hook.hpp"

namespace r2d::stacks {

struct EliminationParams {
  std::size_t collision_slots = 16;  ///< width of the collision array
  std::uint64_t spin_budget = 256;   ///< waits for a partner, in spins
  unsigned cas_attempts = 2;         ///< central CAS failures before backoff
};

template <typename T, typename Reclaimer = reclaim::EpochReclaimer,
          template <typename> class Alloc = reclaim::PoolAlloc>
class EliminationStack {
  using Node = core::StackNode<T>;

  enum : std::uint64_t {
    kWaiting = 0,
    kClaimed = 1,
    kCancelled = 2,
    kDoneTaken = 3,   ///< a pop consumed this push request's value
    kDoneFilled = 4,  ///< a push filled this pop request's value
    kStateMask = 7,
    kTypeBit = 8,     ///< set for push requests
  };

  struct alignas(64) Record {
    std::atomic<std::uint64_t> owner{0};  // for detail::claim_slot
    std::atomic<std::uint64_t> word{kCancelled};
    /// Which stack instance the current request belongs to: records are
    /// shared per-thread across instances, and a straggler holding a
    /// stale slot pointer from stack A must not claim a request this
    /// thread later published for stack B.
    std::atomic<std::uint64_t> stack_id{0};
    T value{};
  };

  static constexpr std::size_t kMaxRecords = 256;

  static std::uint64_t pack(std::uint64_t seq, bool is_push,
                            std::uint64_t state) {
    return (seq << 4) | (is_push ? kTypeBit : 0) | state;
  }

 public:
  using value_type = T;
  using reclaimer_type = Reclaimer;
  using allocator_type = Alloc<Node>;

  explicit EliminationStack(EliminationParams params = {})
      : params_(params),
        slots_(new std::atomic<Record*>[std::max<std::size_t>(
            1, params.collision_slots)]) {
    if (params_.collision_slots == 0) params_.collision_slots = 1;
    for (std::size_t i = 0; i < params_.collision_slots; ++i) {
      slots_[i].store(nullptr, std::memory_order_relaxed);
    }
  }

  EliminationStack(const EliminationStack&) = delete;
  EliminationStack& operator=(const EliminationStack&) = delete;
  ~EliminationStack() { core::drain_column(column_, alloc_); }

  void push(T value) {
    // Packed-head pushes never dereference the old head, so neither the
    // central-stack attempts nor the collision path (whose records live in
    // a process-lifetime pool) need the reclaimer.
    Node* node = alloc_.acquire(nullptr, std::move(value));
    while (true) {
      std::uint64_t word = column_.head.load(std::memory_order_acquire);
      for (unsigned attempt = 0;; ++attempt) {
        // Forced miss consumes a central attempt, like a lost CAS.
        if (R2D_HOOK_POINT(kStackCas)) [[unlikely]] {
          if (attempt + 1 >= params_.cas_attempts) break;
          word = column_.head.load(std::memory_order_acquire);
          continue;
        }
        node->next = core::head_node<T>(word);
        if (column_.head.compare_exchange_strong(
                word,
                core::pack_head(node, core::packed_count_after_push(word)),
                std::memory_order_release, std::memory_order_acquire)) {
          return;
        }
        if (attempt + 1 >= params_.cas_attempts) break;
      }
      if (try_eliminate_push(node->value)) {
        alloc_.release(node);  // never shared
        return;
      }
    }
  }

  std::optional<T> pop() {
    while (true) {
      {
        // Pin only around the central-stack attempts; spinning in the
        // collision array must not stall epoch advancement.
        auto guard = reclaimer_.pin();
        std::uint64_t word =
            guard.protect_word(column_.head, core::head_node<T>);
        for (unsigned attempt = 0;; ++attempt) {
          if (R2D_HOOK_POINT(kStackCas)) [[unlikely]] {
            if (attempt + 1 >= params_.cas_attempts) break;
            word = guard.protect_word(column_.head, core::head_node<T>);
            continue;
          }
          Node* head = core::head_node<T>(word);
          if (head == nullptr) return std::nullopt;
          Node* next = head->next;
          if (column_.head.compare_exchange_strong(
                  word,
                  core::pack_head(next,
                                  core::packed_count_after_pop(word, next)),
                  std::memory_order_acq_rel, std::memory_order_relaxed)) {
            T value = std::move(head->value);
            guard.retire(head, alloc_);
            return value;
          }
          if (attempt + 1 >= params_.cas_attempts) break;
          // Re-cover the new head before dereferencing it.
          word = guard.protect_word(column_.head, core::head_node<T>);
        }
      }
      T value{};
      if (try_eliminate_pop(value)) return value;
    }
  }

  bool empty() const {
    return column_.head.load(std::memory_order_acquire) == 0;
  }

  std::uint64_t approx_size() const {
    return core::head_count(column_.head.load(std::memory_order_acquire));
  }

 private:
  // ---- collision array ----

  /// Try to exchange with an opposite operation. `is_push` requests offer
  /// `value`; pops receive into it. Returns true when eliminated.
  bool eliminate(bool is_push, T& value) {
    // Forced miss models an empty/contended collision layer: fall back
    // to the central stack, which is always correct.
    if (R2D_HOOK_POINT(kElimExchange)) [[unlikely]] return false;
    std::atomic<Record*>& slot =
        slots_[core::hop_rand() % params_.collision_slots];
    Record* occupant = slot.load(std::memory_order_acquire);
    if (occupant != nullptr) {
      return claim_as_partner(slot, occupant, is_push, value);
    }
    return publish_and_wait(slot, is_push, value);
  }

  bool try_eliminate_push(T& value) { return eliminate(true, value); }
  bool try_eliminate_pop(T& value) { return eliminate(false, value); }

  /// Act as the partner of a waiting opposite request.
  bool claim_as_partner(std::atomic<Record*>& slot, Record* record,
                        bool is_push, T& value) {
    std::uint64_t word = record->word.load(std::memory_order_acquire);
    if ((word & kStateMask) != kWaiting) return false;
    const bool record_is_push = (word & kTypeBit) != 0;
    if (record_is_push == is_push) return false;  // same direction
    // Written before the word's release store, so the acquire load above
    // makes this read current for the observed request; a republish for
    // another stack changes the word and fails the CAS below.
    if (record->stack_id.load(std::memory_order_relaxed) != id_) return false;
    const std::uint64_t claimed = (word & ~kStateMask) | kClaimed;
    if (!record->word.compare_exchange_strong(word, claimed,
                                              std::memory_order_acq_rel,
                                              std::memory_order_relaxed)) {
      return false;
    }
    // Clear the slot before completing so the owner's record is never
    // touched after it observes the done state.
    Record* expected = record;
    slot.compare_exchange_strong(expected, nullptr,
                                 std::memory_order_acq_rel,
                                 std::memory_order_relaxed);
    if (record_is_push) {
      value = record->value;  // we are the pop
      record->word.store((word & ~kStateMask) | kDoneTaken,
                         std::memory_order_release);
    } else {
      record->value = value;  // we are the push
      record->word.store((word & ~kStateMask) | kDoneFilled,
                         std::memory_order_release);
    }
    return true;
  }

  /// Publish our own request and wait spin_budget for a partner.
  bool publish_and_wait(std::atomic<Record*>& slot, bool is_push, T& value) {
    Record* record = local_record();
    const std::uint64_t seq =
        (record->word.load(std::memory_order_relaxed) >> 4) + 1;
    if (is_push) record->value = value;
    record->stack_id.store(id_, std::memory_order_relaxed);
    record->word.store(pack(seq, is_push, kWaiting),
                       std::memory_order_release);
    Record* expected = nullptr;
    if (!slot.compare_exchange_strong(expected, record,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      // Someone beat us to the slot. A straggler holding this record from
      // an earlier publication may still claim the fresh WAITING word, so
      // cancelling must CAS (and honor a won exchange) on this path too.
      if (cancel_or_complete(record, seq, is_push, value)) return true;
      return expected != nullptr &&
             claim_as_partner(slot, expected, is_push, value);
    }
    for (std::uint64_t spin = 0; spin < params_.spin_budget; ++spin) {
      // Under the DST scheduler a spinning waiter must yield or no
      // partner can ever arrive; a forced miss reads as a timeout (the
      // cancel path below is always correct).
      if (R2D_HOOK_POINT(kElimExchange)) [[unlikely]] break;
      const std::uint64_t word = record->word.load(std::memory_order_acquire);
      if ((word & kStateMask) == kDoneTaken ||
          (word & kStateMask) == kDoneFilled) {
        if (!is_push) value = record->value;
        return true;
      }
    }
    // Timed out: cancel, unless a partner claimed us mid-cancel.
    if (cancel_or_complete(record, seq, is_push, value)) return true;
    Record* cleared = record;
    slot.compare_exchange_strong(cleared, nullptr,
                                 std::memory_order_acq_rel,
                                 std::memory_order_relaxed);
    return false;
  }

  /// Withdraw a published WAITING request. Returns false when the cancel
  /// won (caller owns the record again); true when a partner claimed it
  /// first, in which case this waits out the exchange and delivers it.
  bool cancel_or_complete(Record* record, std::uint64_t seq, bool is_push,
                          T& value) {
    std::uint64_t word = pack(seq, is_push, kWaiting);
    if (record->word.compare_exchange_strong(word, pack(seq, is_push,
                                                        kCancelled),
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
      return false;
    }
    // A partner is (or was) mid-exchange: wait for it to finish. The
    // preemption point keeps this (two-instruction) wait from starving
    // the partner under the cooperative scheduler.
    while (true) {
      sched::preempt_point();
      word = record->word.load(std::memory_order_acquire);
      const std::uint64_t state = word & kStateMask;
      if (state == kDoneTaken || state == kDoneFilled) {
        if (!is_push) value = record->value;
        return true;
      }
    }
  }

  /// Per-thread collision record from a process-lifetime pool (see file
  /// comment for why these must never be freed). The lease releases the
  /// record's ownership on thread exit so the pool survives processes that
  /// spawn thousands of short-lived threads; the sequence number makes any
  /// straggling partner's CAS on a re-claimed record fail.
  Record* local_record() {
    static Record* pool = new Record[kMaxRecords];  // intentionally leaked
    static std::atomic<std::size_t> hwm{0};
    struct Lease {
      Record* record;
      ~Lease() { record->owner.store(0, std::memory_order_release); }
    };
    thread_local Lease lease{
        reclaim::detail::claim_slot(pool, kMaxRecords, hwm)};
    return lease.record;
  }

  EliminationParams params_;
  const std::uint64_t id_ = reclaim::detail::next_instance_id();
  core::StackColumn<T> column_;
  std::unique_ptr<std::atomic<Record*>[]> slots_;
  // alloc_ before reclaimer_: deferred retires drain into it (DESIGN.md §10).
  [[no_unique_address]] Alloc<Node> alloc_;
  Reclaimer reclaimer_;
};

}  // namespace r2d::stacks
