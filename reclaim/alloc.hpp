// Allocation policies: the substrate every container draws its nodes from.
//
// Containers take the allocator as a template-template policy next to the
// reclaimer and route *all* node lifetime through it:
//
//   Alloc<Node> alloc_;                       // declared BEFORE reclaimer_
//   Node* n = alloc_.acquire(args...);        // push path
//   guard.retire(n, alloc_);                  // pop path: reclaimer returns
//                                             // the block to alloc_ later
//   alloc_.release(n);                        // unshared teardown paths
//
// The member order is the destruction-safety contract (DESIGN.md §10): the
// reclaimer's destructor drains deferred retires into the allocator, so
// the allocator must be destroyed after it.
//
//   PoolAlloc — the default: reclaim::Pool slabs + a per-thread magazine
//               layer. Acquire and release are a pointer pop/push on a
//               thread-owned LIFO in steady state (no shared atomics at
//               all); magazines refill/flush by moving a whole batch to or
//               from a sharded depot in one tagged CAS, and an empty
//               depot refills a magazine from the slab in one cursor CAS.
//   HeapAlloc — new/delete; the zero-state baseline E10 measures the pool
//               against.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>

#include "sched/hook.hpp"
#include "obs/metrics.hpp"
#include "reclaim/pool.hpp"
#include "reclaim/slot_registry.hpp"
#include "util/env.hpp"

namespace r2d::reclaim {

/// Plain heap allocation, no state: the baseline policy. Containers
/// instantiate one per node type; [[no_unique_address]] makes it free.
template <typename T>
struct HeapAlloc {
  template <typename... Args>
  T* acquire(Args&&... args) {
    if (R2D_HOOK_POINT(kHeapAlloc)) [[unlikely]] throw std::bad_alloc{};
    return new T{std::forward<Args>(args)...};
  }
  void release(T* obj) { delete obj; }
  std::size_t slot_hwm() const { return 0; }  ///< stateless: no slots
};

/// The default policy: pool-backed, with per-thread magazines.
//
// Each thread claims a cache-line-sized slot per instance (the reclaimers'
// claim_slot machinery: at most R2D_MAX_SLOTS distinct threads per
// instance — SlotsExhausted past that — cached through a thread-local
// ring). A slot owns up to two magazines — a
// working LIFO chain plus one full spare (Bonwick's two-magazine scheme),
// so alternating acquire/release never oscillates against the shared
// depot. Overflowing magazines are flushed whole — one tagged CAS splices
// the entire batch onto a depot shard; refills pop a full batch the same
// way, and when the depot is dry too, one cursor CAS carves up to a
// magazine's worth of fresh blocks from the slab. Blocks come from (and
// are finally freed by) the embedded reclaim::Pool's slabs, so nothing is
// lost when a thread dies with a populated magazine.
//
// Magazine size: R2D_MAGAZINE (default 32 blocks ≈ 2 KiB of cache-line
// blocks), read once per instance.
template <typename T>
class PoolAlloc : private detail::Lessor {
  static constexpr std::size_t kDepotShards = 8;
  static constexpr std::uint64_t kPtrMask = (std::uint64_t{1} << 48) - 1;

  struct alignas(64) Slot {
    std::atomic<std::uint64_t> owner{0};  // for detail::claim_slot
    // Owned exclusively by the claiming thread:
    void* mag = nullptr;      ///< working magazine: LIFO chain of blocks
    unsigned count = 0;       ///< blocks in `mag`
    void* spare = nullptr;    ///< full magazine of exactly mag_size_ blocks
  };

  struct alignas(64) DepotShard {
    /// Tagged head of a stack of *full magazines*, linked through the
    /// first block's second chain word.
    std::atomic<std::uint64_t> head{0};
  };

 public:
  PoolAlloc() { detail::ChurnRegistry::get().add_lessor(id_, this); }
  PoolAlloc(const PoolAlloc&) = delete;
  PoolAlloc& operator=(const PoolAlloc&) = delete;

  ~PoolAlloc() {
    // Unregister first so no thread-exit walk can race teardown. The rest
    // is trivial: magazines and depots hold only interior pointers into
    // pool_'s slabs, which pool_'s destructor frees wholesale.
    detail::ChurnRegistry::get().remove_lessor(id_);
  }

  /// Highest slot index ever claimed — the churn harness's bounded-lease
  /// gauge (EXPERIMENTS.md E15).
  std::size_t slot_hwm() const { return hwm_.load(std::memory_order_acquire); }

  template <typename... Args>
  T* acquire(Args&&... args) {
    void* block = take_block(local_slot());
    Pool<T>::unpoison(block);
    return ::new (block) T{std::forward<Args>(args)...};
  }

  void release(T* obj) {
    obj->~T();
    Pool<T>::poison(obj);
    put_block(local_slot(), obj);
  }

  unsigned magazine_size() const { return mag_size_; }

 private:
  /// Release the slot `token` holds on this instance (thread-exit walk or
  /// post-abandon race, arbitrated by the owner CAS).
  void release_thread(std::uint64_t token) noexcept override {
    const std::size_t n = hwm_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      if (slots_[i].owner.load(std::memory_order_relaxed) != token) continue;
      if (detail::acquire_for_cleanse(slots_[i], token)) {
        obs::count<obs::Counter::kSlotExitReleases>();
        flush_slot(slots_[i]);
        slots_[i].owner.store(0, std::memory_order_release);
      }
      return;
    }
  }

  /// Flush both magazines so no block is stranded in a parked slot: the
  /// spare (always exactly full) splices onto the depot in one CAS; the
  /// working magazine is partial, and the depot's refill math assumes full
  /// batches, so its blocks drain to the pool's free lists one by one.
  /// Caller holds the arbitration CAS.
  void flush_slot(Slot& s) {
    if (s.spare != nullptr) {
      depot_push(&s, s.spare);
      s.spare = nullptr;
    }
    void* block = s.mag;
    while (block != nullptr) {
      void* next = Pool<T>::chain_next(block).load(std::memory_order_relaxed);
      pool_.free_block(block);
      block = next;
    }
    s.mag = nullptr;
    s.count = 0;
  }

  void* take_block(Slot* s) {
    // Forced magazine miss: go straight to the slab layer WITHOUT
    // touching the magazines (bypassing a populated magazine into the
    // depot-refill path would clobber `mag` and leak its chain).
    if (R2D_HOOK_POINT(kMagazineTake)) [[unlikely]] {
      return pool_.alloc_block();
    }
    void* block = s->mag;
    if (block != nullptr) [[likely]] {
      s->mag = Pool<T>::chain_next(block).load(std::memory_order_relaxed);
      --s->count;
      return block;
    }
    if (s->spare != nullptr) {
      block = s->spare;
      s->spare = nullptr;
      s->mag = Pool<T>::chain_next(block).load(std::memory_order_relaxed);
      s->count = mag_size_ - 1;
      return block;
    }
    // A forced depot miss skips the scan; both magazines are empty here,
    // so it lands on the slab refill below.
    if (!R2D_HOOK_POINT(kDepotPop) && (block = depot_pop(s)) != nullptr) {
      s->mag = Pool<T>::chain_next(block).load(std::memory_order_relaxed);
      s->count = mag_size_ - 1;
      return block;
    }
    // Slab refill: one cursor CAS carves up to a magazine's worth of
    // blocks, already linked; the first is handed out, the rest become
    // the working magazine.
    const auto run = pool_.carve(mag_size_);
    s->mag = Pool<T>::chain_next(run.head).load(std::memory_order_relaxed);
    s->count = run.count - 1;
    return run.head;
  }

  void put_block(Slot* s, void* block) {
    if (s->count == mag_size_) [[unlikely]] {
      // Working magazine full: park it as the spare, or flush the
      // previous spare to the depot (one CAS moves the whole batch).
      if (s->spare == nullptr) {
        s->spare = s->mag;
      } else {
        depot_push(s, s->spare);
        s->spare = s->mag;
      }
      s->mag = nullptr;
      s->count = 0;
    }
    Pool<T>::chain_next(block).store(s->mag, std::memory_order_relaxed);
    s->mag = block;
    ++s->count;
  }

  /// Splice one full magazine onto this thread's depot shard: a single
  /// tagged CAS, independent of the batch size.
  void depot_push(Slot* s, void* mag_head) {
    obs::count<obs::Counter::kMagFlushes>();
    DepotShard& d = depot_[depot_index(s)];
    std::uint64_t head = d.head.load(std::memory_order_relaxed);
    while (true) {
      Pool<T>::chain_next2(mag_head).store(
          reinterpret_cast<void*>(head & kPtrMask),
          std::memory_order_relaxed);
      const std::uint64_t packed =
          (reinterpret_cast<std::uint64_t>(mag_head) & kPtrMask) |
          (((head >> 48) + 1) << 48);
      if (d.head.compare_exchange_weak(head, packed,
                                       std::memory_order_release,
                                       std::memory_order_relaxed)) {
        return;
      }
      obs::count<obs::Counter::kDepotCasRetries>();
    }
  }

  /// Pop one full magazine, scanning from this thread's shard. The
  /// chain_next2 read before the CAS may observe a stale magazine under
  /// concurrent pop-and-reuse; the tag then fails the CAS (the chain word
  /// is a constructed atomic in slab memory — see reclaim/pool.hpp).
  void* depot_pop(Slot* s) {
    const std::size_t start = depot_index(s);
    for (std::size_t k = 0; k < kDepotShards; ++k) {
      DepotShard& d = depot_[(start + k) % kDepotShards];
      std::uint64_t head = d.head.load(std::memory_order_acquire);
      while (true) {
        void* mag = reinterpret_cast<void*>(head & kPtrMask);
        if (mag == nullptr) break;
        const std::uint64_t next =
            (reinterpret_cast<std::uint64_t>(
                 Pool<T>::chain_next2(mag).load(std::memory_order_relaxed)) &
             kPtrMask) |
            (((head >> 48) + 1) << 48);
        if (d.head.compare_exchange_weak(head, next,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
          obs::count<obs::Counter::kMagRefills>();
          return mag;
        }
        obs::count<obs::Counter::kDepotCasRetries>();
      }
    }
    return nullptr;
  }

  std::size_t depot_index(Slot* s) const {
    return static_cast<std::size_t>(s - slots_.get()) % kDepotShards;
  }

  Slot* local_slot() {
    thread_local detail::SlotCache<Slot> cache;
    Slot* s = cache.lookup(id_, detail::thread_token());
    if (s == nullptr) {
      s = detail::claim_slot(
          slots_.get(), max_slots_, hwm_, id_,
          static_cast<detail::Lessor*>(this),
          [](const Slot&) {
            // Magazines hold no in-flight state — a dead owner's slot is
            // always quiesced; its blocks flow back through flush_slot.
            return true;
          },
          [this](Slot& slot) {
            obs::count<obs::Counter::kSlotSteals>();
            flush_slot(slot);
          });
      cache.insert(id_, s);
    }
    return s;
  }

  static unsigned magazine_size_from_env() {
    const std::uint64_t raw = util::env_u64("R2D_MAGAZINE", 32);
    return static_cast<unsigned>(raw < 1 ? 1 : (raw > 4096 ? 4096 : raw));
  }

  const std::uint64_t id_ = detail::next_instance_id();
  const unsigned mag_size_ = magazine_size_from_env();
  // R2D_MAX_SLOTS, read once per process; declared before slots_ (which
  // it sizes). claim_slot throws SlotsExhausted past this many threads.
  const std::size_t max_slots_ = detail::max_slots();
  Pool<T> pool_;
  DepotShard depot_[kDepotShards];
  std::atomic<std::size_t> hwm_{0};
  std::unique_ptr<Slot[]> slots_{new Slot[max_slots_]};
};

}  // namespace r2d::reclaim
