// Pool: a lock-free, slab-backed recycler of fixed-size blocks.
//
// acquire() constructs a T in a recycled block (or carves a fresh block out
// of a slab when the free lists are dry); release() destroys it and pushes
// the block back. The E10 ablation compares this against raw new/delete —
// node recycling is what the paper's evaluation (and most lock-free stack
// evaluations) use. PoolAlloc (reclaim/alloc.hpp) layers per-thread
// magazines on top via the raw block API below.
//
// Storage is slabs, not per-block heap allocations: blocks are padded and
// aligned to cache lines (a freshly recycled node never false-shares with
// its neighbor), carving a run of consecutive blocks is one CAS on a
// packed {slab, index} cursor, and the destructor frees the slabs
// wholesale — so blocks parked in a dead thread's magazine or a depot are
// reclaimed no matter where they sit. The contract that buys: every T
// must be *destroyed* before the pool dies (release — or at least ~T —
// must have run), and no block may be touched afterwards.
//
// ABA on the free lists is defended with a 16-bit tag packed into the top
// bits of the head word (x86-64 user pointers fit in 48 bits); shards cut
// contention by assigning each (thread, instance) pair its own list
// round-robin — keyed per instance (core::InstanceLocal), because a
// process-wide counter would give two coexisting pools of the same T
// correlated, skewed assignments.
//
// The two chain words that link free blocks live in the block's *tail*,
// outside the T footprint, and are accessed as relaxed atomics
// (constructed once per slab): an optimistic chain read racing a
// winner's placement-new of T — the load the ABA tag exists to
// invalidate — is then a race on no byte at all, so the lock-free
// splice protocol is exactly as written even under TSan.
//
// Under ASan the T footprint of every free block (carved but not handed
// out, or released) is poisoned, and unpoisoned again by acquire: with
// recycling, a node its reclaimer frees too early is otherwise reused
// silently instead of reported. The tail chain words stay addressable.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <new>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#define R2D_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define R2D_POOL_ASAN 1
#endif
#endif
#ifndef R2D_POOL_ASAN
#define R2D_POOL_ASAN 0
#endif
#if R2D_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

#include "core/substack.hpp"  // InstanceLocal
#include "sched/hook.hpp"
#include "reclaim/slot_registry.hpp"  // next_instance_id

namespace r2d::reclaim {

template <typename T>
class Pool {
  static_assert(sizeof(void*) == 8,
                "Pool packs a 16-bit ABA tag above 48-bit pointers");

  static constexpr std::size_t kShards = 16;
  static constexpr std::uint64_t kPtrMask = (std::uint64_t{1} << 48) - 1;

  struct alignas(64) Shard {
    std::atomic<std::uint64_t> head{0};
  };

  /// Slab header; blocks start kBlockStride bytes in (header padded to one
  /// block so every block keeps 64-byte alignment).
  struct Slab {
    Slab* next;
  };

 public:
  /// Blocks are cache-line padded and aligned: recycled neighbors never
  /// share a line. The T sits at the block start (64-aligned); the two
  /// chain words occupy the last 16 bytes, disjoint from the T footprint.
  static constexpr std::size_t kBlockStride =
      (sizeof(T) + 2 * sizeof(void*) + 63) / 64 * 64;
  static constexpr std::size_t kBlockAlign = 64;
  static_assert(alignof(T) <= kBlockAlign,
                "Pool blocks are 64-byte aligned; over-aligned T unsupported");
  /// Blocks per slab: the most one carve can return.
  static constexpr std::size_t kSlabBlocks = 64;

  /// A run of fresh blocks linked through chain_next, null-terminated.
  struct Carved {
    void* head;
    unsigned count;
  };

  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    // Single-threaded by contract; every T has been destroyed, so the
    // slabs can go wholesale — free lists, magazines, and depots hold
    // interior pointers only.
    Slab* slab = slabs_.load(std::memory_order_acquire);
    while (slab != nullptr) {
      Slab* next = slab->next;
      ::operator delete(slab, std::align_val_t{kBlockAlign});
      slab = next;
    }
  }

  template <typename... Args>
  T* acquire(Args&&... args) {
    void* block = pop_block(local_shard());
    if (block == nullptr) block = alloc_block();
    unpoison(block);
    return ::new (block) T{std::forward<Args>(args)...};
  }

  void release(T* obj) {
    obj->~T();
    poison(obj);
    push_block(local_shard(), obj);
  }

  // ---- raw block API (for layered allocators, see reclaim/alloc.hpp) ----

  /// First chain word of a block: links blocks within a magazine or free
  /// list. The atomics are constructed once when the slab is carved and
  /// sit past the T, so chain traffic and object construction never touch
  /// the same bytes; relaxed is enough, ordering comes from the list-head
  /// CASes.
  static std::atomic<void*>& chain_next(void* block) {
    return *reinterpret_cast<std::atomic<void*>*>(
        static_cast<char*>(block) + kBlockStride - 2 * sizeof(void*));
  }

  /// Second chain word: links whole magazines in a depot.
  static std::atomic<void*>& chain_next2(void* block) {
    return *reinterpret_cast<std::atomic<void*>*>(
        static_cast<char*>(block) + kBlockStride - sizeof(void*));
  }

  /// Return a raw block to a free list — the layered allocators' teardown
  /// path for partially-filled magazines (a depot holds only *full*
  /// magazines, so a dying thread's working magazine drains here block by
  /// block).
  void free_block(void* block) { push_block(local_shard(), block); }

  /// Carve one fresh block (or a scavenged one, see carve()).
  void* alloc_block() { return carve(1).head; }

  /// Carve up to `want` consecutive fresh blocks with one CAS on the
  /// packed {slab, index} cursor; a slab end cuts the run short. The run
  /// comes back linked through chain_next with a null tail, every block's
  /// T footprint poisoned. Losers of a slab-growth race free their
  /// candidate and retry on the winner's slab.
  ///
  /// OOM contract (DESIGN.md §15): when a slab cannot be allocated, the
  /// pool falls back to one *recycled* block from any shard's free list
  /// before propagating bad_alloc — under memory pressure the pool keeps
  /// serving as long as anything has been released anywhere. The cursor
  /// is never left mid-advance: grow() only ever installs a fully
  /// constructed slab with one CAS, and a failed growth touches no
  /// shared state at all.
  Carved carve(unsigned want) {
    std::uint64_t cur = bump_.load(std::memory_order_acquire);
    while (true) {
      Slab* slab = reinterpret_cast<Slab*>(cur & kPtrMask);
      const std::uint64_t index = cur >> 48;
      if (slab != nullptr && index < kSlabBlocks) {
        const std::uint64_t end =
            std::min<std::uint64_t>(index + want, kSlabBlocks);
        if (bump_.compare_exchange_weak(
                cur, (cur & kPtrMask) | (end << 48),
                std::memory_order_acq_rel, std::memory_order_acquire)) {
          for (std::uint64_t i = index; i < end; ++i) {
            void* block = block_at(slab, i);
            poison(block);
            chain_next(block).store(i + 1 < end ? block_at(slab, i + 1)
                                                : nullptr,
                                    std::memory_order_relaxed);
          }
          return {block_at(slab, index), static_cast<unsigned>(end - index)};
        }
        continue;
      }
      if (!grow(cur)) {
        if (void* block = scavenge()) {
          chain_next(block).store(nullptr, std::memory_order_relaxed);
          return {block, 1};
        }
        // A racing thread may have installed a slab while we scavenged;
        // only give up once the cursor is provably unchanged.
        const std::uint64_t latest = bump_.load(std::memory_order_acquire);
        if (latest != cur) {
          cur = latest;
          continue;
        }
        throw std::bad_alloc{};
      }
    }
  }

  /// ASan bookkeeping for a free block's T footprint (no-ops otherwise).
  static void poison([[maybe_unused]] void* block) {
#if R2D_POOL_ASAN
    ASAN_POISON_MEMORY_REGION(block, sizeof(T));
#endif
  }
  static void unpoison([[maybe_unused]] void* block) {
#if R2D_POOL_ASAN
    ASAN_UNPOISON_MEMORY_REGION(block, sizeof(T));
#endif
  }

 private:
  static void* block_at(Slab* slab, std::uint64_t index) {
    return reinterpret_cast<char*>(slab) + kBlockStride * (index + 1);
  }

  /// Drain one recycled block from whichever shard has one — the
  /// can't-grow fallback. Starts from this thread's own shard so the
  /// degraded path keeps what locality it can.
  void* scavenge() {
    const std::size_t start =
        static_cast<std::size_t>(&local_shard() - shards_);
    for (std::size_t k = 0; k < kShards; ++k) {
      if (void* block = pop_block(shards_[(start + k) % kShards])) {
        return block;
      }
    }
    return nullptr;
  }

  /// Install a fresh slab unless someone else did first. Updates `cur` to
  /// the current cursor either way. Returns false when the slab could not
  /// be allocated (real OOM or an injected kSlabGrow fault) — in that
  /// case no shared state has been touched, so the caller can fall back
  /// or retry safely.
  bool grow(std::uint64_t& cur) {
    const std::size_t bytes = kBlockStride * (kSlabBlocks + 1);
    auto* fresh = static_cast<Slab*>(
        R2D_HOOK_POINT(kSlabGrow)
            ? nullptr
            : ::operator new(bytes, std::align_val_t{kBlockAlign},
                             std::nothrow));
    if (fresh == nullptr) [[unlikely]] {
      cur = bump_.load(std::memory_order_acquire);
      return false;
    }
    // Construct every block's chain words before the slab is published —
    // after this the tail 16 bytes of each block are only ever touched
    // through these atomics.
    for (std::uint64_t i = 0; i < kSlabBlocks; ++i) {
      void* block = block_at(fresh, i);
      ::new (static_cast<void*>(&chain_next(block))) std::atomic<void*>(nullptr);
      ::new (static_cast<void*>(&chain_next2(block)))
          std::atomic<void*>(nullptr);
    }
    if (bump_.compare_exchange_strong(
            cur, reinterpret_cast<std::uint64_t>(fresh) & kPtrMask,
            std::memory_order_acq_rel, std::memory_order_acquire)) {
      // Won: publish for the destructor's wholesale free.
      fresh->next = slabs_.load(std::memory_order_relaxed);
      while (!slabs_.compare_exchange_weak(fresh->next, fresh,
                                           std::memory_order_release,
                                           std::memory_order_relaxed)) {
      }
      cur = reinterpret_cast<std::uint64_t>(fresh) & kPtrMask;
    } else {
      ::operator delete(fresh, std::align_val_t{kBlockAlign});
    }
    return true;
  }

  /// The calling thread's shard for *this* pool: assigned round-robin per
  /// instance on first touch, so coexisting pools of one T spread threads
  /// independently instead of sharing one process-wide counter.
  Shard& local_shard() {
    thread_local core::InstanceLocal<std::uint32_t> assigned;
    std::uint32_t& idx = assigned.get(id_);
    if (idx == 0) [[unlikely]] {
      idx = static_cast<std::uint32_t>(
                shard_seq_.fetch_add(1, std::memory_order_relaxed) % kShards) +
            1;
    }
    return shards_[idx - 1];
  }

  void* pop_block(Shard& shard) {
    std::uint64_t head = shard.head.load(std::memory_order_acquire);
    while (true) {
      void* block = reinterpret_cast<void*>(head & kPtrMask);
      if (block == nullptr) return nullptr;
      // The tag makes a recycled-and-repushed block compare unequal, so
      // the chain_next read below cannot be stitched onto the wrong
      // successor (a stale read is of a constructed atomic in mapped slab
      // memory; its value is discarded when the CAS fails).
      const std::uint64_t next =
          (reinterpret_cast<std::uint64_t>(
               chain_next(block).load(std::memory_order_relaxed)) &
           kPtrMask) |
          (((head >> 48) + 1) << 48);
      if (shard.head.compare_exchange_weak(head, next,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
        return block;
      }
    }
  }

  void push_block(Shard& shard, void* block) {
    std::uint64_t head = shard.head.load(std::memory_order_relaxed);
    while (true) {
      chain_next(block).store(reinterpret_cast<void*>(head & kPtrMask),
                              std::memory_order_relaxed);
      const std::uint64_t packed =
          (reinterpret_cast<std::uint64_t>(block) & kPtrMask) |
          (((head >> 48) + 1) << 48);
      if (shard.head.compare_exchange_weak(head, packed,
                                           std::memory_order_release,
                                           std::memory_order_relaxed)) {
        return;
      }
    }
  }

  const std::uint64_t id_ = detail::next_instance_id();
  std::atomic<std::uint64_t> shard_seq_{0};
  /// Packed carve cursor: [next block index : 16][slab pointer : 48].
  std::atomic<std::uint64_t> bump_{0};
  std::atomic<Slab*> slabs_{nullptr};
  Shard shards_[kShards];
};

}  // namespace r2d::reclaim
