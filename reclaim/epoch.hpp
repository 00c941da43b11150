// EpochReclaimer: three-epoch epoch-based reclamation (EBR).
//
// The default policy for every r2d container. Each operation announces the
// global epoch on entry and goes idle on exit (one store each); retired
// nodes land in the announcing thread's bucket for that epoch and are
// freed once the global epoch has advanced twice past it — at which point
// no thread can still hold a reference (the epoch-(e) bucket is freed when
// the global epoch reaches e+2; every critical section from epochs <= e
// has exited by then and later sections started after the nodes were
// unlinked).
//
// The announcement must be ordered before the critical section's pointer
// loads (a store-load ordering). On kernels with
// membarrier(PRIVATE_EXPEDITED) that ordering is asymmetric: pin() pays
// only a release store plus a compiler barrier, and the epoch advancer
// issues the full barrier process-wide before scanning announcements (see
// reclaim/membarrier.hpp). Elsewhere — or with R2D_MEMBARRIER=0 — pin()
// falls back to the classic per-operation seq_cst fence.
//
// Skipping an advance is always safe (garbage just waits), so the heavy
// fence is paid only when an advance can succeed: try_advance() returns
// early when another thread advanced since this slot last looked, when a
// fence-free pre-scan already sees a straggler, or when another thread's
// fence-scan-CAS is in flight. Only the scan after the fence may permit
// the epoch CAS.
//
// Policy contract: see reclaim/leaky.hpp. Bounded garbage: at most the
// nodes retired across three epochs per thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "sched/hook.hpp"
#include "obs/metrics.hpp"
#include "reclaim/membarrier.hpp"
#include "reclaim/slot_registry.hpp"

// EBR's safety argument is temporal — "a thread announcing a recent epoch
// cannot still hold nodes retired two epochs ago" — which no
// happens-before edge expresses, and TSan models neither the symmetric
// seq_cst fence nor membarrier. Recycling node memory under TSan therefore
// produces false data-race reports; TSan builds defer every free to the
// reclaimer destructor instead. ASan builds recycle for real and are the
// configuration that catches genuine use-after-free.
#if defined(__SANITIZE_THREAD__)
#define R2D_EBR_DEFER_FREES 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define R2D_EBR_DEFER_FREES 1
#endif
#endif
#ifndef R2D_EBR_DEFER_FREES
#define R2D_EBR_DEFER_FREES 0
#endif

namespace r2d::reclaim {

class EpochReclaimer : private detail::Lessor {
  static constexpr std::uint64_t kIdle = ~std::uint64_t{0};
  // Retires between calls to try_advance(). A call fences only when an
  // advance can succeed (see try_advance), so the cadence sets how soon
  // an epoch advances once its last straggler unpins, while the fence
  // rate follows the advance rate; garbage stays bounded by three epochs
  // of retires per thread either way.
  static constexpr std::uint64_t kAdvanceEvery = 64;
  static constexpr std::uint64_t kAdvanceEveryMembarrier = 256;

  struct Retired {
    void* node;
    void* ctx;  ///< owning allocator (nullptr: plain delete)
    void (*destroy)(void*, void*);
  };

  struct alignas(64) Slot {
    std::atomic<std::uint64_t> owner{0};
    std::atomic<std::uint64_t> epoch{kIdle};
    // Owned exclusively by the claiming thread:
    std::vector<Retired> bucket[3];
    std::uint64_t bucket_epoch[3] = {0, 0, 0};
    std::uint64_t retires_since_advance = 0;
    std::uint64_t seen_epoch = 0;  ///< global epoch at this slot's last try
  };

 public:
  static constexpr unsigned kMaxProtected = 4;

  EpochReclaimer() {
    detail::ChurnRegistry::get().add_lessor(id_, this);
  }
  EpochReclaimer(const EpochReclaimer&) = delete;
  EpochReclaimer& operator=(const EpochReclaimer&) = delete;

  ~EpochReclaimer() {
    // Unregister FIRST: after this returns, no thread-exit walk can reach
    // us, so teardown races with nothing. Exited threads' slots were
    // released by their walks; threads exiting later skip us.
    detail::ChurnRegistry::get().remove_lessor(id_);
    // Single-threaded by contract (all guards gone): drain everything —
    // live slots' buckets plus the orphan queue (exited threads' retirees
    // whose grace period had not yet passed).
    const std::size_t n = hwm_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      for (auto& bucket : slots_[i].bucket) {
        for (const Retired& r : bucket) destroy_retired(r);
        bucket.clear();
      }
    }
    for (const Orphan& o : orphans_) destroy_retired(o.retired);
    orphans_.clear();
  }

  /// Highest slot index ever claimed — the churn harness's bounded-lease
  /// gauge (EXPERIMENTS.md E15).
  std::size_t slot_hwm() const { return hwm_.load(std::memory_order_acquire); }

  class Guard {
   public:
    Guard(EpochReclaimer* r, Slot* s) : r_(r), s_(s) {}
    Guard(Guard&& o) noexcept : r_(o.r_), s_(o.s_) { o.s_ = nullptr; }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    Guard& operator=(Guard&&) = delete;

    ~Guard() {
      if (s_ != nullptr) s_->epoch.store(kIdle, std::memory_order_release);
    }

    template <typename T>
    T* protect(const std::atomic<T*>& src, unsigned /*slot*/ = 0) {
      // The announcement in pin() already protects every load in this
      // critical section.
      return src.load(std::memory_order_acquire);
    }

    /// Safe load of a packed head word; `unpack` names the node pointer a
    /// policy would have to shield (unused here — the epoch announcement
    /// covers it).
    template <typename Unpack>
    std::uint64_t protect_word(const std::atomic<std::uint64_t>& src,
                               Unpack /*unpack*/, unsigned /*slot*/ = 0) {
      return src.load(std::memory_order_acquire);
    }

    /// Safe snapshot of a two-word (16-byte) head: `load` returns the word
    /// pair, `unpack` the two node pointers a hazard policy would shield.
    /// The epoch announcement covers every load in the critical section,
    /// so one snapshot suffices. Note the stronger guarantee EBR gives the
    /// deque's stabilization step: *no* node retired after this pin can be
    /// recycled while the guard lives, so even unvalidated interior links
    /// read inside the section can never be resurrected addresses
    /// (DESIGN.md §11).
    template <typename Load, typename Unpack>
    auto protect_pair(Load&& load, Unpack&& /*unpack*/,
                      unsigned /*first_slot*/ = 0) {
      return load();
    }

    /// Publish one extra raw pointer — a no-op here; the announcement
    /// already shields it.
    void protect_raw(void* /*node*/, unsigned /*slot*/) {}

    template <typename T>
    void retire(T* node) {
      r_->retire_at(s_, node, nullptr,
                    [](void* p, void*) { delete static_cast<T*>(p); });
    }

    /// Retire a node owned by an allocator policy: the deferred free
    /// returns the block to `alloc` (which must outlive this reclaimer)
    /// instead of heap-deleting it.
    template <typename T, typename Alloc>
    void retire(T* node, Alloc& alloc) {
      r_->retire_at(s_, node, &alloc, [](void* p, void* a) {
        static_cast<Alloc*>(a)->release(static_cast<T*>(p));
      });
    }

   private:
    EpochReclaimer* r_;
    Slot* s_;
  };

  Guard pin() {
    obs::count<obs::Counter::kEpochPins>();
    Slot* s = local_slot();
    const std::uint64_t e = global_epoch_.load(std::memory_order_relaxed);
    if (membarrier_) [[likely]] {
      // Release keeps the happens-before edge to the advancer's acquire
      // scan; the store-load ordering against this critical section's
      // loads comes from the advancer's membarrier, so only a compiler
      // barrier is needed here (see reclaim/membarrier.hpp).
      s->epoch.store(e, std::memory_order_release);
      std::atomic_signal_fence(std::memory_order_seq_cst);
    } else {
      // Order the announcement before any pointer load in the critical
      // section (store-load barrier).
      s->epoch.store(e, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
    }
    return Guard(this, s);
  }

  /// True when pin() runs fence-free and the advance side pays the
  /// membarrier instead.
  bool uses_membarrier() const { return membarrier_; }

 private:
  /// A retiree inherited from an exited thread's slot, stamped with the
  /// epoch its bucket was retiring into: safe to destroy once the global
  /// epoch has advanced twice past it (the same argument as bucket frees).
  struct Orphan {
    Retired retired;
    std::uint64_t epoch;
  };

  /// Release the slot `token` holds on this instance (thread-exit walk).
  /// The arbitration CAS makes this mutually exclusive with a stealer that
  /// sampled the token as dead (abandoned threads); losing means the other
  /// party cleanses, which is equally fine.
  void release_thread(std::uint64_t token) noexcept override {
    const std::size_t n = hwm_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      if (slots_[i].owner.load(std::memory_order_relaxed) != token) continue;
      if (detail::acquire_for_cleanse(slots_[i], token)) {
        obs::count<obs::Counter::kSlotExitReleases>();
        orphan_slot(slots_[i]);
        slots_[i].owner.store(0, std::memory_order_release);
      }
      return;
    }
  }

  /// Hand a quiesced slot's retired buckets to the orphan queue and reset
  /// the slot to fresh-claim state. Caller must hold the slot via the
  /// arbitration CAS (exit walk or steal cleanse).
  void orphan_slot(Slot& s) noexcept {
    {
      std::lock_guard<std::mutex> lock(orphan_mu_);
      const std::size_t incoming =
          s.bucket[0].size() + s.bucket[1].size() + s.bucket[2].size();
      bool room = incoming == 0;
      if (!room) {
        // Reach capacity before queueing anything: runs on the noexcept
        // exit walk, and a half-queued bucket would double-count.
        try {
          orphans_.reserve(orphans_.size() + incoming);
          room = true;
        } catch (const std::bad_alloc&) {
          // Can't queue and can't destroy early (the dead owner's grace
          // period has not passed): leak the retirees, visibly.
          obs::count<obs::Counter::kRetireLeaks>(incoming);
        }
      }
      std::uint64_t queued = 0;
      for (unsigned k = 0; k < 3; ++k) {
        if (room) {
          for (const Retired& r : s.bucket[k]) {
            orphans_.push_back(Orphan{r, s.bucket_epoch[k]});
            ++queued;
          }
        }
        s.bucket[k].clear();
      }
      if (queued != 0) obs::count<obs::Counter::kEpochOrphansQueued>(queued);
      orphan_count_.store(orphans_.size(), std::memory_order_release);
    }
    for (unsigned k = 0; k < 3; ++k) s.bucket_epoch[k] = 0;
    s.retires_since_advance = 0;
    s.seen_epoch = 0;
    s.epoch.store(kIdle, std::memory_order_release);
  }

  /// Free every orphan whose grace period has passed: nodes retired at
  /// epoch e are unreachable once the global epoch reaches e + 2 (no
  /// thread pinned at <= e remains, later pins began after the unlink).
  /// No-op under deferred-free (TSan) builds; the destructor drains.
  void drain_orphans(std::uint64_t global_e) {
#if !R2D_EBR_DEFER_FREES
    // Injected deferral: skipping a drain is always legal — the queue
    // just waits for the next advance (what a real bad_alloc below does).
    if (R2D_HOOK_POINT(kEpochOrphanDrain)) [[unlikely]] return;
    if (orphan_count_.load(std::memory_order_acquire) == 0) return;
    std::vector<Orphan> ready;
    {
      std::lock_guard<std::mutex> lock(orphan_mu_);
      std::size_t n_ready = 0;
      for (const Orphan& o : orphans_) {
        if (o.epoch + 2 <= global_e) ++n_ready;
      }
      if (n_ready == 0) return;
      // Reserve BEFORE compacting: a bad_alloc here defers the whole
      // drain with the queue untouched; the no-throw push_backs below
      // can then never leave orphans_ half-compacted.
      try {
        ready.reserve(n_ready);
      } catch (const std::bad_alloc&) {
        return;
      }
      std::size_t keep = 0;
      for (Orphan& o : orphans_) {
        if (o.epoch + 2 <= global_e) {
          ready.push_back(o);
        } else {
          orphans_[keep++] = o;
        }
      }
      orphans_.resize(keep);
      orphan_count_.store(keep, std::memory_order_release);
    }
    // Destroys outside the lock: a pooled node's release may claim a slot.
    if (!ready.empty()) {
      obs::count<obs::Counter::kEpochOrphansDrained>(ready.size());
    }
    for (const Orphan& o : ready) destroy_retired(o.retired);
#else
    (void)global_e;
#endif
  }

  /// Destroy one retiree, absorbing resource failure: a pooled release
  /// can throw SlotsExhausted (its slot claim) after the node's
  /// destructor has already run, past the point of repair — the only
  /// consistent outcome is to leak that one block and keep going
  /// (DESIGN.md §15). Counted so leaks are visible, never silent.
  static void destroy_retired(const Retired& r) noexcept {
    try {
      r.destroy(r.node, r.ctx);
    } catch (...) {
      obs::count<obs::Counter::kRetireLeaks>();
    }
  }

  /// Never lets a resource exception escape: retire is called AFTER a
  /// pop has linearized (the value is already moved out), so a throw
  /// here would lose a successfully delivered element. bad_alloc on the
  /// bucket append leaks the single node instead (DESIGN.md §15).
  void retire_at(Slot* s, void* node, void* ctx,
                 void (*destroy)(void*, void*)) noexcept {
    const std::uint64_t e = s->epoch.load(std::memory_order_relaxed);
    auto& bucket = s->bucket[e % 3];
    if (s->bucket_epoch[e % 3] != e) {
#if !R2D_EBR_DEFER_FREES
      // Bucket holds nodes from epoch e-3 or older; the global epoch has
      // since reached at least e >= old+3 > old+2, so they are safe.
      for (const Retired& r : bucket) destroy_retired(r);
      bucket.clear();
#endif
      s->bucket_epoch[e % 3] = e;
    }
    try {
      bucket.push_back(Retired{node, ctx, destroy});
    } catch (const std::bad_alloc&) {
      // Can't track it, can't free it (a concurrent reader may still
      // hold a reference): leak this one node, visibly.
      obs::count<obs::Counter::kRetireLeaks>();
      return;
    }
    if (++s->retires_since_advance >= advance_every_) {
      s->retires_since_advance = 0;
      try_advance(s);
    }
  }

  /// True when no slot announces an epoch other than `e`. Without a
  /// preceding heavy fence the answer is only a hint: a stale "no" may
  /// skip an attempt, but only a scan after the fence may permit an
  /// advance.
  bool quiescent_at(std::uint64_t e) const {
    const std::size_t n = hwm_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t se = slots_[i].epoch.load(std::memory_order_acquire);
      if (se != kIdle && se != e) return false;  // straggler, older epoch
    }
    return true;
  }

  /// Cadence-triggered advance. Skipping is always safe — nodes merely
  /// wait for a later advance — so every cheap reason to skip is taken
  /// before the heavy fence, which is paid (and counted as a try) only
  /// when an advance can succeed, by one thread at a time.
  void try_advance(Slot* s) {
    const std::uint64_t seen = global_epoch_.load(std::memory_order_acquire);
    // 1. Another thread advanced, and paid the fence, since this slot's
    //    last try.
    if (seen != s->seen_epoch) {
      s->seen_epoch = seen;
      drain_orphans(seen);
      return;
    }
    // 2. A straggler is visible without the fence: the scan after it
    //    would fail too.
    if (!quiescent_at(seen)) return;
    // Injected deferral: skipping is always safe. Under the scheduler this
    // is where another thread's advance can land after the pre-scan.
    if (R2D_HOOK_POINT(kEpochAdvance)) [[unlikely]] return;
    // 3. Another thread's fence-scan-CAS is in flight. Only the flag
    //    holder CASes, so the epoch cannot move under the holder's scan.
    if (advancing_.exchange(true, std::memory_order_acquire)) return;
    obs::count<obs::Counter::kEpochAdvanceTries>();
    // Make every thread's (announce; load) pair ordered with respect to
    // the scan below — the heavy half of pin()'s asymmetric fence.
    detail::asymmetric_heavy_fence(membarrier_);
    const std::uint64_t e = global_epoch_.load(std::memory_order_acquire);
    std::uint64_t now = e;
    if (quiescent_at(e) &&
        global_epoch_.compare_exchange_strong(now, e + 1,
                                              std::memory_order_acq_rel)) {
      obs::count<obs::Counter::kEpochAdvances>();
      now = e + 1;
    }
    advancing_.store(false, std::memory_order_release);
    s->seen_epoch = now;
    drain_orphans(now);
  }

  Slot* local_slot() {
    thread_local detail::SlotCache<Slot> cache;
    Slot* s = cache.lookup(id_, detail::thread_token());
    if (s == nullptr) {
      s = detail::claim_slot(
          slots_.get(), max_slots_, hwm_, id_,
          static_cast<detail::Lessor*>(this),
          // A dead owner's slot is stealable only outside a critical
          // section: a pinned epoch means it died mid-operation and its
          // protected loads can never be proven finished.
          [](const Slot& slot) {
            return slot.epoch.load(std::memory_order_acquire) == kIdle;
          },
          [this](Slot& slot) {
            obs::count<obs::Counter::kSlotSteals>();
            orphan_slot(slot);
          });
      cache.insert(id_, s);
    }
    return s;
  }

  const std::uint64_t id_ = detail::next_instance_id();
  const bool membarrier_ = detail::use_membarrier();
  const std::uint64_t advance_every_ =
      membarrier_ ? kAdvanceEveryMembarrier : kAdvanceEvery;
  // R2D_MAX_SLOTS, read once per process; declared before slots_ (which
  // it sizes). claim_slot throws SlotsExhausted past this many threads.
  const std::size_t max_slots_ = detail::max_slots();
  std::atomic<std::uint64_t> global_epoch_{0};
  std::atomic<bool> advancing_{false};  ///< a fence-scan-CAS is in flight
  std::atomic<std::size_t> hwm_{0};
  std::unique_ptr<Slot[]> slots_{new Slot[max_slots_]};
  // Orphan queue: retirees inherited from exited threads' slots, drained
  // by try_advance once their grace period passes (and by the destructor).
  // The count is the hot-path gate so retiring threads skip the mutex.
  std::mutex orphan_mu_;
  std::vector<Orphan> orphans_;
  std::atomic<std::size_t> orphan_count_{0};
};

}  // namespace r2d::reclaim
