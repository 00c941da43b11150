// r2d::obs — library-wide observability: sharded counters, window-shift
// tracing, and snapshot/export, with a compile-time off switch.
//
// Three layers (DESIGN.md §14):
//
//  1. Counters are sharded per thread into cache-line-padded slots leased
//     through the PR 7 slot registry (reclaim/slot_registry.hpp): a thread's
//     first increment claims a slot, its exit hook folds the slot's counts
//     into a global folded array and releases the lease — so counts survive
//     unbounded thread churn and the slot array stays bounded. Increments
//     are single-writer (plain load+store, no lock prefix); the fold uses
//     exchange(0), and the only writer that can race it is an *abandoned*
//     thread still counting into a stale shard — a diagnostics-grade skew,
//     never a crash. At quiescence snapshot() — which sums folded + every
//     slot + the overflow slot — is exact. Because only the global sums are
//     meaningful,
//     cross-thread slot reuse after a steal is harmless (misattribution,
//     not loss), which is what lets the hot increment skip the registry's
//     ownership revalidation entirely.
//  2. The off switch is two-level. Compile time: building with R2D_OBS=0
//     (CMake option, default ON) selects the Metrics<false> specialization,
//     whose entire API is empty inline functions — obs::count<>() compiles
//     to nothing and hot paths are byte-identical to an uninstrumented
//     build. Run time: R2D_METRICS=0 (default 1) short-circuits add() after
//     one predictable branch on a cached bool; scripts/ci.sh's overhead
//     guard bounds the *enabled* cost instead.
//  3. snapshot() folds the shards into a stable Snapshot with conservation
//     invariants (shift attempts == wins + losses; ops == fast hits +
//     per-outcome sweep sum), and a per-slot fixed-size ring buffer traces
//     window-shift events ({old window, proposed window, cause, won, tsc},
//     capacity R2D_TRACE_RING, default 64, 0 = off) dumpable on demand or
//     from util/crash_trace.hpp's fatal-signal handler.
#pragma once

#ifndef R2D_OBS
#define R2D_OBS 1
#endif

#include <cstdint>

#if R2D_OBS
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "fault/inject.hpp"
#include "reclaim/slot_registry.hpp"
#include "util/crash_trace.hpp"
#include "util/env.hpp"

#if defined(__x86_64__)
#include <x86intrin.h>
#endif
#endif  // R2D_OBS

namespace r2d::obs {

/// Everything the library counts, one global taxonomy. Grouped by layer;
/// names double as the JSON export keys (see counter_name).
enum class Counter : unsigned {
  // Window-sweep engine (core/window.hpp). One sweep = one slow-path call;
  // kSweeps == kSweepSuccess + kSweepStop at quiescence.
  kSweeps,           ///< drive_window_sweep invocations (fast path missed)
  kSweepSuccess,     ///< sweeps that completed the operation
  kSweepStop,        ///< sweeps certified terminal (e.g. structure empty)
  kProbes,           ///< attempt() calls inside sweeps
  kHopsRandom,       ///< hops after an ineligible probe, random policy
  kHopsStreak,       ///< hops after an ineligible probe, round-robin streak
  kHopsContended,    ///< hops after a lost CAS on an eligible column
  kVerifyScans,      ///< kRandomOnly read-only full-width verify scans
  kVerifyRedirects,  ///< verify scans that found an eligible column
  kCertAttempts,     ///< certified() consults (a certified failed sweep)
  kCertFails,        ///< certified() verdicts of kRestart (cert invalidated)
  kShiftAttempts,    ///< window-shift CASes tried
  kShiftWins,        ///< window-shift CASes won
  kShiftLosses,      ///< window-shift CASes lost (a racing shift landed)
  // Container fast paths. An op is either a fast hit or exactly one sweep:
  // ops == kFastHits + kSweepSuccess + kSweepStop.
  kFastHits,  ///< operations completed on the first (fast-path) probe
  // Reclaimers.
  kEpochPins,           ///< EpochReclaimer::pin() critical-section entries
  kEpochAdvanceTries,   ///< heavy fences (each followed by scan + CAS)
  kEpochAdvances,       ///< global-epoch CAS wins
  kEpochOrphansQueued,  ///< retire-buckets parked on the orphan queue
  kEpochOrphansDrained, ///< orphan buckets freed after their grace period
  kHazardPins,          ///< HazardReclaimer::pin() entries
  kHazardScans,         ///< retire-threshold scans of the hazard table
  kHazardOrphansAdopted,///< orphaned retire-lists adopted by a scan
  // Slot-lease registry (counted from the lessors; see DESIGN.md §14).
  kSlotSteals,        ///< slots reclaimed from dead-but-quiesced threads
  kSlotExitReleases,  ///< slots released by the thread-exit walk
  // PoolAlloc magazine layer.
  kMagFlushes,      ///< full magazines pushed to the depot
  kMagRefills,      ///< full magazines popped from the depot
  kDepotCasRetries, ///< failed depot head CASes (push or pop)
  // DWCAS deque column backend.
  kDwcasRetries,  ///< failed 16-byte head CASes
  kHelpBridges,   ///< bridge CASes helped on another op's pending head
  // Fault injection + OOM hardening (fault/inject.hpp, DESIGN.md §15).
  kFaultsInjected,  ///< fault points that fired (all sites, all policies)
  kRetireLeaks,     ///< nodes leaked when a retire/free path hit OOM or
                    ///< slot exhaustion past the point of repair
  kCount
};

inline constexpr unsigned kCounterCount = static_cast<unsigned>(Counter::kCount);

/// Who asked for the window shift a trace entry records.
enum class ShiftCause : std::uint8_t {
  kUnknown,
  kStackPush,
  kStackPop,
  kQueuePut,
  kQueueGet,
  kBagPut,
  kBagTake,
  kDequeFrontPush,
  kDequeFrontPop,
  kDequeBackPush,
  kDequeBackPop,
};

inline const char* to_string(ShiftCause c) {
  switch (c) {
    case ShiftCause::kStackPush: return "stack-push";
    case ShiftCause::kStackPop: return "stack-pop";
    case ShiftCause::kQueuePut: return "queue-put";
    case ShiftCause::kQueueGet: return "queue-get";
    case ShiftCause::kBagPut: return "bag-put";
    case ShiftCause::kBagTake: return "bag-take";
    case ShiftCause::kDequeFrontPush: return "deque-front-push";
    case ShiftCause::kDequeFrontPop: return "deque-front-pop";
    case ShiftCause::kDequeBackPush: return "deque-back-push";
    case ShiftCause::kDequeBackPop: return "deque-back-pop";
    case ShiftCause::kUnknown: break;
  }
  return "unknown";
}

/// One decoded window-shift trace event.
struct ShiftEvent {
  std::uint64_t tsc = 0;      ///< rdtsc (x86) or steady_clock ns
  std::uint64_t old_max = 0;  ///< window value the shift was proposed from
  std::uint64_t new_max = 0;  ///< proposed window value
  ShiftCause cause = ShiftCause::kUnknown;
  bool won = false;  ///< whether this thread's CAS installed it
};

/// A folded, stable view of every counter. Value semantics; subtract two
/// snapshots to scope counts to a measured region.
struct Snapshot {
  std::uint64_t c[kCounterCount] = {};

  std::uint64_t operator[](Counter i) const {
    return c[static_cast<unsigned>(i)];
  }

  Snapshot operator-(const Snapshot& base) const {
    Snapshot d;
    for (unsigned i = 0; i < kCounterCount; ++i) {
      // Saturating: a counter can transiently read lower across a
      // concurrent fold; deltas must never wrap.
      d.c[i] = c[i] >= base.c[i] ? c[i] - base.c[i] : 0;
    }
    return d;
  }

  /// Total container operations (fast hits plus every sweep outcome).
  std::uint64_t ops() const {
    return (*this)[Counter::kFastHits] + (*this)[Counter::kSweepSuccess] +
           (*this)[Counter::kSweepStop];
  }
  std::uint64_t hops() const {
    return (*this)[Counter::kHopsRandom] + (*this)[Counter::kHopsStreak] +
           (*this)[Counter::kHopsContended];
  }
  double hops_per_op() const {
    const std::uint64_t n = ops();
    return n == 0 ? 0.0 : static_cast<double>(hops()) / static_cast<double>(n);
  }
  double cert_fail_rate() const {
    const std::uint64_t a = (*this)[Counter::kCertAttempts];
    return a == 0 ? 0.0
                  : static_cast<double>((*this)[Counter::kCertFails]) /
                        static_cast<double>(a);
  }
  double shift_race_rate() const {
    const std::uint64_t a = (*this)[Counter::kShiftAttempts];
    return a == 0 ? 0.0
                  : static_cast<double>((*this)[Counter::kShiftLosses]) /
                        static_cast<double>(a);
  }

  /// The conservation invariants the engine's counting must satisfy at
  /// quiescence (no sweep in flight when either snapshot was taken).
  bool conserved() const {
    return (*this)[Counter::kShiftAttempts] ==
               (*this)[Counter::kShiftWins] + (*this)[Counter::kShiftLosses] &&
           (*this)[Counter::kSweeps] ==
               (*this)[Counter::kSweepSuccess] + (*this)[Counter::kSweepStop] &&
           (*this)[Counter::kVerifyRedirects] <=
               (*this)[Counter::kVerifyScans] &&
           (*this)[Counter::kCertFails] <= (*this)[Counter::kCertAttempts];
  }
};

#if R2D_OBS

inline const char* counter_name(Counter i) {
  switch (i) {
    case Counter::kSweeps: return "sweeps";
    case Counter::kSweepSuccess: return "sweep_success";
    case Counter::kSweepStop: return "sweep_stop";
    case Counter::kProbes: return "probes";
    case Counter::kHopsRandom: return "hops_random";
    case Counter::kHopsStreak: return "hops_streak";
    case Counter::kHopsContended: return "hops_contended";
    case Counter::kVerifyScans: return "verify_scans";
    case Counter::kVerifyRedirects: return "verify_redirects";
    case Counter::kCertAttempts: return "cert_attempts";
    case Counter::kCertFails: return "cert_fails";
    case Counter::kShiftAttempts: return "shift_attempts";
    case Counter::kShiftWins: return "shift_wins";
    case Counter::kShiftLosses: return "shift_losses";
    case Counter::kFastHits: return "fast_hits";
    case Counter::kEpochPins: return "epoch_pins";
    case Counter::kEpochAdvanceTries: return "epoch_advance_tries";
    case Counter::kEpochAdvances: return "epoch_advances";
    case Counter::kEpochOrphansQueued: return "epoch_orphans_queued";
    case Counter::kEpochOrphansDrained: return "epoch_orphans_drained";
    case Counter::kHazardPins: return "hazard_pins";
    case Counter::kHazardScans: return "hazard_scans";
    case Counter::kHazardOrphansAdopted: return "hazard_orphans_adopted";
    case Counter::kSlotSteals: return "slot_steals";
    case Counter::kSlotExitReleases: return "slot_exit_releases";
    case Counter::kMagFlushes: return "mag_flushes";
    case Counter::kMagRefills: return "mag_refills";
    case Counter::kDepotCasRetries: return "depot_cas_retries";
    case Counter::kDwcasRetries: return "dwcas_retries";
    case Counter::kHelpBridges: return "help_bridges";
    case Counter::kFaultsInjected: return "faults_injected";
    case Counter::kRetireLeaks: return "retire_leaks";
    case Counter::kCount: break;
  }
  return "?";
}

/// Cycle/time stamp for trace entries: cheap, monotonic-enough ordering.
inline std::uint64_t trace_tick() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

namespace detail {

/// R2D_METRICS (default 1): runtime enable for counting + tracing in an
/// R2D_OBS=1 build. Read once per process.
inline bool runtime_enabled() {
  static const bool cached = util::env_u64("R2D_METRICS", 1) != 0;
  return cached;
}

/// R2D_TRACE_RING (default 64): per-thread shift-trace ring capacity,
/// rounded up to a power of two; 0 disables tracing.
inline unsigned trace_ring_from_env() {
  static const unsigned cached = [] {
    std::uint64_t raw = util::env_u64("R2D_TRACE_RING", 64);
    if (raw == 0) return 0u;
    if (raw > 65536) raw = 65536;
    unsigned cap = 1;
    while (cap < raw) cap <<= 1;
    return cap;
  }();
  return cached;
}

/// A raw (not yet decoded) ring entry: four relaxed words so the recording
/// path is wait-free and the crash-dump path can read it from a signal
/// handler. cause_won packs {cause, won, sequence-valid} — tsc == 0 marks
/// a never-written entry.
struct TraceEntry {
  std::atomic<std::uint64_t> tsc{0};
  std::atomic<std::uint64_t> old_max{0};
  std::atomic<std::uint64_t> new_max{0};
  std::atomic<std::uint64_t> cause_won{0};
};

}  // namespace detail

template <bool Enabled>
class Metrics;

/// The enabled implementation: counter shards + trace rings over leased
/// per-thread slots.
template <>
class Metrics<true> : private reclaim::detail::Lessor {
 public:
  static constexpr bool kEnabled = true;

  /// One thread's shard: owner lease word, the counters, and this thread's
  /// ring cursor. Padded out to whole cache lines.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> owner{0};
    std::atomic<std::uint64_t> trace_pos{0};
    std::atomic<std::uint64_t> c[kCounterCount];
  };

  explicit Metrics(unsigned trace_cap = detail::trace_ring_from_env())
      : max_slots_(reclaim::detail::max_slots()),
        instance_id_(reclaim::detail::next_instance_id()),
        trace_cap_(trace_cap),
        slots_(new Slot[max_slots_]) {
    if (trace_cap_ != 0) {
      // max_slots_ rings for the leased shards + 1 for the overflow slot.
      rings_.reset(new detail::TraceEntry[(max_slots_ + 1) * trace_cap_]);
    }
    reclaim::detail::ChurnRegistry::get().add_lessor(instance_id_, this);
  }

  ~Metrics() {
    reclaim::detail::ChurnRegistry::get().remove_lessor(instance_id_);
  }

  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  void add(Counter counter, std::uint64_t n = 1) {
    Slot* s = slot();
    if (s == nullptr) [[unlikely]] return;  // R2D_METRICS=0
    // Single-writer increment: only the leasing thread bumps its shard, so
    // a plain load+store beats the ~10x dearer lock-prefixed fetch_add.
    // The one concurrent writer is a fold (exchange(0)) — and folds only
    // target shards whose owner is dead or abandoned, where a lost or
    // doubled in-flight increment is a diagnostics-grade error, not a
    // correctness one. At quiescence (every test assertion, every bench
    // row) the counts are exact.
    std::atomic<std::uint64_t>& c = s->c[static_cast<unsigned>(counter)];
    c.store(c.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
  }

  void record_shift(std::uint64_t old_max, std::uint64_t new_max, bool won,
                    ShiftCause cause) {
    if (trace_cap_ == 0) return;
    Slot* s = slot();
    if (s == nullptr) return;  // R2D_METRICS=0
    detail::TraceEntry* ring = ring_of(s);
    const std::uint64_t pos =
        s->trace_pos.fetch_add(1, std::memory_order_relaxed);
    detail::TraceEntry& e = ring[pos & (trace_cap_ - 1)];
    e.old_max.store(old_max, std::memory_order_relaxed);
    e.new_max.store(new_max, std::memory_order_relaxed);
    e.cause_won.store((static_cast<std::uint64_t>(cause) << 1) |
                          (won ? 1u : 0u),
                      std::memory_order_relaxed);
    // tsc written last and nonzero: a reader treats tsc != 0 as "entry
    // holds a (possibly torn, diagnostics-only) event".
    std::uint64_t t = trace_tick();
    e.tsc.store(t | 1u, std::memory_order_release);
  }

  /// Fold every shard into one stable value-struct. Safe to call while
  /// counting runs; the result is a consistent *lower bound* per counter
  /// that equals the exact totals at quiescence.
  Snapshot snapshot() const {
    Snapshot out;
    for (unsigned i = 0; i < kCounterCount; ++i) {
      out.c[i] = folded_[i].load(std::memory_order_relaxed);
    }
    const std::size_t seen = hwm_.load(std::memory_order_acquire);
    for (std::size_t s = 0; s < seen; ++s) {
      for (unsigned i = 0; i < kCounterCount; ++i) {
        out.c[i] += slots_[s].c[i].load(std::memory_order_relaxed);
      }
    }
    for (unsigned i = 0; i < kCounterCount; ++i) {
      out.c[i] += overflow_.c[i].load(std::memory_order_relaxed);
    }
    return out;
  }

  /// Visit every recorded shift event (all threads' rings, overflow
  /// included), oldest-first per ring. Order across rings is by ring.
  template <typename Fn>
  void visit_trace(Fn&& fn) const {
    if (trace_cap_ == 0) return;
    const std::size_t seen = hwm_.load(std::memory_order_acquire);
    for (std::size_t s = 0; s <= max_slots_; ++s) {
      if (s < max_slots_ && s >= seen) continue;
      const Slot& slot = s < max_slots_ ? slots_[s] : overflow_;
      const detail::TraceEntry* ring = &rings_[ring_index(s)];
      const std::uint64_t pos = slot.trace_pos.load(std::memory_order_acquire);
      const std::uint64_t lo = pos > trace_cap_ ? pos - trace_cap_ : 0;
      for (std::uint64_t p = lo; p < pos; ++p) {
        const detail::TraceEntry& e = ring[p & (trace_cap_ - 1)];
        const std::uint64_t tsc = e.tsc.load(std::memory_order_acquire);
        if (tsc == 0) continue;
        const std::uint64_t cw = e.cause_won.load(std::memory_order_relaxed);
        fn(ShiftEvent{tsc, e.old_max.load(std::memory_order_relaxed),
                      e.new_max.load(std::memory_order_relaxed),
                      static_cast<ShiftCause>(cw >> 1), (cw & 1) != 0});
      }
    }
  }

  void dump_trace(std::ostream& out) const {
    std::size_t n = 0;
    visit_trace([&](const ShiftEvent& e) {
      out << "shift[" << n++ << "] tsc=" << e.tsc << " cause="
          << to_string(e.cause) << " " << e.old_max << " -> " << e.new_max
          << (e.won ? " (won)" : " (lost)") << "\n";
    });
    if (n == 0) out << "(no shift events recorded)\n";
  }

  /// Crash-path trace dump: fd writes only, fixed-size stack buffers.
  /// snprintf is not strictly async-signal-safe — the same conventional
  /// trade-off util/crash_trace.hpp already makes for backtrace_symbols_fd.
  void dump_trace_fd(int fd) const {
    char buf[160];
    visit_trace([&](const ShiftEvent& e) {
      const int len = std::snprintf(
          buf, sizeof(buf),
          "shift tsc=%llu cause=%s %llu -> %llu %s\n",
          static_cast<unsigned long long>(e.tsc), to_string(e.cause),
          static_cast<unsigned long long>(e.old_max),
          static_cast<unsigned long long>(e.new_max),
          e.won ? "(won)" : "(lost)");
      if (len > 0) {
        ssize_t ignored = write(fd, buf, static_cast<std::size_t>(len));
        (void)ignored;
      }
    });
  }

  std::size_t slot_hwm() const {
    return hwm_.load(std::memory_order_acquire);
  }
  unsigned trace_capacity() const { return trace_cap_; }

  /// The library-wide instance every obs::count<>() feeds. First use
  /// installs the post-mortem hooks (SlotsExhausted annotation, crash-time
  /// trace dump) so only the process singleton — never a test-local
  /// instance — owns them.
  static Metrics& get() {
    static Metrics* instance = [] {
      auto* m = new Metrics;  // leaked: counted into by exiting threads
      reclaim::detail::slots_exhausted_annotator = &annotate_exhaustion;
      util::detail::metrics_crash_hook = &crash_dump;
      return m;
    }();
    return *instance;
  }

 private:
  struct TlsRef {
    std::uint64_t instance_id = 0;
    Slot* slot = nullptr;
  };

  /// The hot-path shard lookup. One TLS read and an id compare; no
  /// ownership revalidation (see the header comment: a stale or even
  /// stolen shard still counts correctly into the global sums, and the
  /// slots_ array outlives any cached pointer because instance ids are
  /// never reused). The R2D_METRICS=0 runtime switch is folded into the
  /// same compare: it caches a nullptr shard, so the disabled fast path
  /// costs exactly the cache hit plus one predictable null branch.
  Slot* slot() {
    static thread_local TlsRef tls;
    if (tls.instance_id == instance_id_) [[likely]] return tls.slot;
    Slot* s = detail::runtime_enabled() ? claim() : nullptr;
    tls = TlsRef{instance_id_, s};
    return s;
  }

  Slot* claim() {
    // A thread marked not-live is inside the registry's exit walk (which
    // HOLDS the registry mutex while lessors release — their counting must
    // not re-enter claim_slot/note_claim, or it self-deadlocks) or was
    // abandoned. Either way it must not take a fresh lease; the shared
    // overflow shard is lock-free and still summed by snapshot().
    const reclaim::detail::ThreadLeases* tl = reclaim::detail::tl_leases;
    if (tl != nullptr && !tl->live.load(std::memory_order_relaxed)) {
      return &overflow_;
    }
    try {
      return reclaim::detail::claim_slot(
          slots_.get(), max_slots_, hwm_, instance_id_,
          static_cast<reclaim::detail::Lessor*>(this),
          [](Slot&) { return true; },  // counters are always quiescent
          [this](Slot& victim) { fold(victim); });
    } catch (const reclaim::SlotsExhausted&) {
      // Metrics must never turn observation into failure: fall back to one
      // shared (contended, but correct) overflow shard.
      return &overflow_;
    }
  }

  detail::TraceEntry* ring_of(Slot* s) {
    const std::size_t index =
        s == &overflow_ ? max_slots_ : static_cast<std::size_t>(s - slots_.get());
    return &rings_[index * trace_cap_];
  }
  std::size_t ring_index(std::size_t slot_index) const {
    return slot_index * trace_cap_;
  }

  /// Move a shard's counts into the global folded array. exchange(0) makes
  /// this lossless against concurrent increments (they land either side of
  /// the exchange). The ring is left in place: its events remain visible
  /// to visit_trace until the slot's next owner overwrites them.
  void fold(Slot& s) {
    for (unsigned i = 0; i < kCounterCount; ++i) {
      const std::uint64_t taken = s.c[i].exchange(0, std::memory_order_relaxed);
      if (taken != 0) folded_[i].fetch_add(taken, std::memory_order_relaxed);
    }
  }

  /// Lessor: the dying thread's exit walk releases its shard.
  void release_thread(std::uint64_t token) noexcept override {
    const std::size_t seen = hwm_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < seen; ++i) {
      if (slots_[i].owner.load(std::memory_order_relaxed) != token) continue;
      if (reclaim::detail::acquire_for_cleanse(slots_[i], token)) {
        fold(slots_[i]);
        slots_[i].owner.store(0, std::memory_order_release);
      }
      return;
    }
  }

  static std::string annotate_exhaustion();
  static void crash_dump(int fd);

  const std::size_t max_slots_;
  const std::uint64_t instance_id_;
  const unsigned trace_cap_;
  std::unique_ptr<Slot[]> slots_;
  std::unique_ptr<detail::TraceEntry[]> rings_;
  std::atomic<std::size_t> hwm_{0};
  Slot overflow_;
  std::atomic<std::uint64_t> folded_[kCounterCount] = {};
};

/// The disabled specialization: same API, no state, no code. sizeof == 1
/// and every member is an empty inline function, so an R2D_OBS=0 build
/// erases instrumentation entirely (tests/test_metrics.cpp pins both).
template <>
class Metrics<false> {
 public:
  static constexpr bool kEnabled = false;
  explicit Metrics(unsigned = 0) {}
  void add(Counter, std::uint64_t = 1) {}
  void record_shift(std::uint64_t, std::uint64_t, bool, ShiftCause) {}
  Snapshot snapshot() const { return {}; }
  template <typename Fn>
  void visit_trace(Fn&&) const {}
  void dump_trace(std::ostream&) const {}
  void dump_trace_fd(int) const {}
  std::size_t slot_hwm() const { return 0; }
  unsigned trace_capacity() const { return 0; }
  static Metrics& get() {
    static Metrics instance;
    return instance;
  }
};

inline constexpr bool kCompiled = true;
using EngineMetrics = Metrics<true>;

/// The process-wide metrics the library's hot paths feed.
inline EngineMetrics& metrics() { return EngineMetrics::get(); }

/// Count `n` into the singleton. The template parameter keeps call sites
/// terse and lets an R2D_OBS=0 build fold the whole call away.
template <Counter C>
inline void count(std::uint64_t n = 1) {
  metrics().add(C, n);
}

inline void record_shift(std::uint64_t old_max, std::uint64_t new_max,
                         bool won, ShiftCause cause) {
  metrics().record_shift(old_max, new_max, won, cause);
}

namespace detail {
/// Link fault/ into the counter taxonomy: fault/inject.hpp exposes a raw
/// hook (it must not include obs/); this inline variable's dynamic
/// initializer installs the counting callback pre-main. The reentrancy
/// latch matters: counting can itself claim a metrics shard, whose
/// claim_slot holds a fault point — at rate:1.0 that would recurse
/// without it.
inline const bool fault_hook_installed = [] {
  fault::detail::on_inject.store(
      +[] {
        static thread_local bool in_hook = false;
        if (in_hook) return;
        in_hook = true;
        count<Counter::kFaultsInjected>();
        in_hook = false;
      },
      std::memory_order_release);
  return true;
}();
}  // namespace detail

/// Append the Snapshot's derived rates + raw counters as one JSON object
/// (used by bench/common.hpp and the service bench).
inline void append_json(std::ostream& out, const Snapshot& s) {
  out << "{\"ops\": " << s.ops() << ", \"hops_per_op\": " << s.hops_per_op()
      << ", \"cert_fail_rate\": " << s.cert_fail_rate()
      << ", \"shift_race_rate\": " << s.shift_race_rate()
      << ", \"epoch_pins\": " << s[Counter::kEpochPins]
      << ", \"epoch_advances\": " << s[Counter::kEpochAdvances]
      << ", \"hazard_pins\": " << s[Counter::kHazardPins]
      << ", \"slot_steals\": " << s[Counter::kSlotSteals]
      << ", \"counters\": {";
  for (unsigned i = 0; i < kCounterCount; ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << counter_name(static_cast<Counter>(i))
        << "\": " << s.c[i];
  }
  out << "}}";
}

/// Human-readable snapshot (the benches' stderr dump on demand).
inline void write_text(std::ostream& out, const Snapshot& s) {
  out << "obs: ops=" << s.ops() << " hops/op=" << s.hops_per_op()
      << " cert_fail=" << s.cert_fail_rate()
      << " shift_race=" << s.shift_race_rate() << "\n";
  for (unsigned i = 0; i < kCounterCount; ++i) {
    if (s.c[i] == 0) continue;
    out << "  " << counter_name(static_cast<Counter>(i)) << " = " << s.c[i]
        << "\n";
  }
}

// ---- post-mortem hooks (installed by Metrics<true>::get()) ----------------

inline std::string Metrics<true>::annotate_exhaustion() {
  if (!detail::runtime_enabled()) return {};
  const Snapshot s = get().snapshot();
  return " [obs: ops=" + std::to_string(s.ops()) +
         ", slot_steals=" + std::to_string(s[Counter::kSlotSteals]) +
         ", exit_releases=" + std::to_string(s[Counter::kSlotExitReleases]) +
         ", epoch_orphans_queued=" +
         std::to_string(s[Counter::kEpochOrphansQueued]) +
         ", drained=" + std::to_string(s[Counter::kEpochOrphansDrained]) +
         ", hazard_orphans_adopted=" +
         std::to_string(s[Counter::kHazardOrphansAdopted]) + "]";
}

inline void Metrics<true>::crash_dump(int fd) {
  if (!detail::runtime_enabled()) return;
  const Metrics& m = get();
  const Snapshot s = m.snapshot();
  char buf[256];
  int len = std::snprintf(
      buf, sizeof(buf),
      "=== r2d obs: ops=%llu sweeps=%llu shift_attempts=%llu "
      "shift_losses=%llu epoch_pins=%llu epoch_advances=%llu "
      "orphans_queued=%llu drained=%llu slot_steals=%llu ===\n",
      static_cast<unsigned long long>(s.ops()),
      static_cast<unsigned long long>(s[Counter::kSweeps]),
      static_cast<unsigned long long>(s[Counter::kShiftAttempts]),
      static_cast<unsigned long long>(s[Counter::kShiftLosses]),
      static_cast<unsigned long long>(s[Counter::kEpochPins]),
      static_cast<unsigned long long>(s[Counter::kEpochAdvances]),
      static_cast<unsigned long long>(s[Counter::kEpochOrphansQueued]),
      static_cast<unsigned long long>(s[Counter::kEpochOrphansDrained]),
      static_cast<unsigned long long>(s[Counter::kSlotSteals]));
  if (len > 0) {
    ssize_t ignored = write(fd, buf, static_cast<std::size_t>(len));
    (void)ignored;
  }
  m.dump_trace_fd(fd);
}

#else  // R2D_OBS == 0

/// R2D_OBS=0: the whole subsystem is this stub. Both specializations exist
/// (the parity test instantiates Metrics<true> too in enabled builds; here
/// only the API shape matters) and every entry point is an empty inline.
template <bool Enabled>
class Metrics {
 public:
  static constexpr bool kEnabled = false;
  explicit Metrics(unsigned = 0) {}
  void add(Counter, std::uint64_t = 1) {}
  void record_shift(std::uint64_t, std::uint64_t, bool, ShiftCause) {}
  Snapshot snapshot() const { return {}; }
  template <typename Fn>
  void visit_trace(Fn&&) const {}
  template <typename Stream>
  void dump_trace(Stream&) const {}
  void dump_trace_fd(int) const {}
  std::size_t slot_hwm() const { return 0; }
  unsigned trace_capacity() const { return 0; }
  static Metrics& get() {
    static Metrics instance;
    return instance;
  }
};

inline constexpr bool kCompiled = false;
using EngineMetrics = Metrics<false>;

inline EngineMetrics& metrics() { return EngineMetrics::get(); }

template <Counter C>
inline void count(std::uint64_t = 1) {}

inline void record_shift(std::uint64_t, std::uint64_t, bool, ShiftCause) {}

template <typename Stream>
inline void append_json(Stream& out, const Snapshot&) {
  out << "{\"ops\": 0, \"hops_per_op\": 0, \"cert_fail_rate\": 0"
      << ", \"shift_race_rate\": 0, \"epoch_pins\": 0, \"epoch_advances\": 0"
      << ", \"hazard_pins\": 0, \"slot_steals\": 0, \"counters\": {}}";
}

template <typename Stream>
inline void write_text(Stream& out, const Snapshot&) {
  out << "obs: compiled out (R2D_OBS=0)\n";
}

#endif  // R2D_OBS

}  // namespace r2d::obs
