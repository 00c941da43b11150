// Deterministic, seeded fault injection (DESIGN.md §15).
//
// Every resource acquisition and CAS-retry loop in the library names a
// *site* and asks `R2D_FAULT_POINT(site)` whether this evaluation should
// fail. What "fail" means is the site's business — throw `bad_alloc`
// before the allocation, pretend the magazine was empty, lose a shift
// CAS without executing it — the injector only decides *when*, and it
// decides deterministically: the same policy string, seed, and thread
// schedule replay the same injections, which is what lets the OOM sweep
// in tests/test_fault.cpp walk "fail exactly the Nth acquisition" for
// every N and assert conservation after each.
//
// Policies (env `R2D_FAULT`, seed `R2D_FAULT_SEED`):
//   off          — never inject (the default).
//   nth:K        — the Kth fault-point evaluation process-wide fails,
//                  exactly once (K is 1-based; the global ordinal is a
//                  single atomic, so single-threaded runs are exactly
//                  reproducible and multi-threaded runs fail exactly one
//                  evaluation).
//   rate:P       — each evaluation fails with probability P, drawn from
//                  a per-thread xorshift stream seeded by
//                  R2D_FAULT_SEED ^ thread ordinal (no shared RNG state,
//                  no cross-thread coupling).
//   site:NAME:K  — the Kth evaluation of site NAME fails, exactly once
//                  (per-site ordinal); other sites never fire.
//
// Two-level off switch mirroring obs/ (DESIGN.md §14): `-DR2D_FAULT=0`
// (the DEFAULT) compiles `should_fail` to a constant false with full API
// parity — every call site folds to nothing, verified by the ci.sh
// overhead guard — while `-DR2D_FAULT=1` builds the real injector, which
// still costs only one relaxed load per site when the policy is `off`.
//
// Layering: this header includes only util/env.hpp and the standard
// library. obs/ counts injections through the `detail::on_inject` hook
// it installs (never the other way around), so reclaim/ and core/ can
// include this header without cycles.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "util/env.hpp"

#ifndef R2D_FAULT
#define R2D_FAULT 0
#endif

namespace r2d::fault {

/// The site catalogue: one name per distinct failure the library can
/// absorb. Throwing sites (kHeapAlloc, kSlabGrow, kSlotClaim) sit only
/// on the *acquire* side of operations — release/retire paths get
/// deferral sites (kEpochOrphanDrain, kHazardScan) that never throw, so
/// injection can't detonate inside a destructor.
enum class Site : std::uint8_t {
  kHeapAlloc = 0,     ///< HeapAlloc::acquire — bad_alloc before `new`
  kMagazineTake,      ///< PoolAlloc::take_block — forced magazine miss
  kDepotPop,          ///< PoolAlloc::take_block — forced depot miss
  kSlabGrow,          ///< Pool::grow — simulated slab allocation failure
  kSlotClaim,         ///< detail::claim_slot — SlotsExhausted at entry
  kSlotSteal,         ///< claim_slot — steal pass skipped this attempt
  kEpochOrphanDrain,  ///< EpochReclaimer — orphan drain deferred once
  kHazardScan,        ///< HazardReclaimer — scan deferred once
  kSweepStall,        ///< drive_window_sweep — forced yield at loop top
  kShiftCas,          ///< window shift CAS — counted as lost, not run
  kDwcasHead,         ///< DWCAS column head — forced failure → helping
  kStackCas,          ///< Treiber/Elimination central CAS — forced retry
  kElimExchange,      ///< Elimination collision layer — forced miss →
                      ///< fall through to the central stack
  kSegmentCell,       ///< KSegment cell scan — probe skipped this cell
  kColumnPick,        ///< Random/RandomC2/KRobin pick loop — forced
                      ///< re-pick / probe consumed
  kEpochAdvance,      ///< EpochReclaimer::try_advance between pre-scan
                      ///< and fence — advance skipped this attempt
  kCount,
};

inline constexpr unsigned kSiteCount = static_cast<unsigned>(Site::kCount);

constexpr const char* site_name(Site s) {
  switch (s) {
    case Site::kHeapAlloc: return "heap-alloc";
    case Site::kMagazineTake: return "magazine-take";
    case Site::kDepotPop: return "depot-pop";
    case Site::kSlabGrow: return "slab-grow";
    case Site::kSlotClaim: return "slot-claim";
    case Site::kSlotSteal: return "slot-steal";
    case Site::kEpochOrphanDrain: return "epoch-orphan-drain";
    case Site::kHazardScan: return "hazard-scan";
    case Site::kSweepStall: return "sweep-stall";
    case Site::kShiftCas: return "shift-cas";
    case Site::kDwcasHead: return "dwcas-head";
    case Site::kStackCas: return "stack-cas";
    case Site::kElimExchange: return "elim-exchange";
    case Site::kSegmentCell: return "segment-cell";
    case Site::kColumnPick: return "column-pick";
    case Site::kEpochAdvance: return "epoch-advance";
    case Site::kCount: break;
  }
  return "?";
}

/// Reverse lookup for `site:NAME:K` specs; returns kCount when unknown.
inline Site site_from_name(const std::string& name) {
  for (unsigned i = 0; i < kSiteCount; ++i) {
    const Site s = static_cast<Site>(i);
    if (name == site_name(s)) return s;
  }
  return Site::kCount;
}

namespace detail {

/// Counting hook: obs/metrics.hpp installs a function here (pre-main,
/// via an inline variable's dynamic initializer) that bumps
/// Counter::kFaultsInjected. Raw function pointer, same shape as
/// reclaim's slots_exhausted_annotator — fault/ stays ignorant of obs/.
inline std::atomic<void (*)()> on_inject{nullptr};

/// splitmix64: turns any seed (including 0) into a full-entropy xorshift
/// state; also used to decorrelate per-thread streams.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace detail

#if R2D_FAULT

inline constexpr bool kCompiled = true;

namespace detail {
/// True while the injector's policy is not `off`: the one relaxed load a
/// dormant fault point pays. Reading the function-local injector
/// singleton instead costs its initialization-guard check at every site,
/// about 12% geomean over ci.sh's single-threaded micro_ops suite on a
/// 4-vCPU 2.1 GHz x86-64 VM.
inline std::atomic<bool> armed{false};
}  // namespace detail

template <bool Enabled>
class Injector;

/// The real injector: one process-wide instance configured from the
/// environment at first use, reconfigurable at quiescence by tests.
template <>
class Injector<true> {
 public:
  static Injector& get() {
    static Injector instance;
    return instance;
  }

  /// (Re)configure policy and seed. NOT safe against concurrent
  /// `evaluate` calls — call at quiescence (tests do, between phases).
  /// Also resets all ordinal/injection counters so `nth:K` restarts
  /// from evaluation 1.
  void configure(const std::string& spec, std::uint64_t seed) {
    seed_ = seed != 0 ? seed : 0x2545f4914f6cdd1dull;
    reset_counts();
    set_policy(Policy::kOff);
    if (spec.empty() || spec == "off") return;
    if (spec.rfind("nth:", 0) == 0) {
      nth_k_ = parse_u64(spec.substr(4));
      if (nth_k_ != 0) set_policy(Policy::kNth);
    } else if (spec.rfind("rate:", 0) == 0) {
      const double p = parse_f64(spec.substr(5));
      if (p > 0.0) {
        // Probability as a 64-bit threshold: fail when draw < p * 2^64.
        rate_threshold_ = p >= 1.0
                              ? ~std::uint64_t{0}
                              : static_cast<std::uint64_t>(
                                    p * 18446744073709551616.0);
        set_policy(Policy::kRate);
      }
    } else if (spec.rfind("site:", 0) == 0) {
      const std::string rest = spec.substr(5);
      const std::size_t colon = rest.rfind(':');
      if (colon != std::string::npos) {
        const Site s = site_from_name(rest.substr(0, colon));
        const std::uint64_t k = parse_u64(rest.substr(colon + 1));
        if (s != Site::kCount && k != 0) {
          site_ = s;
          site_k_ = k;
          set_policy(Policy::kSite);
        }
      }
    }
  }

  /// The fault point. Returns true when this evaluation should fail.
  /// One relaxed load when the policy is off; never throws.
  bool evaluate(Site s) noexcept {
    const Policy p = policy_.load(std::memory_order_relaxed);
    if (p == Policy::kOff) return false;
    switch (p) {
      case Policy::kNth: {
        const std::uint64_t ordinal =
            global_evals_.fetch_add(1, std::memory_order_relaxed) + 1;
        if (ordinal != nth_k_) return false;
        break;
      }
      case Policy::kRate: {
        if (next_draw() >= rate_threshold_) return false;
        break;
      }
      case Policy::kSite: {
        if (s != site_) return false;
        const std::uint64_t ordinal =
            site_evals_[static_cast<unsigned>(s)].fetch_add(
                1, std::memory_order_relaxed) +
            1;
        if (ordinal != site_k_) return false;
        break;
      }
      case Policy::kOff:
        return false;
    }
    injected_total_.fetch_add(1, std::memory_order_relaxed);
    site_injected_[static_cast<unsigned>(s)].fetch_add(
        1, std::memory_order_relaxed);
    if (void (*hook)() = detail::on_inject.load(std::memory_order_relaxed)) {
      hook();
    }
    return true;
  }

  void reset_counts() {
    global_evals_.store(0, std::memory_order_relaxed);
    injected_total_.store(0, std::memory_order_relaxed);
    for (auto& c : site_evals_) c.store(0, std::memory_order_relaxed);
    for (auto& c : site_injected_) c.store(0, std::memory_order_relaxed);
  }

  /// Evaluations consumed by the nth-policy global ordinal (0 under
  /// other policies — rate draws are per-thread, site ordinals per-site).
  std::uint64_t evals() const {
    return global_evals_.load(std::memory_order_relaxed);
  }
  std::uint64_t injected() const {
    return injected_total_.load(std::memory_order_relaxed);
  }
  std::uint64_t injected(Site s) const {
    return site_injected_[static_cast<unsigned>(s)].load(
        std::memory_order_relaxed);
  }

 private:
  enum class Policy : std::uint8_t { kOff, kNth, kRate, kSite };

  Injector() {
    // Strict seed parse: a typo'd reproducer line must abort loudly, not
    // silently replay seed 0 (util::env_u64_strict, shared with sched/).
    configure(util::env_str("R2D_FAULT", "off"),
              util::env_u64_strict("R2D_FAULT_SEED", 0));
  }

  void set_policy(Policy p) {
    policy_.store(p, std::memory_order_relaxed);
    detail::armed.store(p != Policy::kOff, std::memory_order_relaxed);
  }

  static std::uint64_t parse_u64(const std::string& s) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 0);
    return (end == s.c_str()) ? 0 : static_cast<std::uint64_t>(v);
  }
  static double parse_f64(const std::string& s) {
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    return (end == s.c_str()) ? 0.0 : v;
  }

  /// Per-thread xorshift64* stream for the rate policy; the state is
  /// seeded from the configured seed XOR a process-wide thread ordinal
  /// at the thread's first draw (reconfiguring the seed mid-run only
  /// affects threads that have not drawn yet — tests reconfigure at
  /// quiescence, where every hammer thread is new).
  std::uint64_t next_draw() noexcept {
    thread_local std::uint64_t state = detail::mix64(
        seed_ ^ thread_ordinal_.fetch_add(1, std::memory_order_relaxed));
    std::uint64_t x = state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    state = x;
    return x * 0x2545f4914f6cdd1dull;
  }

  std::atomic<Policy> policy_{Policy::kOff};
  std::uint64_t nth_k_ = 0;
  std::uint64_t rate_threshold_ = 0;
  Site site_ = Site::kCount;
  std::uint64_t site_k_ = 0;
  std::uint64_t seed_ = 0x2545f4914f6cdd1dull;
  std::atomic<std::uint64_t> thread_ordinal_{0};
  std::atomic<std::uint64_t> global_evals_{0};
  std::atomic<std::uint64_t> injected_total_{0};
  std::array<std::atomic<std::uint64_t>, kSiteCount> site_evals_{};
  std::array<std::atomic<std::uint64_t>, kSiteCount> site_injected_{};
};

/// Disabled specialization: full API, no state, never fires. Exists so
/// tests can assert parity in the SAME binary that has the real one.
template <>
class Injector<false> {
 public:
  static Injector& get() {
    static Injector instance;
    return instance;
  }
  void configure(const std::string&, std::uint64_t) {}
  bool evaluate(Site) noexcept { return false; }
  void reset_counts() {}
  std::uint64_t evals() const { return 0; }
  std::uint64_t injected() const { return 0; }
  std::uint64_t injected(Site) const { return 0; }
};

inline Injector<true>& injector() { return Injector<true>::get(); }

namespace detail {
/// Configure from R2D_FAULT / R2D_FAULT_SEED pre-main, so `armed` is set
/// before the first fault point runs without that point having to touch
/// the singleton.
inline const bool env_configured = (Injector<true>::get(), true);
}  // namespace detail

template <Site S>
inline bool should_fail() noexcept {
  if (!detail::armed.load(std::memory_order_relaxed)) return false;
  return injector().evaluate(S);
}

#else  // R2D_FAULT == 0: the default — injection compiles to nothing.

inline constexpr bool kCompiled = false;

/// API-parity stub: same members as the enabled injector, no state
/// (sizeof == 1), every query zero. `should_fail` is a constant false,
/// so `if (R2D_FAULT_POINT(...))` dead-code-eliminates at every site.
template <bool Enabled = false>
class Injector {
 public:
  static Injector& get() {
    static Injector instance;
    return instance;
  }
  void configure(const std::string&, std::uint64_t) {}
  bool evaluate(Site) noexcept { return false; }
  void reset_counts() {}
  std::uint64_t evals() const { return 0; }
  std::uint64_t injected() const { return 0; }
  std::uint64_t injected(Site) const { return 0; }
};

inline Injector<>& injector() { return Injector<>::get(); }

template <Site S>
constexpr bool should_fail() noexcept {
  return false;
}

#endif  // R2D_FAULT

}  // namespace r2d::fault

/// The site marker threaded through the library. Reads as a predicate:
///   if (R2D_FAULT_POINT(kHeapAlloc)) throw std::bad_alloc{};
#define R2D_FAULT_POINT(site) \
  (::r2d::fault::should_fail<::r2d::fault::Site::site>())
