// Asymmetric store-load fencing for epoch reclamation (folly-style).
//
// EpochReclaimer::pin() must order its epoch announcement (a store) before
// the critical section's pointer loads — a store-load ordering that
// normally costs a seq_cst fence on *every* operation. With
// membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED) that cost moves to the rare
// epoch-advance side: the advancer's syscall executes a full memory
// barrier on every CPU currently running a thread of this process, which
// pairs with a compiler-only barrier on the pin side. Either every
// thread's (announce; load) pair is fully ordered at the advancer's
// barrier point, or the announcement is already visible to the advancer's
// slot scan — exactly what the symmetric fence guaranteed.
//
// Registration (MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED) happens once,
// lazily, on the first mode query. Kernels without membarrier (< 4.14,
// or non-Linux) and the R2D_MEMBARRIER=0 knob fall back to the symmetric
// per-pin fence; the knob is re-read per reclaimer construction so tests
// can exercise both paths in one process.
#pragma once

#include <atomic>

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "util/env.hpp"

namespace r2d::reclaim::detail {

#if defined(__linux__) && defined(SYS_membarrier)
// Command values from <linux/membarrier.h>, inlined so old userspace
// headers still compile; the runtime query handles old kernels.
inline constexpr long kMembarrierCmdQuery = 0;
inline constexpr long kMembarrierCmdPrivateExpedited = 1 << 3;
inline constexpr long kMembarrierCmdRegisterPrivateExpedited = 1 << 4;

/// Kernel support probe + one-time process registration.
inline bool membarrier_supported() {
  static const bool supported = [] {
    const long cmds = ::syscall(SYS_membarrier, kMembarrierCmdQuery, 0, 0);
    if (cmds < 0 || (cmds & kMembarrierCmdPrivateExpedited) == 0 ||
        (cmds & kMembarrierCmdRegisterPrivateExpedited) == 0) {
      return false;
    }
    return ::syscall(SYS_membarrier, kMembarrierCmdRegisterPrivateExpedited,
                     0, 0) == 0;
  }();
  return supported;
}

/// The heavy half: a full barrier on every CPU running this process.
inline void membarrier_heavy() {
  ::syscall(SYS_membarrier, kMembarrierCmdPrivateExpedited, 0, 0);
}
#else
inline bool membarrier_supported() { return false; }
inline void membarrier_heavy() {}
#endif

/// Whether asymmetric fencing is active: kernel support AND the
/// R2D_MEMBARRIER knob (default on; 0 forces the symmetric fallback).
inline bool use_membarrier() {
  return util::env_u64("R2D_MEMBARRIER", 1) != 0 && membarrier_supported();
}

/// Slow-side half, issued before scanning announcement slots.
inline void asymmetric_heavy_fence(bool membarrier_active) {
  if (membarrier_active) {
    membarrier_heavy();
  } else {
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }
}

}  // namespace r2d::reclaim::detail
