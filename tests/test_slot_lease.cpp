// Slot-lease lifecycle tests (DESIGN.md §13): per-thread slots must be a
// renewable resource under unbounded thread churn, safe in both
// destruction orders.
//
// Covers: bounded slot high-water mark across thousands of sequential
// spawn-join threads against one instance of each lessor flavour (epoch,
// hazard, pool allocator) and against long-lived containers (the ISSUE 7
// acceptance loop: TwoDStack<.., EpochReclaimer, PoolAlloc>); thread
// exiting AFTER its instance was destroyed (exit walk must skip it);
// instance destroyed WHILE exited threads' retirees sit in its orphan
// queue (destructor drains them — the leak check); orphan draining while
// the instance stays live (try_advance frees them after the grace
// period); and revenant/steal arbitration — threads abandoned without
// exit hooks have their slots stolen, then come back and must re-enter
// safely. The TSan configuration of this test is the steal-hammer race
// check; the ASan configuration is the orphan leak check.
//
// R2D_MAX_SLOTS is pinned to 8 before anything claims, so every bounded-
// HWM check also proves no silent fallback to "just take another slot".
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/params.hpp"
#include "core/two_d_stack.hpp"
#include "reclaim/alloc.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/hazard.hpp"
#include "reclaim/slot_registry.hpp"
#include "check.hpp"

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/// Sequential spawn-join churn: `threads` short-lived threads each run
/// `body` once against a shared instance. With leases, every exiting
/// thread frees its slot and the next claimant re-takes the lowest free
/// index, so the high-water mark must stay at one active claimant + O(1).
void churn(unsigned threads, const std::function<void()>& body) {
  for (unsigned t = 0; t < threads; ++t) std::thread(body).join();
}

struct Tracked {
  static std::atomic<int> live;
  std::uint64_t payload;
  explicit Tracked(std::uint64_t p) : payload(p) { live.fetch_add(1); }
  ~Tracked() { live.fetch_sub(1); }
};
std::atomic<int> Tracked::live{0};

/// Each lessor flavour alone: N exits, N re-claims, HWM stays ~1.
void per_lessor_churn() {
  const unsigned n = kSanitized ? 300 : 2000;
  {
    r2d::reclaim::EpochReclaimer reclaimer;
    churn(n, [&] { auto guard = reclaimer.pin(); });
    CHECK(reclaimer.slot_hwm() <= 2);
  }
  {
    r2d::reclaim::HazardReclaimer reclaimer;
    churn(n, [&] { auto guard = reclaimer.pin(); });
    CHECK(reclaimer.slot_hwm() <= 2);
  }
  {
    r2d::reclaim::PoolAlloc<std::uint64_t> alloc;
    churn(n, [&] {
      std::uint64_t* p = alloc.acquire(3ull);
      alloc.release(p);
    });
    CHECK(alloc.slot_hwm() <= 2);
  }
}

/// The ISSUE 7 acceptance loop: tens of thousands of short-lived threads
/// against one long-lived TwoDStack<.., EpochReclaimer, PoolAlloc>, each
/// doing real pushes and pops (claiming BOTH the reclaimer's and the
/// allocator's slot), with the cap pinned at 8 — no SlotsExhausted, HWM
/// bounded by one active thread + O(1), and the stack conserved.
void acceptance_churn() {
  const unsigned n = kSanitized ? 1500 : 10000;
  {
    r2d::TwoDStack<std::uint64_t, r2d::reclaim::EpochReclaimer,
                   r2d::reclaim::PoolAlloc>
        stack(r2d::core::TwoDParams::for_k(64, 2));
    std::atomic<std::uint64_t> popped{0};
    churn(n, [&] {
      stack.push(7);
      if (stack.pop().has_value()) popped.fetch_add(1);
    });
    CHECK(stack.slot_hwm() <= 3);
    std::uint64_t drained = 0;
    while (stack.pop().has_value()) ++drained;
    CHECK_EQ(popped.load() + drained, static_cast<std::uint64_t>(n));
  }
  {
    r2d::TwoDStack<std::uint64_t, r2d::reclaim::HazardReclaimer,
                   r2d::reclaim::HeapAlloc>
        stack(r2d::core::TwoDParams::for_k(64, 2));
    churn(kSanitized ? 300 : 2000, [&] {
      stack.push(9);
      stack.pop();
    });
    CHECK(stack.slot_hwm() <= 3);
  }
}

/// Destruction order A: the instance dies while a thread that leased a
/// slot on it is still parked. The thread's later exit walk must skip the
/// unregistered instance instead of touching freed memory.
void instance_dies_first() {
  std::mutex mu;
  std::condition_variable cv;
  int state = 0;  // 1 = worker claimed, 2 = instance destroyed
  auto wait_for = [&](int v) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return state >= v; });
  };
  auto advance = [&](int v) {
    {
      std::lock_guard<std::mutex> lock(mu);
      state = v;
    }
    cv.notify_all();
  };

  auto* reclaimer = new r2d::reclaim::EpochReclaimer;
  std::thread worker([&] {
    { auto guard = reclaimer->pin(); }
    advance(1);
    wait_for(2);  // outlive the instance, then exit
  });
  wait_for(1);
  delete reclaimer;
  advance(2);
  worker.join();
}

/// Destruction order B: threads retire nodes and exit, parking their
/// retirees in the instance's orphan queue; the instance is destroyed
/// before any scan/advance adopted them. The destructor must drain the
/// queue — Tracked::live returning to zero is the leak check (and ASan
/// double-checks the frees).
void instance_dies_with_orphans() {
  CHECK_EQ(Tracked::live.load(), 0);
  {
    r2d::reclaim::EpochReclaimer reclaimer;
    churn(4, [&] {
      auto guard = reclaimer.pin();
      guard.retire(new Tracked{11});
    });
  }
  CHECK_EQ(Tracked::live.load(), 0);
  {
    r2d::reclaim::HazardReclaimer reclaimer;
    churn(4, [&] {
      auto guard = reclaimer.pin();
      guard.retire(new Tracked{13});
    });
  }
  CHECK_EQ(Tracked::live.load(), 0);
}

/// Orphans must also drain while the instance LIVES: a long-lived
/// container may never be destroyed, so exited threads' retirees have to
/// come back through try_advance once their grace epoch passes. (Deferred
/// under TSan, where all EBR frees wait for the destructor.)
void orphans_drain_while_live() {
#if !R2D_EBR_DEFER_FREES
  r2d::reclaim::EpochReclaimer reclaimer;
  churn(4, [&] {
    auto guard = reclaimer.pin();
    guard.retire(new Tracked{17});
  });
  CHECK_EQ(Tracked::live.load(), 4);
  // Keep the instance busy from the main thread with plain (un-Tracked)
  // retires: every retire ticks the advance cadence, epochs advance (no
  // stragglers left), the orphans' grace periods pass, and try_advance
  // drains them. 4096 retires = at least 16 cadence triggers; with no
  // other thread running there is no straggler and no rival advance, so
  // every trigger but possibly the first (which may only record an
  // earlier advance) fences and advances the epoch.
  for (int i = 0; i < 4096; ++i) {
    auto guard = reclaimer.pin();
    guard.retire(new std::uint64_t{19});
  }
  CHECK_EQ(Tracked::live.load(), 0);  // drained live, not by the dtor
#endif
}

/// Revenant/steal arbitration. Eight holders claim every slot, then are
/// marked dead WITHOUT releasing (a thread killed before its TLS
/// destructors). A fresh claimant must steal a quiesced dead slot instead
/// of throwing. When the holders come back (revenants), each claim must
/// re-enter through the registry: retake its still-owned slot, or — for
/// the one whose slot was stolen — claim the stealer's freed slot. No
/// thread may ever write through a slot it lost.
void revenant_steal() {
  r2d::reclaim::EpochReclaimer reclaimer;
  std::mutex mu;
  std::condition_variable cv;
  int parked = 0, go = 0;
  std::atomic<int> failures{0};

  std::vector<std::thread> holders;
  for (int t = 0; t < 8; ++t) {
    holders.emplace_back([&] {
      { auto guard = reclaimer.pin(); }
      r2d::reclaim::detail::ChurnRegistry::get().abandon_current_thread();
      {
        std::lock_guard<std::mutex> lock(mu);
        ++parked;
      }
      cv.notify_all();
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return go != 0; });
      }
      // Revenant: this pin must resurrect the thread and re-arbitrate its
      // slot (or claim a fresh one) — never throw, never alias a live
      // thread's slot.
      try {
        auto guard = reclaimer.pin();
      } catch (const r2d::reclaim::SlotsExhausted&) {
        failures.fetch_add(1);
      }
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parked == 8; });
  }
  CHECK_EQ(reclaimer.slot_hwm(), 8u);

  // All 8 slots owned by dead tokens: a fresh thread must steal, and its
  // exit must release the stolen slot again.
  churn(2, [&] { auto guard = reclaimer.pin(); });

  {
    std::lock_guard<std::mutex> lock(mu);
    go = 1;
  }
  cv.notify_all();
  for (auto& t : holders) t.join();
  CHECK_EQ(failures.load(), 0);
  CHECK_EQ(reclaimer.slot_hwm(), 8u);  // never grew past the cap

  // Steal hammer: two live pinners loop while churners claim, abandon,
  // and exit concurrently — every claim/steal/exit-walk interleaving runs
  // under TSan. The pinners are live, so their slots must never be stolen
  // out from under them.
  std::atomic<bool> stop{false};
  std::atomic<int> hammer_failures{0};
  std::vector<std::thread> pinners;
  for (int t = 0; t < 2; ++t) {
    pinners.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto guard = reclaimer.pin();
      }
    });
  }
  const int rounds = kSanitized ? 60 : 200;
  for (int round = 0; round < rounds; ++round) {
    std::vector<std::thread> churners;
    for (int t = 0; t < 3; ++t) {
      churners.emplace_back([&] {
        try {
          { auto guard = reclaimer.pin(); }
          r2d::reclaim::detail::ChurnRegistry::get()
              .abandon_current_thread();
          { auto guard = reclaimer.pin(); }  // immediate revenant
        } catch (const r2d::reclaim::SlotsExhausted&) {
          hammer_failures.fetch_add(1);
        }
      });
    }
    for (auto& t : churners) t.join();
  }
  stop.store(true);
  for (auto& t : pinners) t.join();
  CHECK_EQ(hammer_failures.load(), 0);
}

}  // namespace

int main() {
  // Must precede the first detail::max_slots() call anywhere in the
  // process (the knob is cached once). Stealing stays at its default (on).
  setenv("R2D_MAX_SLOTS", "8", 1);
  CHECK_EQ(r2d::reclaim::detail::max_slots(), 8u);

  per_lessor_churn();
  acceptance_churn();
  instance_dies_first();
  instance_dies_with_orphans();
  orphans_drain_while_live();
  revenant_steal();
  return TEST_MAIN_RESULT();
}
