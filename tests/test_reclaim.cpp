// Reclamation-layer tests: Pool recycling, and the epoch / hazard /
// leaky policies driven through a contended stack (the ASan configuration
// of this test is what would catch a use-after-free or double-free). The
// epoch policy is exercised under both fence modes — membarrier-based
// asymmetric pin() and the symmetric seq_cst fallback forced by
// R2D_MEMBARRIER=0 — including the advance rules: a straggler blocks
// every free without costing a heavy fence, and concurrent retirers keep
// garbage bounded.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <thread>
#include <vector>

#include "reclaim/epoch.hpp"
#include "reclaim/hazard.hpp"
#include "reclaim/leaky.hpp"
#include "obs/metrics.hpp"
#include "reclaim/pool.hpp"
#include "stacks/treiber_stack.hpp"
#include "check.hpp"

namespace {

struct Tracked {
  static std::atomic<int> live;
  std::uint64_t payload;
  explicit Tracked(std::uint64_t p) : payload(p) { live.fetch_add(1); }
  ~Tracked() { live.fetch_sub(1); }
};
std::atomic<int> Tracked::live{0};

template <typename Reclaimer>
void hammer_with_reclaimer(const char* name) {
  r2d::stacks::TreiberStack<std::uint64_t, Reclaimer> stack;
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kOps = 20000;
  std::atomic<std::uint64_t> popped{0};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kOps; ++i) {
        stack.push((static_cast<std::uint64_t>(t) << 32) | i);
        if (i % 2 == 0 && stack.pop()) popped.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  std::uint64_t drained = 0;
  while (stack.pop()) ++drained;
  if (popped.load() + drained != kThreads * kOps) {
    std::fprintf(stderr, "FAIL: %s dropped operations\n", name);
    ++r2d::test::failures();
  }
}

void retire_tracked(r2d::reclaim::EpochReclaimer& r, int n) {
  for (int i = 0; i < n; ++i) {
    auto guard = r.pin();
    guard.retire(new Tracked(static_cast<std::uint64_t>(i)));
  }
}

/// A thread pinned in an old epoch must keep every node retired since its
/// pin alive, and cadence triggers must skip without a heavy fence while
/// it is visible. (Deferred under TSan, where all EBR frees wait for the
/// destructor.)
void epoch_straggler(const char* mode) {
#if !R2D_EBR_DEFER_FREES
  r2d::reclaim::EpochReclaimer r;
  std::atomic<int> stage{0};  // 1: straggler pinned, 2: released
  std::thread straggler([&] {
    auto guard = r.pin();
    stage.store(1);
    while (stage.load() != 2) std::this_thread::yield();
  });
  while (stage.load() != 1) std::this_thread::yield();
  // The straggler announced the current epoch, which does not block the
  // first advance; after it the straggler is one epoch behind.
  retire_tracked(r, 4096);
  const r2d::obs::Snapshot before = r2d::obs::metrics().snapshot();
  retire_tracked(r, 4096);
  const r2d::obs::Snapshot delta = r2d::obs::metrics().snapshot() - before;
  if (Tracked::live.load() != 8192) {
    std::fprintf(stderr, "FAIL: %s freed %d node(s) behind a straggler\n",
                 mode, 8192 - Tracked::live.load());
    ++r2d::test::failures();
  }
  CHECK_EQ(delta[r2d::obs::Counter::kEpochAdvanceTries], std::uint64_t{0});
  stage.store(2);
  straggler.join();
  // Released: untracked retires advance the epoch past both buckets.
  for (int i = 0; i < 4096 && Tracked::live.load() != 0; ++i) {
    auto guard = r.pin();
    guard.retire(new std::uint64_t{0});
  }
  CHECK_EQ(Tracked::live.load(), 0);
#else
  (void)mode;
#endif
}

/// Four threads retire 100k+ nodes each in lockstep rounds of 512; the
/// live count at every round boundary must stay under the bound below.
/// (Deferred under TSan, where all EBR frees wait for the destructor.)
void epoch_bounded_garbage(const char* mode) {
#if !R2D_EBR_DEFER_FREES
  constexpr int kThreads = 4;
  constexpr int kRound = 512;  // a multiple of both cadences (256 and 64)
  constexpr int kRounds = 196;  // 196 * 512 = 100352 retires per thread
  // Every round advances the epoch at least once. Each thread reaches at
  // least two cadence triggers per round, and while a round has not yet
  // advanced, all its pins announce its starting epoch e (the barrier
  // ended the previous round's pins). At a thread's second trigger its
  // slot has e recorded (rule 1 cannot skip), no straggler is visible
  // (rule 2 cannot), and the thread either wins the flag and advances or
  // finds a rival attempt in flight at e, which advances. An epoch is
  // therefore current during at most two rounds, a bucket holds at most
  // 2 * kRound nodes, and three buckets per thread bound the garbage. A
  // starved advance leaves every retire live instead (400k).
  constexpr int kBound = kThreads * 3 * 2 * kRound;
  r2d::reclaim::EpochReclaimer r;
  int peak = 0;
  auto at_boundary = [&]() noexcept {
    peak = std::max(peak, Tracked::live.load());
  };
  std::barrier sync(kThreads, at_boundary);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        retire_tracked(r, kRound);
        sync.arrive_and_wait();
      }
    });
  }
  for (auto& w : workers) w.join();
  if (peak > kBound) {
    std::fprintf(stderr, "FAIL: %s garbage peaked at %d > bound %d\n", mode,
                 peak, kBound);
    ++r2d::test::failures();
  }
#else
  (void)mode;
#endif
}

}  // namespace

int main() {
  {
    // The pool constructs/destroys exactly once per acquire/release and
    // recycles memory.
    r2d::reclaim::Pool<Tracked> pool;
    Tracked* a = pool.acquire(std::uint64_t{1});
    CHECK_EQ(Tracked::live.load(), 1);
    CHECK_EQ(a->payload, std::uint64_t{1});
    pool.release(a);
    CHECK_EQ(Tracked::live.load(), 0);
    Tracked* b = pool.acquire(std::uint64_t{2});
    CHECK(b == a);  // same-thread recycle hits the same shard
    pool.release(b);

    // Burst: everything released is reusable.
    std::vector<Tracked*> batch;
    for (std::uint64_t i = 0; i < 512; ++i) {
      batch.push_back(pool.acquire(i));
    }
    CHECK_EQ(Tracked::live.load(), 512);
    std::set<Tracked*> first_round(batch.begin(), batch.end());
    for (Tracked* p : batch) pool.release(p);
    CHECK_EQ(Tracked::live.load(), 0);
    batch.clear();
    for (std::uint64_t i = 0; i < 512; ++i) batch.push_back(pool.acquire(i));
    for (Tracked* p : batch) CHECK(first_round.count(p) == 1);
    for (Tracked* p : batch) pool.release(p);
  }
  {
    // Concurrent pool hammer.
    r2d::reclaim::Pool<Tracked> pool;
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < 4; ++t) {
      workers.emplace_back([&] {
        for (std::uint64_t i = 0; i < 50000; ++i) {
          Tracked* p = pool.acquire(i);
          pool.release(p);
        }
      });
    }
    for (auto& w : workers) w.join();
    CHECK_EQ(Tracked::live.load(), 0);
  }

  {
    // Default mode: membarrier-based asymmetric fencing wherever the
    // kernel supports it, the symmetric fence elsewhere.
    r2d::reclaim::EpochReclaimer r;
    std::fprintf(stderr, "epoch pin fence mode: %s\n",
                 r.uses_membarrier() ? "membarrier" : "seq_cst fallback");
  }
  hammer_with_reclaimer<r2d::reclaim::EpochReclaimer>("epoch/auto");
  epoch_straggler("epoch/auto");
  epoch_bounded_garbage("epoch/auto");

  // R2D_MEMBARRIER=0 must force the symmetric fallback (the knob is read
  // per reclaimer construction), and the policy must stay correct on it.
  setenv("R2D_MEMBARRIER", "0", 1);
  {
    r2d::reclaim::EpochReclaimer r;
    CHECK(!r.uses_membarrier());
  }
  hammer_with_reclaimer<r2d::reclaim::EpochReclaimer>("epoch/fallback");
  epoch_straggler("epoch/fallback");
  epoch_bounded_garbage("epoch/fallback");
  unsetenv("R2D_MEMBARRIER");

  hammer_with_reclaimer<r2d::reclaim::HazardReclaimer>("hazard");
#if !defined(__SANITIZE_ADDRESS__)
  // The leaky policy leaks by design; skip it under LeakSanitizer.
  hammer_with_reclaimer<r2d::reclaim::LeakyReclaimer>("leaky");
#endif

  return TEST_MAIN_RESULT();
}
