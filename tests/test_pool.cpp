// Allocation-policy tests: the slab Pool + magazine PoolAlloc layer
// (reclaim/alloc.hpp) and containers mounted on it.
//
// Covers the batch splice machinery (magazine -> spare -> depot and back,
// and slab refills cut short at slab ends: no block lost or duplicated
// across refill/flush), the ASan poisoning of free blocks, the OOM
// fallback to recycled blocks (fault build), cross-thread release
// (acquire on T1, release + reuse on T2), an ABA tag hammer that shuttles
// blocks between threads through an exchange slot (the TSan configuration
// of this test is what would catch a torn free-list splice), coexisting
// pools of one node type (the instance-keyed shard fix), and end-to-end
// no-loss/no-dup runs of the stack, queue, and deque on PoolAlloc —
// including the destruction-order contract: the allocator member outlives
// the reclaimer whose destructor drains deferred retires into it.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <set>
#include <thread>
#include <vector>

#include "core/params.hpp"
#include "core/two_d_deque.hpp"
#include "core/two_d_queue.hpp"
#include "core/two_d_stack.hpp"
#include "fault/inject.hpp"
#include "reclaim/alloc.hpp"
#include "reclaim/hazard.hpp"
#include "reclaim/pool.hpp"
#include "stacks/elimination_stack.hpp"
#include "stacks/ksegment_stack.hpp"
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

/// Acquire `n` blocks, release them all, re-acquire `n`: the second round
/// must hand back exactly the first round's blocks — every magazine park,
/// depot flush, and refill splice conserved the set.
void splice_round_trip(r2d::reclaim::PoolAlloc<Tracked>& alloc,
                       std::size_t n) {
  std::vector<Tracked*> batch;
  batch.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) batch.push_back(alloc.acquire(i));
  CHECK_EQ(Tracked::live.load(), static_cast<int>(n));
  const std::set<Tracked*> first_round(batch.begin(), batch.end());
  CHECK_EQ(first_round.size(), n);  // all distinct
  for (Tracked* p : batch) alloc.release(p);
  CHECK_EQ(Tracked::live.load(), 0);
  batch.clear();
  for (std::uint64_t i = 0; i < n; ++i) batch.push_back(alloc.acquire(i));
  const std::set<Tracked*> second_round(batch.begin(), batch.end());
  CHECK(first_round == second_round);
  for (Tracked* p : batch) alloc.release(p);
  CHECK_EQ(Tracked::live.load(), 0);
}

/// No-loss/no-dup hammer, shared with the container-on-PoolAlloc suites:
/// the popped + drained multiset must equal the pushed multiset.
template <typename PushFn, typename PopFn>
void hammer(const char* name, unsigned threads, std::uint64_t per_thread,
            PushFn push, PopFn pop) {
  std::vector<std::vector<std::uint64_t>> popped(threads);
  std::vector<std::thread> workers;
  std::atomic<unsigned> ready{0};
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < threads) {
      }
      std::uint64_t label = (static_cast<std::uint64_t>(t) << 32) + 1;
      for (std::uint64_t i = 0; i < per_thread; ++i) {
        push(label++);
        if (i % 2 == 1) {
          if (const auto v = pop()) popped[t].push_back(*v);
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  std::vector<std::uint64_t> seen;
  for (const auto& p : popped) seen.insert(seen.end(), p.begin(), p.end());
  while (const auto v = pop()) seen.push_back(*v);

  std::vector<std::uint64_t> expected;
  expected.reserve(threads * per_thread);
  for (unsigned t = 0; t < threads; ++t) {
    for (std::uint64_t i = 1; i <= per_thread; ++i) {
      expected.push_back((static_cast<std::uint64_t>(t) << 32) + i);
    }
  }
  std::sort(seen.begin(), seen.end());
  std::sort(expected.begin(), expected.end());
  if (seen != expected) {
    std::fprintf(stderr, "FAIL: %s lost, duplicated, or invented labels\n",
                 name);
    ++r2d::test::failures();
  }
}

}  // namespace

int main() {
  {
    // R2D_MAGAZINE is read per instance; a tiny magazine makes every few
    // operations cross a park/flush/refill boundary.
    setenv("R2D_MAGAZINE", "4", 1);
    r2d::reclaim::PoolAlloc<Tracked> alloc;
    CHECK_EQ(alloc.magazine_size(), 4u);
    splice_round_trip(alloc, 3);    // inside one magazine
    splice_round_trip(alloc, 4);    // exactly one magazine
    splice_round_trip(alloc, 9);    // mag + spare + depot
    splice_round_trip(alloc, 64);   // many depot magazines
    unsetenv("R2D_MAGAZINE");
  }
  {
    // Default magazine size, large batch: splices cross slab boundaries.
    r2d::reclaim::PoolAlloc<Tracked> alloc;
    CHECK_EQ(alloc.magazine_size(), 32u);
    splice_round_trip(alloc, 500);
  }
  for (const char* mag : {"48", "100"}) {
    // Magazine sizes that do not divide Pool::kSlabBlocks: slab refills
    // are cut short at slab ends (100 never fits one slab), so partial
    // carved magazines meet parks, flushes and depot refills.
    setenv("R2D_MAGAZINE", mag, 1);
    r2d::reclaim::PoolAlloc<Tracked> alloc;
    splice_round_trip(alloc, 47);
    splice_round_trip(alloc, 300);
    splice_round_trip(alloc, 1000);
    unsetenv("R2D_MAGAZINE");
  }
#if R2D_POOL_ASAN
  {
    // ASan still sees use-after-release with recycling: a free block's T
    // footprint is poisoned, from its carve and from every release, until
    // acquire hands it out; the tail chain words never are.
    r2d::reclaim::Pool<Tracked> pool;
    const auto run = pool.carve(4);
    CHECK_EQ(run.count, 4u);
    for (void* b = run.head; b != nullptr;
         b = r2d::reclaim::Pool<Tracked>::chain_next(b).load()) {
      CHECK(__asan_address_is_poisoned(b));
    }
    r2d::reclaim::PoolAlloc<Tracked> alloc;
    Tracked* p = alloc.acquire(std::uint64_t{1});
    CHECK(!__asan_address_is_poisoned(p));
    alloc.release(p);
    CHECK(__asan_address_is_poisoned(p));
    Tracked* q = alloc.acquire(std::uint64_t{2});
    CHECK(q == p);
    CHECK(!__asan_address_is_poisoned(q));
    alloc.release(q);
  }
#endif
#if R2D_FAULT
  {
    // OOM fallback (DESIGN.md §15) under the batched slab refill: once
    // the first slab is used up and growth fails, acquire serves recycled
    // blocks from the pool's free lists and throws bad_alloc only when
    // none are left.
    auto& inj = r2d::fault::injector();
    const auto acquire_throws = [](r2d::reclaim::PoolAlloc<Tracked>& a) {
      try {
        a.release(a.acquire(std::uint64_t{0}));
      } catch (const std::bad_alloc&) {
        return true;
      }
      return false;
    };
    setenv("R2D_MAGAZINE", "4", 1);
    r2d::reclaim::PoolAlloc<Tracked> alloc;
    constexpr std::size_t kSlab = r2d::reclaim::Pool<Tracked>::kSlabBlocks;
    inj.configure("site:slab-grow:2", 1);  // the first slab only
    std::vector<Tracked*> held;
    for (std::uint64_t i = 0; i < kSlab; ++i) held.push_back(alloc.acquire(i));
    CHECK(acquire_throws(alloc));
    // Three blocks reach the free lists: a second thread releases them
    // into its partial working magazine, which its exit flushes block by
    // block.
    const std::set<Tracked*> recycled(held.end() - 3, held.end());
    held.resize(kSlab - 3);
    std::thread([&] {
      for (Tracked* p : recycled) alloc.release(p);
    }).join();
    std::set<Tracked*> served;
    for (int i = 0; i < 3; ++i) {
      inj.configure("site:slab-grow:1", 1);  // the next growth fails
      held.push_back(alloc.acquire(std::uint64_t{7}));
      served.insert(held.back());
    }
    CHECK(served == recycled);
    inj.configure("site:slab-grow:1", 1);
    CHECK(acquire_throws(alloc));
    inj.configure("off", 0);
    for (Tracked* p : held) alloc.release(p);
    CHECK_EQ(Tracked::live.load(), 0);
    unsetenv("R2D_MAGAZINE");
  }
#endif

  {
    // Cross-thread release: blocks acquired on the main thread, released
    // AND reused on a second thread — release feeds the releasing
    // thread's own magazines, so the reuse set must still be conserved.
    setenv("R2D_MAGAZINE", "4", 1);
    r2d::reclaim::PoolAlloc<Tracked> alloc;
    constexpr std::size_t kBlocks = 40;
    std::vector<Tracked*> batch;
    for (std::uint64_t i = 0; i < kBlocks; ++i) {
      batch.push_back(alloc.acquire(i));
    }
    const std::set<Tracked*> acquired(batch.begin(), batch.end());
    std::thread other([&] {
      for (Tracked* p : batch) alloc.release(p);
      CHECK_EQ(Tracked::live.load(), 0);
      std::vector<Tracked*> reused;
      for (std::uint64_t i = 0; i < kBlocks; ++i) {
        reused.push_back(alloc.acquire(i));
      }
      const std::set<Tracked*> second(reused.begin(), reused.end());
      CHECK(acquired == second);
      for (Tracked* p : reused) alloc.release(p);
    });
    other.join();
    CHECK_EQ(Tracked::live.load(), 0);
    unsetenv("R2D_MAGAZINE");
  }

  {
    // ABA tag hammer: four threads shuttle blocks through one exchange
    // slot while churning acquire/release, so free lists and depots see
    // concurrent pop/push of recycled blocks with interleaved owners. A
    // missing tag bump or torn splice shows up as a duplicate handout
    // (live-count drift) or a sanitizer report.
    setenv("R2D_MAGAZINE", "4", 1);  // maximal depot traffic
    r2d::reclaim::PoolAlloc<Tracked> alloc;
    std::atomic<Tracked*> swap_slot{nullptr};
    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kOps = 20000;
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
      workers.emplace_back([&] {
        for (std::uint64_t i = 0; i < kOps; ++i) {
          Tracked* mine = alloc.acquire(i);
          Tracked* theirs = swap_slot.exchange(mine);
          if (theirs != nullptr) alloc.release(theirs);
        }
      });
    }
    for (auto& w : workers) w.join();
    if (Tracked* last = swap_slot.exchange(nullptr)) alloc.release(last);
    CHECK_EQ(Tracked::live.load(), 0);
    unsetenv("R2D_MAGAZINE");
  }

  {
    // Two pools of the same T must recycle independently: shard
    // assignment is keyed per instance, so interleaved use on one thread
    // cannot cross-wire their free lists.
    r2d::reclaim::Pool<Tracked> a;
    r2d::reclaim::Pool<Tracked> b;
    Tracked* pa = a.acquire(std::uint64_t{1});
    Tracked* pb = b.acquire(std::uint64_t{2});
    CHECK(pa != pb);
    a.release(pa);
    b.release(pb);
    Tracked* pa2 = a.acquire(std::uint64_t{3});
    Tracked* pb2 = b.acquire(std::uint64_t{4});
    CHECK(pa2 == pa);
    CHECK(pb2 == pb);
    a.release(pa2);
    b.release(pb2);
    CHECK_EQ(Tracked::live.load(), 0);
  }

  // Containers end-to-end on the pool policy (epoch default + one hazard
  // configuration): no operation lost or duplicated, and teardown obeys
  // the §10 destruction order — the reclaimer's deferred frees (all of
  // them, under TSan's deferred-EBR mode) drain into the pool before the
  // pool itself dies.
  {
    r2d::TwoDStack<std::uint64_t, r2d::reclaim::EpochReclaimer,
                   r2d::reclaim::PoolAlloc>
        stack(r2d::core::TwoDParams::for_k(256, 4));
    hammer(
        "2d-stack/epoch/pool", 4, 20000,
        [&](std::uint64_t v) { stack.push(v); }, [&] { return stack.pop(); });
  }
  {
    r2d::TwoDStack<std::uint64_t, r2d::reclaim::HazardReclaimer,
                   r2d::reclaim::PoolAlloc>
        stack(r2d::core::TwoDParams::for_k(256, 4));
    hammer(
        "2d-stack/hazard/pool", 4, 10000,
        [&](std::uint64_t v) { stack.push(v); }, [&] { return stack.pop(); });
  }
  {
    r2d::stacks::TreiberStack<std::uint64_t, r2d::reclaim::EpochReclaimer,
                              r2d::reclaim::PoolAlloc>
        stack;
    hammer(
        "treiber/epoch/pool", 4, 20000,
        [&](std::uint64_t v) { stack.push(v); }, [&] { return stack.pop(); });
  }
  {
    // Two PoolAlloc instances of different block sizes (items + segments);
    // the segment-retire path must release into the segment pool, never
    // the item pool, and teardown must drain leftover cell items.
    r2d::stacks::KSegmentStack<std::uint64_t, r2d::reclaim::EpochReclaimer,
                               r2d::reclaim::PoolAlloc>
        stack(16);
    hammer(
        "k-segment/epoch/pool", 4, 10000,
        [&](std::uint64_t v) { stack.push(v); }, [&] { return stack.pop(); });
  }
  {
    // The eliminated-push path releases a never-shared node straight back
    // to the pool, next to retires flowing through the reclaimer.
    r2d::stacks::EliminationStack<std::uint64_t, r2d::reclaim::EpochReclaimer,
                                  r2d::reclaim::PoolAlloc>
        stack(r2d::stacks::EliminationParams{8, 128, 1});
    hammer(
        "elimination/epoch/pool", 4, 10000,
        [&](std::uint64_t v) { stack.push(v); }, [&] { return stack.pop(); });
  }
  {
    r2d::core::TwoDParams p;
    p.width = 8;
    p.depth = 8;
    p.shift = 4;
    r2d::TwoDQueue<std::uint64_t, r2d::reclaim::EpochReclaimer,
                   r2d::reclaim::PoolAlloc>
        queue(p);
    hammer(
        "2d-queue/epoch/pool", 4, 20000,
        [&](std::uint64_t v) { queue.enqueue(v); },
        [&] { return queue.dequeue(); });
  }
  {
    // Both deque ends, steered by label parity; pops retire through the
    // reclaimer back into the pool on either column backend (DESIGN.md
    // §10/§11).
    r2d::core::TwoDParams p;
    p.width = 8;
    p.depth = 8;
    p.shift = 4;
    r2d::TwoDDeque<std::uint64_t, r2d::reclaim::EpochReclaimer,
                   r2d::reclaim::PoolAlloc>
        deque(p);
    hammer(
        "2d-deque/pool", 4, 20000,
        [&](std::uint64_t v) {
          if (v & 1) {
            deque.push_front(v);
          } else {
            deque.push_back(v);
          }
        },
        [&]() -> std::optional<std::uint64_t> {
          if (auto v = deque.pop_back()) return v;
          return deque.pop_front();
        });
  }
  {
    // Destruction-order regression: retire nodes and destroy the
    // container while frees are still deferred inside the reclaimer (the
    // TSan build defers every EBR free to the reclaimer destructor). The
    // member order must hand them to a still-live pool.
    r2d::stacks::TreiberStack<std::uint64_t, r2d::reclaim::EpochReclaimer,
                              r2d::reclaim::PoolAlloc>
        stack;
    for (std::uint64_t i = 0; i < 1000; ++i) stack.push(i);
    for (std::uint64_t i = 0; i < 500; ++i) stack.pop();
    // 500 nodes still linked, up to 500 retired-but-not-freed; scope exit
    // runs ~stack (drains the column), then ~EpochReclaimer (deferred
    // frees -> pool), then ~PoolAlloc/~Pool (slabs).
  }

  return TEST_MAIN_RESULT();
}
