// TwoDBag correctness: multiset model checks (width-1 vs std::multiset),
// window snap-down behavior and how it differs from the stack's step-down,
// concurrent no-loss/no-duplication, and the §10 alloc/reclaimer policy
// matrix.
#include <atomic>
#include <cstdint>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "core/params.hpp"
#include "core/two_d_bag.hpp"
#include "core/two_d_stack.hpp"
#include "reclaim/alloc.hpp"
#include "reclaim/hazard.hpp"
#include "check.hpp"

namespace {

constexpr std::uint64_t kN = 5000;

/// Deterministic test PRNG (xorshift64*), independent of the hop PRNG.
std::uint64_t rng(std::uint64_t& state) {
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return state * 0x2545f4914f6cdd1dull;
}

/// Width-1 bag against a std::multiset model: a random push/pop sequence
/// where every pop must return some element the model still holds, and
/// a drain at the end must return exactly the model's residue.
void check_width1_model() {
  r2d::core::TwoDParams p;
  p.width = 1;
  p.depth = 16;
  p.shift = 8;
  r2d::TwoDBag<std::uint64_t> bag(p);
  std::multiset<std::uint64_t> model;
  std::uint64_t state = 0x5eedu;
  std::uint64_t label = 0;
  for (std::uint64_t op = 0; op < 20000; ++op) {
    if (rng(state) % 2 == 0) {
      // Duplicate labels on purpose: a multiset model must cope.
      const std::uint64_t v = label++ % 97;
      bag.push(v);
      model.insert(v);
    } else {
      const auto v = bag.pop();
      if (model.empty()) {
        CHECK(!v.has_value());
      } else {
        CHECK(v.has_value());
        const auto it = model.find(*v);
        CHECK(it != model.end());
        if (it != model.end()) model.erase(it);
      }
    }
  }
  std::multiset<std::uint64_t> drained;
  while (auto v = bag.pop()) drained.insert(*v);
  CHECK(drained == model);
  CHECK(bag.empty());
  CHECK(!bag.pop().has_value());
}

/// Wide bag, sequential: no loss, no duplication, no invention — and the
/// window invariants (never below depth; the pop-side snap-down brings
/// it back down after a drain instead of leaving it at the push-side
/// high-water mark).
void check_wide_sequential() {
  r2d::core::TwoDParams p;
  p.width = 8;
  p.depth = 4;
  p.shift = 2;
  r2d::TwoDBag<std::uint64_t> bag(p);
  CHECK(!bag.pop().has_value());
  CHECK_EQ(bag.window(), p.depth);

  std::set<std::uint64_t> outstanding;
  for (std::uint64_t i = 0; i < kN; ++i) {
    bag.push(i);
    outstanding.insert(i);
  }
  CHECK_EQ(bag.approx_size(), kN);
  const std::uint64_t high_window = bag.window();
  CHECK(high_window >= p.depth);

  for (std::uint64_t i = 0; i < kN; ++i) {
    const auto v = bag.pop();
    CHECK(v.has_value());
    CHECK(outstanding.erase(*v) == 1);
    CHECK(bag.window() >= p.depth);
  }
  CHECK(outstanding.empty());
  CHECK(!bag.pop().has_value());
  CHECK(bag.empty());
  // Draining kN items through a depth-4 band forces certified pop
  // sweeps; the snap-down must have moved the window well below the
  // push-side high-water mark by the time the bag is empty.
  CHECK(bag.window() < high_window);
}

/// Width 1, depth 4, shift 2: 20 pushes leave count 20 under window 20,
/// then pops walk the window down. From the 5th pop on, the column keeps
/// reaching the band bottom and the pop certifies: LifoOrder steps the
/// window down by `shift`, so each step serves two pops, while BagOrder
/// snaps it to count + depth − 1. Returns the window after each pop.
template <typename Container>
std::vector<std::uint64_t> width1_pop_windows() {
  Container c(r2d::core::TwoDParams{1, 4, 2});
  for (std::uint64_t i = 0; i < 20; ++i) c.push(i);
  CHECK_EQ(c.window(), std::uint64_t{20});
  std::vector<std::uint64_t> windows;
  while (c.pop()) windows.push_back(c.window());
  CHECK_EQ(windows.size(), std::size_t{20});
  return windows;
}

/// The two Order policies must be observably different on the same
/// schedule; a bag wired to the stack's rule fails here.
void check_policies_differ() {
  const auto stack = width1_pop_windows<r2d::TwoDStack<std::uint64_t>>();
  const auto bag = width1_pop_windows<r2d::TwoDBag<std::uint64_t>>();
  // After the 5th pop 18 vs 19, after the 7th 16 vs 17; both end at the
  // depth floor.
  const std::vector<std::uint64_t> stack_expected = {
      20, 20, 20, 20, 18, 18, 16, 16, 14, 14,
      12, 12, 10, 10, 8,  8,  6,  6,  4,  4};
  const std::vector<std::uint64_t> bag_expected = {
      20, 20, 20, 20, 19, 18, 17, 16, 15, 14,
      13, 12, 11, 10, 9,  8,  7,  6,  5,  4};
  CHECK(stack == stack_expected);
  CHECK(bag == bag_expected);
}

/// 4-thread hammer: 2 producers push disjoint label ranges, 2 consumers
/// pop; afterwards every label must have been seen exactly once across
/// consumers + residue.
template <typename Bag>
void check_concurrent(Bag& bag) {
  constexpr unsigned kProducers = 2;
  constexpr unsigned kConsumers = 2;
  constexpr std::uint64_t kPerProducer = 40000;
  std::atomic<unsigned> producers_live{kProducers};
  std::vector<std::vector<std::uint64_t>> taken(kConsumers);

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kProducers; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        bag.push((std::uint64_t{t} << 32) | i);
      }
      producers_live.fetch_sub(1, std::memory_order_release);
    });
  }
  for (unsigned t = 0; t < kConsumers; ++t) {
    threads.emplace_back([&, t] {
      taken[t].reserve(kPerProducer);
      while (true) {
        auto v = bag.pop();
        if (v) {
          taken[t].push_back(*v);
        } else if (producers_live.load(std::memory_order_acquire) == 0) {
          if (!(v = bag.pop())) break;
          taken[t].push_back(*v);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  std::set<std::uint64_t> seen;
  std::uint64_t total = 0;
  for (const auto& list : taken) {
    for (const std::uint64_t v : list) {
      CHECK(seen.insert(v).second);  // no duplication
      ++total;
    }
  }
  CHECK_EQ(total, kProducers * kPerProducer);  // no loss
  CHECK(bag.empty());
}

}  // namespace

int main() {
  check_width1_model();
  check_wide_sequential();
  check_policies_differ();
  {
    r2d::core::TwoDParams p;
    p.width = 8;
    p.depth = 16;
    p.shift = 8;
    r2d::TwoDBag<std::uint64_t> bag(p);
    check_concurrent(bag);
  }
  {
    // Policy matrix corner: hazard pointers + pooled nodes.
    r2d::core::TwoDParams p;
    p.width = 4;
    p.depth = 8;
    p.shift = 4;
    r2d::TwoDBag<std::uint64_t, r2d::reclaim::HazardReclaimer,
                 r2d::reclaim::PoolAlloc>
        bag(p);
    check_concurrent(bag);
  }
  {
    // Destruction with live items: the drain path must return every node
    // to its allocator (ASan would flag a leak or double free).
    r2d::core::TwoDParams p;
    p.width = 4;
    p.depth = 4;
    p.shift = 2;
    r2d::TwoDBag<std::uint64_t, r2d::reclaim::EpochReclaimer,
                 r2d::reclaim::PoolAlloc>
        bag(p);
    for (std::uint64_t i = 0; i < 1000; ++i) bag.push(i);
    const auto v = bag.pop();
    CHECK(v.has_value());
  }
  return TEST_MAIN_RESULT();
}
