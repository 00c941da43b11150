// Layer probes for the traced run: each times one layer's public calls in
// isolation, at the workload's thread count.
//
//   reclaim: EpochReclaimer::pin() plus guard release, and pin() plus
//            Guard::retire() of one node (which carries the reclaimer's
//            share of epoch advances and deferred frees);
//   alloc:   the container's allocator policy, acquire + release on one
//            thread, and release of nodes another thread acquired.
//
// Every probe reports ns per call, the median over its threads.
#pragma once

#include <barrier>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

#include "support.hpp"

namespace perfbench {

/// Run body(t) on `threads` pinned threads behind a start barrier; returns
/// the median over threads of ns per call, `calls` calls each. body(t, calls) times itself
/// and returns its elapsed seconds.
template <typename Body>
double median_ns_per_call(unsigned threads, std::uint64_t calls, Body body) {
  std::vector<double> ns(threads, 0.0);
  std::barrier<> sync(static_cast<std::ptrdiff_t>(threads));
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      pin_thread(t);
      sync.arrive_and_wait();
      ns[t] = body(t, calls, sync) * 1e9 / static_cast<double>(calls);
    });
  }
  for (std::thread& th : pool) th.join();
  return median(ns);
}

/// Nodes per batch of the probes that hold nodes between calls.
inline constexpr std::uint64_t kBatch = 4096;

struct ReclaimProbe {
  double pin_ns = 0.0;
  double retire_ns = 0.0;
};

/// Times pin/release and pin/retire on one shared reclaimer, the way a
/// container's pop uses it. Nodes come from the container's allocator.
template <typename Reclaimer, typename Alloc>
ReclaimProbe probe_reclaim(unsigned threads, std::uint64_t calls) {
  ReclaimProbe p;
  {
    Reclaimer r;
    p.pin_ns = median_ns_per_call(
        threads, calls, [&](unsigned, std::uint64_t n, std::barrier<>&) {
          const auto a = Clock::now();
          for (std::uint64_t i = 0; i < n; ++i) {
            auto guard = r.pin();
          }
          return seconds_between(a, Clock::now());
        });
  }
  Alloc alloc;  // outlives the reclaimer, which frees into it
  {
    Reclaimer r;
    p.retire_ns = median_ns_per_call(
        threads, calls, [&](unsigned, std::uint64_t n, std::barrier<>&) {
          using Node = std::remove_pointer_t<decltype(alloc.acquire())>;
          std::vector<Node*> nodes(kBatch);
          double elapsed = 0.0;
          for (std::uint64_t done = 0; done < n; done += kBatch) {
            for (Node*& node : nodes) node = alloc.acquire();
            const auto a = Clock::now();
            for (Node* node : nodes) {
              auto guard = r.pin();
              guard.retire(node, alloc);
            }
            elapsed += seconds_between(a, Clock::now());
          }
          return elapsed;
        });
  }
  return p;
}

struct AllocProbe {
  double acquire_release_ns = 0.0;
  double cross_thread_release_ns = 0.0;
};

/// Times the allocator: acquire + release of one node on one thread, and
/// release of a batch another thread acquired (thread t frees thread
/// t+1's batch), as when a popper frees a node another thread pushed.
template <typename Alloc>
AllocProbe probe_alloc(unsigned threads, std::uint64_t calls) {
  AllocProbe p;
  Alloc alloc;
  p.acquire_release_ns = median_ns_per_call(
      threads, calls, [&](unsigned, std::uint64_t n, std::barrier<>&) {
        const auto a = Clock::now();
        for (std::uint64_t i = 0; i < n; ++i) {
          auto* node = alloc.acquire();
          asm volatile("" : : "r"(node) : "memory");
          alloc.release(node);
        }
        return seconds_between(a, Clock::now());
      });
  using Node = std::remove_pointer_t<decltype(alloc.acquire())>;
  std::vector<std::vector<Node*>> batches(threads);
  const std::uint64_t rounds = std::max<std::uint64_t>(1, calls / kBatch);
  p.cross_thread_release_ns = median_ns_per_call(
      threads, rounds * kBatch,
      [&](unsigned t, std::uint64_t, std::barrier<>& sync) {
        double elapsed = 0.0;
        for (std::uint64_t r = 0; r < rounds; ++r) {
          batches[t].resize(kBatch);
          for (Node*& node : batches[t]) node = alloc.acquire();
          sync.arrive_and_wait();  // every batch filled
          const auto a = Clock::now();
          for (Node* node : batches[(t + 1) % threads]) alloc.release(node);
          elapsed += seconds_between(a, Clock::now());
          sync.arrive_and_wait();  // every batch released
        }
        return elapsed;
      });
  return p;
}

/// Cost of the span itself: two back-to-back clock reads, median ns.
inline double clock_pair_ns() {
  std::vector<std::uint32_t> v;
  v.reserve(1u << 16);
  for (int i = 0; i < (1 << 16); ++i) {
    const auto a = Clock::now();
    const auto b = Clock::now();
    v.push_back(ns_between(a, b));
  }
  return binned_quantile(std::move(v), 0.5);
}

}  // namespace perfbench
