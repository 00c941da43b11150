// The closed-loop stack harness: P threads, each issuing its next push or
// pop the moment the previous one returns, against any container with
// push(uint64_t) / pop() -> optional<uint64_t>.
//
// One trial = construct the container, start P threads, each pinned to its
// own CPU, that each prefill their share, run the measured region for a
// fixed time, stop, join, then drain the container on the calling thread
// and check conservation. Three trial kinds share this loop:
//
//   kPlain   — the end-to-end run: ops are counted, one op in 64 is timed
//              for the operation-latency percentiles;
//   kTraced  — the per-layer run: one op in 4 gets a span around the
//              push or pop call, and each thread samples its CPU;
//   kQuality — the rank-error pass: every op stamps a shared ticket into
//              a per-thread log (a push before it runs, a pop after it
//              returns) for quality::replay, as harness/quality.hpp
//              describes.
//
// Labels are (thread + 1) << 40 | i for a thread's i-th push, so each
// popped label names its pushing thread and its push index. Every popper
// keeps one bitmap per pushing thread; at the end the bitmaps must be
// disjoint and their union must be exactly the pushed set. That proves
// each popped label was pushed and popped at most once, and that the
// drain returned exactly the labels still inside.
#pragma once

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "harness/quality.hpp"
#include "obs/metrics.hpp"
#include "support.hpp"

namespace perfbench {

enum class Shape { kMixed, kPairs };
enum class TrialKind { kPlain, kTraced, kQuality };

inline constexpr unsigned kLabelShift = 40;
inline constexpr std::uint64_t kLabelIndexMask =
    (std::uint64_t{1} << kLabelShift) - 1;
/// kPlain times one op in kLatencyEvery; kTraced spans one in kSpanEvery.
inline constexpr std::uint64_t kLatencyEvery = 64;
inline constexpr std::uint64_t kSpanEvery = 4;
/// Per-thread cap on kept timing samples (4 MiB of uint32 per vector).
inline constexpr std::size_t kMaxSamples = std::size_t{1} << 20;
/// Per-thread event budget of a quality pass, past its prefill share.
inline constexpr std::uint64_t kQualityEvents = std::uint64_t{1} << 17;

inline std::uint64_t label_of(unsigned thread, std::uint64_t index) {
  return (static_cast<std::uint64_t>(thread) + 1) << kLabelShift | index;
}

/// Which labels one popper took: a bitmap per pushing thread, plus the
/// count and wrap-around sum of everything taken.
class PopLedger {
 public:
  explicit PopLedger(unsigned sources) : bits_(sources) {}

  void take(std::uint64_t label) {
    ++count_;
    sum_ += label;
    const std::uint64_t source = (label >> kLabelShift) - 1;
    const std::uint64_t index = label & kLabelIndexMask;
    if ((label >> kLabelShift) == 0 || source >= bits_.size()) {
      ++foreign_;
      return;
    }
    std::vector<std::uint64_t>& bits = bits_[source];
    const std::size_t word = static_cast<std::size_t>(index >> 6);
    if (word >= bits.size()) bits.resize(std::max(word + 1, 2 * bits.size()));
    const std::uint64_t bit = std::uint64_t{1} << (index & 63);
    if (bits[word] & bit) ++duplicates_;
    bits[word] |= bit;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t foreign() const { return foreign_; }
  std::uint64_t duplicates() const { return duplicates_; }
  const std::vector<std::uint64_t>& bits(unsigned source) const {
    return bits_[source];
  }

 private:
  std::vector<std::vector<std::uint64_t>> bits_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t foreign_ = 0;     ///< labels no thread of this trial pushed
  std::uint64_t duplicates_ = 0;  ///< labels this popper took twice
};

struct Conservation {
  bool ok = true;
  std::string why;  ///< first violation found, empty when ok
};

/// The multiset check: `ledgers` are every popper's ledger, the drain's
/// included; pushed[s] is how many labels thread s pushed (indices
/// 0..pushed[s]-1). Also checks the drain against the pushed-but-not-
/// popped set by count and by sum, as two independent witnesses.
inline Conservation check_conservation(
    const std::vector<std::uint64_t>& pushed,
    const std::vector<const PopLedger*>& ledgers, const PopLedger& drain) {
  Conservation c;
  auto fail = [&](const std::string& why) {
    if (c.ok) c.why = why;
    c.ok = false;
  };
  std::uint64_t popped = 0;
  std::uint64_t popped_sum = 0;
  for (const PopLedger* l : ledgers) {
    if (l->foreign() != 0) fail("popped a label that was never pushed");
    if (l->duplicates() != 0) fail("one thread popped a label twice");
    if (l != &drain) {
      popped += l->count();
      popped_sum += l->sum();
    }
  }
  std::uint64_t pushed_total = 0;
  std::uint64_t pushed_sum = 0;
  for (unsigned s = 0; s < pushed.size(); ++s) {
    const std::uint64_t n = pushed[s];
    pushed_total += n;
    // sum over i < n of ((s + 1) << 40 | i), wrapping like the ledgers.
    pushed_sum += n * label_of(s, 0) + (n == 0 ? 0 : n * (n - 1) / 2);
    const std::size_t words = static_cast<std::size_t>((n + 63) / 64);
    std::vector<std::uint64_t> seen(words, 0);
    for (const PopLedger* l : ledgers) {
      const std::vector<std::uint64_t>& bits = l->bits(s);
      for (std::size_t w = 0; w < bits.size(); ++w) {
        if (bits[w] == 0) continue;
        if (w >= words) {
          fail("popped a label beyond its thread's pushes");
          continue;
        }
        if (seen[w] & bits[w]) fail("a label was popped more than once");
        seen[w] |= bits[w];
      }
    }
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t want =
          (w + 1 < words || n % 64 == 0) ? ~std::uint64_t{0}
                                         : (std::uint64_t{1} << (n % 64)) - 1;
      if (seen[w] != want) {
        fail("a pushed label was neither popped nor drained");
        break;
      }
    }
  }
  if (drain.count() != pushed_total - popped) {
    fail("drain count != pushed - popped");
  }
  if (drain.sum() != pushed_sum - popped_sum) {
    fail("drain label sum != pushed sum - popped sum");
  }
  return c;
}

struct StackConfig {
  unsigned threads = 4;
  std::uint64_t prefill = 32768;
  Shape shape = Shape::kMixed;
};

struct TrialResult {
  double setup_s = 0.0;    ///< construction + thread start + prefill
  double seconds = 0.0;    ///< start gun to last join
  std::uint64_t ops = 0;   ///< measured container ops, all threads
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;  ///< pops that returned a value
  std::uint64_t empty_pops = 0;
  std::vector<std::uint32_t> latency;     ///< kPlain: sampled op ns
  std::vector<std::uint32_t> push_spans;  ///< kTraced: push call ns
  std::vector<std::uint32_t> pop_spans;   ///< kTraced: pop call ns
  std::uint64_t migrations = 0;           ///< kTraced: CPU changes
  r2d::obs::Snapshot obs;                 ///< measured-region delta
  HostDelta host;                         ///< measured-region delta
  Conservation conservation;
  bool checked = false;
  r2d::quality::ReplayResult quality;  ///< kQuality only

  double mops() const {
    return seconds > 0 ? static_cast<double>(ops) / 1e6 / seconds : 0.0;
  }
};

namespace detail {

struct alignas(64) Worker {
  Worker(std::uint64_t seed, unsigned sources) : rng(seed), ledger(sources) {}

  Rng rng;
  std::uint64_t pushed = 0;  ///< next push index == labels pushed so far
  std::uint64_t ops = 0;
  std::uint64_t pops = 0;
  std::uint64_t empty = 0;
  PopLedger ledger;
  std::vector<std::uint32_t> latency;
  std::vector<std::uint32_t> push_spans;
  std::vector<std::uint32_t> pop_spans;
  CpuTracker cpu;
  std::vector<r2d::quality::Event> events;
};

inline void keep(std::vector<std::uint32_t>& into, Clock::time_point a,
                 Clock::time_point b) {
  if (into.size() < kMaxSamples) into.push_back(ns_between(a, b));
}

template <TrialKind kKind, typename Stack>
void run_worker(Stack& stack, const StackConfig& cfg, unsigned t,
                Worker& w, std::uint64_t prefill_share,
                std::barrier<>& sync, std::atomic<bool>& stop,
                std::atomic<std::uint64_t>& ticket,
                std::uint64_t event_budget) {
  auto log = [&](std::uint64_t label, bool is_push) {
    w.events.push_back(r2d::quality::Event{
        ticket.fetch_add(1, std::memory_order_relaxed), label, is_push});
  };
  auto push = [&] {
    const std::uint64_t label = label_of(t, w.pushed++);
    if constexpr (kKind == TrialKind::kQuality) log(label, true);
    stack.push(label);
  };
  auto pop = [&] {
    const std::optional<std::uint64_t> v = stack.pop();
    if (!v) {
      ++w.empty;
      return;
    }
    if constexpr (kKind == TrialKind::kQuality) log(*v, false);
    ++w.pops;
    w.ledger.take(*v);
  };
  auto timed = [&](auto&& op, std::vector<std::uint32_t>& into) {
    const auto a = Clock::now();
    op();
    const auto b = Clock::now();
    keep(into, a, b);
  };

  pin_thread(t);
  for (std::uint64_t i = 0; i < prefill_share; ++i) push();
  sync.arrive_and_wait();  // prefill done
  sync.arrive_and_wait();  // start gun
  std::uint64_t iter = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    if (cfg.shape == Shape::kMixed) {
      const bool is_push = (w.rng.next() >> 63) != 0;
      if constexpr (kKind == TrialKind::kPlain) {
        if (iter % kLatencyEvery == 0) {
          if (is_push) timed(push, w.latency); else timed(pop, w.latency);
        } else if (is_push) {
          push();
        } else {
          pop();
        }
      } else if constexpr (kKind == TrialKind::kTraced) {
        if (iter % kSpanEvery == 0) {
          if (is_push) timed(push, w.push_spans); else timed(pop, w.pop_spans);
        } else if (is_push) {
          push();
        } else {
          pop();
        }
      } else {
        if (is_push) push(); else pop();
      }
      ++w.ops;
    } else {
      if constexpr (kKind == TrialKind::kPlain) {
        // Both ops of one iteration in kLatencyEvery: one op in 64 overall.
        if (iter % kLatencyEvery == 0) {
          timed(push, w.latency);
          timed(pop, w.latency);
        } else {
          push();
          pop();
        }
      } else if constexpr (kKind == TrialKind::kTraced) {
        if (iter % kSpanEvery == 0) {
          timed(push, w.push_spans);
          timed(pop, w.pop_spans);
        } else {
          push();
          pop();
        }
      } else {
        push();
        pop();
      }
      w.ops += 2;
    }
    if constexpr (kKind == TrialKind::kTraced) {
      if ((iter & 1023) == 0) w.cpu.sample();
    }
    if constexpr (kKind == TrialKind::kQuality) {
      if (w.events.size() >= event_budget) {
        stop.store(true, std::memory_order_relaxed);
      }
    }
    ++iter;
  }
}

}  // namespace detail

/// Run one trial of `seconds` on a container from `make()`. `check`
/// drains and checks conservation; the null container, which does not
/// share items between threads, runs with it off.
template <TrialKind kKind, typename Make>
TrialResult run_trial(const StackConfig& cfg, Make&& make, double seconds,
                      std::uint64_t seed, bool check) {
  const unsigned threads = std::max(1u, cfg.threads);
  std::vector<std::unique_ptr<detail::Worker>> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.push_back(
        std::make_unique<detail::Worker>(derive_seed(seed, t), threads));
    detail::Worker& w = *workers.back();
    if constexpr (kKind == TrialKind::kPlain) w.latency.reserve(1u << 16);
    if constexpr (kKind == TrialKind::kTraced) {
      w.push_spans.reserve(1u << 18);
      w.pop_spans.reserve(1u << 18);
    }
  }
  std::vector<std::uint64_t> shares(threads);
  for (unsigned t = 0; t < threads; ++t) {
    shares[t] = cfg.prefill / threads + (t < cfg.prefill % threads ? 1 : 0);
    if constexpr (kKind == TrialKind::kQuality) {
      workers[t]->events.reserve(shares[t] + kQualityEvents + 2);
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ticket{0};
  std::barrier<> sync(static_cast<std::ptrdiff_t>(threads) + 1);
  TrialResult r;

  const auto t0 = Clock::now();
  auto stack = make();
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      detail::run_worker<kKind>(*stack, cfg, t, *workers[t], shares[t], sync,
                                stop, ticket,
                                shares[t] + kQualityEvents);
    });
  }
  sync.arrive_and_wait();
  r.setup_s = seconds_between(t0, Clock::now());

  const r2d::obs::Snapshot obs_before = r2d::obs::metrics().snapshot();
  const HostSample host_before = HostSample::now();
  const auto start = Clock::now();
  sync.arrive_and_wait();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  if constexpr (kKind == TrialKind::kQuality) {
    // A quality pass ends early when a thread fills its log.
    while (!stop.load(std::memory_order_relaxed) && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  } else {
    std::this_thread::sleep_until(deadline);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : pool) th.join();
  const auto end = Clock::now();
  r.host.add(host_before, HostSample::now());
  r.obs = r2d::obs::metrics().snapshot() - obs_before;
  r.seconds = seconds_between(start, end);

  std::vector<std::uint64_t> pushed(threads);
  std::vector<r2d::quality::Event> events;
  for (unsigned t = 0; t < threads; ++t) {
    detail::Worker& w = *workers[t];
    pushed[t] = w.pushed;
    r.ops += w.ops;
    r.pops += w.pops;
    r.empty_pops += w.empty;
    r.migrations += w.cpu.migrations;
    r.pushes += w.pushed - shares[t];
    auto append = [](std::vector<std::uint32_t>& to,
                     const std::vector<std::uint32_t>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(r.latency, w.latency);
    append(r.push_spans, w.push_spans);
    append(r.pop_spans, w.pop_spans);
    if constexpr (kKind == TrialKind::kQuality) {
      events.insert(events.end(), w.events.begin(), w.events.end());
      w.events = {};
    }
  }

  if (check) {
    PopLedger drain(threads);
    while (const std::optional<std::uint64_t> v = stack->pop()) drain.take(*v);
    std::vector<const PopLedger*> ledgers;
    for (const auto& w : workers) ledgers.push_back(&w->ledger);
    ledgers.push_back(&drain);
    r.conservation = check_conservation(pushed, ledgers, drain);
    r.checked = true;
  }
  stack.reset();
  if constexpr (kKind == TrialKind::kQuality) {
    r.quality = r2d::quality::replay(std::move(events),
                                     r2d::quality::Order::kLifo);
  }
  return r;
}

/// The null container: the same push/pop surface over a thread-local
/// vector, so the harness loop, op draw, labels and pop bookkeeping run
/// with (almost) no container cost. It shares nothing between threads,
/// so its trials run without the conservation check.
class NullStack {
 public:
  using value_type = std::uint64_t;

  void push(std::uint64_t v) { local().push_back(v); }
  std::optional<std::uint64_t> pop() {
    std::vector<std::uint64_t>& s = local();
    if (s.empty()) return std::nullopt;
    const std::uint64_t v = s.back();
    s.pop_back();
    return v;
  }

 private:
  static std::vector<std::uint64_t>& local() {
    thread_local std::vector<std::uint64_t> items;
    return items;
  }
};

}  // namespace perfbench
