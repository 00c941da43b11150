// Shared helpers for the repo benchmark: its own seeded generator, order
// statistics, host telemetry and a small JSON writer.
#pragma once

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/latency.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::uint32_t ns_between(Clock::time_point a, Clock::time_point b) {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  return ns <= 0 ? 0u
                 : static_cast<std::uint32_t>(
                       std::min<std::int64_t>(ns, INT32_MAX));
}

/// splitmix64. The benchmark owns its generator, so no change to the
/// library's own randomness (core::hop_rand, the service Rng) can change
/// the inputs a seed produces.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// An independent stream seed for (run seed, a, b): trial and thread
/// indices map to unrelated streams.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                                 std::uint64_t b = 0) {
  Rng r(seed);
  Rng r2(r.next() ^ (a * 0xd1342543de82ef95ull));
  return Rng(r2.next() ^ (b * 0xaf251af3b0f025b5ull)).next();
}

/// Linearly interpolated q-quantile (Hyndman-Fan type 7); 0 when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double mean(const std::vector<std::uint32_t>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const std::uint32_t x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// q-quantile of integer nanosecond readings. Each reading v stands for
/// the interval [v - 0.5, v + 0.5), and the quantile is interpolated
/// inside the interval it falls in, so a quantile of clock readings keeps
/// its sub-nanosecond digits instead of snapping to an integer.
inline double binned_quantile(std::vector<std::uint32_t> v, double q) {
  if (v.empty()) return 0.0;
  const double target = q * static_cast<double>(v.size());
  const std::size_t k = std::min(v.size() - 1, static_cast<std::size_t>(target));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  const std::uint32_t x = v[k];
  std::size_t below = 0;
  std::size_t at = 0;
  for (const std::uint32_t s : v) {
    below += s < x ? 1 : 0;
    at += s == x ? 1 : 0;
  }
  const double frac =
      std::clamp((target - static_cast<double>(below)) / static_cast<double>(at),
                 0.0, 1.0);
  return static_cast<double>(x) - 0.5 + frac;
}

/// q-quantile of a harness::Histogram, interpolated inside the bucket it
/// falls in. Histogram::quantile() reports only the bucket floor, so two
/// runs with nearby latencies would read identical values. The mass below
/// and through the bucket is recovered from the public quantile() by
/// bisection on q; the bucket width follows the histogram's layout of 16
/// linear sub-buckets per power of two (harness/latency.hpp).
inline double interpolated_quantile(const r2d::harness::Histogram& h,
                                    double q) {
  if (h.count() == 0) return 0.0;
  const double floor = h.quantile(q);
  auto sup = [&](auto&& pred) {  // largest q' in [0, 1] with pred(q')
    double lo = 0.0;
    double hi = 1.0;
    if (pred(hi)) return hi;
    for (int i = 0; i < 60; ++i) {
      const double mid = 0.5 * (lo + hi);
      (pred(mid) ? lo : hi) = mid;
    }
    return lo;
  };
  const double mass_below = sup([&](double x) { return h.quantile(x) < floor; });
  const double mass_through =
      sup([&](double x) { return h.quantile(x) <= floor; });
  double width = 1.0;
  if (floor >= 16.0) {
    width = std::ldexp(1.0, static_cast<int>(std::floor(std::log2(floor))) - 4);
  }
  if (mass_through <= mass_below) return floor;
  return floor +
         width * std::clamp((q - mass_below) / (mass_through - mass_below),
                            0.0, 1.0);
}

/// Process-wide host counters, read before and after a measured region.
struct HostSample {
  long nvcsw = 0;   ///< voluntary context switches, all threads
  long nivcsw = 0;  ///< involuntary context switches, all threads
  std::uint64_t steal = 0;  ///< /proc/stat steal jiffies, all CPUs
  std::uint64_t total = 0;  ///< /proc/stat jiffies, all CPUs

  static HostSample now() {
    HostSample s;
    rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) == 0) {
      s.nvcsw = ru.ru_nvcsw;
      s.nivcsw = ru.ru_nivcsw;
    }
    std::ifstream stat("/proc/stat");
    std::string cpu;
    if (stat >> cpu && cpu == "cpu") {
      // user nice system idle iowait irq softirq steal [guest guest_nice]
      for (int field = 0; field < 8; ++field) {
        std::uint64_t v = 0;
        if (!(stat >> v)) break;
        s.total += v;
        if (field == 7) s.steal = v;
      }
    }
    return s;
  }
};

/// Sums host-counter deltas over several measured regions.
struct HostDelta {
  double nvcsw = 0;
  double nivcsw = 0;
  std::uint64_t steal = 0;
  std::uint64_t total = 0;

  void add(const HostSample& a, const HostSample& b) {
    nvcsw += static_cast<double>(b.nvcsw - a.nvcsw);
    nivcsw += static_cast<double>(b.nivcsw - a.nivcsw);
    steal += b.steal - a.steal;
    total += b.total - a.total;
  }
  void merge(const HostDelta& o) {
    nvcsw += o.nvcsw;
    nivcsw += o.nivcsw;
    steal += o.steal;
    total += o.total;
  }
  double steal_frac() const {
    return total == 0 ? 0.0
                      : static_cast<double>(steal) / static_cast<double>(total);
  }
};

/// The CPUs this process may run on, in order. Read on first use, which
/// main() makes before any thread is pinned.
inline const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) v.push_back(c);
      }
    }
    return v;
  }();
  return cpus;
}

/// Pin the calling thread to the slot-th allowed CPU, wrapping around.
///
/// Every thread the benchmark measures is pinned. On a small VM the
/// scheduler starts each new thread on its parent's CPU and takes up to a
/// second to spread them, so unpinned trials measured that delay more
/// than the code: four fresh spinning threads ran at a quarter speed each
/// for their first second.
inline void pin_thread(unsigned slot) {
  const std::vector<int>& cpus = allowed_cpus();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[slot % cpus.size()], &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/// Counts changes of the CPU a thread runs on, sampled at call sites.
struct CpuTracker {
  int last = -1;
  std::uint64_t migrations = 0;

  void sample() {
    const int cpu = sched_getcpu();
    if (last >= 0 && cpu != last) ++migrations;
    last = cpu;
  }
};

/// Shortest round-trip text of a double; JSON null when not finite.
inline std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

inline std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

/// A flat JSON object writer; nested values go in through raw().
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    return raw(key, number(v));
  }
  JsonObject& count(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& flag(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, quoted(v));
  }
  JsonObject& nums(const std::string& key, const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      out += (i == 0 ? "" : ", ") + number(v[i]);
    }
    return raw(key, out + "]");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + quoted(key) + ": " + json;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace perfbench
