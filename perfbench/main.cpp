// r2d_perfbench: the repo benchmark's measuring program (perfbench/run.py
// builds and drives it; perfbench/README.md describes the workloads and
// metrics).
//
//   r2d_perfbench --workload stack-mixed|stack-pairs|dispatch --seed N
//                 --seconds S --trace 0|1
//   r2d_perfbench --selftest-lossy --seed N
//
// Prints one JSON line: {"correct", "attempted", "failed", "metrics",
// "detail"}. --trace 0 measures the end-to-end metrics with tracing off;
// --trace 1 measures the per-layer metrics. Exits 1 when an output check
// fails, 2 on a usage error.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "closed_loop.hpp"
#include "core/params.hpp"
#include "core/two_d_bag.hpp"
#include "core/two_d_stack.hpp"
#include "harness/service/server.hpp"
#include "obs/metrics.hpp"
#include "probes.hpp"
#include "reclaim/epoch.hpp"
#include "support.hpp"

namespace perfbench {
namespace {

namespace service = r2d::harness::service;
using Stack = r2d::TwoDStack<std::uint64_t>;
using Bag = r2d::TwoDBag<service::Task>;

/// Everything one run reports: the metrics, the check verdict and the
/// detail record (parameters, raw per-trial values, ledger).
struct Report {
  bool correct = true;
  std::string why;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  JsonObject metrics;
  JsonObject detail;
  JsonObject raw;  ///< per-trial values, one array per quantity
  JsonObject phases;  ///< wall seconds of each phase of the run
  Clock::time_point mark = Clock::now();

  /// Close the phase that began at the previous call.
  void phase(const std::string& name) {
    const auto now = Clock::now();
    phases.num(name, seconds_between(mark, now));
    mark = now;
  }

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.raw(name, JsonObject().num("value", value).str("unit", unit).text());
  }
  void fail(const std::string& reason) {
    if (correct) why = reason;
    correct = false;
  }
};

struct Budget {
  double trial_s;      ///< length of one measured trial
  unsigned trials;     ///< trials of the main kind
};

/// Trials of `trial_s` (shorter in short runs), as many as fit in `share`
/// of the run.
Budget budget_for(double seconds, double share, double trial_s = 1.0,
                  unsigned min_trials = 3) {
  trial_s = std::min(trial_s, seconds / 10.0);
  const auto n = static_cast<unsigned>(seconds * share / trial_s + 0.5);
  return {trial_s, std::max(min_trials, n)};
}

/// Every run first drives its workload, unmeasured, for this long, so that
/// lazy per-process state (allocator arenas, registry slots, fresh pages)
/// is in place before any trial is timed.
double warmup_s(double seconds) { return std::min(2.0, 0.1 * seconds); }

// ---- window / reclaim counters (obs deltas) ------------------------------

void window_metrics(Report& rep, const r2d::obs::Snapshot& s) {
  using C = r2d::obs::Counter;
  const double ops = static_cast<double>(std::max<std::uint64_t>(1, s.ops()));
  auto per_op = [&](C c) { return static_cast<double>(s[c]) / ops; };
  auto per_mop = [&](C c) { return static_cast<double>(s[c]) / (ops / 1e6); };
  rep.metric("window.fast_hit_frac", per_op(C::kFastHits), "frac");
  rep.metric("window.probes_per_op", per_op(C::kProbes), "1/op");
  rep.metric("window.sweeps_per_op", per_op(C::kSweeps), "1/op");
  rep.metric("window.cert_fail_rate", s.cert_fail_rate(), "frac");
  rep.metric("window.shift_wins_per_mop", per_mop(C::kShiftWins), "1/Mop");
  rep.metric("window.shift_race_rate", s.shift_race_rate(), "frac");
  rep.metric("window.sweep_stop_per_op", per_op(C::kSweepStop), "1/op");
  rep.metric("reclaim.pins_per_op", per_op(C::kEpochPins), "1/op");
  rep.metric("reclaim.advances_per_mop", per_mop(C::kEpochAdvances), "1/Mop");
  const std::uint64_t tries = s[C::kEpochAdvanceTries];
  rep.metric("reclaim.advance_success_frac",
             tries == 0 ? 0.0
                        : static_cast<double>(s[C::kEpochAdvances]) /
                              static_cast<double>(tries),
             "frac");
  std::ostringstream os;
  r2d::obs::append_json(os, s);
  rep.detail.raw("obs_delta", os.str());
}

void host_metrics(Report& rep, const HostDelta& h, std::uint64_t migrations) {
  rep.metric("host.nivcsw", h.nivcsw, "count");
  rep.metric("host.nvcsw", h.nvcsw, "count");
  rep.metric("host.steal_frac", h.steal_frac(), "frac");
  rep.metric("host.cpu_migrations", static_cast<double>(migrations), "count");
}

struct Probes {
  ReclaimProbe reclaim;
  AllocProbe alloc;
};

template <typename Container>
Probes layer_probes(Report& rep, unsigned threads, double seconds) {
  // Call counts scale with the run so the probes take a fixed share of it.
  const std::uint64_t calls =
      kBatch * static_cast<std::uint64_t>(std::max(4.0, 40.0 * seconds));
  const ReclaimProbe rp =
      probe_reclaim<typename Container::reclaimer_type,
                    typename Container::allocator_type>(threads, calls);
  const AllocProbe ap =
      probe_alloc<typename Container::allocator_type>(threads, calls);
  rep.metric("reclaim.pin_ns", rp.pin_ns, "ns");
  rep.metric("reclaim.retire_ns", rp.retire_ns, "ns");
  rep.metric("alloc.acquire_release_ns", ap.acquire_release_ns, "ns");
  rep.metric("alloc.cross_thread_release_ns", ap.cross_thread_release_ns, "ns");
  rep.detail.num("probe_calls_per_thread", static_cast<double>(calls));
  rep.phase("probes");
  return {rp, ap};
}

void accumulate(r2d::obs::Snapshot& into, const r2d::obs::Snapshot& delta) {
  for (unsigned c = 0; c < r2d::obs::kCounterCount; ++c) into.c[c] += delta.c[c];
}

/// The closed-loop harness against the null container: the harness's own
/// share of the per-op cost, in the same 1e3 * P / Mops units as the
/// end-to-end per-op cost.
double harness_ns_per_op(Report& rep, const StackConfig& cfg, Budget b,
                         std::uint64_t seed, std::vector<double>& raw_mops) {
  for (unsigned i = 0; i < b.trials; ++i) {
    const TrialResult r = run_trial<TrialKind::kPlain>(
        cfg, [] { return std::make_unique<NullStack>(); }, b.trial_s,
        derive_seed(seed, 3000 + i), /*check=*/false);
    raw_mops.push_back(r.mops());
  }
  rep.phase("harness");
  return 1e3 * cfg.threads / median(raw_mops);
}

void check_trial(Report& rep, const TrialResult& r) {
  if (r.checked && !r.conservation.ok) {
    rep.fail("conservation: " + r.conservation.why);
  }
}

template <typename Make>
void warm_up_stack(Report& rep, const StackConfig& cfg, Make&& make,
                   std::uint64_t seed, double seconds) {
  const TrialResult r = run_trial<TrialKind::kPlain>(
      cfg, make, warmup_s(seconds), derive_seed(seed, 9999), true);
  check_trial(rep, r);
  rep.detail.num("warmup_s", warmup_s(seconds))
      .num("warmup_throughput_mops", r.mops());
  rep.phase("warmup");
}

// ---- stack workloads -----------------------------------------------------

r2d::core::TwoDParams fig2_shape() {
  // The fig2 shape of the 2D-stack at P = 4: width 4P, depth 16, shift 8
  // (core::TwoDParams::for_k(480, 4); k_bound 480).
  r2d::core::TwoDParams p;
  p.width = 16;
  p.depth = 16;
  p.shift = 8;
  p.validate();
  return p;
}

StackConfig stack_config(Shape shape) {
  StackConfig cfg;
  cfg.threads = static_cast<unsigned>(
      std::clamp<std::size_t>(allowed_cpus().size(), 1, 4));
  cfg.prefill = 32768;
  cfg.shape = shape;
  return cfg;
}

void stack_detail(Report& rep, const StackConfig& cfg,
                  const r2d::core::TwoDParams& p) {
  rep.detail.raw("params",
                 JsonObject()
                     .str("container", "TwoDStack<uint64_t>")
                     .str("shape", cfg.shape == Shape::kMixed ? "mixed" : "pairs")
                     .count("threads", cfg.threads)
                     .count("prefill", cfg.prefill)
                     .count("width", p.width)
                     .count("depth", p.depth)
                     .count("shift", p.shift)
                     .count("k_bound", p.k_bound())
                     .num("push_ratio", 0.5)
                     .text());
}

void run_stack_plain(Report& rep, const StackConfig& cfg, std::uint64_t seed,
                     double seconds) {
  const r2d::core::TwoDParams p = fig2_shape();
  auto make = [&] { return std::make_unique<Stack>(p); };
  // Each round is a throughput trial and kPassesPerRound quality passes.
  // A pass ends when a thread fills its event log, in about a tenth of a
  // trial; the spread of one pass's mean error is wide, so a run takes
  // several per trial.
  constexpr unsigned kPassesPerRound = 3;
  const Budget tp = budget_for(seconds, 0.6);
  std::vector<double> mops, setup, p50, p99, rank_mean, rank_max, steal, nivcsw;
  std::uint64_t unknown = 0;
  warm_up_stack(rep, cfg, make, seed, seconds);
  for (unsigned i = 0; i < tp.trials; ++i) {
    {
      TrialResult r = run_trial<TrialKind::kPlain>(
          cfg, make, tp.trial_s, derive_seed(seed, i), true);
      check_trial(rep, r);
      mops.push_back(r.mops());
      setup.push_back(r.setup_s);
      p50.push_back(binned_quantile(r.latency, 0.50) / 1e3);
      p99.push_back(binned_quantile(std::move(r.latency), 0.99) / 1e3);
      steal.push_back(r.host.steal_frac());
      nivcsw.push_back(r.host.nivcsw);
      rep.attempted += r.ops;
      rep.failed += r.empty_pops;
    }
    for (unsigned k = 0; k < kPassesPerRound; ++k) {
      const TrialResult r = run_trial<TrialKind::kQuality>(
          cfg, make, tp.trial_s,
          derive_seed(seed, 1000 + kPassesPerRound * i + k), true);
      check_trial(rep, r);
      rank_mean.push_back(r.quality.errors.mean());
      rank_max.push_back(r.quality.errors.max());
      unknown += r.quality.unknown_labels;
      rep.attempted += r.ops;
      rep.failed += r.empty_pops;
    }
  }
  rep.phase("trials");
  if (unknown != 0) rep.fail("quality replay saw unknown labels");

  rep.metric("throughput_mops", median(mops), "Mops");
  rep.metric("rank_error_mean", median(rank_mean), "ranks");
  rep.metric("p50_us", median(p50), "us");
  rep.metric("p99_us", median(p99), "us");
  rep.metric("setup_s", median(setup), "s");

  stack_detail(rep, cfg, p);
  rep.detail.num("rank_error_max", *std::max_element(rank_max.begin(),
                                                     rank_max.end()))
      .count("k_bound", p.k_bound())
      .count("unknown_labels", unknown)
      .num("failed_frac", rep.attempted == 0
                              ? 0.0
                              : static_cast<double>(rep.failed) /
                                    static_cast<double>(rep.attempted))
      .num("trial_s", tp.trial_s);
  rep.raw.nums("throughput_mops", mops)
      .nums("setup_s", setup)
      .nums("p50_us", p50)
      .nums("p99_us", p99)
      .nums("rank_error_mean", rank_mean)
      .nums("rank_error_max", rank_max)
      .nums("host_steal_frac", steal)
      .nums("host_nivcsw", nivcsw);
}

/// The per-op cost ledger of the traced trials, in ns per op per thread:
/// the harness, the container op (split into reclaimer, allocator and
/// core self time by the probes) and the spans' own clock reads, against
/// the traced per-op cost 1e3 * P / Mops. What they leave is the residual.
struct LedgerInputs {
  double traced_mops;   ///< median over traced trials
  double plain_mops;    ///< median over untraced trials
  double harness_ns;    ///< null-container harness loop, ns per op
  double span_ns;       ///< mean push/pop span minus one clock read
  double clock_ns;      ///< one clock read
  double spans_per_op;  ///< fraction of ops that carry a span
  double pins_per_op;
  double pops_per_op;   ///< pops that returned a value
  double pushes_per_op;
};

void ledger(Report& rep, const StackConfig& cfg, const LedgerInputs& in,
            const Probes& probes) {
  const double e2e_ns = 1e3 * cfg.threads / in.traced_mops;
  // A successful pop pins and retires; any other pin only pins.
  const double reclaim_ns =
      in.pops_per_op * probes.reclaim.retire_ns +
      std::max(0.0, in.pins_per_op - in.pops_per_op) * probes.reclaim.pin_ns;
  // Each pushed node is acquired once and, later, released once.
  const double alloc_ns = in.pushes_per_op * probes.alloc.acquire_release_ns;
  const double core_self_ns = in.span_ns - reclaim_ns - alloc_ns;
  // A span costs two clock reads; one of them falls inside span_ns's
  // measured interval and was taken out of it.
  const double trace_ns = 2.0 * in.clock_ns * in.spans_per_op;
  const double residual_ns = e2e_ns - in.harness_ns - in.span_ns - trace_ns;
  JsonObject rows;
  std::cout << "ledger of the traced trials (ns per op per thread)\n";
  auto row = [&](const char* layer, double ns) {
    std::cout << "  " << layer << std::string(14 - std::string(layer).size(), ' ')
              << number(ns) << "  (" << number(100.0 * ns / e2e_ns) << "%)\n";
    rows.num(layer, ns);
  };
  row("harness", in.harness_ns);
  row("core_self", core_self_ns);
  row("reclaim", reclaim_ns);
  row("alloc", alloc_ns);
  row("trace", trace_ns);
  row("residual", residual_ns);
  row("end_to_end", e2e_ns);
  std::cout << "  untraced end-to-end " << number(1e3 * cfg.threads / in.plain_mops)
            << " ns\n";
  rows.num("untraced_end_to_end", 1e3 * cfg.threads / in.plain_mops)
      .num("residual_frac", residual_ns / e2e_ns);
  rep.detail.raw("ledger_ns_per_op", rows.text());
}

// ---- dispatch ------------------------------------------------------------

constexpr unsigned kDispatchWorkers = 2;

r2d::core::TwoDParams dispatch_shape() {
  r2d::core::TwoDParams p;
  p.width = 4 * kDispatchWorkers;
  p.depth = 16;
  p.shift = 8;
  p.validate();
  return p;
}

service::ServiceConfig dispatch_config(std::uint64_t seed, double trial_s) {
  service::ServiceConfig c;
  c.arrival.kind = service::ArrivalKind::kPoisson;
  c.arrival.rate = 100000.0;
  c.arrival.seed = seed;
  c.workers = kDispatchWorkers;
  c.duration_ms = static_cast<std::uint64_t>(trial_s * 1000.0 + 0.5);
  c.shed_cap = 1024;
  c.slo_us = 1000;
  c.service_ns = 500;
  return c;
}

/// The dispatch run queue: the bag behind a thin wrapper that pins each of
/// run_service's threads (generator and workers) to its own CPU on its
/// first call, leaving the first allowed CPU to the calling thread and the
/// host. With kTraced, one push/pop call in kSpanEvery is also timed into a
/// per-thread buffer, and each thread samples its CPU every 256 pops.
/// run_service owns the threads, so buffers are owned here and found
/// through a thread_local cache keyed by a process-unique id (an address
/// can be reused by the next instance).
template <bool kTraced>
class ServiceBag {
 public:
  struct Buf {
    std::uint64_t calls = 0;
    std::vector<std::uint32_t> push_spans;
    std::vector<std::uint32_t> pop_spans;
    CpuTracker cpu;
  };

  explicit ServiceBag(const r2d::core::TwoDParams& p) : bag_(p) {}

  void push(service::Task task) {
    Buf& b = buf();
    if (!kTraced || b.calls++ % kSpanEvery != 0) {
      bag_.push(task);
      return;
    }
    const auto a = Clock::now();
    bag_.push(task);
    detail::keep(b.push_spans, a, Clock::now());
  }

  std::optional<service::Task> pop() {
    Buf& b = buf();
    if (!kTraced) return bag_.pop();
    if ((b.calls & 255) == 0) b.cpu.sample();
    if (b.calls++ % kSpanEvery != 0) return bag_.pop();
    const auto a = Clock::now();
    std::optional<service::Task> t = bag_.pop();
    detail::keep(b.pop_spans, a, Clock::now());
    return t;
  }

  template <typename F>
  void for_each_buffer(F&& f) const {
    for (const auto& b : bufs_) f(*b);
  }

 private:
  Buf& buf() {
    thread_local std::uint64_t owner = 0;
    thread_local Buf* mine = nullptr;
    if (owner != id_) [[unlikely]] {
      std::lock_guard<std::mutex> lock(mu_);
      if (std::this_thread::get_id() != creator_) pin_thread(1 + pinned_++);
      bufs_.push_back(std::make_unique<Buf>());
      mine = bufs_.back().get();
      owner = id_;
    }
    return *mine;
  }

  static std::uint64_t next_id() {
    static std::atomic<std::uint64_t> ids{0};
    return ids.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  const std::uint64_t id_ = next_id();
  const std::thread::id creator_ = std::this_thread::get_id();
  Bag bag_;
  std::mutex mu_;  // guards bufs_ and pinned_
  std::vector<std::unique_ptr<Buf>> bufs_;
  unsigned pinned_ = 0;
};

struct DispatchTrial {
  double setup_s = 0.0;
  service::ServiceResult result;
  r2d::obs::Snapshot obs;
  HostDelta host;
};

/// One service run. Setup is the container's construction plus its first
/// push and pop on the calling thread (first-touch state); the workers
/// and generator are started inside run_service.
template <typename Q>
DispatchTrial run_dispatch_trial(std::unique_ptr<Q>& q, std::uint64_t seed,
                                 double trial_s) {
  DispatchTrial d;
  const auto t0 = Clock::now();
  q = std::make_unique<Q>(dispatch_shape());
  q->push(service::Task{});
  const std::optional<service::Task> first = q->pop();
  d.setup_s = seconds_between(t0, Clock::now());
  if (!first) d.setup_s = -1.0;  // the first task was lost: fails the check
  const r2d::obs::Snapshot before = r2d::obs::metrics().snapshot();
  const HostSample host_before = HostSample::now();
  d.result = service::run_service(*q, dispatch_config(seed, trial_s));
  d.host.add(host_before, HostSample::now());
  d.obs = r2d::obs::metrics().snapshot() - before;
  return d;
}

void check_dispatch(Report& rep, const DispatchTrial& d) {
  const service::ServiceResult& r = d.result;
  if (!r.conserved()) rep.fail("dispatch: ServiceResult::conserved() is false");
  if (d.setup_s < 0) rep.fail("dispatch: the first-touch task was lost");
  if (r.generated == 0) rep.fail("dispatch: no arrivals were generated");
  rep.attempted += r.generated;
  rep.failed += r.shed + r.timed_out;
}

void dispatch_detail(Report& rep) {
  const service::ServiceConfig c = dispatch_config(0, 0);
  const r2d::core::TwoDParams p = dispatch_shape();
  rep.detail.raw("params",
                 JsonObject()
                     .str("container", "TwoDBag<Task>")
                     .str("arrival", "poisson")
                     .num("offered_per_s", c.arrival.rate)
                     .count("workers", c.workers)
                     .count("generators", 1)
                     .count("service_ns", c.service_ns)
                     .count("slo_us", c.slo_us)
                     .count("shed_cap", c.shed_cap)
                     .count("width", p.width)
                     .count("depth", p.depth)
                     .count("shift", p.shift)
                     .text());
}

/// Dispatch trials are short: a host stall of a few ms spoils the p99 of
/// the trial it lands in, and short trials keep the damage to few trials.
constexpr double kDispatchTrialS = 0.25;

/// Untraced dispatch trials and their summaries: the dispatch workload's
/// end-to-end metrics, and the harness/service layer's per-layer metrics.
/// The stack workloads' traced runs take a few of these too, so the
/// service layer is measured in every traced run.
struct ServiceLayer {
  std::vector<double> p50_us, p99_us, done, slo, disp, setup, steal, nivcsw;
  r2d::obs::Snapshot obs;
  HostDelta host;

  void run(Report& rep, std::uint64_t seed, double trial_s) {
    std::unique_ptr<ServiceBag<false>> bag;
    const DispatchTrial d = run_dispatch_trial(bag, seed, trial_s);
    check_dispatch(rep, d);
    accumulate(obs, d.obs);
    host.merge(d.host);
    p50_us.push_back(interpolated_quantile(d.result.response, 0.50) / 1e3);
    p99_us.push_back(interpolated_quantile(d.result.response, 0.99) / 1e3);
    done.push_back(d.result.completed_rate());
    slo.push_back(d.result.slo_violation_rate());
    disp.push_back(d.result.mean_displacement());
    setup.push_back(d.setup_s);
    steal.push_back(d.host.steal_frac());
    nivcsw.push_back(d.host.nivcsw);
  }

  void report_end_to_end(Report& rep) const {
    rep.metric("throughput_mops", median(done) / 1e6, "Mops");
    rep.metric("rank_error_mean", median(disp), "ranks");
    rep.metric("p50_us", median(p50_us), "us");
    rep.metric("p99_us", median(p99_us), "us");
    rep.metric("setup_s", median(setup), "s");
  }

  void report_layer(Report& rep) const {
    rep.metric("service.completed_per_s", median(done), "1/s");
    rep.metric("service.slo_violation_frac", median(slo), "frac");
    rep.metric("service.displacement_mean", median(disp), "ranks");
    rep.metric("service.p50_us", median(p50_us), "us");
    rep.metric("service.p99_us", median(p99_us), "us");
    rep.metric("service.sweep_stop_per_op",
               static_cast<double>(obs[r2d::obs::Counter::kSweepStop]) /
                   static_cast<double>(std::max<std::uint64_t>(1, obs.ops())),
               "1/op");
  }

  void report_raw(Report& rep) const {
    rep.raw.nums("service_completed_per_s", done)
        .nums("service_p50_us", p50_us)
        .nums("service_p99_us", p99_us)
        .nums("service_displacement_mean", disp)
        .nums("service_setup_s", setup)
        .nums("service_host_steal_frac", steal)
        .nums("service_host_nivcsw", nivcsw);
  }
};

void warm_up_dispatch(Report& rep, std::uint64_t seed, double seconds) {
  std::unique_ptr<ServiceBag<false>> bag;
  const DispatchTrial d =
      run_dispatch_trial(bag, derive_seed(seed, 9999), warmup_s(seconds));
  if (!d.result.conserved()) {
    rep.fail("dispatch: ServiceResult::conserved() is false");
  }
  rep.detail.num("warmup_s", warmup_s(seconds))
      .num("warmup_p99_us", interpolated_quantile(d.result.response, 0.99) / 1e3);
  rep.phase("warmup");
}

void run_dispatch_plain(Report& rep, std::uint64_t seed, double seconds) {
  const Budget b = budget_for(seconds, 0.8, kDispatchTrialS);
  warm_up_dispatch(rep, seed, seconds);
  ServiceLayer service;
  for (unsigned i = 0; i < b.trials; ++i) {
    service.run(rep, derive_seed(seed, i), b.trial_s);
  }
  rep.phase("trials");
  service.report_end_to_end(rep);
  service.report_raw(rep);
  dispatch_detail(rep);
  rep.detail.num("failed_frac", rep.attempted == 0
                                    ? 0.0
                                    : static_cast<double>(rep.failed) /
                                          static_cast<double>(rep.attempted))
      .num("trial_s", b.trial_s);
}

void run_stack_traced(Report& rep, const StackConfig& cfg, std::uint64_t seed,
                      double seconds) {
  const r2d::core::TwoDParams p = fig2_shape();
  auto make = [&] { return std::make_unique<Stack>(p); };
  const Budget b = budget_for(seconds, 0.27);
  std::vector<double> plain_mops, traced_mops;
  warm_up_stack(rep, cfg, make, seed, seconds);
  std::vector<std::uint32_t> push_spans, pop_spans;
  r2d::obs::Snapshot obs;
  HostDelta host;
  std::uint64_t migrations = 0, ops = 0, pops = 0, pushes = 0;
  for (unsigned i = 0; i < b.trials; ++i) {
    const TrialResult u = run_trial<TrialKind::kPlain>(
        cfg, make, b.trial_s, derive_seed(seed, i), true);
    check_trial(rep, u);
    plain_mops.push_back(u.mops());
    accumulate(obs, u.obs);
    host.merge(u.host);
    rep.attempted += u.ops;
    rep.failed += u.empty_pops;

    TrialResult t = run_trial<TrialKind::kTraced>(
        cfg, make, b.trial_s, derive_seed(seed, 2000 + i), true);
    check_trial(rep, t);
    traced_mops.push_back(t.mops());
    migrations += t.migrations;
    ops += t.ops;
    pops += t.pops;
    pushes += t.pushes;
    push_spans.insert(push_spans.end(), t.push_spans.begin(), t.push_spans.end());
    pop_spans.insert(pop_spans.end(), t.pop_spans.begin(), t.pop_spans.end());
    rep.attempted += t.ops;
    rep.failed += t.empty_pops;
  }
  rep.phase("trials");
  std::vector<double> null_mops;
  const double harness_ns = harness_ns_per_op(
      rep, cfg, budget_for(seconds, 0.1), seed, null_mops);

  rep.metric("harness.ns_per_op", harness_ns, "ns");
  rep.metric("core.push_ns_p50", binned_quantile(push_spans, 0.50), "ns");
  rep.metric("core.push_ns_p99", binned_quantile(push_spans, 0.99), "ns");
  rep.metric("core.pop_ns_p50", binned_quantile(pop_spans, 0.50), "ns");
  rep.metric("core.pop_ns_p99", binned_quantile(pop_spans, 0.99), "ns");
  window_metrics(rep, obs);
  const Probes probes = layer_probes<Stack>(rep, cfg.threads, seconds);
  ServiceLayer service;
  const Budget sb = budget_for(seconds, 0.1, kDispatchTrialS);
  for (unsigned i = 0; i < sb.trials; ++i) {
    service.run(rep, derive_seed(seed, 4000 + i), sb.trial_s);
  }
  service.report_layer(rep);
  service.report_raw(rep);
  rep.phase("service");
  host_metrics(rep, host, migrations);
  const double mops = median(plain_mops);
  rep.metric("trace.overhead_frac", 1.0 - median(traced_mops) / mops, "frac");

  // The span covers one clock read besides the call; take it out.
  const double clock_ns = clock_pair_ns();
  const double n_push = static_cast<double>(push_spans.size());
  const double n_pop = static_cast<double>(pop_spans.size());
  const double span_mean = (mean(push_spans) * n_push + mean(pop_spans) * n_pop) /
                           std::max(1.0, n_push + n_pop);
  const double d_ops = static_cast<double>(std::max<std::uint64_t>(1, ops));
  LedgerInputs in{};
  in.traced_mops = median(traced_mops);
  in.plain_mops = mops;
  in.harness_ns = harness_ns;
  in.span_ns = span_mean - clock_ns;
  in.clock_ns = clock_ns;
  in.spans_per_op = 1.0 / kSpanEvery;
  in.pins_per_op =
      static_cast<double>(obs[r2d::obs::Counter::kEpochPins]) /
      static_cast<double>(std::max<std::uint64_t>(1, obs.ops()));
  in.pops_per_op = static_cast<double>(pops) / d_ops;
  in.pushes_per_op = static_cast<double>(pushes) / d_ops;
  ledger(rep, cfg, in, probes);

  stack_detail(rep, cfg, p);
  rep.detail.num("clock_pair_ns", clock_ns).num("trial_s", b.trial_s);
  rep.raw.nums("throughput_mops", plain_mops)
      .nums("traced_throughput_mops", traced_mops)
      .nums("null_throughput_mops", null_mops);
}

void run_dispatch_traced(Report& rep, std::uint64_t seed, double seconds) {
  const Budget b = budget_for(seconds, 0.35, kDispatchTrialS);
  std::vector<double> traced_p50;
  warm_up_dispatch(rep, seed, seconds);
  ServiceLayer service;
  std::vector<std::uint32_t> push_spans, pop_spans;
  std::uint64_t migrations = 0;
  for (unsigned i = 0; i < b.trials; ++i) {
    service.run(rep, derive_seed(seed, i), b.trial_s);
    std::unique_ptr<ServiceBag<true>> traced;
    const DispatchTrial t =
        run_dispatch_trial(traced, derive_seed(seed, 2000 + i), b.trial_s);
    check_dispatch(rep, t);
    traced_p50.push_back(interpolated_quantile(t.result.response, 0.5) / 1e3);
    traced->for_each_buffer([&](const ServiceBag<true>::Buf& buf) {
      push_spans.insert(push_spans.end(), buf.push_spans.begin(),
                        buf.push_spans.end());
      pop_spans.insert(pop_spans.end(), buf.pop_spans.begin(),
                       buf.pop_spans.end());
      migrations += buf.cpu.migrations;
    });
  }
  rep.phase("trials");
  // Generator plus workers: the threads that touch the container.
  StackConfig loop = stack_config(Shape::kMixed);
  loop.threads = kDispatchWorkers + 1;
  std::vector<double> null_mops;
  rep.metric("harness.ns_per_op",
             harness_ns_per_op(rep, loop, budget_for(seconds, 0.1), seed, null_mops),
             "ns");
  rep.metric("core.push_ns_p50", binned_quantile(push_spans, 0.50), "ns");
  rep.metric("core.push_ns_p99", binned_quantile(push_spans, 0.99), "ns");
  rep.metric("core.pop_ns_p50", binned_quantile(pop_spans, 0.50), "ns");
  rep.metric("core.pop_ns_p99", binned_quantile(pop_spans, 0.99), "ns");
  window_metrics(rep, service.obs);
  layer_probes<Bag>(rep, kDispatchWorkers + 1, seconds);
  service.report_layer(rep);
  service.report_raw(rep);
  host_metrics(rep, service.host, migrations);
  // Dispatch throughput is the offered load, so tracing shows in latency.
  rep.metric("trace.overhead_frac",
             median(traced_p50) / median(service.p50_us) - 1.0, "frac");
  dispatch_detail(rep);
  rep.detail.num("trial_s", b.trial_s);
  rep.raw.nums("traced_p50_us", traced_p50)
      .nums("null_throughput_mops", null_mops);
}

// ---- self-test -----------------------------------------------------------

/// A container that silently drops one push in 1024: the conservation
/// check must catch it.
class LossyStack {
 public:
  explicit LossyStack(const r2d::core::TwoDParams& p) : inner_(p) {}
  void push(std::uint64_t v) {
    if (pushes_.fetch_add(1, std::memory_order_relaxed) % 1024 == 1023) return;
    inner_.push(v);
  }
  std::optional<std::uint64_t> pop() { return inner_.pop(); }

 private:
  Stack inner_;
  std::atomic<std::uint64_t> pushes_{0};
};

int selftest_lossy(std::uint64_t seed) {
  StackConfig cfg = stack_config(Shape::kMixed);
  const r2d::core::TwoDParams p = fig2_shape();
  const TrialResult honest = run_trial<TrialKind::kPlain>(
      cfg, [&] { return std::make_unique<Stack>(p); }, 0.2, seed, true);
  const TrialResult lossy = run_trial<TrialKind::kPlain>(
      cfg, [&] { return std::make_unique<LossyStack>(p); }, 0.2, seed, true);
  const bool ok = honest.conservation.ok && !lossy.conservation.ok;
  std::cout << JsonObject()
                   .flag("honest_conserved", honest.conservation.ok)
                   .flag("lossy_conserved", lossy.conservation.ok)
                   .str("lossy_why", lossy.conservation.why)
                   .flag("ok", ok)
                   .text()
            << std::endl;
  return ok ? 0 : 1;
}

std::string build_flags() {
  std::string f = "compiler=" __VERSION__;
#ifdef __OPTIMIZE__
  f += " optimized";
#endif
#ifdef NDEBUG
  f += " NDEBUG";
#endif
  f += " R2D_OBS=" + std::to_string(R2D_OBS);
#ifdef R2D_FAULT
  f += " R2D_FAULT=" + std::to_string(R2D_FAULT);
#else
  f += " R2D_FAULT=0";
#endif
#ifdef R2D_SCHED
  f += " R2D_SCHED=" + std::to_string(R2D_SCHED);
#else
  f += " R2D_SCHED=0";
#endif
  return f;
}

int usage(const char* why) {
  std::cerr << "r2d_perfbench: " << why
            << "\nusage: r2d_perfbench --workload stack-mixed|stack-pairs|"
               "dispatch --seed N --seconds S --trace 0|1\n"
               "       r2d_perfbench --selftest-lossy --seed N\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest-lossy") {
      args[a] = "1";
    } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
      args[a] = argv[++i];
    } else {
      return usage(("unexpected argument " + a).c_str());
    }
  }
  char* end = nullptr;
  const std::uint64_t seed =
      std::strtoull(args.count("--seed") ? args["--seed"].c_str() : "1", &end, 10);
  allowed_cpus();  // read the process's CPU set before any thread is pinned
  if (args.count("--selftest-lossy")) return selftest_lossy(seed);

  const std::string workload = args["--workload"];
  const double seconds =
      args.count("--seconds") ? std::strtod(args["--seconds"].c_str(), nullptr) : 0;
  const std::string trace = args.count("--trace") ? args["--trace"] : "0";
  if (!(seconds > 0 && seconds <= 600)) return usage("--seconds must be in (0, 600]");
  if (trace != "0" && trace != "1") return usage("--trace must be 0 or 1");

  Report rep;
  const bool traced = trace == "1";
  if (workload == "stack-mixed" || workload == "stack-pairs") {
    const StackConfig cfg = stack_config(
        workload == "stack-mixed" ? Shape::kMixed : Shape::kPairs);
    if (traced) {
      run_stack_traced(rep, cfg, seed, seconds);
    } else {
      run_stack_plain(rep, cfg, seed, seconds);
    }
  } else if (workload == "dispatch") {
    if (traced) {
      run_dispatch_traced(rep, seed, seconds);
    } else {
      run_dispatch_plain(rep, seed, seconds);
    }
  } else {
    return usage(("unknown workload '" + workload + "'").c_str());
  }
  if (rep.attempted == 0) rep.fail("no operation was attempted");

  const bool membarrier = r2d::reclaim::EpochReclaimer().uses_membarrier();
  rep.detail.str("workload", workload)
      .count("seed", seed)
      .num("seconds", seconds)
      .flag("trace", traced)
      .count("host_cores", std::thread::hardware_concurrency())
      .count("allowed_cpus", allowed_cpus().size())
      .str("build_flags", build_flags())
      .str("epoch_fence", membarrier ? "membarrier" : "seq_cst")
      .str("check_failure", rep.why)
      .raw("phase_s", rep.phases.text())
      .raw("raw", rep.raw.text());
  std::cout << JsonObject()
                   .flag("correct", rep.correct)
                   .count("attempted", rep.attempted)
                   .count("failed", rep.failed)
                   .raw("metrics", rep.metrics.text())
                   .raw("detail", rep.detail.text())
                   .text()
            << std::endl;
  return rep.correct ? 0 : 1;
}
