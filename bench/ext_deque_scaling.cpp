// EXT: 2D-Deque scaling — the second instance of the paper's future-work
// claim, now the paired A/B for the column-backend policy (EXPERIMENTS.md
// E12/E13).
//
// Two sections:
//
//   * Thread sweep: for each selected column backend (R2D_DEQUE_COLS =
//     locked | dwcas | both, default both) the strict width-1 baseline
//     plus the 2D shape (w = 4P) on both allocation policies (Heap/Pool)
//     — the locked-vs-dwcas rows at equal shape are the backend A/B the
//     CI perf stage records into BENCH_deque.json, and the heap-vs-pool
//     rows tie the deque into the E10 allocation story.
//
//   * Front-ratio sweep: fixed thread count, R2D_FRONT_RATIO overridden
//     across {0.1, 0.5, 0.9}, measuring the per-end rank error on each
//     backend — the check that the (2*shift + depth)*(width-1) per-end
//     design target survives losing the column lock.
//
// On hosts without a 16-byte CAS the dwcas rows transparently run the
// locked fallback; the header line says so and the row labels carry the
// backend that actually ran.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/two_d_deque.hpp"
#include "harness/runner.hpp"
#include "util/crash_trace.hpp"

namespace {

using namespace r2d::bench;

template <typename T>
using Locked = r2d::core::LockedDequeColumn<T>;
template <typename T>
using Dwcas = r2d::core::DwcasDequeColumn<T>;

r2d::core::TwoDParams deque_params(std::size_t width) {
  r2d::core::TwoDParams p;
  p.width = width;
  p.depth = 16;
  p.shift = 8;
  return p;
}

struct Row {
  double mops = 0.0;
  double stddev = 0.0;
  double mean_err = 0.0;
  double max_err = 0.0;
};

template <typename Deque>
Row measure(const r2d::core::TwoDParams& params,
            const r2d::harness::Workload& w, unsigned repeats) {
  Row row;
  std::vector<double> mops;
  mops.reserve(repeats);
  for (unsigned rep = 0; rep < repeats; ++rep) {
    Deque deque(params);
    mops.push_back(r2d::harness::run_throughput_deque(deque, w).mops);
  }
  const auto summary = r2d::util::summarize(std::move(mops));
  row.mops = summary.mean;
  row.stddev = summary.stddev;
  {
    Deque deque(params);
    const auto q = r2d::harness::run_quality_deque(deque, w);
    row.mean_err = q.mean_error;
    row.max_err = q.max_error;
    if (q.unknown_labels != 0) {
      std::cerr << "WARNING: quality oracle saw " << q.unknown_labels
                << " unknown labels (deque bug?)\n";
    }
  }
  return row;
}

/// Backend x allocator dispatch by name (monomorphised per
/// configuration).
Row measure_config(const std::string& backend, const std::string& alloc,
                   const r2d::core::TwoDParams& params,
                   const r2d::harness::Workload& w, unsigned repeats) {
  using Epoch = r2d::reclaim::EpochReclaimer;
  if (backend == "dwcas") {
    if (alloc == "pool") {
      return measure<
          r2d::TwoDDeque<Label, Epoch, r2d::reclaim::PoolAlloc, Dwcas>>(
          params, w, repeats);
    }
    return measure<
        r2d::TwoDDeque<Label, Epoch, r2d::reclaim::HeapAlloc, Dwcas>>(
        params, w, repeats);
  }
  if (alloc == "pool") {
    return measure<
        r2d::TwoDDeque<Label, Epoch, r2d::reclaim::PoolAlloc, Locked>>(
        params, w, repeats);
  }
  return measure<
      r2d::TwoDDeque<Label, Epoch, r2d::reclaim::HeapAlloc, Locked>>(
      params, w, repeats);
}

std::vector<std::string> selected_backends() {
  const std::string sel = r2d::util::env_str("R2D_DEQUE_COLS", "both");
  if (sel == "locked") return {"locked"};
  if (sel == "dwcas") return {"dwcas"};
  return {"locked", "dwcas"};
}

/// Row label component naming the backend that actually runs: on hosts
/// without a 16-byte CAS the dwcas rows execute the locked fallback, and
/// the label must say so (the JSON trajectory is compared across hosts).
std::string backend_label(const std::string& requested) {
  const std::string actual = requested == "dwcas"
                                 ? Dwcas<Label>::kBackendName
                                 : Locked<Label>::kBackendName;
  return requested == actual ? requested : requested + "->" + actual;
}

}  // namespace

int main() {
  r2d::util::install_crash_tracer();
  const BenchEnv env = BenchEnv::load();
  const auto backends = selected_backends();
  std::vector<JsonPoint> json;

  std::cout << "=== EXT: 2D-Deque scaling — column backend A/B (hardware "
               "16-byte CAS: "
            << (r2d::core::kHasDwcas ? "yes" : "no, dwcas rows run the "
                                               "locked fallback")
            << ") ===\n";

  r2d::util::Table table({"threads", "config", "mops", "stddev", "mean_err",
                          "max_err"});
  for (unsigned threads : {1u, 2u, 4u, 8u, 16u}) {
    if (threads > env.max_threads) continue;
    const auto w = env.workload(threads);
    struct Config {
      std::string alloc;
      std::size_t width;
    };
    for (const std::string& backend : backends) {
      for (const Config cfg : {Config{"heap", 1},
                               Config{"heap", 4 * threads},
                               Config{"pool", 4 * threads}}) {
        const auto params = deque_params(cfg.width);
        const Row row =
            measure_config(backend, cfg.alloc, params, w, env.repeats);
        const std::string name =
            (cfg.width == 1 ? "deque (w=1)[" : "2D-deque (w=4P)[") +
            backend_label(backend) + "," + cfg.alloc + "]";
        table.add_row({std::to_string(threads), name,
                       r2d::util::Table::num(row.mops),
                       r2d::util::Table::num(row.stddev),
                       r2d::util::Table::num(row.mean_err),
                       r2d::util::Table::num(row.max_err, 0)});
        json.push_back(JsonPoint{name, threads, row.mops});
      }
    }
  }
  emit(table, env, "ext_deque_scaling");

  // Per-end error bound vs. front/back mix, per backend (heap alloc): the
  // flow windows should hold the error near the per-end design target
  // regardless of which end the load favors — with or without the lock.
  const unsigned fr_threads = std::min(4u, env.max_threads);
  if (fr_threads == 0) {
    // R2D_MAX_THREADS=0 contract: empty tables, no crash.
    emit_json("ext_deque_scaling", json);
    return 0;
  }
  const auto fr_params = deque_params(4 * fr_threads);
  std::cout << "=== front-ratio sweep (threads=" << fr_threads
            << ", w=4P, per-end design target k="
            << (2 * fr_params.shift + fr_params.depth) *
                   (fr_params.width - 1)
            << ") ===\n";
  r2d::util::Table fr_table(
      {"front_ratio", "config", "mops", "mean_err", "max_err"});
  for (const double ratio : {0.1, 0.5, 0.9}) {
    auto w = env.workload(fr_threads);
    w.front_ratio = ratio;
    for (const std::string& backend : backends) {
      const Row row = measure_config(backend, "heap", fr_params, w, 1);
      const std::string name = "fr[" + backend_label(backend) + "]";
      fr_table.add_row({r2d::util::Table::num(ratio, 1), name,
                        r2d::util::Table::num(row.mops),
                        r2d::util::Table::num(row.mean_err),
                        r2d::util::Table::num(row.max_err, 0)});
      json.push_back(JsonPoint{"fr=" + r2d::util::Table::num(ratio, 1) +
                                   "[" + backend_label(backend) + "]",
                               fr_threads, row.mops});
    }
  }
  emit(fr_table, env, "ext_deque_frontratio");
  emit_json("ext_deque_scaling", json);
  return 0;
}
