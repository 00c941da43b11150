// E3: per-operation microbenchmarks (google-benchmark) for every stack.
// Single-threaded push/pop cost isolates the constant factors (allocation,
// packed-head CAS, search) that the figure benches aggregate; the threaded
// variants show per-op degradation under contention.
//
// When R2D_BENCH_JSON is set, the per-structure items/s rates are also
// written as machine-readable JSON (see bench/common.hpp) — the perf
// trajectory scripts/ci.sh records as BENCH_micro.json.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gbench_common.hpp"
#include "core/two_d_stack.hpp"
#include "stacks/distributed_stack.hpp"
#include "stacks/elimination_stack.hpp"
#include "stacks/ksegment_stack.hpp"
#include "stacks/treiber_stack.hpp"

namespace {

using Label = std::uint64_t;

template <typename S>
std::unique_ptr<S> make_bench_stack(unsigned threads);

template <>
std::unique_ptr<r2d::stacks::TreiberStack<Label>> make_bench_stack(unsigned) {
  return std::make_unique<r2d::stacks::TreiberStack<Label>>();
}
template <>
std::unique_ptr<r2d::stacks::EliminationStack<Label>> make_bench_stack(
    unsigned threads) {
  r2d::stacks::EliminationParams p;
  p.collision_slots = std::max(1u, threads / 2);
  return std::make_unique<r2d::stacks::EliminationStack<Label>>(p);
}
template <>
std::unique_ptr<r2d::stacks::KSegmentStack<Label>> make_bench_stack(
    unsigned threads) {
  return std::make_unique<r2d::stacks::KSegmentStack<Label>>(
      std::max(8u, 4 * threads));
}
template <>
std::unique_ptr<r2d::stacks::RandomStack<Label>> make_bench_stack(
    unsigned threads) {
  return std::make_unique<r2d::stacks::RandomStack<Label>>(4 * threads);
}
template <>
std::unique_ptr<r2d::stacks::RandomC2Stack<Label>> make_bench_stack(
    unsigned threads) {
  return std::make_unique<r2d::stacks::RandomC2Stack<Label>>(4 * threads);
}
template <>
std::unique_ptr<r2d::stacks::KRobinStack<Label>> make_bench_stack(
    unsigned threads) {
  return std::make_unique<r2d::stacks::KRobinStack<Label>>(4 * threads);
}
template <>
std::unique_ptr<r2d::TwoDStack<Label>> make_bench_stack(unsigned threads) {
  r2d::core::TwoDParams p;
  p.width = 4 * std::max(1u, threads);
  p.depth = 8;
  p.shift = 4;
  return std::make_unique<r2d::TwoDStack<Label>>(p);
}

/// Alternating push/pop on one thread: the uncontended round-trip cost.
template <typename S>
void BM_PushPopSingle(benchmark::State& state) {
  auto stack = make_bench_stack<S>(1);
  for (int i = 0; i < 64; ++i) stack->push(i);
  Label next = 1000;
  for (auto _ : state) {
    stack->push(next++);
    benchmark::DoNotOptimize(stack->pop());
  }
  state.SetItemsProcessed(state.iterations() * 2);
}

/// Same mix under benchmark-managed thread contention. The stack is shared
/// across threads (set up once by thread 0).
template <typename S>
void BM_PushPopContended(benchmark::State& state) {
  static std::unique_ptr<S> shared;
  if (state.thread_index() == 0) {
    shared = make_bench_stack<S>(static_cast<unsigned>(state.threads()));
    for (int i = 0; i < 4096; ++i) shared->push(i);
  }
  Label next = (static_cast<Label>(state.thread_index()) + 1) << 40;
  for (auto _ : state) {
    shared->push(next++);
    benchmark::DoNotOptimize(shared->pop());
  }
  state.SetItemsProcessed(state.iterations() * 2);
  if (state.thread_index() == 0) {
    state.SetLabel("threads=" + std::to_string(state.threads()));
  }
}

}  // namespace

#define R2D_MICRO(Type)                                                \
  BENCHMARK_TEMPLATE(BM_PushPopSingle, Type)->Name("single/" #Type);   \
  BENCHMARK_TEMPLATE(BM_PushPopContended, Type)                        \
      ->Name("contended/" #Type)                                       \
      ->Threads(4)                                                     \
      ->Threads(8)                                                     \
      ->UseRealTime();

using Treiber = r2d::stacks::TreiberStack<Label>;
using Elim = r2d::stacks::EliminationStack<Label>;
using KSeg = r2d::stacks::KSegmentStack<Label>;
using Rand = r2d::stacks::RandomStack<Label>;
using RandC2 = r2d::stacks::RandomC2Stack<Label>;
using KRobin = r2d::stacks::KRobinStack<Label>;
using TwoD = r2d::TwoDStack<Label>;

R2D_MICRO(Treiber)
R2D_MICRO(Elim)
R2D_MICRO(KSeg)
R2D_MICRO(Rand)
R2D_MICRO(RandC2)
R2D_MICRO(KRobin)
R2D_MICRO(TwoD)

int main(int argc, char** argv) {
  return r2d::bench::benchmark_main_with_json("micro_ops", argc, argv);
}
