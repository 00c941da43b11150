// Deterministic-schedule exploration sweep (DESIGN.md §16): seeds x
// policies x {stack, queue, deque, bag} under the sched/ cooperative
// scheduler, reporting how much interleaving space each policy covers
// and whether any schedule violated its oracle — linearizability for
// the strict width-1 queue, the Theorem-1 k bound for the 2D-stack,
// the per-end bound for the 2D-deque, conservation for the 2D-bag.
//
// Each (structure, policy) cell runs R2D_SCHED_SWEEP_SEEDS seeded
// schedules and accumulates scheduling steps, oracle violations
// ("bugs" — expected 0 on a clean library) and perturbed runs (budget
// blowouts / escape-hatch firings — also expected 0 at these sizes).
// Any bug prints the one-line reproducer so the schedule replays
// bit-identically in tests/test_sched.
//
// Requires -DR2D_SCHED=1 to explore anything; in the default build the
// bench still compiles, reports the scheduler as compiled out, and
// writes an empty (but well-formed) BENCH_sched.json so the points file
// never goes stale silently.
//
// Knobs: R2D_SCHED_SWEEP_SEEDS (seeds per cell, default 16),
// R2D_BENCH_JSON (emit BENCH_sched.json).
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/two_d_bag.hpp"
#include "core/two_d_deque.hpp"
#include "core/two_d_queue.hpp"
#include "core/two_d_stack.hpp"
#include "harness/quality.hpp"
#include "sched/dst.hpp"
#include "sched/history.hpp"
#include "util/table.hpp"

namespace {

using r2d::sched::History;
using r2d::sched::Op;
using r2d::sched::OpKind;
using r2d::sched::Semantics;

/// One scheduled run's verdict.
struct Outcome {
  std::uint64_t steps = 0;
  bool bug = false;
  bool perturbed = false;
};

/// One (structure, policy) sweep cell.
struct Cell {
  std::string structure;
  std::string policy;
  std::uint64_t schedules = 0;
  std::uint64_t steps = 0;
  std::uint64_t bugs = 0;
  std::uint64_t perturbed = 0;
};

/// Run `body(tid)` on `threads` threads under (spec, seed) and collect
/// the scheduler-side outcome; the caller layers the oracle verdict on.
template <typename Body>
Outcome run_schedule(const std::string& spec, std::uint64_t seed,
                     unsigned threads, Body&& body) {
  auto& sched = r2d::sched::Scheduler::get();
  sched.configure(spec, seed, 0);
  std::vector<std::function<void()>> bodies;
  for (unsigned t = 0; t < threads; ++t) {
    bodies.push_back([t, &body] { body(t); });
  }
  Outcome outcome;
  outcome.steps = sched.run(std::move(bodies));
  outcome.perturbed = sched.perturbed();
  return outcome;
}

Outcome explore_stack(const std::string& spec, std::uint64_t seed) {
  const r2d::core::TwoDParams params{4, 4, 2};
  r2d::TwoDStack<std::uint64_t> stack(params);
  History h(3);
  Outcome outcome = run_schedule(spec, seed, 3, [&](unsigned tid) {
    for (unsigned i = 0; i < 6; ++i) {
      const std::uint64_t v = tid * 1000 + i + 1;
      const auto inv = h.stamp();
      stack.push(v);
      h.push(tid, v, true, inv, h.stamp());
    }
    for (unsigned i = 0; i < 6; ++i) {
      const auto inv = h.stamp();
      const auto v = stack.pop();
      h.pop(tid, v, inv, h.stamp());
    }
  });
  const auto replayed = r2d::quality::replay(
      r2d::sched::to_quality_events(h.merged()), r2d::quality::Order::kLifo);
  outcome.bug = replayed.unknown_labels != 0 ||
                replayed.errors.max() > static_cast<double>(params.k_bound());
  return outcome;
}

Outcome explore_queue(const std::string& spec, std::uint64_t seed) {
  // Width 1 => strict FIFO (k_bound 0): every schedule must linearize.
  r2d::TwoDQueue<std::uint64_t> queue(r2d::core::TwoDParams{1, 4, 1});
  History h(3);
  Outcome outcome = run_schedule(spec, seed, 3, [&](unsigned tid) {
    for (unsigned i = 0; i < 2; ++i) {
      const std::uint64_t v = tid * 1000 + i + 1;
      const auto inv = h.stamp();
      queue.enqueue(v);
      h.push(tid, v, true, inv, h.stamp());
    }
    for (unsigned i = 0; i < 2; ++i) {
      const auto inv = h.stamp();
      const auto v = queue.dequeue();
      h.pop(tid, v, inv, h.stamp());
    }
  });
  outcome.bug = !r2d::sched::linearizable(h.merged(), Semantics::kFifo);
  return outcome;
}

Outcome explore_deque(const std::string& spec, std::uint64_t seed) {
  const r2d::core::TwoDParams params{4, 4, 2};
  r2d::TwoDDeque<std::uint64_t> deque(params);
  History h(4);
  Outcome outcome = run_schedule(spec, seed, 4, [&](unsigned tid) {
    const bool front = (tid % 2) == 0;
    for (unsigned i = 0; i < 5; ++i) {
      const std::uint64_t v = tid * 1000 + i + 1;
      const auto inv = h.stamp();
      if (front) {
        deque.push_front(v);
      } else {
        deque.push_back(v);
      }
      h.push(tid, v, true, inv, h.stamp(), front);
    }
    for (unsigned i = 0; i < 5; ++i) {
      const auto inv = h.stamp();
      const auto v = front ? deque.pop_front() : deque.pop_back();
      h.pop(tid, v, inv, h.stamp(), front);
    }
  });
  const auto replayed = r2d::quality::replay(
      r2d::sched::to_quality_events(h.merged()), r2d::quality::Order::kDeque);
  outcome.bug = replayed.unknown_labels != 0 ||
                replayed.errors.max() > static_cast<double>(params.k_bound());
  return outcome;
}

Outcome explore_bag(const std::string& spec, std::uint64_t seed) {
  r2d::TwoDBag<std::uint64_t> bag(r2d::core::TwoDParams{4, 4, 2});
  History h(3);
  Outcome outcome = run_schedule(spec, seed, 3, [&](unsigned tid) {
    for (unsigned i = 0; i < 8; ++i) {
      const std::uint64_t v = tid * 1000 + i + 1;
      const auto inv = h.stamp();
      bag.push(v);
      h.push(tid, v, true, inv, h.stamp());
    }
    for (unsigned i = 0; i < 4; ++i) {
      const auto inv = h.stamp();
      const auto v = bag.pop();
      h.pop(tid, v, inv, h.stamp());
    }
  });
  std::map<std::uint64_t, int> balance;
  for (const Op& op : h.merged()) {
    if (!op.ok) continue;
    balance[op.value] += op.kind == OpKind::kPush ? 1 : -1;
  }
  while (auto v = bag.pop()) balance[*v] -= 1;
  for (const auto& [value, count] : balance) {
    (void)value;
    if (count != 0) outcome.bug = true;
  }
  return outcome;
}

using Explorer = Outcome (*)(const std::string&, std::uint64_t);

void emit_sched_json(const std::vector<Cell>& cells) {
  const std::string path = r2d::util::env_str("R2D_BENCH_JSON", "");
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "could not write " << path << "\n";
    return;
  }
  out << "{\n";
  r2d::bench::write_provenance(out, "sched_explore");
  out << "  \"sched_compiled\": "
      << (r2d::sched::kCompiled ? "true" : "false") << ",\n"
      << "  \"points\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"structure\": \"" << c.structure
        << "\", \"policy\": \"" << c.policy
        << "\", \"schedules\": " << c.schedules << ", \"steps\": " << c.steps
        << ", \"bugs\": " << c.bugs << ", \"perturbed\": " << c.perturbed
        << "}";
  }
  out << "\n  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main() {
  std::vector<Cell> cells;
  if (!r2d::sched::kCompiled) {
    std::puts("sched_explore: scheduler compiled out (build with "
              "-DR2D_SCHED=1 to explore schedules)");
    emit_sched_json(cells);
    return 0;
  }

  const std::uint64_t seeds =
      r2d::util::env_u64("R2D_SCHED_SWEEP_SEEDS", 16);
  const std::vector<std::string> policies = {"random", "pct:1", "pct:3"};
  const std::vector<std::pair<std::string, Explorer>> suites = {
      {"2D-stack", &explore_stack},
      {"2D-queue", &explore_queue},
      {"2D-deque", &explore_deque},
      {"2D-bag", &explore_bag}};

  std::uint64_t total_schedules = 0;
  std::uint64_t total_bugs = 0;
  for (const auto& [structure, explore] : suites) {
    for (const std::string& policy : policies) {
      Cell cell;
      cell.structure = structure;
      cell.policy = policy;
      for (std::uint64_t s = 0; s < seeds; ++s) {
        const std::uint64_t seed = 0x51ed5eed + s * 0x9e37;
        const Outcome outcome = explore(policy, seed);
        ++cell.schedules;
        cell.steps += outcome.steps;
        if (outcome.bug) {
          ++cell.bugs;
          std::fprintf(stderr,
                       "sched_explore: %s oracle violated; reproduce with: "
                       "%s\n",
                       structure.c_str(),
                       r2d::sched::Scheduler::get().reproducer().c_str());
        }
        if (outcome.perturbed) ++cell.perturbed;
      }
      total_schedules += cell.schedules;
      total_bugs += cell.bugs;
      cells.push_back(std::move(cell));
    }
  }

  r2d::util::Table table(
      {"structure", "policy", "schedules", "steps", "bugs", "perturbed"});
  for (const Cell& c : cells) {
    table.add_row({c.structure, c.policy, std::to_string(c.schedules),
                   std::to_string(c.steps), std::to_string(c.bugs),
                   std::to_string(c.perturbed)});
  }
  table.print();
  std::printf("sched_explore: %llu schedules, %llu bugs\n",
              static_cast<unsigned long long>(total_schedules),
              static_cast<unsigned long long>(total_bugs));
  emit_sched_json(cells);
  return total_bugs == 0 ? 0 : 1;
}
