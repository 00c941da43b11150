#!/usr/bin/env python3
"""Build and run the repo benchmark (perfbench/README.md).

Run one workload, from the root of a checkout:

    python3 perfbench/run.py --workload stack-mixed --seed 1 --seconds 30 --trace 0

The first run configures and builds perfbench/ (Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset.
The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it is the full
record (provenance, workload parameters, every trial's raw values, the per-op
ledger), also written under the build directory's results/. The exit code is
0 when every output check passed, 1 when one failed, 2 when the benchmark
could not run.

Self-test (tiny runs of every workload, plus a lossy container that the
conservation check must catch):

    python3 perfbench/run.py --self-test
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("stack-mixed", "stack-pairs", "dispatch")
# The library sources the benchmark compiles against. Without them there is
# nothing to measure.
REQUIRED = ("CMakeLists.txt", "core/two_d_stack.hpp", "core/two_d_bag.hpp",
            "harness/service/server.hpp", "harness/quality.hpp",
            "obs/metrics.hpp", "reclaim/epoch.hpp")
SOURCE_DIRS = ("core", "fault", "harness", "obs", "reclaim", "sched",
               "stacks", "util", "perfbench")
RUN_TIMEOUT_S = 175


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed output check)."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        raise BenchError("library sources missing from the checkout: "
                         + ", ".join(missing))
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "r2d_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850, check=False)
        if done.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    binary = out / "r2d_perfbench"
    if not binary.is_file():
        raise BenchError(f"build produced no {binary}")
    return binary


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """sha256 over the sources the benchmark builds from, so results stay
    comparable where the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for d in SOURCE_DIRS:
        files += sorted(p for p in (ROOT / d).rglob("*")
                        if p.is_file() and p.suffix in (".hpp", ".cpp", ".txt", ".py"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def declared_metrics():
    """(end_to_end, per_layer) as {name: unit} from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def metric_mismatch(metrics, declared):
    """Why `metrics` differs from the declared names and units, or None."""
    problems = []
    for name, unit in declared.items():
        got = metrics.get(name)
        if not isinstance(got, dict) or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{name} not printed")
        elif got.get("unit") != unit:
            problems.append(f"{name} in {got.get('unit')!r}, declared {unit!r}")
    problems += [f"{name} not declared" for name in metrics if name not in declared]
    return "; ".join(problems) or None


def run_binary(binary, args, timeout):
    try:
        done = subprocess.run([str(binary)] + args, capture_output=True,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"r2d_perfbench did not finish in {timeout:.0f} s") from e
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"r2d_perfbench printed nothing (exit {done.returncode})")
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise BenchError(f"unparseable r2d_perfbench output: {lines[-1][:200]}") from e
    return record, lines[:-1], done.returncode


def measure(binary, workload, seed, seconds, trace, timeout):
    """One run of the benchmark program; returns (record, ok)."""
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    record, text, code = run_binary(binary, args, timeout)
    for line in text:
        print(line)
    correct = bool(record.get("correct")) and code == 0
    why = record.get("detail", {}).get("check_failure") or ""
    if (ROOT / "BENCHMARK.json").is_file():
        e2e, layers = declared_metrics()
        mismatch = metric_mismatch(record.get("metrics", {}),
                                   layers if trace else e2e)
        if mismatch:
            correct = False
            why = why or f"metrics differ from BENCHMARK.json: {mismatch}"
    record["correct"] = correct
    record.setdefault("detail", {})["check_failure"] = why
    return record, correct


def write_record(record):
    detail = record["detail"]
    out = build_dir() / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = (f"{detail.get('workload')}-seed{detail.get('seed')}"
            f"-trace{int(bool(detail.get('trace')))}-{time.time_ns()}.json")
    (out / name).write_text(json.dumps(record, indent=1) + "\n")


def main_run(args):
    binary = build()
    record, correct = measure(binary, args.workload, args.seed, args.seconds,
                              args.trace, RUN_TIMEOUT_S)
    record["detail"]["provenance"] = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "host_cores": record["detail"].get("host_cores"),
        "build_flags": record["detail"].get("build_flags"),
        "build_type": "Release",
        "epoch_fence": record["detail"].get("epoch_fence"),
    }
    write_record(record)
    if not correct:
        log(f"output check failed: {record['detail']['check_failure']}")
    print(json.dumps(record))
    print(json.dumps({"correct": correct,
                      "attempted": int(record["attempted"]),
                      "failed": int(record["failed"]),
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


def main_self_test():
    binary = build()
    failures = []
    record, _, code = run_binary(binary, ["--selftest-lossy", "--seed", "7"], 120)
    if code != 0 or not record.get("ok"):
        failures.append(f"lossy container not caught: {record}")
    else:
        log(f"lossy container caught: {record.get('lossy_why')}")
    e2e, layers = declared_metrics()
    for workload in WORKLOADS:
        for trace in (0, 1):
            record, correct = measure(binary, workload, 1, 2, trace, 120)
            mismatch = metric_mismatch(record["metrics"], layers if trace else e2e)
            status = "ok" if correct and not mismatch else "FAIL"
            log(f"{workload} trace={trace}: {status}")
            if status != "ok":
                failures.append(f"{workload} trace={trace}: "
                                f"{mismatch or record['detail']['check_failure']}")
            if record.get("attempted", 0) < 1:
                failures.append(f"{workload} trace={trace}: nothing attempted")
    for f in failures:
        log(f"self-test failure: {f}")
    log("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return main_self_test()
        if not args.workload:
            parser.error("--workload is required")
        if not 1 <= args.seconds <= 120:
            parser.error("--seconds must be in [1, 120]")
        return main_run(args)
    except BenchError as e:
        log(str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
