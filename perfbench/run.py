#!/usr/bin/env python3
"""The repo benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload <name> --seed <n> [--seconds 30] [--trace 0|1]

Run from the repository root. Builds the engine and the benchmark program
from source (CMake, Release) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the self-tests after a build, then runs the
workload. With --trace 0 it reports the end-to-end metrics; set-up is
repeated SETUP_REPEATS times in separate processes and setup_s is their
median. With --trace 1 it reports the per-layer metrics of a traced run and
writes the spans to .bench_work/<workload>/spans.csv.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Exit code 0 means the run completed and its correctness
gate passed. See perfbench/README.md for workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("social_cold", "wire_social")
SETUP_REPEATS = 3
# Everything after the build must finish within this many seconds.
RUN_BUDGET_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    """Configures (once) and builds; compiler output goes to stderr."""
    def run(cmd):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))

    if not (bdir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run(["cmake", "-S", str(HERE), "-B", str(bdir),
             "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    run(["cmake", "--build", str(bdir), "--parallel", jobs])


def self_test(bdir, work):
    """Runs perfbench_selftest once per build of its binary."""
    binary = bdir / "perfbench_selftest"
    stamp = bdir / "selftest.passed"
    if stamp.exists() and stamp.stat().st_mtime >= binary.stat().st_mtime:
        return
    if subprocess.run([str(binary), str(work / "selftest")],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("self-tests failed", 1)
    stamp.touch()


def run_bench(args, deadline):
    """Runs the benchmark program once; returns its JSON line and exit code."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("time budget exhausted", 3)
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("benchmark program timed out", 3)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"benchmark program exited with {proc.returncode} and no result",
             proc.returncode or 2)
    return json.loads(lines[-1]), proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    bdir = build_dir()
    work = ROOT / ".bench_work"
    build(bdir)
    self_test(bdir, work)

    deadline = time.monotonic() + RUN_BUDGET_S
    run_dir = work / opts.workload
    base = [str(bdir / "perfbench"), "--workload", opts.workload,
            "--seed", str(opts.seed), "--dir", str(run_dir)]

    setups = []
    if not opts.trace:
        for _ in range(SETUP_REPEATS - 1):
            shutil.rmtree(run_dir, ignore_errors=True)
            result, code = run_bench(base + ["--setup-only"], deadline)
            if code:
                fail(f"set-up run exited with {code}", code)
            setups.append(result["setup_s"])
    shutil.rmtree(run_dir, ignore_errors=True)
    result, code = run_bench(
        base + ["--seconds", str(opts.seconds), "--trace", str(opts.trace)],
        deadline)
    shutil.rmtree(run_dir / "db", ignore_errors=True)

    metrics = result["metrics"]
    if not opts.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"]["value"] = statistics.median(setups)

    print(f"workload {opts.workload} seed {opts.seed} trace {opts.trace} "
          f"seconds {opts.seconds}")
    print(f"correct {str(result['correct']).lower()} {result['why']}".rstrip())
    print(f"latency samples {result['samples']}, "
          f"failed_ratio {result['failed_ratio']:.6f}")
    if setups:
        print("setup_s runs " + " ".join(f"{s:.3f}" for s in setups))
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:16.4f} {m['unit']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
