#!/usr/bin/env python3
"""Build and run the LMS stack benchmark (README.md in this directory).

    python3 stackbench/run.py --workload ingest|dashboard|fleet --seed N \
        --seconds S --trace 0|1

Builds the stackbench binary from the checkout's sources into .bench_build/,
runs it, and prints its report. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics. With --trace 0 the metrics
are the end-to-end set; set-up is repeated SETUPS times in fresh processes
and setup_s / mem_bytes_per_sample are their medians. With --trace 1 they
are the per-layer set, and the traced spans are written to
.bench_build/spans/<workload>-<seed>.tsv.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "stackbench")
BINARY = os.path.join(BUILD, "stackbench")
WORKLOADS = ("ingest", "dashboard", "fleet")
SETUPS = 5          # set-ups measured per untraced run (medians reported)
RUN_BUDGET_S = 170  # whole run, build excluded


def log(msg):
    print(f"stackbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the binary; raises on failure."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no LMS source tree next to the benchmark (expected ../src)")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *gen],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "stackbench",
                    "-j", str(os.cpu_count() or 4)], stdout=sys.stderr, check=True)


def run_binary(args, deadline):
    """Run the binary once; returns (report lines, result object)."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run([BINARY, *args], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"stackbench exited with {proc.returncode}: {' '.join(args)}")
    return lines[:-1], json.loads(lines[-1])


def run(workload, seed, seconds, trace):
    """One benchmark run; returns (report lines, result object)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0"]
    if trace:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        return run_binary(base + ["--spans-out",
                                  os.path.join(spans, f"{workload}-{seed}.tsv")], deadline)
    names = ("setup_s", "mem_bytes_per_sample")
    setups = []
    for _ in range(SETUPS - 1):
        _, r = run_binary(base + ["--setup-only"], deadline)
        setups.append([r["metrics"][n]["value"] for n in names])
    lines, result = run_binary(base, deadline)
    setups.append([result["metrics"][n]["value"] for n in names])
    for i, name in enumerate(names):
        result["metrics"][name]["value"] = statistics.median(s[i] for s in setups)
    lines.append("setups " + " ".join(f"{s:.3f}s/{m:.1f}B" for s, m in setups))
    return lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        build()
        lines, result = run(args.workload, args.seed, args.seconds, args.trace == 1)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as e:
        log(f"failed: {e}")
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
