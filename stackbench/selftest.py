#!/usr/bin/env python3
"""Self-test of the stack benchmark (README.md, "Self-test").

    python3 stackbench/selftest.py            # digest + fault injection + held-out seed
    python3 stackbench/selftest.py --shared-box

Default mode shows that the gates catch real defects and pass clean runs:
  1. --digest is a pure function of the seed;
  2. a dropped point, a duplicated point and a wrong query cell, injected at
     the benchmark's seams, each fail their gate;
  3. a held-out seed passes every gate on every workload.

--shared-box runs every workload (traced, so the router's queue peak is
sampled) while a second copy of the benchmark drives `ingest` on the same
cores, and requires correct:true with zero failed operations from both.
"""
import argparse
import json
import subprocess
import sys

import run as bench

HELD_OUT_SEED = 424242
FAULTS = (("drop", "conservation"), ("dup", "conservation"), ("cell", "reference query"))


def run_binary(args, seconds):
    proc = subprocess.run([bench.BINARY, *args, "--seconds", str(seconds)], cwd=bench.ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=bench.RUN_BUDGET_S)
    if proc.returncode != 0:
        raise RuntimeError(f"stackbench exited with {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def check(ok, what, failures):
    print(f"  {'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def default_mode(seconds, failures):
    print("digest", flush=True)
    digests = []
    for seed in (7, 7, 8):
        out = subprocess.run([bench.BINARY, "--workload", "fleet", "--seed", str(seed),
                              "--digest"], stdout=subprocess.PIPE, text=True, check=True)
        digests.append(out.stdout.split()[-1])
    check(digests[0] == digests[1], "same seed, same digest", failures)
    check(digests[0] != digests[2], "other seed, other digest", failures)

    print("fault injection (each must fail its gate)", flush=True)
    for fault, gate in FAULTS:
        result, err = run_binary(["--workload", "ingest", "--seed", "1001", "--trace", "0",
                                  "--inject", fault], seconds)
        check(not result["correct"] and gate in err, f"--inject {fault} fails the {gate} gate",
              failures)

    print(f"held-out seed {HELD_OUT_SEED} (every gate must pass)", flush=True)
    for workload in bench.WORKLOADS:
        result, err = run_binary(["--workload", workload, "--seed", str(HELD_OUT_SEED),
                                  "--trace", "0"], seconds)
        check(result["correct"] and result["failed"] == 0,
              f"{workload}: correct={result['correct']} failed={result['failed']}"
              f" attempted={result['attempted']}", failures)
        if not result["correct"]:
            print(err, file=sys.stderr)


def shared_box_mode(seconds, failures):
    print("shared box: each workload next to a second benchmark copy driving ingest",
          flush=True)
    for workload in bench.WORKLOADS:
        base = [bench.BINARY, "--seconds", str(seconds)]
        other = subprocess.Popen(base + ["--workload", "ingest", "--seed", "77", "--trace", "0"],
                                 cwd=bench.ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True)
        try:
            result, _ = run_binary(["--workload", workload, "--seed", str(HELD_OUT_SEED + 1),
                                    "--trace", "1"], seconds)
        finally:
            out, _ = other.communicate(timeout=bench.RUN_BUDGET_S)
        neighbour = json.loads(out.splitlines()[-1])
        m = result["metrics"]
        peak = m["core.router.queue_peak_points"]["value"]
        print(f"  {workload}: queue peak {peak:.0f} of 8192 points, refused share "
              f"{m['core.router.refused_share']['value']:.3f}, cpu "
              f"{m['bench.process_cpu_cores']['value']:.2f} cores", flush=True)
        for name, r in ((workload, result), ("neighbour ingest", neighbour)):
            check(r["correct"] and r["failed"] == 0,
                  f"{name}: correct={r['correct']} failed={r['failed']}"
                  f" attempted={r['attempted']}", failures)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--shared-box", action="store_true")
    ap.add_argument("--seconds", type=float, default=5)
    args = ap.parse_args()
    bench.build()
    failures = []
    if args.shared_box:
        shared_box_mode(args.seconds, failures)
    else:
        default_mode(args.seconds, failures)
    print("self-test " + ("passed" if not failures else f"FAILED ({len(failures)})"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
