#!/usr/bin/env bash
# Advisory stack-benchmark comparator: prints, per metric, the median and
# quartiles of a baseline and a candidate set of stackbench runs, the
# relative change of the median and the bound BENCHMARK.json declares for
# it. It never fails (exit 0) and is not part of any gate.
#
# Inputs are files of stackbench result lines, one JSON object per run as
# printed last by `python3 stackbench/run.py ...`; other lines are ignored.
# Collect one file per side, e.g.
#
#   for s in 1 2 3 4 5; do
#     python3 stackbench/run.py --workload ingest --seed $s --seconds 15 \
#       --trace 0 | tail -n 1 >> candidate.jsonl
#   done
#
# Usage: ci/bench_compare.sh <baseline.jsonl> <candidate.jsonl> [BENCHMARK.json]

cd "$(dirname "$0")/.." || exit 0

if [[ $# -lt 2 ]]; then
  echo "usage: ci/bench_compare.sh <baseline.jsonl> <candidate.jsonl> [BENCHMARK.json]" >&2
  exit 0
fi

python3 - "$1" "$2" "${3:-BENCHMARK.json}" <<'EOF' || true
import json
import statistics
import sys


def load_runs(path):
    runs = []
    try:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    obj = json.loads(line)
                except ValueError:
                    continue
                if isinstance(obj.get("metrics"), dict):
                    runs.append(obj)
    except OSError as e:
        print(f"bench_compare: cannot read {path}: {e}")
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def declared(path):
    """metric name -> (better, bound or None) from BENCHMARK.json."""
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    out = {}
    for group in ("end_to_end", "per_layer"):
        for m in spec.get(group, []):
            out[m["name"]] = (m.get("better", "lower"), m.get("bound"))
    return out


base_path, cand_path, spec_path = sys.argv[1:4]
base, cand = load_runs(base_path), load_runs(cand_path)
spec = declared(spec_path)
print(f"baseline:  {len(base)} runs from {base_path}")
print(f"candidate: {len(cand)} runs from {cand_path}")
for label, runs in (("baseline", base), ("candidate", cand)):
    attempted = sum(r.get("attempted", 0) for r in runs)
    failed = sum(r.get("failed", 0) for r in runs)
    incorrect = sum(1 for r in runs if r.get("correct") is not True)
    share = failed / attempted if attempted else 0.0
    print(f"{label:>9}: failed share {share:.4%}, runs not correct: {incorrect}")
if not base or not cand:
    print("bench_compare: nothing to compare")
    sys.exit(0)

names = [n for n in spec if any(n in r["metrics"] for r in base + cand)]
names += sorted({n for r in base + cand for n in r["metrics"]} - set(names))
header = (f"{'metric':<38} {'baseline q1/med/q3':>30} {'candidate q1/med/q3':>30}"
          f" {'delta':>8} {'bound':>6}  verdict")
print(header)
print("-" * len(header))
for name in names:
    b = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
    c = [r["metrics"][name]["value"] for r in cand if name in r["metrics"]]
    if not b or not c:
        continue
    better, bound = spec.get(name, ("lower", None))
    bq, cq = quartiles(b), quartiles(c)
    delta = (cq[1] - bq[1]) / abs(bq[1]) if bq[1] != 0 else 0.0
    worse = delta > 0 if better == "lower" else delta < 0
    if delta == 0:
        verdict = "same"
    elif not worse:
        verdict = "better"
    elif bound is not None and abs(delta) > bound:
        verdict = "WORSE than bound"
    else:
        verdict = "worse"
    fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
    bound_s = f"{bound:.0%}" if bound is not None else "-"
    print(f"{name:<38} {fmt(bq):>30} {fmt(cq):>30} {delta:>+8.1%} {bound_s:>6}  {verdict}")
EOF
exit 0
