"""Determinism self-check of the benchmark.

For each workload, with `--seconds 1` (one cycle):
  - two traced runs with the same seed give the same op list, the same
    outputs digest and the same value for every count in EXACT_COUNTS;
  - an untraced run with that seed gives the same op list and outputs
    digest, so tracing changes no result;
  - a run with another seed gives a different op list.
It also checks that BENCHMARK.json lists the per-layer metrics run.py
reports.

    python3 perfbench/selfcheck.py                  # every workload, seed 7
    python3 perfbench/selfcheck.py --workload eval --seed 3

Exits with 1 when a check fails.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

from layers import EXACT_COUNTS, METRICS

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
DIGESTS = re.compile(r"op-list digest (\w+)\s+outputs digest (\w+)")


def run(workload, seed, trace):
    cmd = [sys.executable, "-B", str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    ops, outputs = DIGESTS.search(proc.stdout).groups()
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return ops, outputs, {k: metrics[k]["value"] for k in EXACT_COUNTS if k in metrics}


def check_workload(workload, seed):
    first = run(workload, seed, trace=1)
    second = run(workload, seed, trace=1)
    untraced = run(workload, seed, trace=0)
    other = run(workload, seed + 1, trace=0)
    checks = [
        ("same seed, same op list", first[0] == second[0]),
        ("same seed, same outputs digest", first[1] == second[1]),
        ("tracing changes no output", first[:2] == untraced[:2]),
        ("another seed, another op list", first[0] != other[0]),
    ]
    checks += [(f"{k} repeats ({first[2][k]})", first[2][k] == second[2][k]) for k in EXACT_COUNTS]
    ok = True
    for what, passed in checks:
        print(f"{workload:6s} {'ok  ' if passed else 'FAIL'} {what}")
        ok &= passed
    return ok


def check_benchmark_json():
    """BENCHMARK.json lists exactly the per-layer metrics run.py reports."""
    listed = [(m["name"], m["unit"], m["better"]) for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    ok = listed == [(name, unit, better) for name, (unit, better, _) in METRICS.items()]
    print(f"{'json':6s} {'ok  ' if ok else 'FAIL'} BENCHMARK.json per_layer matches layers.METRICS")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=("eval", "search", "lab"), action="append")
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args()
    ok = check_benchmark_json()
    for w in args.workload or ["eval", "search", "lab"]:
        ok &= check_workload(w, args.seed)
    print("determinism self-check", "passed" if ok else "FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
