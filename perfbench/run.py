"""The coda benchmark: three workloads, end-to-end metrics with tracing
off, per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload eval --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1    # each workload in its own process
    python3 perfbench/selfcheck.py                      # determinism self-check

Run it from the root of a checkout; it imports the package from `src/`.
One client runs ops back to back (a closed loop) in this single thread.
`--seconds` sets the amount of work: each workload turns it into a whole
number of cycles with its CYCLE_SECONDS, so a run does the same ops on
every commit and takes about that long on the reference machine.  Every op
is checked against a reference outside its timed region.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  The lines before it name every metric
with its unit and sample count.
"""

import time

START = time.perf_counter()

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

sys.dont_write_bytecode = True  # every run compiles the same way, and writes nothing into src/

import speed
from layers import METRICS, Tracer, recursion_layer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = {"eval": "wl_eval", "search": "wl_search", "lab": "wl_lab"}
SETUP_REPEATS = 5  # this process plus four fresh ones; setup_s is their median
SETUP_SAMPLES = 5  # speed samples before and after a set-up
MAX_WALL_S = 150.0  # no cycle starts past this, so a run ends within 180 s


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="coda benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def timed_setup(args):
    """setup() with its raw and scaled duration."""
    before = [speed.sample() for _ in range(SETUP_SAMPLES)]
    t = time.perf_counter()
    cycles, tracer = setup(args)
    raw = time.perf_counter() - t
    after = [speed.sample() for _ in range(SETUP_SAMPLES)]
    return cycles, tracer, raw, raw * speed.scale_of(before + after)


def setup(args):
    """Import the package, build the prelude and every input, warm up on
    a corpus drawn from another stream.  Returns (cycles, tracer)."""
    sys.path.insert(0, str(SRC))
    import coda

    coda.prelude()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    mod = importlib.import_module(WORKLOADS[args.workload])
    n = max(1, round(args.seconds / mod.CYCLE_SECONDS))
    # a traced run also times one extra cycle untraced, for the overhead ratio
    cycles = [mod.cycle(args.seed, i) for i in range(n + args.trace)]
    for op in mod.warmup(args.seed):
        try:
            op.run()
        except Exception:  # a failing warm-up op still warmed the path it ran
            pass
    return cycles, tracer


def this_run(args, workload, *extra):
    """The command line of this benchmark for `workload`, with the same
    seed and seconds."""
    return [sys.executable, "-B", str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]


def child_setups(args, count):
    """(raw, scaled) set-up times of `count` fresh processes, one after
    another."""
    out = []
    for _ in range(count):
        proc = subprocess.run(this_run(args, args.workload, "--setup-only"),
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"set-up child failed:\n{proc.stderr}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((res["raw_s"], res["setup_s"]))
    return out


class Tally:
    """Latencies, failures and digests of the ops a run attempted.

    A failed op has one of four kinds: "raised" (the exception its
    Op.expect_raise names), "error" (any other exception), "wrong" and
    "invariant" (see common.Problem).  Every kind counts as failed; all but
    "raised" make the run incorrect."""

    def __init__(self):
        self.span = []  # (start, end) of each op on the perf_counter axis
        self.latency = []
        self.scaled = []  # latencies at the reference speed, after the run
        self.by_family = defaultdict(list)
        self.problems = Counter()
        self.raised = Counter()
        self.examples = []
        self.op_digest = hashlib.sha256()
        self.out_digest = hashlib.sha256()

    def record(self, op, span, seconds, result, exc):
        self.span.append(span)
        self.latency.append(seconds)
        self.op_digest.update(op.label.encode() + b"\n")
        if exc is not None:
            where = f" in {recursion_layer(exc)}" if isinstance(exc, RecursionError) else ""
            expected = op.expect_raise is not None and isinstance(exc, op.expect_raise)
            problem = ("raised" if expected else "error", f"{type(exc).__name__}{where}: {exc}")
            shown = f"raised {type(exc).__name__}"
            self.raised[f"{type(exc).__name__}{where}" + ("" if expected else " (unexpected)")] += 1
        else:
            try:
                problem, shown = op.check(result), op.show(result)
            except Exception as err:  # a malformed result is a wrong answer
                problem, shown = ("wrong", f"check failed: {err!r}"), "unchecked"
        self.out_digest.update(shown.encode() + b"\n")
        self.by_family[op.family].append((seconds, problem is not None))
        if problem is not None:
            self.problems[problem[0]] += 1
            if len(self.examples) < 5 and problem[0] != "raised":
                self.examples.append(f"{op.label}: {problem[1]}")

    @property
    def attempted(self):
        return len(self.latency)

    @property
    def failed(self):
        return sum(self.problems.values())

    @property
    def correct(self):
        return self.failed == self.problems["raised"]


def run_cycles(cycles, tally, tracer=None):
    """Run every op of every cycle while the machine's speed is sampled;
    fills tally.scaled and returns the summed raw op time."""
    total = 0.0
    with speed.Speedometer() as meter:
        for ops in cycles:
            if time.perf_counter() - START > MAX_WALL_S:
                print(f"warning: stopped after {MAX_WALL_S:.0f} s of wall time; the op mix is incomplete")
                break
            for op in ops:
                run = op.run if tracer is None else (lambda op=op: tracer.run_op(tally.attempted, op.run))
                result = exc = None
                stolen = meter.stolen
                t = time.perf_counter()
                try:
                    result = run()
                except Exception as err:  # every failure is counted, none stops the run
                    exc = err
                end = time.perf_counter()
                dt = end - t - (meter.stolen - stolen)
                tally.record(op, (t, end), dt, result, exc)
                total += dt
    tally.scaled = meter.scaled([(s, e, d) for (s, e), d in zip(tally.span, tally.latency)])
    return total


def middle(latencies):
    """The median, taken as the mean of the middle 5% of the sorted
    latencies (at least the median and one on each side): where few ops
    sit near the middle, a plain median jumps from one op kind to the next."""
    s = sorted(latencies)
    k = max(1, round(0.025 * len(s)))
    mid = len(s) // 2
    return statistics.mean(s[max(0, mid - k):mid + k + 1])


def tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond
    it, with that percentile."""
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def report_ops(args, tally, n_cycles, wall):
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{tally.attempted} ops in {n_cycles} cycles  {wall:.3f} s of raw op time, "
          f"{sum(tally.scaled):.3f} s at the reference speed")
    for fam, rows in sorted(tally.by_family.items()):
        lat = [r[0] for r in rows]
        print(f"  family {fam:10s} ops {len(rows):5d}  failed {sum(r[1] for r in rows):4d}  "
              f"raw p50 {statistics.median(lat) * 1e3:9.3f} ms  total {sum(lat):8.3f} s")
    kinds = ", ".join(f"{k} {v}" for k, v in sorted(tally.problems.items())) or "none"
    print(f"  failed ops: {tally.failed} of {tally.attempted} ({kinds})")
    for what, count in sorted(tally.raised.items()):
        print(f"    raised {what}: {count}")
    for line in tally.examples:
        print(f"    {line}")
    print(f"  op-list digest {tally.op_digest.hexdigest()[:16]}  outputs digest {tally.out_digest.hexdigest()[:16]}")


def end_to_end(tally, setups):
    """The end-to-end metrics at the reference speed; `setups` holds
    (raw, scaled) set-up times.  Raw values are printed beside them."""
    n = tally.attempted
    ok = n - tally.failed
    tail_s, pct = tail(tally.scaled)
    raw_tail_s, _ = tail(tally.latency)
    raw_setups = [r for r, _ in setups]
    scaled_setups = [s for _, s in setups]
    metrics = {
        "setup_s": (statistics.median(scaled_setups), statistics.median(raw_setups), "s",
                    f"median of {len(setups)} set-ups: " + " ".join(f"{s:.3f}" for s in scaled_setups)),
        "ops_per_s": (ok / sum(tally.scaled), ok / sum(tally.latency), "1/s",
                      f"{ok} correct ops / {sum(tally.scaled):.3f} s of op time"),
        "op_p50_ms": (middle(tally.scaled) * 1e3, middle(tally.latency) * 1e3, "ms",
                      f"mean of the middle 5%, n={n}"),
        "op_tail_ms": (tail_s * 1e3, raw_tail_s * 1e3, "ms", f"p{pct:.2f}, n={n}, 10 beyond"),
    }
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = (rss, rss, "MB", "ru_maxrss of this process")
    for name, (value, raw, unit, note) in metrics.items():
        print(f"{name:14s} {value:14.4f} {unit:5s} raw {raw:12.4f}  ({note})")
    print(f"{'failed_ratio':14s} {tally.failed / tally.attempted:14.4f} {'ratio':5s} "
          f"({tally.failed} failed / {tally.attempted} attempted)")
    return {name: {"value": value, "unit": unit} for name, (value, _, unit, _) in metrics.items()}


def per_layer(args, tracer, traced, n_traced, baseline):
    """The per-layer metrics (raw seconds); the overhead ratio compares the
    traced and untraced tallies at the reference speed."""
    overhead = (sum(traced.scaled) / n_traced) / sum(baseline.scaled) if baseline.scaled else 0.0
    values = tracer.metrics(overhead)
    for name, (unit, _, moves) in METRICS.items():
        print(f"{name:28s} {values[name]:16.6f} {unit:6s} (moves {moves})")
    path = OUT / f"trace-{args.workload}-seed{args.seed}.tsv.gz"
    kept = tracer.write_spans(path)
    print(f"spans: {kept} kept, {tracer.dropped} beyond the cap counted only; "
          f"written to {path.relative_to(ROOT)}")
    return {name: {"value": values[name], "unit": unit} for name, (unit, _, _) in METRICS.items()}


def run_all(args):
    """Each workload in its own fresh process; a summary at the end."""
    results = {}
    for w in sorted(WORKLOADS):
        proc = subprocess.run(this_run(args, w, "--trace", str(args.trace)),
                              capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"workload {w} failed with exit code {proc.returncode}")
        results[w] = json.loads(proc.stdout.strip().splitlines()[-1])
        print()
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "coda" / "__init__.py").is_file():
        sys.exit(f"coda sources not found under {SRC}; run from a checkout of the repository")
    if args.workload == "all":
        return run_all(args)
    cycles, tracer, raw_setup, scaled_setup = timed_setup(args)
    if args.setup_only:
        print(json.dumps({"setup_s": scaled_setup, "raw_s": raw_setup}))
        return
    tally = Tally()
    if tracer is None:
        setups = [(raw_setup, scaled_setup)] + child_setups(args, SETUP_REPEATS - 1)
        wall = run_cycles(cycles, tally)
        report_ops(args, tally, len(cycles), wall)
        metrics = end_to_end(tally, setups)
    else:
        traced = cycles[:-1]
        wall = run_cycles(traced, tally, tracer)
        report_ops(args, tally, len(traced), wall)
        tracer.uninstall()
        baseline = Tally()
        run_cycles(cycles[-1:], baseline)
        metrics = per_layer(args, tracer, tally, len(traced), baseline)
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
