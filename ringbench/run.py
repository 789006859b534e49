#!/usr/bin/env python3
"""ringbox benchmark: per-op latency, throughput and query cost.

Usage (from the repository root):

    python3 ringbench/run.py --workload desk-exact --seed 1 --seconds 40 --trace 0

One closed-loop client in one process issues each op only after the previous
one returned; no threads. ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` runs one pass with every ringbox layer wrapped in spans,
replays it untraced to check that tracing changed nothing, and reports the
per-layer metrics. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
See ringbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
perf = time.perf_counter

LAYER_MODULES = ("blackbox", "intlinalg", "qsim", "abelian", "idealcore", "ringops", "verify", "cli")

# Error budget of the desk providers. Accumulation draws at most
# log2(1/epsilon) + 4 samples per ring generator to find an element outside
# the current span, on either backend, and stops with too small an ideal if
# none lands outside; about half an accumulation round is made per op, so
# an op errs with probability near epsilon / 30. At 1e-9 that is negligible
# over any number of runs, and a wrong answer is a failure on every workload.
DESK_EPSILON = 1e-9

WORKLOADS = {
    # rounds: distinct rounds in one pass
    "desk-exact": {"kind": "desk", "backend": "exact", "epsilon": DESK_EPSILON, "rounds": 8},
    "desk-sampled": {"kind": "desk", "backend": "sampled", "epsilon": DESK_EPSILON, "rounds": 1},
    "scale-cli": {"kind": "scale", "rounds": 1},
}

PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)

SCALE_SETUP_REPEATS = 3

# Time of one ``calibrate()`` on an unloaded machine of the baseline's kind.
# Reported times are scaled to it (see ``Speed``).
REFERENCE_CALIBRATION_S = 0.0033


def calibrate():
    """A fixed pure-Python load, independent of ringbox: integer and
    big-integer arithmetic, dict inserts, sorting and set algebra."""
    t0 = perf()
    table = {}
    x = 1
    for i in range(4000):
        x = (x * 1103515245 + 12345) % (1 << 61)
        table[(i, x & 1023)] = x
    values = sorted(table.values())
    len(frozenset(values[::3]) & frozenset(values[::5]))
    big, modulus = 3**400, 7**300
    for _ in range(60):
        big = big * big % modulus
    return perf() - t0


class Speed:
    """The machine's current speed, from ``calibrate()`` run at least every
    ``INTERVAL_S`` between ops.

    The sandbox this benchmark runs in is shared: for minutes at a time it
    runs the same code up to 1.6 times slower, which moves every timing of a
    run together. Each latency is therefore multiplied by ``factor()``, the
    reference calibration time over the median of the last few calibrations,
    and reported at the reference speed. Raw times are printed as well.
    """

    INTERVAL_S = 0.25
    WINDOW = 5

    def __init__(self):
        self.recent = []
        self.all = []
        self.last = -math.inf

    def update(self):
        if perf() - self.last < self.INTERVAL_S:
            return
        sample = statistics.median(calibrate() for _ in range(3))
        self.recent = (self.recent + [sample])[-self.WINDOW :]
        self.all.append(sample)
        self.last = perf()

    def factor(self):
        return REFERENCE_CALIBRATION_S / statistics.median(self.recent)


def load_ringbox():
    src = ROOT / "src"
    if not (src / "ringbox" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"ringbox.{name}") for name in LAYER_MODULES}
    if Path(mods["cli"].__file__).resolve().parent != src / "ringbox":
        return None
    mods["errors"] = importlib.import_module("ringbox.errors")
    return mods


def tail_percentile(n):
    """Highest percentile with at least ten of n samples beyond it."""
    for p in PERCENTILES:
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return 50.0


def percentile(sorted_values, p):
    k = max(1, math.ceil(p * len(sorted_values) / 100))
    return sorted_values[k - 1]


def fingerprint(result):
    return hashlib.blake2b(repr(result).encode(), digest_size=12).hexdigest()


class Run:
    """What the passes of one run recorded, per op of a pass."""

    def __init__(self):
        self.passes = 0
        self.setup_s = []  # at reference speed
        self.raw_setup_s = []
        self.samples = []  # per op: its latency in every pass, at reference speed
        self.raw_samples = []  # per op: its measured latency in every pass
        self.labels = []  # per op: (ring, op kind)
        self.fingerprints = []  # first pass: per op
        self.metered = []  # first pass: metered queries per op
        self.decisions = []  # first pass: swap-test decisions per op
        self.round_ledgers = []  # first pass: (metered, verification, decisions)
        self.executions = 0
        self.failures = []
        self.check_s = 0.0
        self.wall_s = 0.0
        self.speed = None

    def latencies(self, raw=False):
        """Each op's median latency over the passes."""
        return [statistics.median(s) for s in (self.raw_samples if raw else self.samples)]

    def pass_percentile(self, p, raw=False):
        """The p-th percentile of each pass's op latencies, median over the
        passes."""
        samples = self.raw_samples if raw else self.samples
        return statistics.median(
            percentile(sorted(s[k] for s in samples), p) for k in range(self.passes)
        )


def make_round(wl, seed, repeat, index):
    from workloads import DeskRound, ScaleRound

    if wl["kind"] == "desk":
        return DeskRound(seed, repeat, index, wl["backend"], wl["epsilon"])
    return ScaleRound(seed, repeat, index)


def execute(op, errors):
    t0 = perf()
    try:
        result = op.call()
    except Exception as exc:  # judged against ground truth later
        result = exc
        if not isinstance(exc, errors.RingBoxError):
            traceback.print_exc(file=sys.stderr)
    return result, perf() - t0


def run_passes(wl, seed, seconds, errors, tracer=None, passes=None):
    """Passes over the workload's rounds until the next pass would end after
    ``seconds`` of wall time (at least one), or exactly ``passes`` passes.

    Every pass poses the same problems with fresh ring keys and providers,
    so each op gets one latency sample per pass.
    """
    out = Run()
    speed = out.speed = Speed()
    start = perf()
    scale = wl["kind"] == "scale"

    def phase(name):
        if tracer is not None:
            tracer.op = name

    while True:
        first = out.passes == 0
        k = 0
        for index in range(wl["rounds"]):
            rnd = make_round(wl, seed, out.passes, index)
            phase("setup")
            for _ in range(SCALE_SETUP_REPEATS if scale else 1):
                speed.update()
                t0 = perf()
                rnd.setup()
                dt = perf() - t0
                out.raw_setup_s.append(dt)
                out.setup_s.append(dt * speed.factor())
            phase("input")
            ops = rnd.ops()
            for op in ops:
                speed.update()
                m0, d0 = rnd.metered(op), rnd.decisions(op)
                phase(k)
                op.result, dt = execute(op, errors)
                phase(None)
                if tracer is not None:
                    tracer.sample_caches(forget=scale)
                decisions = rnd.decisions(op) - d0
                out.executions += 1
                if first:
                    out.samples.append([dt * speed.factor()])
                    out.raw_samples.append([dt])
                    out.labels.append((op.ring.name, op.kind))
                    out.fingerprints.append(fingerprint(op.result))
                    out.metered.append(rnd.metered(op) - m0)
                    out.decisions.append(decisions)
                else:
                    out.samples[k].append(dt * speed.factor())
                    out.raw_samples[k].append(dt)
                k += 1
            phase("check")
            t0 = perf()
            for op in ops:
                try:
                    ok = op.check(rnd.truth(op), op.result)
                except Exception:  # a malformed answer fails its check
                    traceback.print_exc(file=sys.stderr)
                    ok = False
                if not ok:
                    out.failures.append((op.ring.name, op.kind, repr(op.result)[:200]))
            out.check_s += perf() - t0
            phase(None)
            if tracer is not None:
                tracer.sample_caches(forget=True)
            if first:
                out.round_ledgers.append(rnd.ledgers())
            rnd.release()
        out.passes += 1
        out.wall_s = perf() - start
        if passes is not None:
            if out.passes >= passes:
                return out
        elif out.wall_s * (out.passes + 1) / out.passes > seconds:
            return out


def end_to_end(run: Run):
    lat = sorted(run.latencies())
    n = len(lat)
    tail_p = tail_percentile(n)
    tail = run.pass_percentile(tail_p)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "ops_per_s": (n / sum(lat), "1/s"),
        "op_p50_ms": (percentile(lat, 50.0) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "metered_queries_per_op": (sum(run.metered) / n, "1/op"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    raw = sorted(run.latencies(raw=True))
    failed = len(run.failures)
    notes = [
        f"measured speed: calibration median {statistics.median(run.speed.all) * 1e3:.3f} ms "
        f"against the reference {REFERENCE_CALIBRATION_S * 1e3:.3f} ms; unscaled: "
        f"setup_s={statistics.median(run.raw_setup_s):.6g} ops_per_s={n / sum(raw):.6g} "
        f"op_p50_ms={percentile(raw, 50.0) * 1e3:.6g} op_tail_ms={run.pass_percentile(tail_p, raw=True) * 1e3:.6g}",
        f"passes={run.passes} ops_per_pass={n} executions={run.executions} "
        f"setups={len(run.setup_s)} check_s={run.check_s:.3f} wall_s={run.wall_s:.1f}",
        f"op_tail_ms is p{tail_p:g} of each pass's {n} op latencies ({n - math.ceil(tail_p * n / 100)} "
        f"beyond it), median over the {run.passes} passes",
        f"metered_queries_per_op over the first pass: {sum(run.metered)} queries / {n} ops",
        f"fail_rate = {failed}/{run.executions} = {failed / run.executions:.6f} (1)",
    ]
    by_kind = {}
    for label, v in zip(run.labels, run.latencies()):
        slot = by_kind.setdefault(label, [0, 0.0])
        slot[0] += 1
        slot[1] += v
    for (ring, kind), (count, secs) in sorted(by_kind.items(), key=lambda kv: -kv[1][1]):
        notes.append(f"  {ring:14} {kind:12} {count:6} ops {secs:9.3f} s {secs / count * 1e3:10.3f} ms/op")
    return metrics, notes


def compare_runs(a: Run, b: Run):
    """Differences between a traced and an untraced run of the same pass."""
    diffs = []
    for what in ("fingerprints", "metered", "decisions", "round_ledgers"):
        x, y = getattr(a, what), getattr(b, what)
        bad = sum(1 for u, v in zip(x, y) if u != v) + abs(len(x) - len(y))
        if bad:
            diffs.append(f"{what}: {bad} differ")
    return diffs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    modules = load_ringbox()
    if modules is None:
        print(f"ringbench: no ringbox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads
    import tracer as tracing

    workloads.bind(modules)
    wl = WORKLOADS[args.workload]
    errors = modules["errors"]
    print(f"ringbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")

    if not args.trace:
        run = run_passes(wl, args.seed, args.seconds, errors)
        metrics, notes = end_to_end(run)
    else:
        layers = {name: modules[name] for name in LAYER_MODULES}
        tr = tracing.Tracer(layers)
        tr.install()
        try:
            run = run_passes(wl, args.seed, args.seconds, errors, tracer=tr, passes=1)
        finally:
            tr.uninstall()
        plain = run_passes(wl, args.seed, args.seconds, errors, passes=1)
        diffs = compare_runs(run, plain)
        n = len(run.samples)
        metrics = tracing.layer_metrics(tr, n)
        if abs(metrics["blackbox.metered_queries"][0] - sum(plain.metered) / n) > 1e-9:
            diffs.append("traced metered queries per op differ from the untraced ledgers")
        traced_rate = n / sum(run.latencies())
        plain_rate = n / sum(plain.latencies())
        metrics["trace.ops_per_s"] = (traced_rate, "1/s")
        metrics["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
        metrics["trace.overhead_ratio"] = (plain_rate / traced_rate, "ratio")
        metrics["trace.perturbation_diffs"] = (len(diffs), "count")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        tr.write(span_file)
        notes = [
            f"traced pass: {n} ops, {len(tr.spans)} spans written to {span_file.relative_to(ROOT)}",
            f"tracing overhead: untraced {plain_rate:.3f} ops/s vs traced {traced_rate:.3f} ops/s",
            "non-perturbation: " + ("identical answers, queries and decisions" if not diffs else "; ".join(diffs)),
        ]
    failed = len(run.failures)
    correct = failed == 0 and not (args.trace and diffs)

    for ring, kind, res in run.failures[:20]:
        print(f"FAILED {ring} {kind}: {res}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": run.executions,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
