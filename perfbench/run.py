#!/usr/bin/env python3
"""Benchmark of the skolem-starters library.

    python3 perfbench/run.py --workload big-pq --seed 1 --seconds 42 --trace 0

Runs rounds of one workload (see workloads.py) in this process until
--seconds would be overrun, checks every result against known answers,
and prints as its last stdout line one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics:
  setup_s      fresh interpreter importing the library, median of 15
  solve_s, emit_s, verify_s, reject_s   time per role (harness.py):
               each operation's median over the rounds, summed
  wall_s       the sum of the four
  peak_rss_mb  peak resident memory of this process
All five times are scaled to a fixed machine speed, measured by a
calibration piece timed between the operations (harness.Calibration).
--trace 1 alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones (tracer.py), and the tracing
overhead; the spans are written to .perfbench-out/.

Run it from the root of a checkout; the library is imported from src/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
from time import monotonic, perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HARD_LIMIT_S = 150.0  # searches time out before the 180 s a run may take
# The share of a traced round's operation time that spans must explain.
MIN_COVERAGE = {"big-pq": 0.95}

sys.path.insert(0, os.path.join(ROOT, "src"))
try:
    import harness
    import tracer
    import workloads
except ImportError as exc:
    IMPORT_ERROR: ImportError | None = exc
else:
    IMPORT_ERROR = None

UNITS = {"calls": "count", "pairs": "count", "solutions": "count", "found": "count",
         "exhausted": "count", "timeouts": "count", "bytes": "B"}


def op_medians(rounds) -> dict[str, tuple[str, float]]:
    """label -> (role, median of the operation's samples over the rounds)."""
    samples: dict[str, tuple[str, list[float]]] = {}
    for r in rounds:
        for label, (role, times) in r.times.items():
            samples.setdefault(label, (role, []))[1].extend(times)
    return {label: (role, statistics.median(times)) for label, (role, times) in samples.items()}


def end_to_end_metrics(rounds, setup: list[float], scale: float) -> dict:
    """Each operation's median over the rounds, summed per role, and
    multiplied by scale to a fixed machine speed.

    Summing medians keeps a slow spell of the machine, which hits
    different operations in different rounds, out of every total.
    """
    role_s = dict.fromkeys(harness.ROLES, 0.0)
    for role, t in op_medians(rounds).values():
        role_s[role] += t * scale
    values = {
        "setup_s": (statistics.median(setup) * scale, "s"),
        "wall_s": (sum(role_s.values()), "s"),
        **{f"{role}_s": (t, "s") for role, t in role_s.items()},
        "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def layer_metrics(rounds) -> dict:
    """Medians over the traced rounds, and the overhead against the others."""
    traced = [r for r in rounds if r.tracer is not None]
    plain = [r for r in rounds if r.tracer is None]
    values = tracer.median_metrics([tracer.layer_metrics(r.tracer.spans, r.wall) for r in traced])
    with_trace, without = op_medians(traced), op_medians(plain)
    common = with_trace.keys() & without.keys()
    values["trace.overhead_frac"] = (
        sum(with_trace[k][1] for k in common) / sum(without[k][1] for k in common) - 1)
    result = {}
    for name, v in values.items():
        last = name.rsplit(".", 1)[1]
        unit = "s" if last.endswith("_s") else "frac" if last.endswith("_frac") else UNITS[last]
        result[name] = {"value": v, "unit": unit}
    return result


def run_rounds(workload, seconds: float, trace: bool, started: float, calibration) -> list:
    """Rounds until the next one would overrun; with trace, every second
    round is traced and at least one of each kind runs.  A calibration,
    if given, takes its samples between the operations of untraced rounds."""
    rounds = []
    begin = perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        rnd = (harness.Round(tracer.Tracer()) if traced
               else harness.Round(calibration=calibration))
        gc.collect()  # every round starts from the same heap
        t0 = perf_counter()
        if rnd.tracer is not None:
            rnd.tracer.install()
        try:
            workload.round(rnd)
        except Exception as exc:  # a step between operations broke: still report
            rnd.fail("round", f"raised {type(exc).__name__}: {exc}")
        finally:
            if rnd.tracer is not None:
                rnd.tracer.uninstall()
        rnd.elapsed = perf_counter() - t0
        rounds.append(rnd)
        if trace and len(rounds) < 2:
            continue
        longest = max(r.elapsed for r in rounds)
        if (perf_counter() - begin + longest > seconds
                or monotonic() - started + longest > HARD_LIMIT_S):
            return rounds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = monotonic()
    if IMPORT_ERROR is not None:
        print(f"error: cannot import the library from {ROOT}/src: {IMPORT_ERROR}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    if args.trace:
        calibration, setup = None, []
    else:
        calibration = harness.Calibration()
        setup = harness.setup_seconds(ROOT, calibration)
    out = harness.out_dir(ROOT)
    workload = workloads.WORKLOADS[args.workload](args.seed, out, started + HARD_LIMIT_S)
    try:
        rounds = run_rounds(workload, args.seconds, bool(args.trace), started, calibration)
    finally:
        workload.close()

    if args.trace:
        metrics = layer_metrics(rounds)
        if args.workload in MIN_COVERAGE:
            coverage = metrics["trace.coverage_frac"]["value"]
            rounds[-1].expect("trace coverage", coverage >= MIN_COVERAGE[args.workload],
                              f"spans explain only {coverage:.1%} of the traced time")
        path = os.path.join(out, f"trace-{args.workload}-seed{args.seed}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for r in rounds:
                if r.tracer is not None:
                    r.tracer.write(fh)
    else:
        scale = calibration.scale()
        print(f"calibration: {len(calibration.samples)} samples, "
              f"times scaled by {scale:.4f}", file=sys.stderr)
        metrics = end_to_end_metrics(rounds, setup, scale)
    failures = [f for r in rounds for f in r.failures]
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r.attempted for r in rounds),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
