"""Benchmark of blockip's structured solve routes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; blockip is imported from ./src.  One caller,
one process, no threads: a closed loop solves the workload's fixed
instance list (see workloads.py) in an order drawn from --seed, pass after
pass, until S seconds have passed and every instance was solved at least
once.  Only the solve is timed, that is model.classify followed by the
route it names, called with default arguments.  Each instance's latency is
the median of its solves in the run, so the instances an unfinished last
pass reaches twice weigh no more than the others.  Every verdict is checked
afterwards, outside the timed region (see check_verdicts).

Times are reported at the speed of a reference host.  The host this runs
on is shared, and its speed swings by up to twice within seconds, for
minutes at a time.  So a short fixed calculation (calibrate) runs before
and after every timed call, and each call's time is multiplied by
CAL_REF_S over the median time of the calibrations around it.  The
calibration uses no blockip code, so a change to blockip moves the scaled
times as much as the raw ones.  The context shows how fast the host was.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the run
spends S/2 seconds untraced as above, then solves one more pass under the
tracer and reports the per-layer metrics of that pass; those are not
scaled.  The line before the result holds the context: the list digest,
Python version, CPU count, the host's speed relative to the reference
host, the set-up's parts and the calibration times (least, median, most).
"""

from __future__ import annotations

from time import perf_counter

_T_START = perf_counter()

from fractions import Fraction  # noqa: E402

CAL_TERMS = 300  # terms of the sum one calibration chunk computes
CAL_REF_S = 0.001  # the reference host's time for one chunk


def calibrate() -> float:
    """Seconds for a fixed sum of Fractions, computed without blockip code.

    Exact rational arithmetic on growing integers is what the solver spends
    its time on, and this sum slows down with it when the host does.
    """
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, CAL_TERMS + 1):
        acc += Fraction(i * 7919 % 1013, i)
    return perf_counter() - t0


_CAL_START = calibrate()  # its time is taken out of the set-up time

import argparse  # noqa: E402
import functools  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3  # setup_s is the median of this many full set-ups

sys.path.insert(0, str(HERE.parent / "src"))
try:
    import workloads  # noqa: E402  (imports blockip)
    from tracer import Tracer  # noqa: E402
except ImportError as e:
    sys.exit(f"perfbench: cannot import blockip from ./src ({e}); run from the repository root")


def _attempt(solve, inst):
    try:
        return solve(inst)
    except Exception as e:  # a raising solve is a failed solve, not a crashed run
        return e


def scaled(seconds, cals):
    """seconds as the reference host would take them, given calibration times."""
    return seconds * CAL_REF_S / statistics.median(cals)


def timed_calls(calls):
    """Makes each call in turn: [(result, scaled seconds)] and the calibration times.

    A calibration chunk runs before the first call and after each one.  A
    call's time is scaled by the median of the chunks nearest it, up to two
    on each side, which follow the host's speed while the call ran.
    """
    raw = []
    cals = [calibrate()]
    for call in calls:
        t0 = perf_counter()
        result = call()
        raw.append((result, perf_counter() - t0))
        cals.append(calibrate())
    return [(r, scaled(t, cals[max(0, j - 1):j + 3])) for j, (r, t) in enumerate(raw)], cals


def run_loop(solve, instances, order, seconds):
    """Passes over instances in order until seconds passed and one pass ended.

    Returns [(index, result, scaled seconds)], one entry per solve, and the
    calibration times.
    """
    start = perf_counter()
    visited = []

    def calls():
        for i in itertools.count():
            if i >= len(order) and perf_counter() - start >= seconds:
                return
            visited.append(order[i % len(order)])
            yield functools.partial(_attempt, solve, instances[visited[-1]])

    timed, cals = timed_calls(calls())
    return [(k, r, t) for k, (r, t) in zip(visited, timed)], cals


def set_up(name):
    """One set-up: generate the list, then solve its first instance once.

    Returns the list and the set-up's scaled seconds.  Each instance's
    generation is timed apart, so that each is scaled by the host's speed
    while it ran.
    """
    made, _ = timed_calls(workloads.makers(name))
    instances = [inst for inst, _ in made]
    [(_, warm_s)], _ = timed_calls([functools.partial(workloads.solve, instances[0])])
    return instances, sum(t for _, t in made) + warm_s


def check_verdicts(instances, samples, pinned):
    """Instance index of each failed solve.

    A solve fails if it raised, returned a point model.evaluate rejects, or
    gave a verdict that differs from the pinned one.
    """
    failed = []
    for k, result, _ in samples:
        v = None if isinstance(result, Exception) else workloads.verdict(instances[k], result)
        if v != pinned[k]:
            failed.append(k)
    return failed


def latencies(samples):
    """Per-instance median solve time, in seconds, keyed by instance index."""
    by_instance = {}
    for k, _, t in samples:
        by_instance.setdefault(k, []).append(t)
    return {k: statistics.median(ts) for k, ts in by_instance.items()}


def quantile(xs, p, steps=100):
    """Harrell-Davis estimate of the p-quantile of xs.

    It is the mean of the sorted values weighted by a Beta(p(n+1), (1-p)(n+1))
    density, so it rests on the dozen values nearest the quantile and not on
    the one or two a plain percentile picks.  That matters where the
    latencies leave a gap at the quantile: there a plain percentile is the
    latency of one instance, with all of that instance's noise.  The
    weights come from the midpoint rule, `steps` points per value.
    """
    xs = sorted(xs)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    weights = []
    for i in range(n):
        w = 0.0
        for j in range(steps):
            x = (i + (j + 0.5) / steps) / n
            w += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weights.append(w)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    import_s = scaled(perf_counter() - _T_START - _CAL_START, [_CAL_START, calibrate()])
    setups = []
    for _ in range(SETUP_REPEATS):
        instances, t = set_up(args.workload)
        setups.append(t)
    setup_s = import_s + statistics.median(setups)
    order = list(range(len(instances)))
    random.Random(args.seed).shuffle(order)

    if not args.trace:
        samples, cals = run_loop(workloads.solve, instances, order, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        samples, cals = run_loop(workloads.solve, instances, order, args.seconds / 2)
        with Tracer() as tracer:
            # seconds=0: exactly one pass
            traced, traced_cals = run_loop(tracer.root(workloads.solve), instances, order, 0)
        overhead = sum(t for *_, t in traced) / sum(latencies(samples).values())
        samples += traced
        cals += traced_cals

    pinned = json.loads((HERE / "pinned.json").read_text())[args.workload]
    digest = workloads.list_digest(instances)
    traffic_ok = digest == pinned["digest"]
    # a list that differs from the pinned one has no reference: every solve fails
    failed = (check_verdicts(instances, samples, pinned["verdicts"]) if traffic_ok
              else [k for k, _, _ in samples])

    if args.trace:
        metrics = tracer.layer_metrics(overhead)
        units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    else:
        lat = latencies(samples)
        ms = sorted(1000.0 * t for t in lat.values())
        metrics = {
            "solves_per_s": (len(lat) - len(set(failed))) / sum(lat.values()),
            "solve_ms_p50": quantile(ms, 0.5),
            "solve_ms_p90": quantile(ms, 0.9),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "digest": digest,
        "instances": len(instances),
        "traffic_ok": traffic_ok,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        # the host's speed during the run, relative to the reference host
        "host_speed": round(CAL_REF_S / statistics.median(cals), 4),
        "setup_parts_s": [round(import_s, 4), *(round(t, 4) for t in setups)],
        "calibration_ms": [round(1000 * c, 3) for c in (min(cals), statistics.median(cals), max(cals))],
    }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def _spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


if __name__ == "__main__":
    main()
