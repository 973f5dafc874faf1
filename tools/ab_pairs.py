"""Paired benchmark runs of a parent checkout against a change checkout.

    python3 tools/ab_pairs.py --parent DIR --change DIR [--workload NAME ...]
        [--pairs N] [--seconds S] [--seed K] [--out-dir DIR]

Runs each checkout's own perfbench/run.py, untraced, in N pairs over the
seeds K, K + 1, ...: pair i runs the parent first when i is even and the
change first when it is odd, so a drift in the host's speed favours
neither side.  The workloads default to every one in the change's
BENCHMARK.json.  For each workload and each end-to-end metric there it
prints each side's median and quartiles, the change of the medians, in
how many pairs the change's value is the better one, and whether the
medians lie further apart than the parent's quartiles do.  With --out-dir
each side's raw output goes to parent.jsonl and change.jsonl there, which
perfbench/compare.py reads.  Exits 1 when a run fails or reports
"correct": false.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout, workload, seed, seconds):
    """The raw standard output and the {metric: value} of one run."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if result["correct"] is not True:
        raise SystemExit(f"{checkout}: {workload} seed {seed} is not correct: {result}")
    return out, {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(xs):
    return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--out-dir", type=Path)
    args = ap.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    sides = {"parent": args.parent, "change": args.change}
    raw = {side: [] for side in sides}
    for workload in workloads:
        values = {side: [] for side in sides}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                out, got = run(sides[side], workload, args.seed + i, args.seconds)
                raw[side].append(out)
                values[side].append(got)
            print(f"{workload} pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{name} {values['parent'][-1][name]:.4g} -> {values['change'][-1][name]:.4g}"
                for name in metrics), flush=True)
        print(f"\n{workload}, {args.pairs} pairs of {args.seconds:g} s"
              "\n  metric         parent q1 / median / q3       change q1 / median / q3     change  wins"
              "  beyond parent IQR")
        for name, better in metrics.items():
            p = [v[name] for v in values["parent"]]
            c = [v[name] for v in values["change"]]
            pq, cq = quartiles(p), quartiles(c)
            sign = 1 if better == "higher" else -1
            wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
            shift = (cq[1] - pq[1]) / pq[1] if pq[1] else float("nan")
            beyond = abs(cq[1] - pq[1]) > pq[2] - pq[0]
            print(f"  {name:<13} {pq[0]:9.4g} / {pq[1]:9.4g} / {pq[2]:9.4g}   "
                  f"{cq[0]:9.4g} / {cq[1]:9.4g} / {cq[2]:9.4g}  {shift:+7.1%}  {wins:2d}/{args.pairs}"
                  f"  {'yes' if beyond else 'no'}", flush=True)
        print()
    if args.out_dir:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        for side, outs in raw.items():
            (args.out_dir / f"{side}.jsonl").write_text("".join(outs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
