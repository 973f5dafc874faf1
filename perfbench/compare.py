"""Compare two sets of saved benchmark runs, metric by metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the standard output of any number of runs of run.py, one
after another: a context line, then a result line.  For each workload and
metric it prints the median of each side, the change of the medians as a
share of the base median, and each side's spread (the distance between
the first and third quartile, as a share of the median).  It refuses, with
exit status 2, when a workload's runs do not all carry the same list
digest: their numbers come from different traffic.
"""

import json
import statistics
import sys
from collections import defaultdict


def load(path):
    """{workload: {metric: [values]}} and {workload: {digests}} of one file."""
    values = defaultdict(lambda: defaultdict(list))
    digests = defaultdict(set)
    context = None
    with open(path) as f:
        for line in f:
            if not line.startswith("{"):
                continue
            row = json.loads(line)
            if "context" in row:
                context = row["context"]
                continue
            if "metrics" in row and context is not None:
                digests[context["workload"]].add(context["digest"])
                for name, m in row["metrics"].items():
                    values[context["workload"]][name].append(m["value"])
                context = None
    return values, digests


def spread(vals):
    if len(vals) < 2:
        return float("nan")
    q = statistics.quantiles(vals, n=4)
    return (q[2] - q[0]) / q[1] if q[1] else float("nan")


def main(base_path, new_path):
    base, base_digests = load(base_path)
    new, new_digests = load(new_path)
    shared = sorted(set(base) & set(new))
    for wl in shared:
        digests = base_digests[wl] | new_digests[wl]
        if len(digests) != 1:
            print(f"{wl}: runs carry different list digests {sorted(digests)}; refusing",
                  file=sys.stderr)
            sys.exit(2)
    for wl in shared:
        for name in base[wl]:
            if name not in new[wl]:
                continue
            a, b = statistics.median(base[wl][name]), statistics.median(new[wl][name])
            change = (b - a) / a if a else float("nan")
            print(f"{wl:16s} {name:40s} {a:12.4g} {b:12.4g} {change:+8.1%}"
                  f"  spread {spread(base[wl][name]):.3f} {spread(new[wl][name]):.3f}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2])
