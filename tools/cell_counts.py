"""Deterministic counters of the 4-block route's master search, per instance.

    python3 tools/cell_counts.py --list fourblock-cells [--count N]
    python3 tools/cell_counts.py --snf n=20,s_A=1,t_B=1,s_C=1,scale=1000000 --seeds 0,3

--list takes a benchmark list of perfbench/workloads.py (read, not run),
--snf the keyword arguments of generators.random_snf_instance, drawn once
per seed from random.Random(seed).  Each instance is solved by
fourblock_snf.solve_4block_snf with the search's steps counted around it,
and one line per instance gives:

    yielded      masters enumerate_cells yields, one or more per combination
                 of sub-intervals that passes its screens
    searched     masters solve_cell searches; the others' ceilings are not
                 above the best total found before them
    nodes        nodes of their smallip.best_of searches (a master settled
                 at the few lattice points of its box has none)
    evaluations  greedy evaluations (_greedy_cut), at lattice corners and
                 at LP points
    cuts         cuts the searches hold, supergradient and P-range rows

and then the verdict.  A last line sums the counters.  Every count is a
count of calls, so it repeats exactly from run to run and host to host.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from blockip import fourblock_snf, generators  # noqa: E402
from blockip.model import Solution  # noqa: E402

COLUMNS = ("yielded", "searched", "nodes", "evaluations", "cuts")


def counts(inst):
    """(the counters of one solve, its verdict)."""
    c = dict.fromkeys(COLUMNS, 0)
    search = fourblock_snf._MasterSearch
    enumerate_cells, solve_cell = fourblock_snf.enumerate_cells, fourblock_snf.solve_cell
    greedy_cut, separate = fourblock_snf._greedy_cut, search.separate

    def masters(*args):
        for master in enumerate_cells(*args):
            c["yielded"] += 1
            yield master

    def searched(master, cutoff=None):
        res = solve_cell(master, cutoff)
        c["searched"] += 1
        c["nodes"] += res.nodes
        return res

    def evaluated(*args):
        c["evaluations"] += 1
        return greedy_cut(*args)

    def cutting(self, num, den, add):
        def held(*row):
            new = add(*row)
            c["cuts"] += new and row not in self.rows
            return new
        return separate(self, num, den, held)

    patches = ((fourblock_snf, "enumerate_cells", masters), (fourblock_snf, "solve_cell", searched),
               (fourblock_snf, "_greedy_cut", evaluated), (search, "separate", cutting))
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    for owner, name, wrapper in patches:
        setattr(owner, name, wrapper)
    try:
        res = fourblock_snf.solve_4block_snf(inst)
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
    verdict = f"optimum {res.objective}" if isinstance(res, Solution) else f"infeasible {res.reason}"
    return c, verdict


def _spec(text):
    out = {}
    for item in text.split(","):
        key, _, value = item.partition("=")
        out[key.strip()] = float(value) if key.strip() == "seeded_rate" else int(value)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    source = ap.add_mutually_exclusive_group(required=True)
    source.add_argument("--list", help="a benchmark list of perfbench/workloads.py")
    source.add_argument("--snf", type=_spec, help="random_snf_instance keywords, k=v,...")
    ap.add_argument("--count", type=int, help="the list's first COUNT instances")
    ap.add_argument("--seeds", default="0", help="comma-separated seeds for --snf")
    args = ap.parse_args(argv)

    if args.list:
        import workloads
        named = [(str(i), inst) for i, inst in enumerate(workloads.generate(args.list, args.count))]
    else:
        named = [(f"seed {s}", generators.random_snf_instance(random.Random(s), **args.snf))
                 for s in map(int, args.seeds.split(","))]
    total = dict.fromkeys(COLUMNS, 0)
    print("instance " + " ".join(f"{name:>11}" for name in COLUMNS) + "  verdict")
    for name, inst in named:
        c, verdict = counts(inst)
        for key in COLUMNS:
            total[key] += c[key]
        print(f"{name:>8} " + " ".join(f"{c[key]:>11}" for key in COLUMNS) + f"  {verdict}", flush=True)
    print(f"{'total':>8} " + " ".join(f"{total[key]:>11}" for key in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
