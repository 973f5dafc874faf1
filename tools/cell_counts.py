"""Deterministic counters of the 4-block route's cell search, per instance.

    python3 tools/cell_counts.py --list fourblock-cells [--count N]
    python3 tools/cell_counts.py --snf n=20,s_A=1,t_B=1,s_C=1,scale=1000000 --seeds 0,3

--list takes a benchmark list of perfbench/workloads.py (read, not run),
--snf the keyword arguments of generators.random_snf_instance, drawn once
per seed from random.Random(seed).  Each instance is solved by
fourblock_snf.solve_4block_snf with the search's steps counted around it,
and one line per instance gives:

    cells      cells enumerate_cells yields
    built      cells whose MipProblem the search builds (each when popped)
    settled    built cells accepted at their box corner with no LP
    lp         built cells whose root LP is solved
    rewritten  cells rewritten in lattice coordinates at their first split
    nodes      nodes of smallip.best_of (settled ones included)

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

from blockip import fourblock_snf, generators, smallip  # noqa: E402
from blockip.model import Solution  # noqa: E402

COLUMNS = ("cells", "built", "settled", "lp", "rewritten", "nodes")


def counts(inst):
    """(the counters of one solve, its verdict)."""
    c = dict.fromkeys(COLUMNS, 0)
    built = set()  # ids of the cell LPs the search built
    enumerate_cells, best_of = fourblock_snf.enumerate_cells, fourblock_snf.best_of
    settled, solve_lp_warm, lattice_form = smallip._settled, smallip.solve_lp_warm, smallip._lattice_form

    def cells(*args):
        for cell in enumerate_cells(*args):
            c["cells"] += 1
            yield cell

    def counted(recipe):
        def build():
            mip = recipe()
            built.add(id(mip.lp))
            c["built"] += 1
            return mip
        return build

    def search(roots):
        k, res = best_of([(counted(program), constant, ceiling) for program, constant, ceiling in roots])
        c["nodes"] = res.nodes
        return k, res

    def settle(lp):
        res = settled(lp)
        c["settled"] += res is not None and id(lp) in built
        return res

    def solve(lp):
        c["lp"] += id(lp) in built
        return solve_lp_warm(lp)

    def rewrite(*args):
        c["rewritten"] += 1
        return lattice_form(*args)

    patches = ((fourblock_snf, "enumerate_cells", cells), (fourblock_snf, "best_of", search),
               (smallip, "_settled", settle), (smallip, "solve_lp_warm", solve),
               (smallip, "_lattice_form", rewrite))
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
    print("instance " + " ".join(f"{name:>9}" for name in COLUMNS) + "  verdict")
    for name, inst in named:
        c, verdict = counts(inst)
        for key in COLUMNS:
            total[key] += c[key]
        print(f"{name:>8} " + " ".join(f"{c[key]:>9}" for key in COLUMNS) + f"  {verdict}", flush=True)
    print(f"{'total':>8} " + " ".join(f"{total[key]:>9}" for key in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
