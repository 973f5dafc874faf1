"""Cross-route battery: every structured route that takes an instance agrees.

With the brick matrix A = (1, 1) an instance is eligible for more than one
route: ones (an all-ones brick row), fourblock_snf (t_A = s_A + 1, any t_B)
and, when there are no shared columns (t_B = 0), nfold_snf.  Each case is
a seeded random_ones_instance with t_A = 2; the grid covers t_B in {0, 1, 2},
s_C in {0, 1, 2} and scale in {1, 10^2, 10^6, 10^30}, one seed each, and the
family random_ones_instance(Random(s), n=6, t_A=2, t_B=1, seeded_rate=0.9,
scale=10^30) adds seeds 0-5.  Every eligible route must give the same verdict
and the same objective, and every point returned is re-checked by evaluate.

Cases are drawn by seed and never chosen by solve time.  Each case runs
under one alarm of ALARM_S seconds for all its routes, and every case
finishes under it.  The alarm sits more than 10x away from every case's
time: when measured, every route took at most 10 ms on every case.  The
slowest is fourblock_snf at t_B = 2 or at 10^6 and above, 5-10 ms, where
a cell's integer points form a sparse lattice in a wide box; it branches
each such cell in the lattice coordinates of its equality rows.

Run as a script, ``python tests/test_cross_routes.py [seconds]`` prints
each route's time per case, each route under its own alarm of the given
seconds (60 by default), so the margins above can be re-measured.
"""

import os
import random
import sys

import pytest
from alarm import CaseTimeout, timed

# run as a script, the package is found under src/ without an install
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from blockip import generators  # noqa: E402
from blockip.fourblock_snf import solve_4block_snf  # noqa: E402
from blockip.model import Solution, evaluate  # noqa: E402
from blockip.nfold_snf import solve_nfold_snf  # noqa: E402
from blockip.ones import solve_ones  # noqa: E402

ALARM_S = 2.0
SCALES = (1, 10**2, 10**6, 10**30)


def _grid(t_B, s_C, scale):
    rng = random.Random(f"cross-routes/{t_B}/{s_C}/{scale}")
    return generators.random_ones_instance(
        rng, n=6, t_A=2, t_B=t_B, s_C=s_C, scale=scale, seeded_rate=0.9)


def _family(seed):
    return generators.random_ones_instance(
        random.Random(seed), n=6, t_A=2, t_B=1, seeded_rate=0.9, scale=10**30)


# case id -> (maker, its arguments)
CASES = {f"tB{t_B}-sC{s_C}-1e{len(str(scale)) - 1}": (_grid, (t_B, s_C, scale))
         for t_B in range(3) for s_C in range(3) for scale in SCALES}
CASES.update({f"family-1e30-seed{seed}": (_family, (seed,)) for seed in range(6)})


def routes(inst):
    """(name, solver) of every route eligible for a t_A = 2 all-ones instance."""
    eligible = [("ones", solve_ones), ("fourblock_snf", solve_4block_snf)]
    if inst.t_B == 0:
        eligible.append(("nfold_snf", solve_nfold_snf))
    return eligible


def disagreement(inst, results):
    """Why the routes' results disagree or a point fails evaluate, or None."""
    verdicts = {name: type(res).__name__ for name, res in results.items()}
    if len(set(verdicts.values())) > 1:
        return f"verdicts differ: {verdicts}"
    objectives = {name: res.objective for name, res in results.items() if isinstance(res, Solution)}
    if len(set(objectives.values())) > 1:
        return f"objectives differ: {objectives}"
    for name, res in results.items():
        if isinstance(res, Solution):
            report = evaluate(inst, res.x)
            if not report.feasible or report.objective != res.objective:
                return f"{name}'s point is infeasible or worth {report.objective}"
    return None


@pytest.mark.parametrize("case", list(CASES))
def test_routes_agree(case):
    make, args = CASES[case]
    inst = make(*args)

    def solve_all(inst):
        return {name: solve(inst) for name, solve in routes(inst)}

    results, _ = timed(solve_all, inst, ALARM_S)
    why = disagreement(inst, results)
    assert why is None, why


def test_the_cases_reach_both_verdicts():
    # neither the verdict check nor the objective check is vacuous
    verdicts = {case: type(solve_ones(make(*args))).__name__
                for case, (make, args) in CASES.items()}
    assert set(verdicts.values()) == {"Solution", "Infeasible"}, verdicts


if __name__ == "__main__":
    seconds = float(sys.argv[1]) if len(sys.argv) > 1 else 60.0
    for case, (make, args) in CASES.items():
        inst = make(*args)
        cells = []
        for name, solve in routes(inst):
            try:
                res, took = timed(solve, inst, seconds)
                cells.append(f"{name} {1000 * took:.1f} ms {type(res).__name__}")
            except CaseTimeout:
                cells.append(f"{name} > {seconds:g} s")
        print(f"{case}: " + ", ".join(cells), flush=True)
