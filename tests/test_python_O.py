"""The three structured routes under python -O, against the oracle.

python -O strips every assert, so a check that only asserts would pass
silently there.  The routes' exactness audits and their eligibility rules
are explicit raises; this file runs itself under -O as a script, compares
each route's answer with enumerate_optimum using plain comparisons, and
checks that each route still refuses with NotEligibleError what it cannot
take (test_model.NOT_ELIGIBLE), exiting nonzero on the first mismatch.

Run directly: ``python -O tests/test_python_O.py``.
"""

import os
import random
import subprocess
import sys

import blockip
from blockip import generators
from blockip.errors import NotEligibleError
from blockip.fourblock_snf import solve_4block_snf
from blockip.model import Infeasible, Solution, StructureClass, classify, evaluate
from blockip.nfold_snf import solve_nfold_snf
from blockip.ones import solve_ones
from blockip.oracle import OracleBudget, enumerate_optimum
from test_model import NOT_ELIGIBLE


def _ones(rng):
    return generators.random_ones_instance(
        rng, n=rng.randint(0, 4), t_A=rng.randint(1, 3), t_B=rng.randint(0, 3),
        s_C=rng.randint(0, 2), width=3, coeff=3)


def _nfold(rng):
    return generators.random_nfold_instance(
        rng, n=rng.randint(1, 4), t_A=rng.randint(2, 3), s_C=rng.randint(0, 1), width=3)


def _snf(rng):
    return generators.random_snf_instance(
        rng, n=rng.randint(1, 3), t_B=rng.randint(1, 2), s_C=rng.randint(0, 1), width=2)


# (route name, structure class, solver, seeded instance maker)
ROUTES = (
    ("ones", StructureClass.ALL_ONES_ROW, solve_ones, _ones),
    ("nfold_snf", StructureClass.NFOLD_SNF_ELIGIBLE, solve_nfold_snf, _nfold),
    ("fourblock_snf", StructureClass.SNF_ELIGIBLE, solve_4block_snf, _snf),
)
PER_ROUTE = 100


def check(inst, cls, solve):
    """(why the route's answer differs from the oracle's or None, feasible)."""
    if classify(inst) != cls:
        return f"classified {classify(inst).value}", False
    want = enumerate_optimum(inst, OracleBudget(10 ** 6))
    got = solve(inst)
    if isinstance(want, Infeasible):
        return (None if isinstance(got, Infeasible) else f"{got!r} where the oracle finds none"), False
    if not isinstance(got, Solution):
        return f"{got!r} where the oracle finds {want.objective}", True
    report = evaluate(inst, got.x)
    if not report.feasible or report.objective != got.objective:
        return f"returned point is infeasible or worth {report.objective}, not {got.objective}", True
    if got.objective != want.objective:
        return f"objective {got.objective}, oracle {want.objective}", True
    return None, True


def main() -> int:
    for name, cls, solve, make in ROUTES:
        rng = random.Random(f"python-O/{name}")
        feasible = 0
        for trial in range(PER_ROUTE):
            why, ok = check(make(rng), cls, solve)
            if why is not None:
                print(f"{name} trial {trial}: {why}")
                return 1
            feasible += ok
        print(name, feasible)
    for k, (name, solve, inst) in enumerate(NOT_ELIGIBLE):
        try:
            got = solve(inst)
        except NotEligibleError:
            continue
        print(f"{name} refusal {k}: returned {got!r}")
        return 1
    print("refused", len(NOT_ELIGIBLE))
    print("debug", __debug__)
    return 0


def test_whole_battery_under_python_O():
    src = os.path.dirname(os.path.dirname(os.path.abspath(blockip.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-O", os.path.abspath(__file__)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    words = out.stdout.split()
    assert words[0::2] == ["ones", "nfold_snf", "fourblock_snf", "refused", "debug"]
    assert words[-1] == "False"  # the asserts really were stripped
    # each route met both verdicts: feasible optima and proven infeasibility
    assert all(PER_ROUTE // 4 <= int(k) < PER_ROUTE for k in words[1:-4:2]), words
    assert int(words[-3]) == len(NOT_ELIGIBLE)


if __name__ == "__main__":
    sys.exit(main())
