"""The three structured routes and the LP audits under python -O.

python -O strips every assert, so a check that only asserts would pass
silently there.  The routes' exactness audits, their eligibility rules and
the LP core's audits are explicit raises; this file runs itself under -O as
a script, compares each route's answer with enumerate_optimum using plain
comparisons, checks that each route still refuses with NotEligibleError
what it cannot take (test_model.NOT_ELIGIBLE), and checks that a tampered
LP tableau still raises InternalInconsistencyError (TAMPERED), exiting
nonzero on the first mismatch.

Run directly: ``python -O tests/test_python_O.py``.
"""

import os
import random
import subprocess
import sys

import blockip
from blockip import generators
from blockip.errors import InternalInconsistencyError, NotEligibleError
from blockip.fourblock_snf import solve_4block_snf
from blockip.model import Infeasible, Solution, StructureClass, classify, evaluate
from blockip.nfold_snf import solve_nfold_snf
from blockip.ones import solve_ones
from blockip.oracle import OracleBudget, enumerate_optimum
from blockip.ratlp import OPTIMAL, LpProblem, WarmLp, solve_lp_warm
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


def _flip_reduced_cost(state):
    # x sits at its upper bound with reduced cost 1 (a numerator over D)
    state._simplex.d[0] = -state._simplex.d[0]
    return state


def _shift_value(state):
    s = state._simplex
    s.z += s.D  # z is a numerator over D: the value + 1
    return state


def _inconsistent_rows(state):
    # the row x = 0 in sparse form (support, lo, hi); x = 2 is optimal
    return WarmLp(state._objective, [([(0, 1)], 0, 0)], state._simplex)


# each makes a sound WarmLp of max 2x + y, x + y <= 3, x, y in [0, 2] wrong
TAMPERED = (_flip_reduced_cost, _shift_value, _inconsistent_rows)


def tampered_audit(tamper):
    """Why the audits let tamper through, or None when they raise."""
    res, state = solve_lp_warm(LpProblem.make([2, 1], [([1, 1], 0, 3)], [0, 0], [2, 2]))
    if res.status != OPTIMAL or res.value != 5 or state.edited()[0] != res:
        return f"untampered solve gives {res!r}"
    try:
        got = tamper(state).edited()[0]
    except InternalInconsistencyError:
        return None
    return f"returned {got!r}"


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
    for tamper in TAMPERED:
        why = tampered_audit(tamper)
        if why is not None:
            print(f"{tamper.__name__}: {why}")
            return 1
    print("audits", len(TAMPERED))
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
    assert words[0::2] == ["ones", "nfold_snf", "fourblock_snf", "refused", "audits", "debug"]
    assert words[-1] == "False"  # the asserts really were stripped
    # each route met both verdicts: feasible optima and proven infeasibility
    assert all(PER_ROUTE // 4 <= int(k) < PER_ROUTE for k in words[1:6:2]), words
    assert int(words[7]) == len(NOT_ELIGIBLE)
    assert int(words[9]) == len(TAMPERED)


if __name__ == "__main__":
    sys.exit(main())
