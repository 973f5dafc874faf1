"""The three structured routes and the LP audits under python -O.

python -O strips every assert, so a check that only asserts would pass
silently there.  The routes' exactness audits, their eligibility rules and
the LP core's audits are explicit raises; this file runs itself under -O as
a script, compares each route's answer with enumerate_optimum using plain
comparisons, checks that each route still refuses with NotEligibleError
what it cannot take (model_cases.NOT_ELIGIBLE), that classify and each
route raise MalformedProblemError on malformed input of either instance
kind or on no instance (model_cases.MALFORMED), and that a tampered
LP tableau still raises InternalInconsistencyError (TAMPERED), that the
transport certificate rejects each wrong flow (WRONG_FLOWS), that an
LpProblem or a TransportProblem built directly with a non-int entry, and
each call of model_cases.UNTYPED_CALLS, raises MalformedProblemError
(UNTYPED), and that the 4-block integer screen yields
the cells of tests/fourblock_reference.py in their order, dropping only
cells whose MIP is infeasible (SCREENED instances), exiting nonzero on the
first mismatch.

Run directly: ``python -O tests/test_python_O.py`` (it puts ``src`` on the
path itself, so no install is needed).
"""

import os
import random
import subprocess
import sys

# run as a script, the package is found under src/ without an install
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import blockip  # noqa: E402
import fourblock_reference  # noqa: E402
from blockip import generators  # noqa: E402
from blockip.errors import InternalInconsistencyError, MalformedProblemError, NotEligibleError  # noqa: E402
from blockip.flow import TransportProblem, TransportResult  # noqa: E402
from blockip.fourblock_snf import _prepare, enumerate_cells, solve_4block_snf, solve_cell  # noqa: E402
from blockip.model import Infeasible, Solution, StructureClass, classify, evaluate  # noqa: E402
from blockip.nfold_snf import solve_nfold_snf  # noqa: E402
from blockip.ones import _transport_duals, solve_ones  # noqa: E402
from blockip.oracle import OracleBudget, enumerate_optimum  # noqa: E402
from blockip.ratlp import INFEASIBLE, OPTIMAL, LpProblem, solve_lp_warm  # noqa: E402
from model_cases import MALFORMED, NOT_ELIGIBLE, SOLVERS, UNTYPED_CALLS  # noqa: E402


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
    # x sits at its upper bound with reduced cost 1 (a numerator over D),
    # held at x's position among the nonbasic columns
    q = state.pos[0]
    state.d[q] = -state.d[q]
    return state


def _shift_value(state):
    state.z += state.D  # z is a numerator over D: the value + 1
    return state


def _inconsistent_rows(state):
    # the row x = 0 as (coefficients, lo, hi); x = 2 is optimal
    state.rows = [([1, 0], 0, 0)]
    return state


def _misplaced_nonbasic(state):
    # x and the row's slack are nonbasic; swapping them in nonbasic leaves
    # pos, and the reduced cost and row entries held by position, wrong
    state.nonbasic.reverse()
    return state


# each makes a sound WarmLp of max 2x + y, x + y <= 3, x, y in [0, 2] wrong
TAMPERED = (_flip_reduced_cost, _shift_value, _inconsistent_rows, _misplaced_nonbasic)

# max 3a + b + 2d over a 2 x 2 transport with unit totals and boxes [0, 1],
# whose optimum is ((1, 0), (0, 1)) worth 5; each wrong result breaks one
# check of the transport certificate
TRANSPORT = TransportProblem.make([1, 1], [1, 1], [[0, 0], [0, 0]], [[1, 1], [1, 1]], [[3, 1], [0, 2]])
WRONG_FLOWS = (
    TransportResult(((2, -1), (-1, 2)), 5),  # leaves the boxes
    TransportResult(((1, 1), (0, 0)), 4),  # misses the row totals
    TransportResult(((1, 0), (1, 0)), 3),  # misses the column totals
    TransportResult(((1, 0), (0, 1)), 6),  # objective overstated
    TransportResult(((0, 1), (1, 0)), 1),  # feasible but worse: a negative residual cycle
)

# (constructor or function, arguments), each with an argument or entries
# of the wrong type
UNTYPED = (
    (LpProblem, ([1.5], [], [0], [1])),
    (TransportProblem, ((1.5,), (1.5,), ((0,),), ((2,),), ((0.5,),))),
) + tuple(case[1:] for case in UNTYPED_CALLS)


# 4-block instances on which the screen's dropped cells are checked
SCREENED = 40


def screen_unsound(rng):
    """(why the screen drops a cell it may not, or None; cells dropped).

    The package's cells must be the reference's in the same order with some
    removed, and each removed cell's MIP must be infeasible.
    """
    dropped = 0
    for trial in range(SCREENED):
        inst = generators.random_snf_instance(
            rng, n=rng.randint(10, 40), s_A=rng.choice((1, 2)), t_B=rng.randint(1, 2),
            s_C=1, seeded_rate=0.9)
        prepared = _prepare(inst)
        if prepared is None or isinstance(prepared, Infeasible):
            continue
        cells = fourblock_reference.screened_out(
            list(enumerate_cells(inst, *prepared)),
            list(fourblock_reference.enumerate_cells(inst, *prepared)))
        if cells is None:
            return f"trial {trial}: a cell the reference does not yield, or out of its order", dropped
        if any(solve_cell(cell).status != INFEASIBLE for cell in cells):
            return f"trial {trial}: dropped a cell with an integer point", dropped
        dropped += len(cells)
    return None, dropped


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
    for what, inst in MALFORMED:
        for solve in (classify,) + SOLVERS:
            try:
                got = solve(inst)
            except MalformedProblemError:
                continue
            print(f"{solve.__name__} on {what}: returned {got!r}")
            return 1
    print("malformed", len(MALFORMED))
    for tamper in TAMPERED:
        why = tampered_audit(tamper)
        if why is not None:
            print(f"{tamper.__name__}: {why}")
            return 1
    print("audits", len(TAMPERED))
    for res in WRONG_FLOWS:
        try:
            _transport_duals(TRANSPORT, res)
        except InternalInconsistencyError:
            continue
        print(f"transport certificate accepted {res!r}")
        return 1
    print("transports", len(WRONG_FLOWS))
    for make, args in UNTYPED:
        try:
            got = make(*args)
        except MalformedProblemError:
            continue
        print(f"{make.__name__}{args}: built {got!r}")
        return 1
    print("untyped", len(UNTYPED))
    why, dropped = screen_unsound(random.Random("python-O/screen"))
    if why is not None:
        print(f"screen: {why}")
        return 1
    print("screened", dropped)
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
    assert words[0::2] == [
        "ones", "nfold_snf", "fourblock_snf", "refused", "malformed", "audits", "transports",
        "untyped", "screened", "debug"]
    assert words[-1] == "False"  # the asserts really were stripped
    # each route met both verdicts: feasible optima and proven infeasibility
    assert all(PER_ROUTE // 4 <= int(k) < PER_ROUTE for k in words[1:6:2]), words
    assert int(words[7]) == len(NOT_ELIGIBLE)
    assert int(words[9]) == len(MALFORMED)
    assert int(words[11]) == len(TAMPERED)
    assert int(words[13]) == len(WRONG_FLOWS)
    assert int(words[15]) == len(UNTYPED)
    assert int(words[17]) >= 1  # the screen really dropped cells to check


if __name__ == "__main__":
    sys.exit(main())
