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
transport certificate rejects each wrong flow and each optimal flow with
one column price moved by 1 (WRONG_FLOWS), that the blocking-set check
rejects each column set that does not prove a transport infeasible
(WRONG_BLOCKS), that the all-ones route raises from _transport_duals when a
transport is re-solved from a tampered start state (HELD instances), that an
LpProblem or a TransportProblem built directly with a non-int entry, and
each call of model_cases.UNTYPED_CALLS, raises MalformedProblemError
(UNTYPED), that the 4-block integer screen yields
the cells of tests/fourblock_reference.py in their order, each kept cell's
LP over a sub-box of its reference cell's with the same optimum, dropping
only cells whose MIP is infeasible (SCREENED instances), that a cell
root settled at its box corner gets the LP's own result, that a corner
breaking a row goes to the LP, and that the search builds each cell at
most once and only when it pops it (SETTLED instances), and that each
route and the oracle raise when evaluate reports a wrong objective for the
point they return (EXITS), exiting nonzero on the first mismatch.

Run directly: ``python -O tests/test_python_O.py`` (it puts ``src`` on the
path itself, so no install is needed).
"""

import dataclasses
import itertools
import os
import random
import subprocess
import sys

# run as a script, the package is found under src/ without an install
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import blockip  # noqa: E402
import fourblock_reference  # noqa: E402
from blockip import fourblock_snf, generators, nfold_snf, ones, oracle, smallip  # noqa: E402
from blockip.errors import (  # noqa: E402
    InternalInconsistencyError,
    MalformedProblemError,
    NotEligibleError,
)
from blockip.flow import Blocked, TransportProblem, TransportResult, solve_transport  # noqa: E402
from blockip.fourblock_snf import _prepare, enumerate_cells, solve_4block_snf  # noqa: E402
from blockip.model import Infeasible, Solution, StructureClass, classify, evaluate  # noqa: E402
from blockip.nfold_snf import solve_nfold_snf  # noqa: E402
from blockip.ones import _blocking_pair, _transport_duals, solve_ones  # noqa: E402
from blockip.oracle import OracleBudget, enumerate_optimum  # noqa: E402
from blockip.ratlp import OPTIMAL, LpProblem, solve_lp_warm  # noqa: E402
from blockip.smallip import MipProblem, _settled, best_of  # noqa: E402
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
# whose optimum is ((1, 0), (0, 1)) worth 5 at column prices (0, 0)
TRANSPORT = TransportProblem.make([1, 1], [1, 1], [[0, 0], [0, 0]], [[1, 1], [1, 1]], [[3, 1], [0, 2]])
# one row of total 2 over boxes [0, 2], column totals 1 and 1, profits 3 and
# 1: both cells sit strictly inside their boxes, so the optimal column
# prices are fixed up to a common shift, and moving one alone by 1 makes
# the dual value exceed the objective
TIGHT = TransportProblem.make([2], [1, 1], [[0, 0]], [[2, 2]], [[3, 1]])


def _moved_price(p, h, step):
    """p's optimal flow with column price h moved by step."""
    best = solve_transport(p)
    prices = list(best.prices)
    prices[h] += step
    return TransportResult(best.cells, best.objective, tuple(prices))


# (problem, result): each wrong result breaks one check of the transport
# certificate
WRONG_FLOWS = tuple((TRANSPORT, res) for res in (
    TransportResult(((2, -1), (-1, 2)), 5, (0, 0)),  # leaves the boxes
    TransportResult(((1, 1), (0, 0)), 4, (0, 0)),  # misses the row totals
    TransportResult(((1, 0), (1, 0)), 3, (0, 0)),  # misses the column totals
    TransportResult(((1, 0), (0, 1)), 6, (0, 0)),  # objective overstated
    TransportResult(((0, 1), (1, 0)), 1, (0, 0)),  # feasible but worse
    TransportResult(((1, 0), (0, 1)), 5, (0,)),  # one price short
    TransportResult(((1, 0), (0, 1)), 5, (0, 0.0)),  # a price that is no int
)) + tuple((TIGHT, _moved_price(TIGHT, h, step)) for h in range(2) for step in (1, -1))

# two rows of total 2 over boxes [0, 1], column totals 3 and 1: the greedy
# fill puts a unit of each row in each column, and no row can move one from
# column 1 to the full column 0, so the search from column 1's surplus
# settles only column 1, the one set of columns that blocks
SHORT = TransportProblem.make([2, 2], [3, 1], [[0, 0], [0, 0]], [[1, 1], [1, 1]], [[0, 0], [0, 0]])
# each names a column set of SHORT that does not block, or none
WRONG_BLOCKS = tuple(Blocked("NoAugmentingPath", cols) for cols in ((), (0,), (0, 1), None))

# all-ones instances whose route must reject a transport re-solved from a
# tampered start state
HELD = 5


def _moved_units(start, cap):
    """start with one unit of a fill row moved between two columns, inside
    the row's boxes, and with the column sums and objective left as they
    were, for each row and pair of columns that can move one."""
    for j, zj in enumerate(start.fill):
        for h, g in itertools.permutations(range(len(zj)), 2):
            if zj[h] > 0 and zj[g] < cap[j][g]:
                fill, cells = list(start.fill), list(start.cells)
                for rows in (fill, cells):
                    row = list(rows[j])
                    row[h] -= 1
                    row[g] += 1
                    rows[j] = tuple(row)
                yield dataclasses.replace(start, fill=tuple(fill), cells=tuple(cells))


def held_start_unchecked():
    """(why the all-ones route accepts a transport re-solved from a tampered
    start state, or None; instances checked).

    ones.solve_transport is wrapped: at the first feasible transport of a
    solve, the wrapper replaces the table's start state by a tampered one
    (_moved_units) and solves again from it, keeping the first tampered
    state whose transport comes out feasible.  The route must then raise
    InternalInconsistencyError from _transport_duals: the certificate, not
    the held state, vouches for every transport.
    """
    real = ones.solve_transport
    tampered = []

    def tamper_then_solve(p):
        res = real(p)
        if tampered or not isinstance(res, TransportResult):
            return res
        start = p.table.start
        for moved in _moved_units(start, p.table.cap):
            object.__setattr__(p.table, "start", moved)
            got = real(p)
            if isinstance(got, TransportResult):
                tampered.append(p)
                return got
        object.__setattr__(p.table, "start", start)
        return res

    rng = random.Random("python-O/held")
    checked = 0
    ones.solve_transport = tamper_then_solve
    try:
        for trial in range(20 * HELD):
            inst = generators.random_ones_instance(rng, n=rng.randint(2, 8), t_A=rng.randint(2, 3))
            tampered.clear()
            try:
                got = solve_ones(inst)
            except InternalInconsistencyError as e:
                tb = e.__traceback__
                while tb.tb_next is not None:
                    tb = tb.tb_next
                if tb.tb_frame.f_code.co_name != "_transport_duals":
                    return f"trial {trial}: raised from {tb.tb_frame.f_code.co_name}", checked
                checked += 1
                if checked == HELD:
                    return None, checked
                continue
            if tampered:
                return f"trial {trial}: returned {got!r} from a tampered start", checked
    finally:
        ones.solve_transport = real
    return f"only {checked} instances met a feasible transport with a unit to move", checked


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
    removed, each kept cell's LP box must lie in its reference cell's box
    with the same optimum, and each removed cell's MIP must be infeasible.
    """
    dropped = 0
    for trial in range(SCREENED):
        inst = generators.random_snf_instance(
            rng, n=rng.randint(10, 40), s_A=rng.choice((1, 2)), t_B=rng.randint(1, 2),
            s_C=1, seeded_rate=0.9)
        prepared = _prepare(inst)
        if prepared is None or isinstance(prepared, Infeasible):
            continue
        why, k = fourblock_reference.screen_fault(
            list(enumerate_cells(inst, *prepared)),
            list(fourblock_reference.enumerate_cells(inst, *prepared)))
        if why is not None:
            return f"trial {trial}: {why}", dropped
        dropped += k
    return None, dropped


# 4-block instances whose cells are settled and built by the search
SETTLED = 10


def settle_unsound(rng):
    """(why settling or building a cell goes wrong, or None; roots settled).

    Each cell LP that _settled takes at its box corner must be solve_lp_warm's
    own result, and a corner that breaks a row must go to the LP: max x + y
    over [0, 1]^2 with x + y <= 1 is worth 1, not the corner's 2.  The
    search over the cells' recipes must call each recipe it builds only
    when it pops that root, so it builds at most as many cells as it tries
    to settle, and never one twice.
    """
    tied = MipProblem.make(LpProblem.make([1, 1], [([1, 1], 0, 1)], [0, 0], [1, 1]), [True, True])
    got = best_of([(tied, 0, 2)])[1]
    if _settled(tied.lp) is not None or got.value != 1:
        return f"a corner that breaks its row gives {got!r}", 0
    settled = 0
    real = smallip._settled
    popped = []
    smallip._settled = lambda lp: popped.append(None) or real(lp)
    try:
        for trial in range(SETTLED):
            inst = generators.random_snf_instance(rng, n=40, s_A=1, t_B=1, s_C=1, seeded_rate=0.9)
            prepared = _prepare(inst)
            if not isinstance(prepared, tuple):
                continue
            cells = list(enumerate_cells(inst, *prepared))
            builds = []
            roots = [(lambda r=cell.recipe: builds.append(r) or r(), cell.constant, cell.ceiling)
                     for cell in cells]
            del popped[:]
            best_of(roots)
            if len(builds) > len(popped) or len(set(map(id, builds))) != len(builds):
                return f"trial {trial}: {len(builds)} cells built, {len(popped)} popped", settled
            for cell in cells:
                lp = cell.mip.lp
                res = real(lp)
                if res is not None:
                    if res != solve_lp_warm(lp)[0] or res.den != 1:
                        return f"trial {trial}: settled {res!r} is not the LP's result", settled
                    settled += 1
    finally:
        smallip._settled = real
    return None, settled


def _off_by_one(evaluate):
    """evaluate with every objective reported one too high."""
    def wrong(inst, x):
        report = evaluate(inst, x)
        return dataclasses.replace(report, objective=report.objective + 1)
    return wrong


# (module whose evaluate is patched, its solver, seeded instance maker): each
# returns through model.checked_solution, which must raise
# InternalInconsistencyError when evaluate disowns the point
EXITS = (
    (ones, solve_ones, _ones),
    (nfold_snf, solve_nfold_snf, _nfold),
    (fourblock_snf, solve_4block_snf, _snf),
    (oracle, enumerate_optimum, _snf),
)


def exit_unchecked(module, solve, make):
    """Why solve returns a point that its module's evaluate disowns, or None.

    The instance is the first of make's seeded draws that solve finds
    feasible, so the exit check is reached.
    """
    rng = random.Random(f"python-O/exit/{solve.__name__}")
    inst = make(rng)
    while not isinstance(solve(inst), Solution):
        inst = make(rng)
    saved = module.evaluate
    module.evaluate = _off_by_one(saved)
    try:
        got = solve(inst)
    except InternalInconsistencyError:
        return None
    finally:
        module.evaluate = saved
    return f"returned {got!r}"


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
    for p in (TRANSPORT, TIGHT):
        _transport_duals(p, solve_transport(p))  # the optimal flow passes
    for p, res in WRONG_FLOWS:
        try:
            _transport_duals(p, res)
        except InternalInconsistencyError:
            continue
        print(f"transport certificate accepted {res!r}")
        return 1
    print("transports", len(WRONG_FLOWS))
    got = solve_transport(SHORT)
    if got != Blocked("NoAugmentingPath", (1,)):
        print(f"blocking set of {SHORT!r}: {got!r}")
        return 1
    _blocking_pair(SHORT, got)  # the flow's own set passes
    for blocked in WRONG_BLOCKS:
        try:
            _blocking_pair(SHORT, blocked)
        except InternalInconsistencyError:
            continue
        print(f"blocking-set check accepted {blocked!r}")
        return 1
    print("blocks", len(WRONG_BLOCKS))
    why, checked = held_start_unchecked()
    if why is not None:
        print(f"held start: {why}")
        return 1
    print("held", checked)
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
    why, settled = settle_unsound(random.Random("python-O/settle"))
    if why is not None:
        print(f"settle: {why}")
        return 1
    print("settled", settled)
    for case in EXITS:
        why = exit_unchecked(*case)
        if why is not None:
            print(f"{case[1].__name__} exit: {why}")
            return 1
    print("exits", len(EXITS))
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
        "blocks", "held", "untyped", "screened", "settled", "exits", "debug"]
    assert words[-1] == "False"  # the asserts really were stripped
    # each route met both verdicts: feasible optima and proven infeasibility
    assert all(PER_ROUTE // 4 <= int(k) < PER_ROUTE for k in words[1:6:2]), words
    assert int(words[7]) == len(NOT_ELIGIBLE)
    assert int(words[9]) == len(MALFORMED)
    assert int(words[11]) == len(TAMPERED)
    assert int(words[13]) == len(WRONG_FLOWS)
    assert int(words[15]) == len(WRONG_BLOCKS)
    assert int(words[17]) == HELD
    assert int(words[19]) == len(UNTYPED)
    assert int(words[21]) >= 1  # the screen really dropped cells to check
    assert int(words[23]) >= 1  # some cell roots really were settled
    assert int(words[25]) == len(EXITS)


if __name__ == "__main__":
    sys.exit(main())
