"""Exact simplex checks: frozen cases, exactness audits, float cross-checks."""

import math
import random
from fractions import Fraction

import pytest

from blockip.errors import InternalInconsistencyError, MalformedProblemError
from blockip.ratlp import (
    INFEASIBLE,
    OPTIMAL,
    LpProblem,
    LpResult,
    solve_lp,
    solve_lp_warm,
)

try:  # an independent float reference for the exact answers
    from scipy.optimize import Bounds, LinearConstraint, milp
except ImportError:
    milp = None


def test_box_only_maximum():
    p = LpProblem.make([1], [], [0], [5])
    res = solve_lp(p)
    assert res.status == OPTIMAL
    assert res.value == 5
    assert res.point == (5,)


def test_single_equality():
    p = LpProblem.make([1, 1], [([1, 1], 3, 3)], [0, 0], [2, 2])
    res = solve_lp(p)
    assert res.status == OPTIMAL
    assert res.value == 3


def test_infeasible_equality():
    p = LpProblem.make([1, 1], [([1, 1], 7, 7)], [0, 0], [2, 2])
    assert solve_lp(p).status == INFEASIBLE


def test_fractional_optimum_is_exact():
    # max x + y s.t. 2x + 3y = 4 over [0,1]^2: x=1, y=2/3
    p = LpProblem.make([1, 1], [([2, 3], 4, 4)], [0, 0], [1, 1])
    res = solve_lp(p)
    assert res.status == OPTIMAL
    assert res.value == Fraction(5, 3)
    assert res.point == (Fraction(1), Fraction(2, 3))


def test_negative_bounds_and_degenerate_rows():
    p = LpProblem.make(
        [1, -2, 0],
        [([1, 1, 1], 0, 0), ([2, 2, 2], 0, 0)],  # second row redundant
        [-3, -3, -3],
        [3, 3, 3],
    )
    res = solve_lp(p)
    assert res.status == OPTIMAL
    # x=3, y=-3 gives x - 2y = 9 with z = 0
    assert res.value == 9


def test_malformed_rejected():
    with pytest.raises(MalformedProblemError):
        solve_lp(LpProblem.make([1, 1], [([1], 0, 0)], [0, 0], [1, 1]))
    with pytest.raises(MalformedProblemError):
        solve_lp(LpProblem.make([1], [], [2], [1]))


def test_zero_variable_problem():
    assert solve_lp(LpProblem.make([], [], [], [])).status == OPTIMAL
    assert solve_lp(LpProblem.make([], [([], 0, 0)], [], [])).status == OPTIMAL
    assert solve_lp(LpProblem.make([], [([], 1, 1)], [], [])).status == INFEASIBLE


def random_lp(rng, feasible=True):
    n = rng.randint(1, 6)
    m = rng.randint(0, min(3, n))
    lower = [rng.randint(-5, 2) for _ in range(n)]
    upper = [lo + rng.randint(0, 7) for lo in lower]
    rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
    if feasible:
        seed = [lo + rng.randint(0, up - lo) for lo, up in zip(lower, upper)]
        rhs = [sum(r[j] * seed[j] for j in range(n)) for r in rows]
    else:
        rhs = [rng.randint(-30, 30) for _ in rows]
    obj = [rng.randint(-5, 5) for _ in range(n)]
    return LpProblem.make(obj, [(row, b, b) for row, b in zip(rows, rhs)], lower, upper)


def assert_agrees_with_highs(res, p):
    """res, the exact result for p, against HiGHS on p in floats."""
    rows = p.rows
    out = milp(
        [-float(c) for c in p.objective],
        constraints=LinearConstraint(
            [[float(a) for a in coeffs] for coeffs, _, _ in rows],
            [float(lo) for _, lo, _ in rows],
            [float(hi) for _, _, hi in rows],
        ) if rows else None,
        bounds=Bounds([float(v) for v in p.lower], [float(v) for v in p.upper]),
    )
    if res.status == OPTIMAL:
        assert out.status == 0, f"HiGHS disagrees on feasibility: {out.status}"
        assert abs(float(res.value) - (-out.fun)) < 1e-6 * max(1.0, abs(float(res.value)))
    else:
        assert out.status == 2


def test_random_battery_against_scipy():
    if milp is None:
        pytest.skip("needs scipy.optimize.milp")
    rng = random.Random(500)
    for trial in range(120):
        p = random_lp(rng, feasible=trial % 3 != 0)
        assert_agrees_with_highs(solve_lp(p), p)


def test_exactness_audit_battery():
    rng = random.Random(501)
    for trial in range(150):
        p = random_lp(rng, feasible=trial % 4 != 0)
        res = solve_lp(p)
        if res.status != OPTIMAL:
            continue
        n = len(p.objective)
        assert sum(p.objective[j] * res.point[j] for j in range(n)) == res.value
        for coeffs, lo, hi in p.rows:
            assert lo <= sum(coeffs[j] * res.point[j] for j in range(n)) <= hi
        for j in range(n):
            assert p.lower[j] <= res.point[j] <= p.upper[j]


def with_box(p, j, lo, up):
    """The same program with variable j's box replaced (bypasses validation)."""
    lower = list(p.lower[:j]) + [lo] + list(p.lower[j + 1:])
    upper = list(p.upper[:j]) + [up] + list(p.upper[j + 1:])
    return LpProblem(p.objective, p.rows, lower, upper)


def test_warm_reoptimize_matches_cold_solve():
    # random bound edits of every flavor: tighten, widen, shift, empty
    rng = random.Random(502)
    solved = 0
    for trial in range(250):
        p = random_lp(rng, feasible=trial % 3 != 0)
        if not p.objective:
            continue
        res, state = solve_lp_warm(p)
        cold = solve_lp(p)
        assert res.status == cold.status
        if res.status != OPTIMAL:
            assert state is None
            continue
        assert res.value == cold.value
        for _ in range(3):  # chain several edits through returned states
            j = rng.randrange(len(p.objective))
            nl = rng.randint(-7, 4)
            nu = nl + rng.randint(-2, 9)
            res, nxt = state.reoptimized(j, nl, nu)
            if nl > nu:
                assert res.status == INFEASIBLE and nxt is None
                break
            q = with_box(_current(state, p), j, nl, nu)
            cold = solve_lp(q)
            assert res.status == cold.status
            if res.status != OPTIMAL:
                assert nxt is None
                break
            assert res.value == cold.value
            state = nxt
            solved += 1
    assert solved >= 150


def _current(state, p):
    """Rebuild the LpProblem the warm state currently represents."""
    n = len(p.objective)
    lower = tuple(state.bounds(j)[0] for j in range(n))
    upper = tuple(state.bounds(j)[1] for j in range(n))
    return LpProblem(p.objective, p.rows, lower, upper)


def test_warm_state_serves_both_children():
    # one parent state must answer two different edits of the same variable
    p = LpProblem.make([3, 2, 1], [([1, 1, 1], 4, 4)], [0, 0, 0], [3, 3, 3])
    res, state = solve_lp_warm(p)
    assert res.status == OPTIMAL and res.value == 11  # x=3, y=1
    down, down_state = state.reoptimized(0, 0, 2)
    up, up_state = state.reoptimized(0, 3, 3)
    assert down.status == OPTIMAL and down.value == solve_lp(with_box(p, 0, 0, 2)).value
    assert up.status == OPTIMAL and up.value == solve_lp(with_box(p, 0, 3, 3)).value
    # and the original state still answers for its own bounds
    again, _ = state.reoptimized(0, 0, 3)
    assert again.value == 11


def test_warm_empty_box_is_infeasible():
    p = LpProblem.make([1, 1], [([1, 1], 3, 3)], [0, 0], [2, 2])
    _, state = solve_lp_warm(p)
    res, nxt = state.reoptimized(0, 2, 1)
    assert res.status == INFEASIBLE and nxt is None


def test_warm_tightening_can_cut_all_solutions():
    # x + y = 3 with both boxes squeezed to [0,1] leaves nothing
    p = LpProblem.make([1, 0], [([1, 1], 3, 3)], [0, 0], [2, 2])
    _, state = solve_lp_warm(p)
    res, state = state.reoptimized(0, 0, 1)
    assert res.status == OPTIMAL
    res, nxt = state.reoptimized(1, 0, 1)
    assert res.status == INFEASIBLE and nxt is None


def cold_program(p, ranged, lower, upper):
    """p with boxes replaced and ranged rows lo <= a . x <= hi added, in
    equality form: one extra column per ranged row, a . x - s = 0 with s
    boxed to [lo, hi] and worth nothing."""
    k = len(ranged)
    rows = [(list(coeffs) + [0] * k, lo, hi) for coeffs, lo, hi in p.rows]
    for r, (coeffs, _, _) in enumerate(ranged):
        rows.append((list(coeffs) + [0] * r + [-1] + [0] * (k - r - 1), 0, 0))
    return LpProblem.make(
        list(p.objective) + [0] * k,
        rows,
        list(lower) + [lo for _, lo, _ in ranged],
        list(upper) + [hi for _, _, hi in ranged],
    )


def random_row(rng, n, point):
    """Ranged row around the current point, rounded down to an integer:
    often cuts it off, rarely empty."""
    coeffs = [rng.randint(-3, 3) for _ in range(n)]
    at = math.floor(sum(a * x for a, x in zip(coeffs, point)))
    return coeffs, at - rng.randint(0, 6), at + rng.randint(-2, 4)


def check_against_cold(res, nxt, p, ranged, lower, upper):
    """The warm result res against the cold solve of the same program in
    equality form and, where scipy is installed, against HiGHS on it."""
    empty = any(lo > hi for lo, hi in zip(lower, upper)) or any(lo > hi for _, lo, hi in ranged)
    if empty:
        cold = LpResult(INFEASIBLE)
    else:
        program = cold_program(p, ranged, lower, upper)
        cold = solve_lp(program)
        if milp is not None:
            assert_agrees_with_highs(res, program)
    assert res.status == cold.status
    if res.status != OPTIMAL:
        assert nxt is None
        return False
    assert res.value == cold.value
    return True


def run_edit_chain(rng, p, state, res, ranged, lower, upper):
    """Random row additions and box edits through a chain of warm states,
    starting from state and its result res.

    Returns (re-solves checked, whether the chain ended infeasible).
    """
    n = len(p.objective)
    checked = 0
    for _ in range(6):
        rows = [random_row(rng, n, res.point) for _ in range(rng.choice((0, 1, 1, 2)))]
        boxes = []
        for j in rng.sample(range(n), rng.randint(0 if rows else 1, min(2, n))):
            # shift both ends (tighten, widen or move), now and then empty
            nl = lower[j] + rng.randint(-2, 2)
            nu = nl - 1 if rng.random() < 0.05 else max(nl, upper[j] + rng.randint(-2, 2))
            boxes.append((j, nl, nu))
        last, (res, nxt) = res, state.edited(boxes, rows)
        for j, lo, hi in boxes:
            lower[j], upper[j] = lo, hi
        ranged = ranged + rows
        checked += 1
        if not check_against_cold(res, nxt, p, ranged, lower, upper):
            return checked, True
        # the receiver is untouched: it still answers its own program
        assert state.edited()[0] == last
        state = nxt
    return checked, False


def test_warm_row_and_box_edits_match_cold_solves():
    rng = random.Random(503)
    checked = infeasible = 0
    for trial in range(120):
        p = random_lp(rng, feasible=trial % 4 != 0)
        res, state = solve_lp_warm(p)
        if state is None:
            continue
        c, ended = run_edit_chain(rng, p, state, res, [], list(p.lower), list(p.upper))
        checked += c
        infeasible += ended
    assert checked >= 220 and infeasible >= 60


def test_slack_start_matches_cold_solves_and_chains():
    # ranged rows only: the dual simplex from the all-slack basis alone
    rng = random.Random(504)
    checked = infeasible = 0
    for trial in range(150):
        n = rng.randint(1, 5)
        lower = [rng.randint(-5, 2) for _ in range(n)]
        upper = [lo + rng.randint(0, 7) for lo in lower]
        seed = [lo + rng.randint(0, up - lo) for lo, up in zip(lower, upper)]
        rows = [random_row(rng, n, seed) for _ in range(rng.randint(0, 4))]
        objective = [rng.randint(-5, 5) for _ in range(n)]
        p = LpProblem.make(objective, [], lower, upper)
        res, state = solve_lp_warm(LpProblem.make(objective, rows, lower, upper))
        checked += 1
        if not check_against_cold(res, state, p, rows, lower, upper):
            infeasible += 1
            continue
        c, ended = run_edit_chain(rng, p, state, res, rows, list(lower), list(upper))
        checked += c
        infeasible += ended
    assert checked >= 400 and infeasible >= 100


def test_rows_added_to_a_row_less_solve_match_the_cold_solve():
    # a row enters the tableau one way: edited adding rows to the solve of
    # the box alone must end exactly where the cold solve of the whole
    # program does, on the same result, basis and sides
    rng = random.Random(505)
    statuses = {OPTIMAL: 0, INFEASIBLE: 0}
    for trial in range(300):
        p = random_lp(rng, feasible=trial % 3 != 0)
        if trial % 5 == 0:  # ranged rows too, now and then with an empty range
            rows = [random_row(rng, len(p.objective), p.lower) for _ in range(rng.randint(1, 3))]
            p = LpProblem.make(p.objective, rows, p.lower, p.upper)
        bare, state = solve_lp_warm(LpProblem.make(p.objective, [], p.lower, p.upper))
        assert bare.status == OPTIMAL and state.basis == []
        got, warm = state.edited(rows=p.rows)
        want, cold = solve_lp_warm(p)
        assert got == want
        statuses[got.status] += 1
        if got.status == OPTIMAL:
            assert warm.basis == cold.basis and warm.where == cold.where
        else:
            assert warm is None and cold is None
    assert statuses[OPTIMAL] >= 100 and statuses[INFEASIBLE] >= 50


def reduced_cost(s, j):
    """Nonbasic column j's reduced cost in the tableau s, as a Fraction;
    d holds one per nonbasic column, at the column's position pos[j]."""
    return Fraction(s.d[s.pos[j]], s.D)


def test_unfixed_column_moves_to_the_bound_its_reduced_cost_prefers():
    # max x + 2y, x + y <= 1, x fixed at 1: y enters on the row and leaves x
    # at its upper bound with reduced cost -1, harmless while the box is a
    # point.  Unfixing x must move it to its lower bound, not leave it there.
    p = LpProblem.make([1, 2], [([1, 1], 0, 1)], [1, 0], [1, 1])
    res, state = solve_lp_warm(p)
    assert res.status == OPTIMAL and res.point == (1, 0) and res.value == 1
    assert state.where[0] == "U" and reduced_cost(state, 0) == -1
    res, nxt = state.reoptimized(0, 0, 1)
    cold = solve_lp(with_box(p, 0, 0, 1))
    assert res == cold and res.point == (0, 1) and res.value == 2
    assert nxt.where[0] == "L"


def test_dual_sign_audit_rejects_a_tampered_reduced_cost():
    # y enters on the row; x stays at its upper bound with reduced cost 1
    res, state = solve_lp_warm(LpProblem.make([2, 1], [([1, 1], 0, 3)], [0, 0], [2, 2]))
    assert res.status == OPTIMAL and res.value == 5
    assert state.where[0] == "U" and reduced_cost(state, 0) == 1 and state.lower[0] != state.upper[0]
    assert state.edited()[0] == res
    q = state.pos[0]  # x's position among the nonbasic columns
    state.d[q] = -state.d[q]  # the numerator over D: the sign flips, nothing else
    with pytest.raises(InternalInconsistencyError):
        state.edited()


def test_basis_audit_rejects_columns_that_do_not_split():
    # max 2x + y, x + y <= 3: y is basic, x and the slack are nonbasic
    p = LpProblem.make([2, 1], [([1, 1], 0, 3)], [0, 0], [2, 2])
    res, state = solve_lp_warm(p)
    assert state.basis == [1] and sorted(state.nonbasic) == [0, 2]
    assert [state.pos[j] for j in state.nonbasic] == [0, 1] and state.pos[1] == -1
    assert state.edited()[0] == res

    def swapped(s):  # pos no longer names the positions
        s.nonbasic.reverse()

    def doubled(s):  # the basic column listed as nonbasic too
        s.nonbasic[s.pos[0]] = s.basis[0]

    def unmarked(s):  # a basic column marked as sitting at a bound
        s.where[s.basis[0]] = "L"

    for tamper in (swapped, doubled, unmarked):
        _, state = solve_lp_warm(p)
        tamper(state)
        with pytest.raises(InternalInconsistencyError):
            state.edited()


def test_warm_audit_rejects_an_inconsistent_tableau():
    p = LpProblem.make([1, 1], [([1, 1], 0, 3)], [0, 0], [2, 2])
    res, state = solve_lp_warm(p)
    assert res.status == OPTIMAL and res.value == 3
    # the row x = 0 as (coefficients, lo, hi), which the optimum (1, 2)
    # breaks
    state.rows = [([1, 0], 0, 0)]
    with pytest.raises(InternalInconsistencyError):
        state.edited()
    _, state = solve_lp_warm(p)
    state.z += state.D  # z is a numerator over D: the value + 1
    with pytest.raises(InternalInconsistencyError):
        state.edited()


def test_ranged_rows_checked_for_width():
    with pytest.raises(MalformedProblemError):
        solve_lp_warm(LpProblem.make([1, 1], [([1], 0, 1)], [0, 0], [1, 1]))
    res, state = solve_lp_warm(LpProblem.make([1], [([1], 2, 1)], [0], [5]))
    assert res.status == INFEASIBLE and state is None
    _, state = solve_lp_warm(LpProblem.make([1, 1], [], [0, 0], [1, 1]))
    with pytest.raises(MalformedProblemError):
        state.edited(rows=[([1], 0, 1)])


def test_box_edits_checked_for_index():
    # max x + y over 0 <= x + y <= 10, x and y in [0, 5]: index 2 is the
    # row's slack, -1 would wrap to it, 7 is past every column
    res, state = solve_lp_warm(LpProblem.make([1, 1], [([1, 1], 0, 10)], [0, 0], [5, 5]))
    assert res.status == OPTIMAL and res.value == 10
    # 1.0 and True equal the column index 1 but are not ints
    for box in ((2, 5, 5), (-1, 0, 0), (7, 0, 0), (1.0, 0, 1), (True, 0, 1)):
        with pytest.raises(MalformedProblemError):
            state.edited(boxes=[box])
    assert state.edited(boxes=[(1, 0, 0)])[0].value == 5


@pytest.mark.parametrize("bad", [1.0, Fraction(1), True], ids=["float", "Fraction", "bool"])
@pytest.mark.parametrize("place", ["objective", "row coefficient", "row bound", "box bound"])
def test_entries_must_be_ints(place, bad):
    # max x + y over 0 <= x + y <= 3, x and y in [0, 2], with bad put in
    # place; bad equals 1, so only its type is wrong
    objective = [bad, 1] if place == "objective" else [1, 1]
    row = ([bad, 1] if place == "row coefficient" else [1, 1], bad if place == "row bound" else 0, 3)
    box = (bad if place == "box bound" else 0, 2)
    with pytest.raises(MalformedProblemError):
        LpProblem.make(objective, [row], [box[0], 0], [box[1], 2])
    res, state = solve_lp_warm(LpProblem.make([1, 1], [([1, 1], 0, 3)], [0, 0], [2, 2]))
    assert res.status == OPTIMAL and res.value == 3
    if place != "objective":  # edits take boxes and rows, not costs
        with pytest.raises(MalformedProblemError):
            state.edited([(0, *box)], [row])
    if place == "box bound":  # and reoptimized a box alone, at either end
        for lo, hi in ((bad, 2), (0, bad)):
            with pytest.raises(MalformedProblemError):
                state.reoptimized(0, lo, hi)
    # bounds hands back the ints it holds, before and after an edit
    _, nxt = state.reoptimized(0, 1, 2)
    for s, box0 in ((state, (0, 2)), (nxt, (1, 2))):
        assert s.bounds(0) == box0 and s.bounds(1) == (0, 2)
        assert all(type(v) is int for v in s.bounds(0) + s.bounds(1))


@pytest.mark.parametrize("bad", [1.5, Fraction(1, 2), True], ids=["float", "Fraction", "bool"])
@pytest.mark.parametrize("place", ["objective", "row coefficient", "row bound", "box bound"])
def test_constructor_checks_entries(place, bad):
    # the dataclass constructor checks as make does, so no path lets a
    # non-int reach the integer tableau
    objective = [bad] if place == "objective" else [1]
    row = ([bad] if place == "row coefficient" else [1], bad if place == "row bound" else 0, 3)
    lower = [bad] if place == "box bound" else [0]
    with pytest.raises(MalformedProblemError):
        LpProblem(objective, [row], lower, [2])
    assert solve_lp(LpProblem([1], [([1], 0, 3)], [0], [2])).value == 2
