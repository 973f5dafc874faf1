"""Exact simplex checks: frozen cases, exactness audits, float cross-checks."""

import random
from fractions import Fraction

import pytest

from blockip.errors import MalformedProblemError
from blockip.ratlp import INFEASIBLE, OPTIMAL, LpProblem, LpResult, solve_lp, solve_lp_warm


def test_box_only_maximum():
    p = LpProblem.make([1], [], [], [0], [5])
    res = solve_lp(p)
    assert res.status == OPTIMAL
    assert res.value == 5
    assert res.point == (5,)


def test_single_equality():
    p = LpProblem.make([1, 1], [[1, 1]], [3], [0, 0], [2, 2])
    res = solve_lp(p)
    assert res.status == OPTIMAL
    assert res.value == 3


def test_infeasible_equality():
    p = LpProblem.make([1, 1], [[1, 1]], [7], [0, 0], [2, 2])
    assert solve_lp(p).status == INFEASIBLE


def test_fractional_optimum_is_exact():
    # max x + y s.t. 2x + 3y = 4 over [0,1]^2: x=1, y=2/3
    p = LpProblem.make([1, 1], [[2, 3]], [4], [0, 0], [1, 1])
    res = solve_lp(p)
    assert res.status == OPTIMAL
    assert res.value == Fraction(5, 3)
    assert res.point == (Fraction(1), Fraction(2, 3))


def test_negative_bounds_and_degenerate_rows():
    p = LpProblem.make(
        [1, -2, 0],
        [[1, 1, 1], [2, 2, 2]],  # second row redundant
        [0, 0],
        [-3, -3, -3],
        [3, 3, 3],
    )
    res = solve_lp(p)
    assert res.status == OPTIMAL
    # x=3, y=-3 gives x - 2y = 9 with z = 0
    assert res.value == 9


def test_malformed_rejected():
    with pytest.raises(MalformedProblemError):
        solve_lp(LpProblem.make([1, 1], [[1]], [0], [0, 0], [1, 1]))
    with pytest.raises(MalformedProblemError):
        solve_lp(LpProblem.make([1], [], [], [2], [1]))


def test_zero_variable_problem():
    assert solve_lp(LpProblem.make([], [], [], [], [])).status == OPTIMAL
    assert solve_lp(LpProblem.make([], [[]], [1], [], [])).status == INFEASIBLE


def random_lp(rng, feasible=True):
    n = rng.randint(1, 6)
    m = rng.randint(0, min(3, n))
    lower = [Fraction(rng.randint(-5, 2)) for _ in range(n)]
    upper = [lo + rng.randint(0, 7) for lo in lower]
    rows = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
    if feasible:
        seed = [lo + Fraction(rng.randint(0, int(up - lo))) for lo, up in zip(lower, upper)]
        rhs = [sum(r[j] * seed[j] for j in range(n)) for r in rows]
    else:
        rhs = [Fraction(rng.randint(-30, 30)) for _ in rows]
    obj = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
    return LpProblem.make(obj, rows, rhs, lower, upper)


def test_random_battery_against_scipy():
    scipy_lp = pytest.importorskip("scipy.optimize").linprog
    rng = random.Random(500)
    for trial in range(120):
        p = random_lp(rng, feasible=trial % 3 != 0)
        res = solve_lp(p)
        n = len(p.objective)
        out = scipy_lp(
            c=[-float(c) for c in p.objective],
            A_eq=[[float(a) for a in row] for row in p.eq_matrix] or None,
            b_eq=[float(b) for b in p.eq_rhs] or None,
            bounds=[(float(lo), float(up)) for lo, up in zip(p.lower, p.upper)],
            method="highs",
        )
        if res.status == OPTIMAL:
            assert out.status == 0, f"scipy disagrees on feasibility: {out.status}"
            assert abs(float(res.value) - (-out.fun)) < 1e-6 * max(1.0, abs(float(res.value)))
        else:
            assert out.status == 2


def test_exactness_audit_battery():
    rng = random.Random(501)
    for trial in range(150):
        p = random_lp(rng, feasible=trial % 4 != 0)
        res = solve_lp(p)
        if res.status != OPTIMAL:
            continue
        n = len(p.objective)
        assert sum(p.objective[j] * res.point[j] for j in range(n)) == res.value
        for row, rhs in zip(p.eq_matrix, p.eq_rhs):
            assert sum(row[j] * res.point[j] for j in range(n)) == rhs
        for j in range(n):
            assert p.lower[j] <= res.point[j] <= p.upper[j]


def with_box(p, j, lo, up):
    """The same program with variable j's box replaced (bypasses validation)."""
    lower = list(p.lower[:j]) + [Fraction(lo)] + list(p.lower[j + 1:])
    upper = list(p.upper[:j]) + [Fraction(up)] + list(p.upper[j + 1:])
    return LpProblem(p.objective, p.eq_matrix, p.eq_rhs, lower, upper)


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
            nl = Fraction(rng.randint(-7, 4))
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
    return LpProblem(p.objective, p.eq_matrix, p.eq_rhs, lower, upper)


def test_warm_state_serves_both_children():
    # one parent state must answer two different edits of the same variable
    p = LpProblem.make([3, 2, 1], [[1, 1, 1]], [4], [0, 0, 0], [3, 3, 3])
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
    p = LpProblem.make([1, 1], [[1, 1]], [3], [0, 0], [2, 2])
    _, state = solve_lp_warm(p)
    res, nxt = state.reoptimized(0, 2, 1)
    assert res.status == INFEASIBLE and nxt is None


def test_warm_tightening_can_cut_all_solutions():
    # x + y = 3 with both boxes squeezed to [0,1] leaves nothing
    p = LpProblem.make([1, 0], [[1, 1]], [3], [0, 0], [2, 2])
    _, state = solve_lp_warm(p)
    res, state = state.reoptimized(0, 0, 1)
    assert res.status == OPTIMAL
    res, nxt = state.reoptimized(1, 0, 1)
    assert res.status == INFEASIBLE and nxt is None
