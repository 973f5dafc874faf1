import itertools
import random
from fractions import Fraction

import pytest

from blockip.errors import MalformedProblemError
from blockip.ratlp import INFEASIBLE, OPTIMAL, LpProblem, solve_lp
from blockip.smallip import MipProblem, solve_mip


def brute_force(objective, eq_matrix, eq_rhs, lower, upper):
    """Best integral point by direct enumeration, or None."""
    ranges = [range(lo, hi + 1) for lo, hi in zip(lower, upper)]
    best = None
    for x in itertools.product(*ranges):
        if all(
            sum(a * v for a, v in zip(row, x)) == b
            for row, b in zip(eq_matrix, eq_rhs)
        ):
            val = sum(c * v for c, v in zip(objective, x))
            if best is None or val > best:
                best = val
    return best


def make_mip(objective, eq_matrix, eq_rhs, lower, upper, mask=None):
    rows = [(row, b, b) for row, b in zip(eq_matrix, eq_rhs)]
    lp = LpProblem.make(objective, rows, lower, upper)
    if mask is None:
        mask = [True] * len(objective)
    return MipProblem.make(lp, mask)


def test_mask_length_checked():
    lp = LpProblem.make([1, 1], [], [0, 0], [1, 1])
    with pytest.raises(MalformedProblemError):
        MipProblem.make(lp, [True])


def test_relaxation_fractional_branching_needed():
    # max x + y, 2y + s = 5: relaxation gives y = 5/2, the lattice caps y at 2
    p = make_mip(
        [1, 1, 0], [[0, 2, 1]], [5], [0, 0, 0], [3, 10, 5],
        mask=[True, True, False],
    )
    res = solve_mip(p)
    assert res.status == OPTIMAL
    assert res.value == 5
    assert res.point[0] == 3 and res.point[1] == 2
    assert res.nodes >= 3  # root plus at least one split


def test_integral_relaxation_is_root_only():
    p = make_mip([2, 1], [[1, 1]], [4], [0, 0], [4, 4])
    res = solve_mip(p)
    assert res.status == OPTIMAL
    assert res.value == 8
    assert res.nodes == 1


def test_mixed_keeps_continuous_fraction():
    # max x + 2y, 2x + 2y = 3, x in [0, 1] integral, y in [0, 2]: y = 3/2
    p = make_mip([1, 2], [[2, 2]], [3], [0, 0], [1, 2], mask=[True, False])
    res = solve_mip(p)
    assert res.status == OPTIMAL
    assert res.value == 3
    assert res.point == (Fraction(0), Fraction(3, 2))


def test_infeasible_lattice_inside_feasible_polytope():
    # 2x + 2y = 3 has rational points but no integral ones
    p = make_mip([1, 1], [[2, 2]], [3], [0, 0], [5, 5])
    res = solve_mip(p)
    assert res.status == INFEASIBLE


def test_cutoff_is_exclusive():
    p = make_mip([2, 1], [[1, 1]], [4], [0, 0], [4, 4])
    assert solve_mip(p, cutoff=7).value == 8
    assert solve_mip(p, cutoff=8).status == INFEASIBLE
    assert solve_mip(p, cutoff=100).status == INFEASIBLE


def test_all_false_mask_equals_lp():
    rng = random.Random(7001)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rng.randint(0, 2)
        c = [rng.randint(-5, 5) for _ in range(n)]
        lo = [rng.randint(-4, 0) for _ in range(n)]
        hi = [l + rng.randint(0, 5) for l in lo]
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        seed = [rng.randint(lo[j], hi[j]) for j in range(n)]
        rhs = [sum(a * v for a, v in zip(row, seed)) for row in rows]
        p = make_mip(c, rows, rhs, lo, hi, mask=[False] * n)
        got = solve_mip(p)
        want = solve_lp(p.lp)
        assert got.status == want.status
        if want.status == OPTIMAL:
            assert got.value == want.value


def test_random_battery_against_enumeration():
    rng = random.Random(7002)
    agree = 0
    for trial in range(250):
        n = rng.randint(1, 4)
        m = rng.randint(1, 2)
        c = [rng.randint(-6, 6) for _ in range(n)]
        lo = [rng.randint(-3, 1) for _ in range(n)]
        hi = [l + rng.randint(0, 4) for l in lo]
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.5:
            seed = [rng.randint(lo[j], hi[j]) for j in range(n)]
            rhs = [sum(a * v for a, v in zip(row, seed)) for row in rows]
        else:
            rhs = [rng.randint(-6, 6) for _ in range(m)]
        want = brute_force(c, rows, rhs, lo, hi)
        res = solve_mip(make_mip(c, rows, rhs, lo, hi))
        if want is None:
            assert res.status == INFEASIBLE, (trial, rows, rhs)
        else:
            assert res.status == OPTIMAL, (trial, rows, rhs)
            assert res.value == want, (trial, rows, rhs)
            assert all(v.denominator == 1 for v in res.point)
            agree += 1
    assert agree > 50  # the battery must exercise the feasible path


def test_node_count_bounded_by_lattice_size():
    rng = random.Random(7003)
    for _ in range(60):
        n = rng.randint(1, 3)
        c = [rng.randint(-5, 5) for _ in range(n)]
        lo = [rng.randint(-2, 0) for _ in range(n)]
        hi = [l + rng.randint(0, 3) for l in lo]
        rows = [[rng.randint(-2, 2) for _ in range(n)]]
        rhs = [rng.randint(-4, 4)]
        res = solve_mip(make_mip(c, rows, rhs, lo, hi))
        lattice = 1
        for l, h in zip(lo, hi):
            lattice *= h - l + 1
        assert res.nodes <= 2 * lattice

