"""The integer LP core against the Fraction simplex it replaced.

fraction_simplex makes the same choices as blockip.ratlp in the same order,
so on every program, cold or warm, both must return the same status, point
and value and end on the same basis and bound sides.  The batteries below
draw integer rows, bounds and costs (the only data ratlp takes), chains of
WarmLp.edited box edits and added rows, and whole branch-and-bound runs of
smallip.solve_mip and of its coordinate-branching reference in
fourblock_reference; the hypothesis shapes push on the integer tableau
itself: 30-digit numbers, point boxes, rows with empty support, m = 0 and
n = 1; and tall programs of 100-300 rows over at most 6 columns, the
shape of the all-ones search's bound LP at large Δ.
"""

import math
import random
from fractions import Fraction

import pytest

import fraction_simplex as ref
from blockip import smallip
from fourblock_reference import solve_mip_by_coordinates
from blockip.ratlp import OPTIMAL, LpProblem, solve_lp_warm
from blockip.smallip import MipProblem, solve_mip


def assert_same(got, want):
    """Two (LpResult, state) pairs: same result, same basis and sides."""
    (res, state), (ref_res, ref_state) = got, want
    assert res == ref_res
    assert all(type(v) is Fraction for v in res.point or ())
    if res.status != OPTIMAL:
        assert state is None and ref_state is None
        return
    assert type(res.value) is Fraction
    assert state.basis == ref_state.basis and state.where == ref_state.where


def both_cold(p):
    got, want = solve_lp_warm(p), ref.solve_lp_warm(p)
    assert_same(got, want)
    return got, want


def both_edited(got, want, boxes=(), rows=()):
    got, want = got[1].edited(boxes, rows), want[1].edited(boxes, rows)
    assert_same(got, want)
    return got, want


def random_lp(rng):
    """A small LP with integer costs, rows and boxes, often feasible."""
    n = rng.randint(1, 5)
    lower = [rng.randint(-6, 3) for _ in range(n)]
    upper = [lo + rng.randint(0, 8) for lo in lower]
    seed = [lo + rng.randint(0, up - lo) for lo, up in zip(lower, upper)]
    rows = []
    for _ in range(rng.randint(0, 4)):
        coeffs = [rng.randint(-4, 4) for _ in range(n)]
        at = sum(a * x for a, x in zip(coeffs, seed)) + rng.choice((0, 0, rng.randint(-9, 9)))
        rows.append((coeffs, at - rng.randint(0, 3), at + rng.choice((0, rng.randint(0, 3)))))
    objective = [rng.randint(-5, 5) for _ in range(n)]
    return LpProblem.make(objective, rows, lower, upper)


def random_edit(rng, p, point):
    """Box edits (tighten, widen, shift, fix) and ranged rows near the
    rational point, rounded down to integers."""
    n = len(p.objective)
    rows = []
    for _ in range(rng.choice((0, 0, 1, 2))):
        coeffs = [rng.randint(-3, 3) for _ in range(n)]
        at = math.floor(sum(a * x for a, x in zip(coeffs, point)))
        rows.append((coeffs, at - rng.randint(0, 6), at + rng.randint(-2, 4)))
    boxes = []
    for j in rng.sample(range(n), rng.randint(0 if rows else 1, min(2, n))):
        lo = math.floor(point[j]) + rng.randint(-3, 1)
        boxes.append((j, lo, lo + rng.choice((0, rng.randint(0, 5)))))
    return boxes, rows


def test_cold_solves_match_the_fraction_simplex():
    rng = random.Random(1101)
    optimal = 0
    for _ in range(400):
        (res, _), _ = both_cold(random_lp(rng))
        optimal += res.status == OPTIMAL
    assert 150 <= optimal < 400


def test_edit_chains_match_the_fraction_simplex():
    rng = random.Random(1102)
    steps = infeasible = 0
    for _ in range(300):
        p = random_lp(rng)
        got, want = both_cold(p)
        for _ in range(6):
            if got[0].status != OPTIMAL:
                infeasible += 1
                break
            boxes, rows = random_edit(rng, p, got[0].point)
            last = got
            got, want = both_edited(got, want, boxes, rows)
            # the receiver still answers its own program
            assert last[1].edited()[0] == last[0]
            steps += 1
    assert steps >= 450 and infeasible >= 200


def random_mip(rng):
    n = rng.randint(2, 5)
    lower = [rng.randint(-4, 1) for _ in range(n)]
    upper = [lo + rng.randint(0, 6) for lo in lower]
    rows = []
    for _ in range(rng.randint(1, 3)):
        coeffs = [rng.randint(-5, 5) for _ in range(n)]
        b = rng.randint(-8, 8)
        rows.append((coeffs, b - rng.choice((0, 0, 3)), b))
    objective = [rng.randint(-9, 9) for _ in range(n)]
    lp = LpProblem.make(objective, rows, lower, upper)
    return MipProblem.make(lp, [rng.random() < 0.8 for _ in range(n)])


def test_branch_and_bound_runs_match_the_fraction_simplex(monkeypatch):
    # solve_mip rewrites an all-integer root in lattice coordinates at its
    # first split, which proves some programs empty there, so the runs on
    # the programs' own columns, which branch more, are matched too
    rng = random.Random(1103)
    mips = [random_mip(rng) for _ in range(300)]
    got = [solve_mip(p) for p in mips]
    by_coordinates = [solve_mip_by_coordinates(p) for p in mips]
    monkeypatch.setattr(smallip, "solve_lp_warm", ref.solve_lp_warm)
    assert got == [solve_mip(p) for p in mips]  # status, point, value and node count
    assert by_coordinates == [solve_mip_by_coordinates(p) for p in mips]
    assert sum(r.status == OPTIMAL for r in got) >= 80
    # 59 and 71 runs of more than one node when written
    assert sum(r.nodes > 1 for r in got) >= 50
    assert sum(r.nodes > 1 for r in by_coordinates) >= 60


def test_edge_shapes_match_the_fraction_simplex():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    big = 10 ** 30
    numbers = st.one_of(st.integers(-5, 5), st.integers(-big, big))

    @st.composite
    def programs(draw):
        n = draw(st.integers(1, 4))
        m = draw(st.integers(0, 3))
        lower = [draw(numbers) for _ in range(n)]
        # a point box now and then
        upper = [lo + draw(st.sampled_from((0, 1)) | numbers.map(abs)) for lo in lower]
        seed = [draw(st.sampled_from((lo, up))) for lo, up in zip(lower, upper)]
        rows = []
        for _ in range(m):
            coeffs = [0] * n if draw(st.integers(0, 4)) == 0 else [draw(numbers) for _ in range(n)]
            at = sum(a * x for a, x in zip(coeffs, seed))
            rows.append((coeffs, at - abs(draw(numbers)), at + draw(numbers)))
        objective = [draw(numbers) for _ in range(n)]
        edits = []
        for _ in range(draw(st.integers(0, 3))):
            j = draw(st.integers(0, n - 1))
            lo = draw(numbers)
            hi = lo + draw(st.sampled_from((0, 1)) | numbers.map(abs))
            rows_added = []
            if draw(st.booleans()):
                coeffs = [draw(numbers) for _ in range(n)]
                rows_added.append((coeffs, draw(numbers), draw(numbers) + big))
            edits.append(([(j, lo, hi)], rows_added))
        return LpProblem.make(objective, rows, lower, upper), edits

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(programs())
    def check(case):
        p, edits = case
        got, want = both_cold(p)
        for boxes, rows in edits:
            if got[0].status != OPTIMAL:
                break
            got, want = both_edited(got, want, boxes, rows)

    check()


def assert_integer_result(res):
    """num, den and value_num are ints that give point and value exactly."""
    if res.status != OPTIMAL:
        assert res.num is None and res.value_num is None and res.point is None
        return
    assert type(res.den) is int and res.den > 0 and type(res.value_num) is int
    assert all(type(v) is int for v in res.num)
    assert res.point == tuple(Fraction(v, res.den) for v in res.num)
    assert res.value == Fraction(res.value_num, res.den)


def tall_cut(centre, weights, v, big):
    """The tangent row t - slope . v <= rhs of the concave quadratic
    g(v) = -sum_k weights[k] (v_k - centre_k)^2 at the integer point v."""
    slope = [-2 * a * (x - c) for a, x, c in zip(weights, v, centre)]
    value = -sum(a * (x - c) ** 2 for a, x, c in zip(weights, v, centre))
    rhs = value - sum(sk * x for sk, x in zip(slope, v))
    return [-sk for sk in slope] + [1], rhs - big ** 3, rhs


def tall_lp(rng, big=10 ** 30):
    """100-300 ranged rows over at most 6 columns, entries up to 30 digits.

    The shape of the all-ones search's bound LP when Δ is large and cuts
    pile up: maximize t over a box of v (f <= 5 coordinates) under tangent
    rows t <= g(v_i) + slope_i . (v - v_i) of one concave g, a few plain
    ranged rows through an in-box point, and the bound on t.  Returns the
    program and (centre, weights), which tall_edit needs for more cuts.
    """
    f = rng.randint(1, 5)
    lower = [rng.randint(-big, 0) for _ in range(f)]
    upper = [lo + rng.choice((rng.randint(0, 9), rng.randint(big, 2 * big))) for lo in lower]
    centre = [rng.randint(lo - big // 4, hi + big // 4) for lo, hi in zip(lower, upper)]
    weights = [rng.randint(1, 9) for _ in range(f)]
    seed = [rng.randint(lo, hi) for lo, hi in zip(lower, upper)]
    rows = []
    for _ in range(rng.randint(100, 300)):
        if rng.random() < 0.9:
            v = [rng.randint(lo, hi) for lo, hi in zip(lower, upper)]
            rows.append(tall_cut(centre, weights, v, big))
        else:
            coeffs = [rng.choice((0, rng.randint(-9, 9), rng.randint(-big, big))) for _ in range(f)]
            at = sum(a * x for a, x in zip(coeffs, seed))
            rows.append((coeffs + [0], at - rng.randint(0, big ** 2), at + rng.randint(0, big ** 2)))
    objective = [rng.choice((0, 0, rng.randint(-big, big))) for _ in range(f)] + [1]
    return LpProblem.make(objective, rows, lower + [-big ** 3], upper + [big ** 3]), (centre, weights)


def tall_edit(rng, p, point, shape, big=10 ** 30):
    """A box split at a coordinate of the rational point, as the search
    splits, and new tangent rows at integer points near it."""
    centre, weights = shape
    f = len(centre)
    rows = []
    for _ in range(rng.randint(0, 2)):
        near = [math.floor(x) + rng.randint(-1, 1) for x in point[:f]]
        rows.append(tall_cut(centre, weights, near, big))
    k = rng.randrange(f)
    lo, hi = p.lower[k], p.upper[k]
    at = min(max(math.floor(point[k]), lo), hi)
    box = (k, lo, at) if rng.random() < 0.5 else (k, min(at + 1, hi), hi)
    return [box], rows


def test_tall_programs_match_the_fraction_simplex():
    rng = random.Random(1104)
    optimal = steps = 0
    for _ in range(12):
        p, shape = tall_lp(rng)
        got, want = both_cold(p)
        assert_integer_result(got[0])
        optimal += got[0].status == OPTIMAL
        for _ in range(6):
            if got[0].status != OPTIMAL:
                break
            boxes, rows = tall_edit(rng, p, got[0].point, shape)
            got, want = both_edited(got, want, boxes, rows)
            assert_integer_result(got[0])
            steps += 1
    assert optimal >= 10 and steps >= 40
