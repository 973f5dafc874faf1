import itertools
import operator
import random
from fractions import Fraction

import pytest
from fourblock_reference import solve_mip_by_coordinates

from blockip import generators, smallip
from blockip.errors import MalformedProblemError
from blockip.ones import solve_ones
from blockip.oracle import enumerate_optimum
from blockip.ratlp import INFEASIBLE, OPTIMAL, LpProblem, solve_lp
from blockip.smallip import MipProblem, _branch_var, _propagate, best_of, solve_mip


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
    # a total of 3/2 reads the continuous y, so its bound is not floored to
    # 1 and a cutoff of 1 keeps it
    p = make_mip([1, 1], [[2, 2]], [3], [0, 0], [1, 2], mask=[True, False])
    assert solve_mip(p, cutoff=1).value == Fraction(3, 2)


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


def test_recipe_roots_branch_in_lattice_coordinates(monkeypatch):
    # a recipe root is built once, when popped, and at its first split it
    # is rewritten in the lattice coordinates of its equality rows over
    # its box; it must reach the brute-force optimum of its equality and
    # ranged rows with an integral point that meets them, whether its
    # boxes are narrow or wide and some columns are fixed.  The same
    # program built, through solve_mip, takes the same search, rewrite
    # included, and gives the same result
    forms = []
    real = smallip._lattice_form
    monkeypatch.setattr(smallip, "_lattice_form", lambda *args: forms.append(real(*args)) or forms[-1])
    rng = random.Random(7005)
    agree = 0
    rewrites = {"recipe": 0, "built": 0}
    for trial in range(250):
        n = rng.randint(1, 4)
        scale = rng.choice((1, 1, 10))
        c = [rng.randint(-6, 6) for _ in range(n)]
        lo = [rng.randint(-3, 1) for _ in range(n)]
        hi = [a + rng.choice((0, rng.randint(1, 4))) * scale for a in lo]
        eq = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 2))]
        seed = [rng.randint(a, b) for a, b in zip(lo, hi)]
        rhs = [sum(map(operator.mul, row, seed)) + rng.choice((0, 0, 1)) for row in eq]
        ranged = [rng.randint(-2, 2) for _ in range(n)]
        top = sum(map(operator.mul, ranged, seed)) + rng.randint(-1, 2)
        rows = [(row, b, b) for row, b in zip(eq, rhs)] + [(ranged, top - 3 * scale, top)]
        mip = MipProblem.make(LpProblem.make(c, rows, lo, hi), [True] * n)
        built = []
        ceiling = sum(a * (u if a > 0 else l) for a, l, u in zip(c, lo, hi))
        before = len(forms)
        k, res = best_of([(lambda: built.append(None) or mip, 0, ceiling)])
        assert len(built) == 1, trial
        rewrites["recipe"] += len(forms) - before
        before = len(forms)
        assert solve_mip(mip) == res, trial  # status, point, value and node count
        rewrites["built"] += len(forms) - before
        want = None
        for x in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
            if all(a <= sum(map(operator.mul, row, x)) <= b for row, a, b in rows):
                value = sum(map(operator.mul, c, x))
                want = value if want is None else max(want, value)
        if want is None:
            assert k is None and res.status == INFEASIBLE, trial
            continue
        assert k == 0 and res.value == want, (trial, res, want)
        x = [v.numerator for v in res.point]
        assert all(v.denominator == 1 for v in res.point), trial
        assert all(a <= v <= b for v, a, b in zip(x, lo, hi)), trial
        assert all(a <= sum(map(operator.mul, row, x)) <= b for row, a, b in rows), trial
        assert sum(map(operator.mul, c, x)) == want, trial
        agree += 1
    # the rewrite is reached, and some rewrites prove the box empty (130
    # optima, and 33 rewrites per kind of root, 16 of them empty, when
    # written)
    assert agree >= 100, agree
    assert rewrites["recipe"] == rewrites["built"] >= 25, rewrites
    assert forms.count(None) >= 16, forms.count(None)


def _rewrite_refused(*args):
    raise AssertionError("rewritten in lattice coordinates")


def test_mixed_roots_and_separated_searches_branch_on_their_columns(monkeypatch):
    # only an all-integer root searched without a separator is rewritten:
    # a mixed root, and a root under a separator, branch on their own
    # columns, so a mixed solve_mip run is the coordinate reference's run
    # exactly, and an all-integer root under a separator that adds nothing
    # reaches the reference's point with no settled root
    monkeypatch.setattr(smallip, "_lattice_form", _rewrite_refused)
    rng = random.Random(7006)
    tally = {"mixed split": 0, "separated split": 0}
    for trial in range(150):
        n = rng.randint(2, 4)
        lo = [rng.randint(-3, 1) for _ in range(n)]
        hi = [a + rng.randint(0, 5) for a in lo]
        rows = [([rng.randint(-4, 4) for _ in range(n)], b - rng.choice((0, 3)), b)
                for b in (rng.randint(-6, 6) for _ in range(rng.randint(1, 2)))]
        lp = LpProblem.make([rng.randint(-6, 6) for _ in range(n)], rows, lo, hi)
        mixed = MipProblem.make(lp, [True] * (n - 1) + [False])
        res = solve_mip(mixed)
        assert res == solve_mip_by_coordinates(mixed), trial
        tally["mixed split"] += res.nodes > 1
        whole = MipProblem.make(lp, [True] * n)
        _, res = best_of([(whole, 0, 0)], None, lambda num, den, add: None)
        want = solve_mip_by_coordinates(whole)
        assert (res.status, res.point, res.value) == (want.status, want.point, want.value), trial
        tally["separated split"] += res.nodes > 1
    # the all-ones route searches its aggregate under its cut separator
    for seed in range(10):
        inst = generators.random_ones_instance(random.Random(seed), n=4, seeded_rate=0.9)
        got, want = solve_ones(inst), enumerate_optimum(inst)
        assert type(got) is type(want) and getattr(got, "objective", None) == getattr(want, "objective", None)
    # 28 mixed and 38 separated runs split when written
    assert tally["mixed split"] >= 20 and tally["separated split"] >= 20, tally


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




def _lazy_concave_program(rng):
    """max g(v) over an integer box, g the least of a few integer affine
    pieces, subject to one lazy row c . v <= e: the box, the pieces, the
    row and the best value by brute force (None when no point meets it)."""
    d = rng.randint(1, 3)
    lo = [rng.randint(-3, 0) for _ in range(d)]
    hi = [a + rng.randint(0, 4) for a in lo]
    pieces = [([rng.randint(-4, 4) for _ in range(d)], rng.randint(-6, 6))
              for _ in range(rng.randint(1, 5))]
    row = ([rng.randint(-2, 2) for _ in range(d)], rng.randint(-3, 3))
    values = [min(sum(a * x for a, x in zip(s, v)) + b for s, b in pieces)
              for v in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
              if sum(a * x for a, x in zip(row[0], v)) <= row[1]]
    return lo, hi, pieces, row, max(values, default=None)


def _run_lazy(lo, hi, pieces, row, report):
    """best_of over (v, t), max t, seeing the pieces and the row only as
    cuts its separator adds; (result, the separator's best, cuts held)."""
    d = len(lo)

    def span(coeffs):  # least and greatest of coeffs . v over the box
        least = sum(a * (l if a > 0 else h) for a, l, h in zip(coeffs, lo, hi))
        most = sum(a * (h if a > 0 else l) for a, l, h in zip(coeffs, lo, hi))
        return least, most

    # t's box holds g over the v box: g is at most each piece
    t_lo = min(span(s)[0] + b for s, b in pieces)
    t_hi = min(span(s)[1] + b for s, b in pieces)
    # each piece as t - s . v <= b, the row as c . v <= e, both bounded below over the box
    cuts = [([-a for a in s] + [1], t_lo - span(s)[1], b) for s, b in pieces]
    cuts.append((list(row[0]) + [0], span(row[0])[0], row[1]))
    best, held = [None], [0]

    def separate(num, den, add):
        for coeffs, lo_, hi_ in cuts:
            if sum(a * x for a, x in zip(coeffs, num)) > hi_ * den and add(coeffs, lo_, hi_):
                held[0] += 1
        v = [x // den for x in num[:d]]
        if all(x % den == 0 for x in num[:d]) and sum(a * x for a, x in zip(row[0], v)) <= row[1]:
            value = min(sum(a * x for a, x in zip(s, v)) + b for s, b in pieces)
            if best[0] is None or value > best[0]:
                best[0] = value
        return best[0] if report else None

    lp = LpProblem.make([0] * d + [1], [], lo + [t_lo], hi + [t_hi])
    root = MipProblem.make(lp, [True] * d + [False])
    return best_of([(root, 0, t_hi)], None, separate), best[0], held[0]


def test_separator_finds_the_optimum_of_a_function_seen_only_through_cuts():
    # the LP over (v, t) starts with the bare box; the separator adds the
    # violated pieces and lazy row at each node's point and records the
    # values it meets at integer points.  Reported, they prune the search
    # and the best is the separator's; unreported, the search accepts the
    # best point itself.  Either way it is the brute-force optimum.
    rng = random.Random(7004)
    tally = {"feasible": 0, "many cuts": 0, "branched": 0}
    for trial in range(150):
        lo, hi, pieces, row, want = _lazy_concave_program(rng)
        (k, res), found, held = _run_lazy(lo, hi, pieces, row, report=False)
        if want is None:
            assert k is None and res.status == INFEASIBLE, trial
        else:
            assert k == 0 and res.status == OPTIMAL and res.value == want, (trial, res)
            assert all(x.denominator == 1 for x in res.point), trial
            tally["feasible"] += 1
        tally["many cuts"] += held >= 3
        # the root, and one re-solve per held cut at most, leave the rest to splits
        tally["branched"] += res.nodes > held + 1
        (k, res), found, _ = _run_lazy(lo, hi, pieces, row, report=True)
        assert k is None and res.status == INFEASIBLE and found == want, (trial, found, want)
    # the optimum is often reached only after several cuts or a split (116
    # feasible, 45 with three cuts or more and 18 split when written)
    assert tally["feasible"] >= 100 and tally["many cuts"] >= 30 and tally["branched"] >= 10, tally

def test_branch_var_picks_the_masked_variable_farthest_from_an_integer():
    # the integer rule on num over den against the distance to the nearest
    # integer as a Fraction, ties to the smallest index
    rng = random.Random(31)
    for _ in range(2000):
        den = rng.randint(1, 12)
        num = [rng.randint(-40, 40) for _ in range(rng.randint(1, 5))]
        mask = [rng.random() < 0.8 for _ in num]
        dists = [min(Fraction(v, den) % 1, 1 - Fraction(v, den) % 1) if m else 0
                 for v, m in zip(num, mask)]
        far = max(dists)
        assert _branch_var(num, den, mask) == (dists.index(far) if far else -1)


def _integer_points(rows, lo, hi):
    """Every integer point of the box that meets each row sum a_k x_k <= b."""
    for x in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        if all(sum(a * x[k] for k, a in coeffs.items()) <= b for coeffs, b in rows):
            yield x


@pytest.mark.parametrize("rounds", [1, 30])
def test_propagation_never_cuts_off_an_integer_point(rounds):
    # one round is what the all-ones search runs per box, 30 the default
    # that screens the 4-block cells
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def systems(draw):
        nvars = draw(st.integers(1, 4))
        big = draw(st.sampled_from((1, 10 ** 30)))
        lo = [draw(st.integers(-3, 3)) for _ in range(nvars)]
        hi = [v + draw(st.sampled_from((0, 0, 1, 2, 4))) for v in lo]  # l = u often
        rows = []
        for _ in range(draw(st.integers(1, 4))):
            coeffs = {}
            for k in range(nvars):
                a = draw(st.integers(-3, 3)) * big + draw(st.integers(-2, 2))
                if a:
                    coeffs[k] = a
            if not coeffs:
                continue
            # a right-hand side near the row's range over the box, so that
            # the rows often bind and sometimes exclude the whole box
            mn = sum(a * (lo[k] if a > 0 else hi[k]) for k, a in coeffs.items())
            mx = sum(a * (hi[k] if a > 0 else lo[k]) for k, a in coeffs.items())
            b = draw(st.integers(mn - 2, mx + 1))
            rows.append((coeffs, b))
            if draw(st.booleans()):  # an equality row, as two <= rows
                rows.append(({k: -a for k, a in coeffs.items()}, -b))
        return rows, lo, hi

    tally = {"empty": 0, "tightened": 0}

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
    @hypothesis.given(systems())
    def check(system):
        rows, lo, hi = system
        points = list(_integer_points(rows, lo, hi))
        new_lo, new_hi = list(lo), list(hi)
        if not _propagate(rows, new_lo, new_hi, rounds):
            assert points == [], (rows, lo, hi)
            tally["empty"] += 1
            return
        assert all(lo[k] <= new_lo[k] <= new_hi[k] <= hi[k] for k in range(len(lo)))
        for x in points:
            assert all(new_lo[k] <= x[k] <= new_hi[k] for k in range(len(x))), (rows, lo, hi, x)
        tally["tightened"] += (new_lo, new_hi) != (lo, hi)

    check()
    # both outcomes occur, so neither assertion above is vacuous
    assert tally["empty"] >= 100 and tally["tightened"] >= 40, tally


def test_propagation_stops_at_its_round_cap():
    # x - y <= -1 and y - x <= 0 have no solution, but each round shrinks
    # the boxes by one, so over [0, 10**30] the screen gives up undecided
    rows = [({0: 1, 1: -1}, -1), ({0: -1, 1: 1}, 0)]
    lo, hi = [0, 0], [10 ** 30, 10 ** 30]
    assert _propagate(rows, lo, hi)
    assert hi[0] < 10 ** 30 and lo[1] > 0
    assert not _propagate(rows, [0, 0], [3, 3])
    # the cap is an argument: one round leaves [1, 2] x [1, 2] undecided
    lo, hi = [0, 0], [3, 3]
    assert _propagate(rows, lo, hi, 1)
    assert (lo, hi) == ([1, 1], [2, 2])
