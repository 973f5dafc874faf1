import itertools
import random
from collections import Counter
from fractions import Fraction

import flow_reference
import pytest

from blockip import flow
from blockip.errors import MalformedProblemError
from blockip.flow import Blocked, TransportProblem, TransportResult, solve_transport
from blockip.model import Infeasible
from blockip.ones import _transport_duals
from blockip.ratlp import INFEASIBLE, OPTIMAL, LpProblem, solve_lp


def brute_transport(p: TransportProblem):
    """Best integral cell matrix by full enumeration, or None."""
    n, t = len(p.row_totals), len(p.col_totals)
    spans = [
        range(p.cell_lower[i][h], p.cell_upper[i][h] + 1)
        for i in range(n)
        for h in range(t)
    ]
    best = None
    for flat in itertools.product(*spans):
        cells = [flat[i * t:(i + 1) * t] for i in range(n)]
        if any(sum(cells[i]) != p.row_totals[i] for i in range(n)):
            continue
        if any(sum(r[h] for r in cells) != p.col_totals[h] for h in range(t)):
            continue
        val = sum(
            p.cell_profit[i][h] * cells[i][h]
            for i in range(n)
            for h in range(t)
        )
        if best is None or val > best:
            best = val
    return best


def transport_lp(p: TransportProblem) -> LpProblem:
    """The same polytope as an LP with equality rows, variables row-major."""
    n, t = len(p.row_totals), len(p.col_totals)
    nv = n * t
    rows = []
    for i in range(n):
        row = [0] * nv
        for h in range(t):
            row[i * t + h] = 1
        rows.append((row, p.row_totals[i], p.row_totals[i]))
    for h in range(t):
        row = [0] * nv
        for i in range(n):
            row[i * t + h] = 1
        rows.append((row, p.col_totals[h], p.col_totals[h]))
    c = [p.cell_profit[i][h] for i in range(n) for h in range(t)]
    lo = [p.cell_lower[i][h] for i in range(n) for h in range(t)]
    hi = [p.cell_upper[i][h] for i in range(n) for h in range(t)]
    return LpProblem.make(c, rows, lo, hi)


def networkx_optimum(p: TransportProblem):
    """Profit optimum by networkx's network simplex, or None when infeasible.

    The lower bounds are shifted out first, so it applies only when they
    leave every total nonnegative.
    """
    nx = pytest.importorskip("networkx")
    n, t = len(p.row_totals), len(p.col_totals)
    g = nx.DiGraph()
    shipped = 0
    for h in range(t):
        g.add_node(("col", h), demand=p.col_totals[h] - sum(p.cell_lower[i][h] for i in range(n)))
    for i in range(n):
        g.add_node(("row", i), demand=sum(p.cell_lower[i]) - p.row_totals[i])
        for h in range(t):
            shipped += p.cell_profit[i][h] * p.cell_lower[i][h]
            g.add_edge(("row", i), ("col", h),
                       capacity=p.cell_upper[i][h] - p.cell_lower[i][h],
                       weight=-p.cell_profit[i][h])
    try:
        cost, _ = nx.network_simplex(g)
    except nx.NetworkXUnfeasible:
        return None
    return shipped - cost


def random_transport(rng, n, t, low_bounds=False, magnitude=6):
    cells = [[rng.randint(0, magnitude) for _ in range(t)] for _ in range(n)]
    lower = [[0] * t for _ in range(n)]
    upper = [[cells[i][h] + rng.randint(0, 3) for h in range(t)] for i in range(n)]
    if low_bounds:
        lower = [
            [max(0, cells[i][h] - rng.randint(0, 2)) for h in range(t)]
            for i in range(n)
        ]
    profit = [[rng.randint(-5, 5) for _ in range(t)] for _ in range(n)]
    row_totals = [sum(cells[i]) for i in range(n)]
    col_totals = [sum(cells[i][h] for i in range(n)) for h in range(t)]
    return TransportProblem.make(row_totals, col_totals, lower, upper, profit)


def assert_certified(p: TransportProblem, res):
    """res is a TransportResult meeting every box and total, certified optimal."""
    assert isinstance(res, TransportResult)
    _transport_duals(p, res)  # raises unless feasible, worth res.objective and optimal


def test_single_arc_exact_supply():
    # one cell: the whole total crosses it, whatever its profit
    p = TransportProblem.make([3], [3], [[0]], [[3]], [[7]])
    res = solve_transport(p)
    assert res.cells == ((3,),)
    assert res.objective == 21


def test_zero_supply_network():
    p = TransportProblem.make([0, 0], [0, 0, 0], [[0] * 3] * 2, [[5] * 3] * 2,
                              [[1, -2, 3], [4, 0, -1]])
    res = solve_transport(p)
    assert res.cells == ((0, 0, 0), (0, 0, 0))
    assert res.objective == 0


def test_capacity_shortfall_infeasible():
    # every total is met in sum, but the cells cannot carry row 0's total
    p = TransportProblem.make([4, 0], [2, 2], [[0, 0], [0, 0]], [[1, 2], [5, 5]], [[0, 0], [0, 0]])
    res = solve_transport(p)
    assert isinstance(res, Infeasible)
    assert res.reason == "NoAugmentingPath"
    # and a column deficit that no row has room to fill
    p = TransportProblem.make([2, 2], [3, 1], [[0, 0], [0, 0]], [[1, 1], [1, 1]], [[0, 0], [0, 0]])
    assert solve_transport(p).reason == "NoAugmentingPath"


def test_negative_cost_arcs_priced_correctly():
    # the greedy start puts row 0 on column 0; the demand of column 1 forces
    # a unit back, and the cheaper exchange is row 1's, through a negative cell
    p = TransportProblem.make(
        [2, 2], [3, 1], [[0, 0], [0, 0]], [[2, 2], [2, 2]], [[5, 1], [-1, -3]]
    )
    res = solve_transport(p)
    assert res.objective == 10 - 1 - 3
    assert res.cells == ((2, 0), (1, 1))
    assert_certified(p, res)


def test_bipartite_2x2_matches_enumeration():
    p = TransportProblem.make(
        [2, 3], [4, 1],
        [[0, 0], [0, 0]], [[2, 2], [4, 4]],
        [[5, 1], [2, 7]],
    )
    res = solve_transport(p)
    assert isinstance(res, TransportResult)
    assert res.objective == brute_transport(p)
    assert [sum(r) for r in res.cells] == [2, 3]
    assert [sum(c) for c in zip(*res.cells)] == [4, 1]


def test_trivial_1x1():
    p = TransportProblem.make([5], [5], [[0]], [[5]], [[3]])
    res = solve_transport(p)
    assert res.cells == ((5,),)
    assert res.objective == 15


def test_totals_mismatch_infeasible():
    p = TransportProblem.make([2], [3], [[0]], [[9]], [[1]])
    res = solve_transport(p)
    assert isinstance(res, Infeasible)
    assert res.reason == "TotalsMismatch"


def test_lower_bounds_exceeding_totals_infeasible():
    p = TransportProblem.make([1, 1], [1, 1], [[1, 1], [0, 0]],
                              [[2, 2], [2, 2]], [[0, 0], [0, 0]])
    res = solve_transport(p)
    assert isinstance(res, Infeasible)
    assert res.reason == "LowerBoundsExceedTotals"


def test_empty_cell_box_rejected():
    with pytest.raises(MalformedProblemError):
        TransportProblem.make([1], [1], [[2]], [[1]], [[0]])


@pytest.mark.parametrize("bad", [1.0, Fraction(1), True], ids=["float", "Fraction", "bool"])
@pytest.mark.parametrize("place", ["row total", "column total", "cell lower", "cell upper", "cell profit"])
def test_entries_must_be_ints(place, bad):
    # a 1 x 1 transport of one unit, cell box [0, 2] and profit 1, with bad
    # put in place; bad equals 1, a valid value in every place, so only its
    # type is wrong
    args = {"row total": [1], "column total": [1], "cell lower": [[0]], "cell upper": [[2]],
            "cell profit": [[1]]}
    good = TransportProblem.make(*args.values())
    assert solve_transport(good).objective == 1
    args[place] = [bad] if place.endswith("total") else [[bad]]
    with pytest.raises(MalformedProblemError):
        TransportProblem.make(*args.values())
    with pytest.raises(MalformedProblemError):
        TransportProblem(*args.values())
    if place.endswith("total"):  # with_totals checks the totals it is given
        with pytest.raises(MalformedProblemError):
            good.with_totals(args["row total"], args["column total"])


def test_random_battery_against_enumeration():
    rng = random.Random(8101)
    for trial in range(80):
        n, t = rng.randint(1, 3), rng.randint(1, 2)
        p = random_transport(rng, n, t, low_bounds=bool(trial % 2), magnitude=3)
        res = solve_transport(p)
        want = brute_transport(p)
        assert isinstance(res, TransportResult), (trial, p)
        assert res.objective == want, (trial, p)


def test_random_battery_against_lp_is_exact():
    # total unimodularity: the integral flow optimum equals the LP optimum
    rng = random.Random(8102)
    for trial in range(60):
        n, t = rng.randint(1, 4), rng.randint(1, 3)
        p = random_transport(rng, n, t, low_bounds=bool(trial % 3))
        res = solve_transport(p)
        lp = solve_lp(transport_lp(p))
        assert isinstance(res, TransportResult), (trial, p)
        assert lp.status == OPTIMAL
        assert res.objective == lp.value, (trial, p)
        for i in range(n):
            assert sum(res.cells[i]) == p.row_totals[i]
            for h in range(t):
                assert p.cell_lower[i][h] <= res.cells[i][h] <= p.cell_upper[i][h]


def test_huge_supplies_complete():
    big = 10 ** 40
    p = TransportProblem.make(
        [big, big], [big + 5, big - 5],
        [[0, 0], [0, 0]],
        [[big, big], [big, big]],
        [[2, -1], [1, 3]],
    )
    res = solve_transport(p)
    assert isinstance(res, TransportResult)
    lp = solve_lp(transport_lp(p))
    assert res.objective == lp.value


def perturbed_transport(rng, n, t, two_points=False):
    """Random transport with negative profits, lower bounds and zero-width
    cells, about a third of them with totals nudged off their witness.

    With two_points the column totals come from a second in-box point
    (balanced on column 0), which takes many augmentations to reach.
    """
    lower = [[rng.randint(-3, 2) for _ in range(t)] for _ in range(n)]
    upper = [[lo + rng.choice((0, rng.randint(0, 6))) for lo in row] for row in lower]
    profit = [[rng.randint(-9, 9) for _ in range(t)] for _ in range(n)]
    z = [[rng.randint(lower[i][h], upper[i][h]) for h in range(t)] for i in range(n)]
    rows = [sum(r) for r in z]
    if two_points:
        z = [[rng.randint(lower[i][h], upper[i][h]) for h in range(t)] for i in range(n)]
    cols = [sum(z[i][h] for i in range(n)) for h in range(t)]
    if two_points:
        cols[0] += sum(rows) - sum(cols)
    elif rng.random() < 0.35:
        shift = rng.choice((-2, -1, 1, 2))
        cols[rng.randrange(t)] += shift
        if n and rng.random() < 0.75:  # balanced totals, the cells may not fit
            rows[rng.randrange(n)] += shift
    return TransportProblem.make(rows, cols, lower, upper, profit)


def expected_reason(p: TransportProblem):
    """The reason code an infeasible transport must carry."""
    n, t = len(p.row_totals), len(p.col_totals)
    if sum(p.row_totals) != sum(p.col_totals):
        return "TotalsMismatch"
    if any(sum(p.cell_lower[i]) > p.row_totals[i] for i in range(n)) or any(
        sum(p.cell_lower[i][h] for i in range(n)) > p.col_totals[h] for h in range(t)
    ):
        return "LowerBoundsExceedTotals"
    return "NoAugmentingPath"


def test_differential_battery_against_network_simplex_and_lp():
    # n up to 300 against networkx; the exact LP joins where it stays small
    rng = random.Random(8103)
    reasons = {}
    for trial in range(180):
        n = rng.choice((0, 1, 2, 5, 12, 40, 120, 300)) if trial % 3 else rng.randint(0, 6)
        t = rng.randint(1, 5)
        p = perturbed_transport(rng, n, t, two_points=trial % 4 == 1)
        res = solve_transport(p)
        want = expected_reason(p)
        if want != "NoAugmentingPath":
            assert isinstance(res, Infeasible) and res.reason == want, (trial, res)
            reasons[want] = reasons.get(want, 0) + 1
            continue
        ref = networkx_optimum(p)
        if n * t <= 24:
            lp = solve_lp(transport_lp(p))
            assert (lp.value if lp.status == OPTIMAL else None) == ref, (trial, lp)
        if ref is None:
            assert isinstance(res, Infeasible) and res.reason == want, (trial, res)
            reasons[want] = reasons.get(want, 0) + 1
        else:
            assert_certified(p, res)
            assert res.objective == ref, (trial, res.objective, ref)
    assert min(reasons.get(r, 0) for r in (
        "TotalsMismatch", "LowerBoundsExceedTotals", "NoAugmentingPath")) >= 5, reasons


def test_long_augmentation_sequences_are_certified():
    # the column potentials matter only once reversed exchanges pile up, so
    # many small transports far from their greedy start, each certified by
    # the independent dual check
    rng = random.Random(8105)
    certified = 0
    for trial in range(1500):
        p = perturbed_transport(rng, rng.randint(1, 30), rng.randint(2, 5), two_points=True)
        res = solve_transport(p)
        if isinstance(res, TransportResult):
            assert_certified(p, res)
            certified += 1
        else:
            assert res.reason == expected_reason(p), (trial, res)
    assert certified >= 400


def test_n2000_t3_certified_and_matches_network_simplex():
    rng = random.Random(8104)
    n, t = 2000, 3
    lower = [[rng.randint(0, 2) for _ in range(t)] for _ in range(n)]
    upper = [[lo + rng.randint(0, 8) for lo in row] for row in lower]
    profit = [[rng.randint(-6, 6) for _ in range(t)] for _ in range(n)]
    z = [[rng.randint(lower[i][h], upper[i][h]) for h in range(t)] for i in range(n)]
    # column totals from a different point than the rows': the flow must move
    # many units across columns, not just keep the greedy fill
    w = [[rng.randint(lower[i][h], upper[i][h]) for h in range(t)] for i in range(n)]
    rows = [sum(r) for r in z]
    cols = [sum(w[i][h] for i in range(n)) for h in range(t)]
    cols[0] += sum(rows) - sum(cols)
    p = TransportProblem.make(rows, cols, lower, upper, profit)
    res = solve_transport(p)
    assert_certified(p, res)
    assert res.objective == networkx_optimum(p)


def test_edge_shapes_against_exact_lp():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def transports(draw):
        n = draw(st.integers(0, 3))
        t = draw(st.integers(1, 3))
        big = draw(st.sampled_from((1, 10 ** 30)))
        negative = draw(st.booleans())
        lower = [[draw(st.integers(-3, 3)) * big + draw(st.integers(-2, 2)) for _ in range(t)]
                 for _ in range(n)]
        width = st.sampled_from((0, 0, 1, 3, big))
        upper = [[lo + draw(width) for lo in row] for row in lower]
        profit = [[draw(st.integers(-7, -1) if negative else st.integers(-7, 7))
                   for _ in range(t)] for _ in range(n)]
        z = [[draw(st.integers(lower[i][h], upper[i][h])) for h in range(t)] for i in range(n)]
        rows = [sum(r) for r in z]
        cols = [sum(z[i][h] for i in range(n)) for h in range(t)]
        cols[draw(st.integers(0, t - 1))] += draw(st.sampled_from((0, 0, 0, 1, -1, big)))
        if n and draw(st.booleans()):
            rows[draw(st.integers(0, n - 1))] += sum(cols) - sum(rows)
        return TransportProblem.make(rows, cols, lower, upper, profit)

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(transports())
    def check(p):
        res = solve_transport(p)
        lp = solve_lp(transport_lp(p))
        if isinstance(res, TransportResult):
            assert_certified(p, res)
            assert lp.status == OPTIMAL and lp.value == res.objective
        else:
            assert res.reason == expected_reason(p)
            assert lp.status == INFEASIBLE

    check()


def reference_cells(rng, n, t, big):
    """Boxes and profits of an n x t transport: zero-width cells, tied
    profits, and with big = 10**30 entries of 30 digits."""
    lower = [[rng.randint(-3, 3) * big + rng.randint(-2, 2) for _ in range(t)] for _ in range(n)]
    upper = [[lo + rng.choice((0, 0, 1, 3, rng.randint(0, 6), big)) for lo in row] for row in lower]
    profit = [[rng.randint(-4, 4) * rng.choice((1, 1, big)) for _ in range(t)] for _ in range(n)]
    return lower, upper, profit


def reference_totals(rng, lower, upper, t, q=0):
    """Row totals of an in-box point less q, column totals of that point or
    of a second one, mostly rebalanced on one column: feasible, infeasible
    and unbalanced totals."""
    def point():
        return [[rng.randint(lo, hi) for lo, hi in zip(lr, ur)] for lr, ur in zip(lower, upper)]

    z = point()
    rows = [sum(r) - q for r in z]
    if rng.random() < 0.5:
        z = point()
    cols = [sum(r[h] for r in z) for h in range(t)]
    if rng.random() < 0.9:
        cols[rng.randrange(t)] += sum(rows) - sum(cols)
    return rows, cols


def dual_value(p: TransportProblem, a, c):
    """a . r + c . y + the sum over cells of max(gap * lower, gap * upper),
    gap = profit - a_i - c_h: an upper bound on every feasible transport."""
    value = sum(ai * r for ai, r in zip(a, p.row_totals))
    value += sum(ch * y for ch, y in zip(c, p.col_totals))
    for ai, lo, up, pr in zip(a, p.cell_lower, p.cell_upper, p.cell_profit):
        for h, ch in enumerate(c):
            gap = pr[h] - ai - ch
            value += max(gap * lo[h], gap * up[h])
    return value


def blocks(p: TransportProblem, columns):
    """Whether the column set columns proves p infeasible, from scratch:
    after shifting out the lower bounds, the rows' supply that cannot leave
    it, the sum of max(0, rho_i - out_i), exceeds its demand."""
    supply = 0
    for r, lo, up in zip(p.row_totals, p.cell_lower, p.cell_upper):
        out = sum(up[h] - lo[h] for h in range(len(lo)) if h not in columns)
        supply += max(0, r - sum(lo) - out)
    demand = sum(p.col_totals[h] - sum(lo[h] for lo in p.cell_lower) for h in columns)
    return supply > demand


def blocked_source(p: TransportProblem, got: Blocked):
    """Which check of the flow blocked p, after asserting that it named the
    column set that check gives."""
    t = len(p.col_totals)
    every = tuple(range(t))
    if got.reason == "TotalsMismatch":
        assert got.columns == (every if sum(p.row_totals) > sum(p.col_totals) else None), got
        return got.reason
    if got.reason == "LowerBoundsExceedTotals":
        if any(sum(lo) > r for lo, r in zip(p.cell_lower, p.row_totals)):
            assert got.columns == every, got
            return "row lower bounds"
        over = [h for h in range(t) if sum(lo[h] for lo in p.cell_lower) > p.col_totals[h]]
        assert got.columns == tuple(over[:1]), got
        return "column lower bounds"
    assert got.reason == "NoAugmentingPath", got
    return "greedy fill" if got.columns == () else "shortest-path search"


def assert_matches_reference(p: TransportProblem):
    """The solver agrees with the reference code on p: a feasible result is
    equal and both certificates accept with the same dual value; an
    infeasible one has the same reason, and its column set, checked by
    blocks, proves it, as a set the reference's exhaustive scan also finds.
    Returns the verdict's kind, for an infeasible one the check that
    blocked p."""
    got, want = solve_transport(p), flow_reference.solve_transport(p)
    if isinstance(want, TransportResult):
        assert got == want, (p, got, want)
        # the two certificates may pick different optimal duals
        mine, theirs = _transport_duals(p, got), flow_reference._transport_duals(p, want)
        assert dual_value(p, *mine) == dual_value(p, *theirs) == got.objective
        return "feasible"
    assert isinstance(got, Blocked) and got.reason == want.reason, (p, got, want)
    source = blocked_source(p, got)
    if got.columns is not None:
        assert blocks(p, got.columns), (p, got)
        assert blocks(p, flow_reference._blocking_cut(p)[1]), p
    return source


def test_matches_the_reference_on_fresh_and_shared_tables():
    # half fresh problems, half chains of with_totals over one table whose
    # row totals shift by a common q, as the all-ones search re-solves them
    rng = random.Random(8106)
    seen = Counter()
    for trial in range(60):
        n = rng.choice((0, 1, 2, 3, 5, 12, 40))
        t = rng.choice((1, 1, 2, 3, 3, 4, 5))
        big = rng.choice((1, 10 ** 30))
        lower, upper, profit = reference_cells(rng, n, t, big)
        for _ in range(5):
            rows, cols = reference_totals(rng, lower, upper, t)
            kind = assert_matches_reference(TransportProblem.make(rows, cols, lower, upper, profit))
            seen["fresh", kind] += 1
        rows, cols = reference_totals(rng, lower, upper, t)
        p = TransportProblem.make(rows, cols, lower, upper, profit)
        for _ in range(5):
            q = rng.choice((0, 0, rng.randint(-3, 3), rng.randint(-3, 3) * big))
            p = p.with_totals(*reference_totals(rng, lower, upper, t, q))
            kind = assert_matches_reference(p)
            seen["chained", kind] += 1
        seen["t=1"] += t == 1
        seen["n=0"] += n == 0
        seen["30 digits"] += big > 1
        seen["zero width"] += any(lo == hi for lr, ur in zip(lower, upper) for lo, hi in zip(lr, ur))
    assert sum(seen[k] for k in seen if k[0] == "fresh") == 300
    assert sum(seen[k] for k in seen if k[0] == "chained") == 300
    for origin in ("fresh", "chained"):
        assert seen[origin, "feasible"] >= 10 and seen[origin, "TotalsMismatch"] >= 10, seen
        assert seen[origin, "row lower bounds"] + seen[origin, "column lower bounds"] >= 10, seen
        assert seen[origin, "greedy fill"] + seen[origin, "shortest-path search"] >= 10, seen
    for source in ("row lower bounds", "column lower bounds", "greedy fill", "shortest-path search"):
        assert seen["fresh", source] + seen["chained", source] >= 1, seen
    assert min(seen["t=1"], seen["n=0"], seen["30 digits"], seen["zero width"]) >= 5, seen


def in_box_point(rng, lower, upper):
    return [[rng.randint(lo, hi) for lo, hi in zip(lr, ur)] for lr, ur in zip(lower, upper)]


def held_column_totals(rng, lower, upper, z, rows, t):
    """Column totals to pair with rows, the row sums of the in-box point z
    less some q: z's own, z's with one unit moved between two columns, or a
    second point's, rebalanced on one column to the sum of rows but one
    time in ten."""
    pick = rng.random()
    w = z if pick < 0.6 else in_box_point(rng, lower, upper)
    cols = [sum(r[h] for r in w) for h in range(t)]
    if pick < 0.3 and t > 1:
        h, g = rng.sample(range(t), 2)
        cols[h] -= 1
        cols[g] += 1
    if rng.random() < 0.9:
        cols[rng.randrange(t)] += sum(rows) - sum(cols)
    return cols


def counting_fills(monkeypatch):
    """A list that records (table, row totals) of every start state built."""
    fills = []
    of = flow._Start.of

    def counted(p):
        fills.append((p.table, p.row_totals))
        return of(p)

    monkeypatch.setattr(flow._Start, "of", staticmethod(counted))
    return fills


def test_matches_the_reference_when_the_row_totals_are_held(monkeypatch):
    # chains over one table: one row-total vector held across 6 column-total
    # vectors, then two alternating A, B, A, B; the table fills once per
    # change of row totals and keeps one start state, the last one's
    fills = counting_fills(monkeypatch)
    rng = random.Random(8108)
    seen = Counter()
    mismatched = 0
    for trial in range(50):
        n = rng.choice((1, 2, 3, 5, 12, 40))
        t = rng.choice((1, 2, 3, 3, 4, 5))
        lower, upper, profit = reference_cells(rng, n, t, rng.choice((1, 10 ** 30)))
        za, zb = in_box_point(rng, lower, upper), in_box_point(rng, lower, upper)
        q = rng.choice((0, 0, rng.randint(-3, 3)))
        a, b = ([sum(r) - q for r in z] for z in (za, zb))
        p = TransportProblem.make(a, [0] * t, lower, upper, profit)
        del fills[:]
        for rows, z in [(a, za)] * 6 + [(a, za), (b, zb)] * 2:
            p = p.with_totals(rows, held_column_totals(rng, lower, upper, z, rows, t))
            kind = assert_matches_reference(p)
            seen[kind] += 1
            # a mismatch of the sums returns before the start state is read
            if kind != "TotalsMismatch":
                assert p.table.start.row_totals == tuple(rows)
        # one fill per change of the row totals: a, the held six and the
        # seventh, then b, a, b, fewer when a mismatch skips a solve
        if seen["TotalsMismatch"] == mismatched and a != b:
            assert fills == [(p.table, tuple(a)), (p.table, tuple(b))] * 2, fills
            seen["four fills"] += 1
        mismatched = seen["TotalsMismatch"]
        # at most one start state, held in the table's one start field
        assert set(vars(p.table)) <= {"cap", "row_lower", "col_lower", "order", "start"}
        assert isinstance(p.table.start, flow._Start) == bool(fills)
    assert seen["feasible"] >= 150 and seen["shortest-path search"] >= 20, seen
    assert min(seen["TotalsMismatch"], seen["row lower bounds"], seen["column lower bounds"],
               seen["greedy fill"]) >= 5, seen
    assert seen["four fills"] >= 10, seen


def test_verdict_order_at_held_row_totals():
    # boxes [1, 2] x [0, 1] and [0, 1] x [0, 1]: row totals (0, 2) break
    # row 0's lower bound, (3, 3) leave row 1 a rest of 3 over capacity 2;
    # column totals (0, *) break column 0's lower bound of 1
    p = TransportProblem.make([2, 0], [1, 1], [[1, 0], [0, 0]], [[2, 1], [1, 1]], [[0, 0], [0, 0]])
    assert isinstance(solve_transport(p), TransportResult)
    every = Blocked("LowerBoundsExceedTotals", (0, 1))
    for rows, cols, want in (
        ((0, 2), (2, 0), every),
        ((0, 2), (0, 2), every),  # the row verdict comes before the column one
        ((3, 3), (3, 3), Blocked("NoAugmentingPath", ())),
        ((3, 3), (0, 6), Blocked("LowerBoundsExceedTotals", (0,))),  # columns before the fill
        ((3, 3), (3, 3), Blocked("NoAugmentingPath", ())),
        ((0, 2), (0, 2), every),
    ):
        for _ in range(2):  # the second solve starts from the held state
            q = p.with_totals(rows, cols)
            assert solve_transport(q) == want, (rows, cols)
            assert flow_reference.solve_transport(q).reason == want.reason
            assert p.table.start.row_totals == rows


def test_n2000_t3_chain_matches_fresh_tables(monkeypatch):
    fills = counting_fills(monkeypatch)
    rng = random.Random(8109)
    n, t = 2000, 3
    lower = [[rng.randint(0, 2) for _ in range(t)] for _ in range(n)]
    upper = [[lo + rng.randint(0, 8) for lo in row] for row in lower]
    profit = [[rng.randint(-6, 6) for _ in range(t)] for _ in range(n)]
    za, zb = in_box_point(rng, lower, upper), in_box_point(rng, lower, upper)
    p = TransportProblem.make([0] * n, [0] * t, lower, upper, profit)
    kinds = Counter()
    for z in (za, za, za, zb, zb, za, za):
        rows = [sum(r) for r in z]
        p = p.with_totals(rows, held_column_totals(rng, lower, upper, z, rows, t))
        got = solve_transport(p)
        assert got == solve_transport(TransportProblem.make(rows, p.col_totals, lower, upper, profit))
        if isinstance(got, TransportResult):
            assert_certified(p, got)
        kinds[type(got).__name__] += 1
    assert kinds["TransportResult"] >= 3, kinds
    # the chain's table fills once per change of rows
    assert [rows for table, rows in fills if table is p.table] == [
        tuple(sum(r) for r in z) for z in (za, zb, za)]


def test_with_totals_shares_the_table_and_checks_lengths():
    p = TransportProblem.make([1, 2], [3], [[0], [0]], [[5], [5]], [[1], [2]])
    q = p.with_totals([2, 2], [4])
    assert q.table is p.table
    assert (q.row_totals, q.col_totals) == ((2, 2), (4,))
    assert (p.row_totals, p.col_totals) == ((1, 2), (3,))
    assert solve_transport(q).cells == ((2,), (2,))
    for rows, cols in (([1], [3]), ([1, 2, 0], [3]), ([1, 2], []), ([1, 2], [3, 0])):
        with pytest.raises(MalformedProblemError):
            p.with_totals(rows, cols)


def test_constructor_derives_the_same_table_as_make():
    rng = random.Random(8107)
    for _ in range(20):
        n, t = rng.randint(0, 6), rng.randint(1, 4)
        lower, upper, profit = reference_cells(rng, n, t, rng.choice((1, 10 ** 30)))
        rows, cols = reference_totals(rng, lower, upper, t)
        made = TransportProblem.make(rows, cols, lower, upper, profit)
        direct = TransportProblem(
            tuple(rows), tuple(cols),
            tuple(map(tuple, lower)), tuple(map(tuple, upper)), tuple(map(tuple, profit)),
        )
        assert direct == made and direct.table == made.table
        assert solve_transport(direct) == solve_transport(made)
    with pytest.raises(MalformedProblemError):  # empty box
        TransportProblem((1,), (1,), ((2,),), ((1,),), ((0,),))
    with pytest.raises(MalformedProblemError):  # a row one cell too wide
        TransportProblem((1,), (1,), ((0, 0),), ((1,),), ((0,),))
