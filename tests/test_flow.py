import itertools
import random

import pytest

from blockip.errors import MalformedProblemError
from blockip.flow import (
    FlowResult,
    Network,
    TransportProblem,
    TransportResult,
    min_cost_flow,
    solve_transport,
)
from blockip.model import Infeasible
from blockip.ratlp import OPTIMAL, LpProblem, solve_lp


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


def test_single_arc_exact_supply():
    net = Network(2)
    net.set_supply(0, 3)
    net.set_supply(1, -3)
    net.add_arc(0, 1, 3, 7)
    res = min_cost_flow(net)
    assert isinstance(res, FlowResult)
    assert res.flows == (3,)
    assert res.cost == 21


def test_zero_supply_network():
    net = Network(3)
    net.add_arc(0, 1, 5, 1)
    net.add_arc(1, 2, 5, 1)
    res = min_cost_flow(net)
    assert res.flows == (0, 0)
    assert res.cost == 0


def test_supply_imbalance_infeasible():
    net = Network(2)
    net.set_supply(0, 2)
    net.set_supply(1, -1)
    net.add_arc(0, 1, 5, 0)
    assert isinstance(min_cost_flow(net), Infeasible)


def test_capacity_shortfall_infeasible():
    net = Network(2)
    net.set_supply(0, 4)
    net.set_supply(1, -4)
    net.add_arc(0, 1, 3, 0)
    res = min_cost_flow(net)
    assert isinstance(res, Infeasible)
    assert res.reason == "NoAugmentingPath"


def test_negative_cycle_rejected():
    net = Network(2)
    net.add_arc(0, 1, 1, -1)
    net.add_arc(1, 0, 1, -1)
    with pytest.raises(MalformedProblemError):
        min_cost_flow(net)


def test_negative_cost_arcs_priced_correctly():
    # two routes, the longer one cheaper through a negative arc
    net = Network(3)
    net.set_supply(0, 2)
    net.set_supply(2, -2)
    net.add_arc(0, 2, 2, 5)
    net.add_arc(0, 1, 2, 1)
    net.add_arc(1, 2, 2, -3)
    res = min_cost_flow(net)
    assert res.cost == -4
    assert res.flows == (0, 2, 2)


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
    assert isinstance(solve_transport(p), Infeasible)


def test_empty_cell_box_rejected():
    with pytest.raises(MalformedProblemError):
        TransportProblem.make([1], [1], [[2]], [[1]], [[0]])


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
