import random

import pytest
from highs_oracle import highs_optimum

from blockip import generators, ones, ratlp
from blockip.errors import InternalInconsistencyError, NotAllOnesError
from blockip.flow import TransportProblem, TransportResult, solve_transport
from blockip.model import FourBlockInstance, Infeasible, IntMatrix, Solution, evaluate
from blockip.ones import (
    OnesContext,
    _aggregate_lattice,
    _require_ones,
    _transport_duals,
    _y_box,
    round_bricks,
    solve_ones,
)
from blockip.oracle import OracleBudget, enumerate_optimum
from blockip.ratlp import LpProblem
from blockip.smallip import MipProblem


def build_mip2(inst: FourBlockInstance) -> MipProblem:
    """Aggregated program: integral x0 and y, continuous bricks.

    A direct reference for the lattice search.  Variable order: x0 (t_B),
    y (t_A), then the bricks in block order.  y is boxed by the
    componentwise sums of the brick boxes, which is the tightest box
    implied by the linking constraints alone.
    """
    _require_ones(inst)
    n, tA, tB, sC = inst.n, inst.t_A, inst.t_B, inst.s_C
    nv = tB + tA + n * tA

    y_lo, y_hi = _y_box(inst)

    rows = []
    for r in range(sC):
        row = [0] * nv
        row[:tB] = inst.C.row(r)
        row[tB:tB + tA] = inst.D.row(r)
        rows.append((row, inst.b0[r], inst.b0[r]))
    brow = inst.B.row(0) if inst.s_A else ()
    for i in range(n):
        row = [0] * nv
        row[:tB] = brow
        s = tB + tA + i * tA
        for h in range(tA):
            row[s + h] = 1
        rows.append((row, inst.b[i][0], inst.b[i][0]))
    for h in range(tA):
        row = [0] * nv
        row[tB + h] = -1
        for i in range(n):
            row[tB + tA + i * tA + h] = 1
        rows.append((row, 0, 0))

    c = list(inst.w[:tB]) + [0] * tA + list(inst.w[tB:])
    lo = list(inst.l[:tB]) + y_lo + list(inst.l[tB:])
    hi = list(inst.u[:tB]) + y_hi + list(inst.u[tB:])
    mask = [True] * (tB + tA) + [False] * (n * tA)
    return MipProblem.make(LpProblem.make(c, rows, lo, hi), mask)


def ones_instance(n, t_A, t_B, s_C, rng, width=4, coeff=5, seeded=True):
    """Random instance with a single all-ones brick row."""
    def rand_mat(rows, cols):
        if rows == 0:
            return IntMatrix.zero(0, cols)
        return IntMatrix.from_rows(
            [[rng.randint(-coeff, coeff) for _ in range(cols)] for _ in range(rows)]
        )

    A = IntMatrix.from_rows([[1] * t_A])
    B = rand_mat(1, t_B)
    C = rand_mat(s_C, t_B)
    D = rand_mat(s_C, t_A)
    N = t_B + n * t_A
    l = [rng.randint(-3, 2) for _ in range(N)]
    u = [v + rng.randint(0, width) for v in l]
    w = [rng.randint(-6, 6) for _ in range(N)]
    if seeded:
        seed = [rng.randint(l[j], u[j]) for j in range(N)]
        x0 = seed[:t_B]
        agg = [0] * t_A
        for i in range(n):
            s = t_B + i * t_A
            for h in range(t_A):
                agg[h] += seed[s + h]
        b0 = [cv + dv for cv, dv in zip(C.mul_vec(x0), D.mul_vec(agg))]
        bx0 = B.mul_vec(x0)[0]
        b = [[bx0 + sum(seed[t_B + i * t_A:t_B + (i + 1) * t_A])] for i in range(n)]
    else:
        b0 = [rng.randint(-8, 8) for _ in range(s_C)]
        b = [[rng.randint(-6, 6)] for _ in range(n)]
    return FourBlockInstance.make(n, A, B, C, D, b0, b, l, u, w)


def test_mask_counts_integral_variables():
    rng = random.Random(9100)
    inst = ones_instance(3, 2, 2, 1, rng)
    mp = build_mip2(inst)
    assert sum(mp.integer_mask) == inst.t_A + inst.t_B
    assert len(mp.integer_mask) == inst.t_B + inst.t_A + inst.n * inst.t_A


def test_mask_without_shared_brick():
    rng = random.Random(9101)
    inst = ones_instance(2, 2, 0, 1, rng)
    mp = build_mip2(inst)
    assert sum(mp.integer_mask) == inst.t_A


def test_wrong_shape_rejected():
    A = IntMatrix.from_rows([[1, 2]])
    inst = FourBlockInstance.nfold(
        1, A, IntMatrix.zero(0, 2), [], [[3]], [0, 0], [5, 5], [1, 1]
    )
    with pytest.raises(NotAllOnesError):
        solve_ones(inst)


def test_degenerate_no_bricks():
    # n=0: only the shared brick remains, the aggregate is pinned to zero
    A = IntMatrix.from_rows([[1, 1]])
    B = IntMatrix.from_rows([[1]])
    C = IntMatrix.from_rows([[2]])
    D = IntMatrix.from_rows([[1, 1]])
    inst = FourBlockInstance.make(0, A, B, C, D, [6], [], [0], [9], [1])
    res = solve_ones(inst)
    assert isinstance(res, Solution)
    assert res.x == (3,)
    assert res.objective == 3


def test_single_brick_matches_aggregate():
    A = IntMatrix.from_rows([[1, 1]])
    inst = FourBlockInstance.nfold(
        1, A, IntMatrix.zero(0, 2), [], [[4]], [0, 0], [3, 3], [2, 1]
    )
    res = solve_ones(inst)
    assert isinstance(res, Solution)
    assert sum(res.x) == 4
    assert res.objective == 7  # x = (3, 1)


def test_forced_box():
    A = IntMatrix.from_rows([[1, 1]])
    inst = FourBlockInstance.nfold(
        2, A, IntMatrix.zero(0, 2), [], [[3], [1]],
        [2, 1, 0, 1], [2, 1, 0, 1], [5, -1, 7, 7],
    )
    res = solve_ones(inst)
    assert res.x == (2, 1, 0, 1)


def test_infeasible_demand():
    A = IntMatrix.from_rows([[1, 1]])
    inst = FourBlockInstance.nfold(
        1, A, IntMatrix.zero(0, 2), [], [[5]], [0, 0], [1, 1], [1, 1]
    )
    res = solve_ones(inst)
    assert isinstance(res, Infeasible)


def test_round_bricks_spreads_aggregate():
    rng = random.Random(9102)
    inst = ones_instance(3, 2, 0, 0, rng, seeded=True)
    sol = solve_ones(inst)
    if isinstance(sol, Infeasible):
        pytest.skip("seeded instance unexpectedly infeasible")
    mp = build_mip2(inst)
    from blockip.smallip import solve_mip

    agg = solve_mip(mp)
    y = tuple(int(v) for v in agg.point[:inst.t_A])
    cells = round_bricks(inst, OnesContext(inst, y, ()))
    assert len(cells) == inst.n
    for h in range(inst.t_A):
        assert sum(row[h] for row in cells) == y[h]


def test_random_battery_against_oracle():
    rng = random.Random(9103)
    feasible = infeasible = 0
    for trial in range(120):
        n = rng.randint(0, 3)
        t_A = rng.randint(1, 3)
        t_B = rng.randint(0, 2)
        s_C = rng.randint(0, 2)
        inst = ones_instance(n, t_A, t_B, s_C, rng, width=3, coeff=3,
                             seeded=trial % 2 == 0)
        want = enumerate_optimum(inst, OracleBudget(10 ** 7))
        got = solve_ones(inst)
        if isinstance(want, Infeasible):
            assert isinstance(got, Infeasible), (trial,)
            infeasible += 1
        else:
            assert isinstance(got, Solution), (trial,)
            assert got.objective == want.objective, (trial,)
            assert evaluate(inst, got.x).feasible
            feasible += 1
    assert feasible >= 30 and infeasible >= 10


def test_lattice_route_matches_direct_mip():
    # the lattice search and the direct aggregated MIP must agree exactly
    from blockip.ratlp import INFEASIBLE
    from blockip.smallip import solve_mip

    rng = random.Random(9104)
    agreed = 0
    for trial in range(40):
        inst = ones_instance(
            rng.randint(1, 4), rng.randint(1, 3), rng.randint(0, 2),
            rng.randint(0, 2), rng, width=3, coeff=3, seeded=trial % 2 == 0,
        )
        direct = solve_mip(build_mip2(inst))
        got = solve_ones(inst)
        if direct.status == INFEASIBLE:
            assert isinstance(got, Infeasible), (trial,)
        else:
            assert isinstance(got, Solution), (trial,)
            assert got.objective == direct.value, (trial,)
            agreed += 1
    assert agreed >= 15


def test_transport_duals_certify_supergradient():
    rng = random.Random(9105)
    for _ in range(25):
        n, t = rng.randint(1, 4), rng.randint(1, 3)
        lower = [[rng.randint(-3, 1) for _ in range(t)] for _ in range(n)]
        upper = [[lo + rng.randint(0, 5) for lo in row] for row in lower]
        profit = [[rng.randint(-6, 6) for _ in range(t)] for _ in range(n)]

        def totals_of(z):
            return [sum(row) for row in z], [sum(z[i][h] for i in range(n)) for h in range(t)]

        base = [[rng.randint(lower[i][h], upper[i][h]) for h in range(t)] for i in range(n)]
        r, y = totals_of(base)
        res = solve_transport(TransportProblem.make(r, y, lower, upper, profit))
        assert isinstance(res, TransportResult)
        a, c = _transport_duals(TransportProblem.make(r, y, lower, upper, profit), res)
        for _ in range(4):
            other = [[rng.randint(lower[i][h], upper[i][h]) for h in range(t)] for i in range(n)]
            r2, y2 = totals_of(other)
            res2 = solve_transport(TransportProblem.make(r2, y2, lower, upper, profit))
            assert isinstance(res2, TransportResult)
            # prices are a supergradient of the concave optimum in the totals
            bound = res.objective
            bound += sum(a[i] * (r2[i] - r[i]) for i in range(n))
            bound += sum(c[h] * (y2[h] - y[h]) for h in range(t))
            assert res2.objective <= bound


def residual_distances(p: TransportProblem, cells):
    """Bellman-Ford over all n + t residual nodes, every node seeded at zero."""
    n, t = len(p.row_totals), len(p.col_totals)
    arcs = []
    for i in range(n):
        for h in range(t):
            if cells[i][h] < p.cell_upper[i][h]:
                arcs.append((i, n + h, -p.cell_profit[i][h]))
            if cells[i][h] > p.cell_lower[i][h]:
                arcs.append((n + h, i, p.cell_profit[i][h]))
    dist = [0] * (n + t)
    for _ in range(n + t):
        for tail, head, cost in arcs:
            dist[head] = min(dist[head], dist[tail] + cost)
    return dist


def test_transport_duals_are_the_residual_shortest_distances():
    # the column-only relaxation must give the very prices of a full
    # Bellman-Ford, so the search's supergradient cuts do not change
    rng = random.Random(9117)
    checked = 0
    for trial in range(150):
        n, t = rng.randint(0, 12), rng.randint(1, 5)
        lower = [[rng.randint(-2, 1) for _ in range(t)] for _ in range(n)]
        upper = [[lo + rng.choice((0, rng.randint(0, 4))) for lo in row] for row in lower]
        profit = [[rng.randint(-7, 7) for _ in range(t)] for _ in range(n)]
        z = [[rng.randint(lower[i][h], upper[i][h]) for h in range(t)] for i in range(n)]
        w = [[rng.randint(lower[i][h], upper[i][h]) for h in range(t)] for i in range(n)]
        rows = [sum(row) for row in z]
        cols = [sum(w[i][h] for i in range(n)) for h in range(t)]
        cols[0] += sum(rows) - sum(cols)
        p = TransportProblem.make(rows, cols, lower, upper, profit)
        res = solve_transport(p)
        if not isinstance(res, TransportResult):
            continue
        checked += 1
        a, c = _transport_duals(p, res)
        dist = residual_distances(p, res.cells)
        assert list(a) == dist[:n], trial
        assert list(c) == [-d for d in dist[n:]], trial
    assert checked >= 50


def test_large_magnitudes_complete_exactly():
    big = 10 ** 12
    A = IntMatrix.from_rows([[1, 1]])
    B = IntMatrix.from_rows([[1]])
    C = IntMatrix.from_rows([[1]])
    D = IntMatrix.from_rows([[0, 0]])
    inst = FourBlockInstance.make(
        2, A, B, C, D, [7], [[big], [big]],
        [0, 0, 0, 0, 0], [big, big, big, big, big], [0, 3, 1, 2, 1],
    )
    res = solve_ones(inst)
    assert isinstance(res, Solution)
    assert evaluate(inst, res.x).feasible
    # per brick the full weight belongs on the profitable column
    assert res.objective == 3 * (big - 7) + 2 * (big - 7)


def test_transport_duals_reject_a_wrong_flow():
    # the certificate is the only proof that the rounding is optimal
    p = TransportProblem.make(
        [1, 1], [1, 1], [[0, 0], [0, 0]], [[1, 1], [1, 1]], [[3, 1], [0, 2]]
    )
    best = solve_transport(p)
    assert best.cells == ((1, 0), (0, 1)) and best.objective == 5
    _transport_duals(p, best)
    with pytest.raises(InternalInconsistencyError):
        _transport_duals(p, TransportResult(((0, 1), (1, 0)), 1))  # swapped: feasible, worse
    with pytest.raises(InternalInconsistencyError):
        _transport_duals(p, TransportResult(best.cells, 6))  # objective overstated
    with pytest.raises(InternalInconsistencyError):
        _transport_duals(p, TransportResult(((1, 1), (0, 0)), 4))  # misses the totals
    with pytest.raises(InternalInconsistencyError):
        _transport_duals(p, TransportResult(((2, -1), (-1, 2)), 5))  # leaves the boxes


def test_transport_duals_reject_every_suboptimal_feasible_flow():
    rng = random.Random(9107)
    rejected = 0
    for _ in range(60):
        n, t = rng.randint(1, 4), rng.randint(2, 3)
        lower = [[rng.randint(-3, 1) for _ in range(t)] for _ in range(n)]
        upper = [[lo + rng.randint(0, 4) for lo in row] for row in lower]
        profit = [[rng.randint(-6, 6) for _ in range(t)] for _ in range(n)]
        z = [tuple(rng.randint(lower[i][h], upper[i][h]) for h in range(t)) for i in range(n)]
        r = [sum(row) for row in z]
        y = [sum(z[i][h] for i in range(n)) for h in range(t)]
        p = TransportProblem.make(r, y, lower, upper, profit)
        best = solve_transport(p)
        _transport_duals(p, best)
        worth = sum(profit[i][h] * z[i][h] for i in range(n) for h in range(t))
        if worth < best.objective:
            with pytest.raises(InternalInconsistencyError):
                _transport_duals(p, TransportResult(tuple(z), worth))
            rejected += 1
    assert rejected >= 15


def test_one_flow_per_transport_and_no_lp_over_the_bricks(monkeypatch):
    # the search's certified transport is the rounding: nothing is re-solved
    transports, lps = [], []
    real_transport, real_lp = ones.solve_transport, ones.solve_lp

    def spy_transport(p):
        transports.append(p)
        return real_transport(p)

    def spy_lp(p):
        lps.append(p)
        return real_lp(p)

    monkeypatch.setattr(ones, "solve_transport", spy_transport)
    monkeypatch.setattr(ones, "solve_lp", spy_lp)
    rng = random.Random(9108)
    cases = [
        ones_instance(
            rng.randint(8, 12), rng.randint(2, 3), rng.randint(0, 2),
            rng.randint(0, 2), rng, width=3, coeff=3,
        )
        for _ in range(24)
    ]
    # the first of these meets one transport at two lattice points whose x0
    # differ but share B x0 and y
    rng = random.Random(9115)
    cases += [ones_instance(8, 3, 3, 1, rng) for _ in range(2)]
    solved_by_f = {}
    for trial, inst in enumerate(cases):
        transports.clear()
        lps.clear()
        got = solve_ones(inst)
        assert len(set(transports)) == len(transports), (trial,)
        assert all(len(p.objective) != inst.n * inst.t_A for p in lps), (trial,)
        if isinstance(got, Solution):
            f = len(_aggregate_lattice(inst).basis)
            solved_by_f[f > 0] = solved_by_f.get(f > 0, 0) + 1
    assert solved_by_f.get(False, 0) >= 3 and solved_by_f.get(True, 0) >= 3


def test_aggregate_search_makes_no_cold_two_phase_solve(monkeypatch):
    # the bound LP is one warm tableau: one slack start per search, then
    # only warm re-solves that add cuts as rows and edit the box
    calls = {"solve_lp": 0, "slack_start": 0, "edited": 0}
    real_start, real_edited = ratlp._Simplex.slack_start, ratlp.WarmLp.edited

    def count(name, real):
        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return spy

    monkeypatch.setattr(ones, "solve_lp", count("solve_lp", ones.solve_lp))
    monkeypatch.setattr(ratlp._Simplex, "slack_start", staticmethod(count("slack_start", real_start)))
    monkeypatch.setattr(ratlp.WarmLp, "edited", count("edited", real_edited))
    rng = random.Random(9116)
    searched = 0
    for trial in range(30):
        inst = ones_instance(rng.randint(3, 8), 3, rng.randint(1, 3), 1, rng, width=3, coeff=3)
        form = _aggregate_lattice(inst)
        if form is None or not form.basis:
            continue
        for k in calls:
            calls[k] = 0
        solve_ones(inst)
        assert calls["solve_lp"] == 0, (trial,)
        assert calls["slack_start"] <= 1, (trial,)  # more would be a second cold solve
        searched += calls["edited"] > 0
    assert searched >= 10


def test_matches_highs_beyond_the_enumerator():
    # the ones-transport shape, 30 bricks: far past enumerate_optimum, so the
    # oracle is HiGHS, with both its answer and the route's re-checked exactly
    rng = random.Random(71)
    feas = infeasible = 0
    for _ in range(20):
        inst = generators.random_ones_instance(rng, n=30, t_A=3, t_B=1, s_C=1, seeded_rate=0.5)
        want = highs_optimum(inst)
        got = solve_ones(inst)
        if want is None:
            assert isinstance(got, Infeasible), got
            infeasible += 1
            continue
        assert isinstance(got, Solution), (got, want.objective)
        report = evaluate(inst, got.x)
        assert report.feasible and report.objective == got.objective
        assert got.objective == want.objective
        feas += 1
    assert feas >= 8 and infeasible >= 4, (feas, infeasible)
