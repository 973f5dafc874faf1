import math
import random
from fractions import Fraction

import pytest
from highs_oracle import highs_optimum

from blockip import generators, intlin, ones, ratlp
from blockip.errors import InternalInconsistencyError, NotAllOnesError
from blockip.flow import TransportProblem, TransportResult, solve_transport
from blockip.intlin import coordinate_box, reduce_basis
from blockip.model import FourBlockInstance, Infeasible, IntMatrix, Solution, evaluate
from blockip.ones import (
    OnesContext,
    _aggregate_lattice,
    _require_ones,
    _transport_duals,
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

    y_lo, y_hi = inst.brick_sums(inst.l), inst.brick_sums(inst.u)

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
    # the bound LP is one warm tableau: one row-less start per search, then
    # only warm re-solves that add cuts as rows and edit the box
    calls = {"solve_lp": 0, "row_less": 0, "edited": 0}
    real_start, real_edited = ratlp.WarmLp._row_less, ratlp.WarmLp.edited

    def count(name, real):
        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return spy

    monkeypatch.setattr(ones, "solve_lp", count("solve_lp", ones.solve_lp))
    monkeypatch.setattr(ratlp.WarmLp, "_row_less", staticmethod(count("row_less", real_start)))
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
        assert calls["row_less"] <= 1, (trial,)  # more would be a second cold solve
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


# The lattice set-up as it was done in Fractions: the LLL that recomputes the
# whole Gram-Schmidt form after every step, and the coordinate box solved from
# the Fraction Gram matrix.  intlin.reduce_basis and intlin.coordinate_box
# must return exactly what these return.

def reference_reduce_kernel(kernel):
    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    basis = [list(v) for v in kernel]
    m = len(basis)
    if m <= 1:
        return basis

    def gso():
        mu = [[Fraction(0)] * m for _ in range(m)]
        norms, star = [], []
        for i in range(m):
            v = [Fraction(x) for x in basis[i]]
            for j in range(i):
                mu[i][j] = Fraction(dot(basis[i], star[j])) / norms[j]
                v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
            star.append(v)
            norms.append(dot(v, v))
        return mu, norms

    k = 1
    while k < m:
        mu, norms = gso()
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                basis[k] = [x - q * y for x, y in zip(basis[k], basis[j])]
                mu, norms = gso()
        if norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            basis[k], basis[k - 1] = basis[k - 1], basis[k]
            k = max(k - 1, 1)
    return basis


def reference_mat_solve(a, b):
    """Exact solve of a X = b for square nonsingular rational a, b as rows."""
    k = len(a)
    m = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for col in range(k):
        piv = next(r for r in range(col, k) if m[r][col])
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(k):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[k:] for row in m]


def reference_coordinate_box(basis, p, xy_lo, xy_hi):
    f, taw = len(basis), len(p)
    gram = [[Fraction(sum(basis[a][i] * basis[b][i] for i in range(taw))) for b in range(f)]
            for a in range(f)]
    proj = reference_mat_solve(gram, [[Fraction(basis[k][i]) for i in range(taw)] for k in range(f)])
    mid = [Fraction(xy_lo[i] + xy_hi[i], 2) for i in range(taw)]
    shift = [round(sum(proj[k][i] * (mid[i] - p[i]) for i in range(taw))) for k in range(f)]
    if any(shift):
        p = [p[i] + sum(shift[k] * basis[k][i] for k in range(f)) for i in range(taw)]
    v_lo, v_hi = [], []
    for k in range(f):
        lo = hi = Fraction(0)
        for i in range(taw):
            m = proj[k][i]
            if not m:
                continue
            ends = (m * (xy_lo[i] - p[i]), m * (xy_hi[i] - p[i]))
            lo += min(ends)
            hi += max(ends)
        v_lo.append(math.ceil(lo))
        v_hi.append(math.floor(hi))
        if v_lo[-1] > v_hi[-1]:
            return None
    return p, v_lo, v_hi


def reference_form(inst):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intlin, "reduce_basis", reference_reduce_kernel)
        mp.setattr(intlin, "coordinate_box", reference_coordinate_box)
        return _aggregate_lattice(inst)


def skewed_kernel(rng, m, dim, entry, steps):
    """m independent integer vectors of length dim: a random basis with
    |entries| <= entry, sheared by steps random unimodular row operations."""
    while True:
        basis = [[rng.randint(-entry, entry) for _ in range(dim)] for _ in range(m)]
        if gram_det(basis):
            break
    for _ in range(steps if m > 1 else 0):
        a, b = rng.sample(range(m), 2)
        q = rng.randint(-3, 3)
        basis[a] = [x + q * y for x, y in zip(basis[a], basis[b])]
    return basis


def gram_det(basis):
    """Determinant of the Gram matrix, by Fraction Gaussian elimination."""
    m = len(basis)
    g = [[Fraction(sum(x * y for x, y in zip(a, b))) for b in basis] for a in basis]
    det = Fraction(1)
    for c in range(m):
        piv = next((r for r in range(c, m) if g[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            g[c], g[piv] = g[piv], g[c]
            det = -det
        det *= g[c][c]
        for r in range(c + 1, m):
            f = g[r][c] / g[c][c]
            g[r] = [x - f * y for x, y in zip(g[r], g[c])]
    return det


def lattice_setup_battery():
    """Seeded instances of the benchmark's two all-ones shapes and of edge
    shapes, with coefficients scaled from 1 to 10^40."""
    rng = random.Random(9120)
    shapes = [
        dict(n=30, t_A=3, t_B=1, s_C=1),  # ones-transport
        dict(n=8, t_A=3, t_B=3, s_C=1),  # ones-lattice
        dict(n=6, t_A=3, t_B=0, s_C=0),
        dict(n=6, t_A=2, t_B=2, s_C=2),
        dict(n=5, t_A=4, t_B=0, s_C=2),
    ]
    out = []
    for scale in (1, 10 ** 6, 10 ** 20, 10 ** 40):
        for shape in shapes:
            for _ in range(2 if scale < 10 ** 20 else 1):
                out.append(generators.random_ones_instance(rng, scale=scale, seeded_rate=0.9, **shape))
    return out


def test_reduce_kernel_matches_the_fraction_reference_with_ties(monkeypatch):
    # small entries make mu = +-1/2 and other half-way roundings common
    ties = [0]
    real_round = intlin.round_half_even

    def counting_round(num, den):
        ties[0] += 2 * (num % den) == den
        return real_round(num, den)

    monkeypatch.setattr(intlin, "round_half_even", counting_round)
    rng = random.Random(9121)
    kernels = []
    for trial in range(2000):
        m = 4 if trial % 7 == 0 else rng.randint(2, 3)
        kernels.append(skewed_kernel(rng, m, rng.randint(m, m + 2), 3, rng.randint(0, 3)))
    for _ in range(60):
        m = rng.randint(2, 4)
        kernels.append(skewed_kernel(rng, m, rng.randint(m, m + 2), 10 ** 40, rng.randint(0, 4)))
    for trial, kernel in enumerate(kernels):
        assert reduce_basis(kernel) == reference_reduce_kernel(kernel), trial
    assert ties[0] >= 200


def test_lattice_form_matches_the_fraction_reference():
    forms = 0
    for trial, inst in enumerate(lattice_setup_battery()):
        got = _aggregate_lattice(inst)
        assert got == reference_form(inst), trial
        forms += got is not None and len(got.basis) > 1
    assert forms >= 15


def test_coordinate_box_matches_the_fraction_reference_on_skewed_bases():
    rng = random.Random(9122)
    for trial in range(300):
        f = rng.randint(1, 4)
        taw = rng.randint(f, f + 2)
        entry = rng.choice((3, 10 ** 12))
        basis = skewed_kernel(rng, f, taw, entry, rng.randint(0, 4))
        p = [rng.randint(-entry, entry) for _ in range(taw)]
        xy_lo = [rng.randint(-4 * entry, entry) for _ in range(taw)]
        xy_hi = [lo + rng.randint(0, 3 * entry) for lo in xy_lo]
        got = coordinate_box(basis, p, xy_lo, xy_hi)
        want = reference_coordinate_box(basis, p, xy_lo, xy_hi)
        assert (got is None) == (want is None), trial
        if got is not None:
            assert [list(part) for part in got] == [list(part) for part in want], trial


def gso(basis):
    """Gram-Schmidt coefficients and squared norms, in Fractions."""
    mu = [[Fraction(0)] * len(basis) for _ in basis]
    star, norms = [], []
    for i, b in enumerate(basis):
        v = [Fraction(x) for x in b]
        for j in range(i):
            mu[i][j] = sum(x * y for x, y in zip(b, star[j])) / norms[j]
            v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
        star.append(v)
        norms.append(sum(x * x for x in v))
    return mu, norms


def coordinates(basis, v):
    """The rational c with c . basis = v, which must exist."""
    m = len(basis)
    g = [[Fraction(sum(x * y for x, y in zip(a, b))) for b in basis] for a in basis]
    rhs = [[Fraction(sum(x * y for x, y in zip(a, v)))] for a in basis]
    c = [row[0] for row in reference_mat_solve(g, rhs)]
    assert [sum(c[k] * basis[k][i] for k in range(m)) for i in range(len(v))] == list(v)
    return c


def test_reduce_kernel_is_reduced_and_spans_the_input_lattice():
    # properties of any LLL output, independent of the reference
    rng = random.Random(9123)
    for trial in range(400):
        m = rng.randint(1, 4)
        entry = rng.choice((3, 50, 10 ** 30))
        kernel = skewed_kernel(rng, m, rng.randint(m, m + 2), entry, rng.randint(0, 8))
        out = reduce_basis(kernel)
        assert len(out) == m and all(type(x) is int for v in out for x in v), trial
        mu, norms = gso(out)
        for i in range(m):
            assert all(abs(mu[i][j]) <= Fraction(1, 2) for j in range(i)), trial
            if i:
                assert norms[i] >= (Fraction(3, 4) - mu[i][i - 1] ** 2) * norms[i - 1], trial
        # the same lattice: integer coordinates in the input basis, same volume
        assert gram_det(out) == gram_det(kernel), trial
        for v in out:
            assert all(c.denominator == 1 for c in coordinates(kernel, v)), trial


def test_lattice_setup_makes_no_fraction(monkeypatch):
    made = [0]
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made[0] += 1
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    forms = 0
    for inst in lattice_setup_battery()[:12]:
        form = _aggregate_lattice(inst)
        forms += form is not None and len(form.basis) > 1
    assert forms >= 5
    assert made[0] == 0


def test_edge_shapes_against_the_enumerator():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def instances(draw):
        kind = draw(st.sampled_from(("empty", "point", "negative", "big")))
        if kind == "empty":
            n, t_A, t_B, s_C = 0, 1, 0, 0
        else:
            n, t_A = draw(st.integers(0, 3)), draw(st.integers(1, 3))
            t_B, s_C = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        big = 10 ** 30 if kind == "big" else 1
        coeff = st.integers(-3 * big, 3 * big)

        def mat(rows, cols):
            if not rows:
                return IntMatrix.zero(0, cols)
            return IntMatrix.from_rows([[draw(coeff) for _ in range(cols)] for _ in range(rows)])

        A = IntMatrix.from_rows([[1] * t_A])
        B, C, D = mat(1, t_B), mat(s_C, t_B), mat(s_C, t_A)
        N = t_B + n * t_A
        l = [draw(st.integers(-3, 2)) for _ in range(N)]
        u = [lo + (0 if kind == "point" else draw(st.integers(0, 3))) for lo in l]
        w = [draw(st.integers(-6, -1) if kind == "negative" else st.integers(-6, 6))
             for _ in range(N)]
        z = [draw(st.integers(l[j], u[j])) for j in range(N)]
        x0 = z[:t_B]
        agg = [sum(z[t_B + i * t_A + h] for i in range(n)) for h in range(t_A)]
        b0 = [c + d for c, d in zip(C.mul_vec(x0), D.mul_vec(agg))]
        bx0 = B.mul_vec(x0)[0]
        b = [[bx0 + sum(z[t_B + i * t_A:t_B + (i + 1) * t_A])] for i in range(n)]
        if draw(st.booleans()):  # off the seed: often infeasible
            if s_C:
                b0[draw(st.integers(0, s_C - 1))] += draw(st.sampled_from((1, -1, big)))
            elif n:
                b[draw(st.integers(0, n - 1))][0] += draw(st.sampled_from((1, -1)))
        return FourBlockInstance.make(n, A, B, C, D, b0, b, l, u, w)

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(instances())
    def check(inst):
        want = enumerate_optimum(inst, OracleBudget(10 ** 6))
        got = solve_ones(inst)
        if isinstance(want, Infeasible):
            assert isinstance(got, Infeasible)
        else:
            assert isinstance(got, Solution) and got.objective == want.objective
            report = evaluate(inst, got.x)
            assert report.feasible and report.objective == got.objective

    check()
