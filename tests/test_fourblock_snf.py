import itertools
import random

import fourblock_reference
import pytest
from highs_oracle import highs_optimum

from blockip import fourblock_snf, generators, smallip
from blockip.errors import InternalInconsistencyError, MalformedProblemError, NotEligibleError
from blockip.fourblock_snf import (
    EliminationData,
    _prepare,
    _propagate,
    build_grid,
    elimination_from_snf,
    enumerate_cells,
    solve_4block_snf,
    solve_cell,
)
from blockip.intlin import brick_form, integer_rank, kernel_basis
from blockip.model import (
    FourBlockInstance,
    Infeasible,
    IntMatrix,
    Solution,
    evaluate,
)
from blockip.nfold_snf import solve_nfold_snf
from blockip.oracle import OracleBudget, enumerate_optimum
from blockip.ratlp import INFEASIBLE, OPTIMAL, LpResult


def cell_values(inst):
    """Optima of every cell the solver enumerates, in order (no pruning)."""
    prepared = _prepare(inst)
    if prepared is None:
        raise NotEligibleError("cell enumeration needs at least one brick")
    if isinstance(prepared, Infeasible):
        return []
    elim, grid = prepared
    values = []
    for cell in enumerate_cells(inst, elim, grid):
        res = solve_cell(cell)
        if res.status == OPTIMAL:
            values.append(res.value + cell.constant)
    return values


def random_full_rank(rng, s_A, coeff=3):
    """Random s_A x (s_A+1) matrix with full row rank."""
    t_A = s_A + 1
    while True:
        rows = [[rng.randint(-coeff, coeff) for _ in range(t_A)] for _ in range(s_A)]
        M = IntMatrix.from_rows(rows)
        if integer_rank(M) == s_A:
            return M


def random_instance(rng, s_A=None, n=None, width=3, seeded_rate=0.6, A=None):
    """Small eligible instance; seeded instances have a known lattice point."""
    if A is not None:
        s_A = A.rows
    elif s_A is None:
        s_A = rng.choice([1, 1, 2])
    t_A = s_A + 1
    if n is None:
        n = rng.randint(1, 4)
    t_B = rng.randint(0, 2)
    s_C = rng.randint(0, 2)
    if A is None:
        A = random_full_rank(rng, s_A)
    B = IntMatrix.from_rows(
        [[rng.randint(-2, 2) for _ in range(t_B)] for _ in range(s_A)]
    ) if t_B else IntMatrix.zero(s_A, 0)
    C = IntMatrix.from_rows(
        [[rng.randint(-2, 2) for _ in range(t_B)] for _ in range(s_C)]
    ) if s_C and t_B else IntMatrix.zero(s_C, t_B)
    D = IntMatrix.from_rows(
        [[rng.randint(-2, 2) for _ in range(t_A)] for _ in range(s_C)]
    ) if s_C else IntMatrix.zero(0, t_A)
    N = t_B + n * t_A
    l = [rng.randint(-3, 1) for _ in range(N)]
    u = [v + rng.randint(0, width) for v in l]
    w = [rng.randint(-4, 4) for _ in range(N)]
    if rng.random() < seeded_rate:
        x = [rng.randint(l[k], u[k]) for k in range(N)]
        x0 = x[:t_B]
        b0 = list(C.mul_vec(x0))
        b = []
        for i in range(n):
            xi = x[t_B + i * t_A : t_B + (i + 1) * t_A]
            bi = [av + bv for av, bv in zip(A.mul_vec(xi), B.mul_vec(x0))]
            b.append(tuple(bi))
            for r, v in enumerate(D.mul_vec(xi)):
                b0[r] += v
    else:
        b0 = [rng.randint(-6, 6) for _ in range(s_C)]
        b = [tuple(rng.randint(-6, 6) for _ in range(s_A)) for _ in range(n)]
    return FourBlockInstance.make(n, A, B, C, D, b0, b, l, u, w)


def running_example():
    return FourBlockInstance.make(
        n=2,
        A=IntMatrix.from_rows([(1, 1)]),
        B=IntMatrix.from_rows([(1,)]),
        C=IntMatrix.from_rows([(1,)]),
        D=IntMatrix.from_rows([(1, 2)]),
        b0=(7,),
        b=((4,), (6,)),
        l=(-2, -1, -1, 0, 0),
        u=(3, 4, 4, 5, 5),
        w=(2, 1, -1, 3, 1),
    )


def test_frozen_running_example():
    got = solve_4block_snf(running_example())
    assert isinstance(got, Solution)
    assert got.objective == 20
    assert got.x == (2, 3, -1, 4, 0)
    assert got.solver_tag == "fourblock_snf"


def test_rejects_malformed():
    inst = running_example()
    bad = FourBlockInstance.make(
        inst.n, inst.A, inst.B, inst.C, inst.D, inst.b0, ((4,),),
        inst.l, inst.u, inst.w,
    )
    with pytest.raises(MalformedProblemError):
        solve_4block_snf(bad)


def test_rejects_wide_brick_matrix():
    # two more columns than rows: outside this solver's reach
    inst = FourBlockInstance.nfold(
        n=1,
        A=IntMatrix.from_rows([(1, 1, 1)]),
        D=IntMatrix.zero(0, 3),
        b0=(),
        b=((3,),),
        l=(0, 0, 0),
        u=(2, 2, 2),
        w=(1, 1, 1),
    )
    with pytest.raises(NotEligibleError):
        solve_4block_snf(inst)


def test_divisibility_gap_is_infeasible():
    # brick equations differ by an amount the brick lattice cannot absorb
    inst = FourBlockInstance.nfold(
        n=2,
        A=IntMatrix.from_rows([(2, 0)]),
        D=IntMatrix.zero(0, 2),
        b0=(),
        b=((0,), (1,)),
        l=(-5, -5, -5, -5),
        u=(5, 5, 5, 5),
        w=(1, 1, 1, 1),
    )
    assert solve_4block_snf(inst) == Infeasible("DivisibilityFail")


# no bricks: max 2 x_1 + x_2 with x_1 + x_2 = 4 over [0, 3]^2
NO_BRICKS = FourBlockInstance.make(
    n=0, A=IntMatrix.from_rows([(1, 1)]), B=IntMatrix.from_rows([(1, 0)]),
    C=IntMatrix.from_rows([(1, 1)]), D=IntMatrix.from_rows([(1, 2)]),
    b0=(4,), b=(), l=(0, 0), u=(3, 3), w=(2, 1),
)


def test_no_bricks_reduces_to_shared_variables():
    got = solve_4block_snf(NO_BRICKS)
    assert got == Solution(x=(3, 1), objective=7, solver_tag="fourblock_snf")
    odd = FourBlockInstance.make(
        n=0, A=IntMatrix.from_rows([(1, 1)]), B=IntMatrix.from_rows([(2,)]),
        C=IntMatrix.from_rows([(2,)]), D=IntMatrix.from_rows([(1, 2)]),
        b0=(3,), b=(), l=(0,), u=(5,), w=(1,),
    )
    assert solve_4block_snf(odd) == Infeasible("NoLatticePoint")


def test_no_bricks_optimum_is_re_evaluated(monkeypatch):
    # an infeasible point, then the optimum with the wrong value
    for num, value in (((3, 0), 6), ((3, 1), 8)):
        wrong = LpResult(OPTIMAL, num, 1, value)
        monkeypatch.setattr(fourblock_snf, "solve_mip", lambda p, cutoff=None, r=wrong: r)
        with pytest.raises(InternalInconsistencyError):
            solve_4block_snf(NO_BRICKS)


def test_no_variables_at_all():
    inst = FourBlockInstance.make(
        n=0, A=IntMatrix.from_rows([(1, 1)]), B=IntMatrix.zero(1, 0),
        C=IntMatrix.zero(1, 0), D=IntMatrix.from_rows([(1, 2)]),
        b0=(0,), b=(), l=(), u=(), w=(),
    )
    assert solve_4block_snf(inst) == Solution((), 0, "fourblock_snf")


def test_all_ones_brick_row_is_eligible():
    # the aggregation solver owns this shape, but the quotient route must
    # still accept it: it satisfies the same structural requirements
    rng = random.Random(3)
    for _ in range(12):
        inst = random_instance(rng, A=IntMatrix.from_rows([(1, 1)]))
        got = solve_4block_snf(inst)
        want = enumerate_optimum(inst, OracleBudget(10**7))
        if isinstance(want, Solution):
            assert isinstance(got, Solution) and got.objective == want.objective
        else:
            assert isinstance(got, Infeasible)


def test_elimination_shifts_solve_the_difference_systems():
    rng = random.Random(11)
    for _ in range(40):
        inst = random_instance(rng)
        elim = elimination_from_snf(inst)
        if isinstance(elim, Infeasible):
            continue
        assert all(v == 0 for v in elim.offsets[0])
        assert any(v != 0 for v in elim.theta)
        assert all(v == 0 for v in inst.A.mul_vec(elim.theta))
        for i in range(inst.n):
            delta = inst.A.mul_vec(elim.offsets[i])
            want = [inst.b[i][r] - inst.b[0][r] for r in range(inst.s_A)]
            assert list(delta) == want
        totals = [sum(off[h] for off in elim.offsets) for h in range(inst.t_A)]
        assert list(elim.offset_totals) == totals
        c0 = sum(
            inst.w[inst.t_B + i * inst.t_A + h] * elim.offsets[i][h]
            for i in range(inst.n)
            for h in range(inst.t_A)
        )
        assert elim.c0 == c0


def _unit_elim(theta):
    return EliminationData(
        theta=(theta,), offsets=((0,),), offset_totals=(0,), c0=0,
    )


def test_grid_partition_positive_step():
    # step 3, shifted bounds [4, 7]: the bound values change at 1 and 2
    grid = build_grid(_unit_elim(3), [(4,)], [(7,)])
    cells = grid[0]
    assert [(c.tau, c.tau_bar) for c in cells] == [(0, 0), (1, 1), (2, 2)]
    assert [(c.d[0], c.d_bar[0]) for c in cells] == [(2, 2), (1, 2), (1, 1)]


def test_grid_partition_negative_step():
    grid = build_grid(_unit_elim(-3), [(4,)], [(7,)])
    cells = grid[0]
    assert [(c.tau, c.tau_bar) for c in cells] == [(0, 0), (1, 1), (2, 2)]
    assert [(c.d[0], c.d_bar[0]) for c in cells] == [(-2, -2), (-2, -1), (-1, -1)]


def test_grid_unit_step_single_cell():
    grid = build_grid(_unit_elim(1), [(4,)], [(7,)])
    cells = grid[0]
    assert len(cells) == 1
    (c,) = cells
    assert (c.tau, c.tau_bar, c.d[0], c.d_bar[0]) == (0, 0, 4, 7)


def test_grid_values_constant_within_cells():
    # the stored quotient bounds must hold at every remainder of the cell
    def ceil_div(a, b):
        return -((-a) // b)

    rng = random.Random(17)
    for _ in range(200):
        theta = rng.choice([v for v in range(-7, 8) if v])
        n = rng.randint(1, 3)
        lower, upper, offsets = [], [], []
        for _ in range(n):
            lo = rng.randint(-10, 10)
            lower.append((lo,))
            upper.append((lo + rng.randint(0, 12),))
            offsets.append((rng.randint(-10, 10),))
        offsets[0] = (0,)
        elim = EliminationData(
            theta=(theta,), offsets=tuple(offsets),
            offset_totals=(sum(o[0] for o in offsets),), c0=0,
        )
        cells = build_grid(elim, lower, upper)[0]
        assert cells[0].tau == 0 and cells[-1].tau_bar == abs(theta) - 1
        for k, c in enumerate(cells):
            if k:
                assert c.tau == cells[k - 1].tau_bar + 1
            for xi in range(c.tau, c.tau_bar + 1):
                for i in range(n):
                    a = lower[i][0] - offsets[i][0] - xi
                    b = upper[i][0] - offsets[i][0] - xi
                    if theta > 0:
                        d, dbar = ceil_div(a, theta), b // theta
                    else:
                        d, dbar = ceil_div(b, theta), a // theta
                    assert (d, dbar) == (c.d[i], c.d_bar[i])


def test_every_cell_value_is_dominated_by_the_optimum():
    rng = random.Random(29)
    checked = 0
    while checked < 12:
        inst = random_instance(rng, seeded_rate=1.0)
        got = solve_4block_snf(inst)
        if not isinstance(got, Solution):
            continue
        vals = cell_values(inst)
        assert vals and max(vals) == got.objective
        assert all(v <= got.objective for v in vals)
        checked += 1


def test_cell_mips_have_no_slack_columns():
    # one column per shared variable, per grid coordinate's remainder and
    # quotient, per zero-step coordinate, and the merged free integer p;
    # the inequality rows are ranged rows, not slack columns
    rng = random.Random(43)
    cells = zero_step_cells = 0
    for trial in range(40):
        A = IntMatrix.from_rows([(2, 0)]) if trial % 4 == 0 else None
        inst = random_instance(rng, A=A, n=rng.randint(1, 3), seeded_rate=1.0)
        elim = elimination_from_snf(inst)
        if isinstance(elim, Infeasible):
            continue
        grid = build_grid(
            elim,
            [inst.l[inst.brick_slice(i)] for i in range(inst.n)],
            [inst.u[inst.brick_slice(i)] for i in range(inst.n)],
        )
        zero_hs = sum(1 for th in elim.theta if th == 0)
        grid_hs = inst.t_A - zero_hs
        width = inst.t_B + 2 * grid_hs + zero_hs + 1
        for cell in enumerate_cells(inst, elim, grid):
            lp = cell.mip.lp
            assert len(lp.objective) == len(cell.mip.integer_mask) == width
            assert all(len(coeffs) == width for coeffs, _, _ in lp.rows)
            cells += 1
            zero_step_cells += zero_hs > 0
    assert cells >= 40 and zero_step_cells >= 5


def test_elimination_routes_agree_on_single_row_bricks():
    # 1x2 brick matrices, the shape a gcd identity alone would eliminate,
    # take the Smith route like every other shape; the exhaustive oracle
    # is the other route it must agree with
    rng = random.Random(41)
    feas = 0
    for _ in range(60):
        while True:
            lam, mu = rng.randint(-6, 6), rng.randint(-6, 6)
            if (lam, mu) != (0, 0):
                break
        inst = random_instance(rng, A=IntMatrix.from_rows([(lam, mu)]))
        want = enumerate_optimum(inst, OracleBudget(10**7))
        got = solve_4block_snf(inst)
        if isinstance(want, Solution):
            assert isinstance(got, Solution), (inst, got, want)
            assert got.objective == want.objective, (inst, got, want)
            report = evaluate(inst, got.x)
            assert report.feasible and report.objective == got.objective
            feas += 1
        else:
            assert isinstance(got, Infeasible), (inst, got)
    assert feas >= 10


def test_matches_enumeration_battery():
    rng = random.Random(20260814)
    feas = infeas = 0
    for _ in range(200):
        inst = random_instance(rng)
        want = enumerate_optimum(inst, OracleBudget(10**7))
        got = solve_4block_snf(inst)
        if isinstance(want, Solution):
            assert isinstance(got, Solution), (inst, got, want)
            assert got.objective == want.objective, (inst, got, want)
            report = evaluate(inst, got.x)
            assert report.feasible and report.objective == got.objective
            feas += 1
        else:
            assert isinstance(got, Infeasible), (inst, got)
            infeas += 1
    assert feas >= 60 and infeas >= 30


def test_pinned_boxes():
    # width-zero boxes leave a single candidate point
    A = IntMatrix.from_rows([(1, 1)])
    B = IntMatrix.from_rows([(1,)])
    C = IntMatrix.from_rows([(1,)])
    D = IntMatrix.from_rows([(0, 0)])
    x = (1, 2, 3, 0, 4)
    good = FourBlockInstance.make(
        2, A, B, C, D, (1,), ((6,), (5,)), x, x, (1, 1, 1, 1, 1),
    )
    got = solve_4block_snf(good)
    assert got == Solution(x=x, objective=10, solver_tag="fourblock_snf")
    bad = FourBlockInstance.make(
        2, A, B, C, D, (1,), ((6,), (4,)), x, x, (1, 1, 1, 1, 1),
    )
    assert solve_4block_snf(bad) == Infeasible("NoLatticePoint")


def _integer_points(rows, lo, hi):
    """Every integer point of the box that meets each row sum a_k x_k <= b."""
    for x in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        if all(sum(a * x[k] for k, a in coeffs.items()) <= b for coeffs, b in rows):
            yield x


def test_propagation_never_cuts_off_an_integer_point():
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
        if not _propagate(rows, new_lo, new_hi):
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


def test_screen_keeps_every_cell_with_a_point():
    # with the screen switched off (bound propagation and the merge windows'
    # slack pre-test) every candidate cell reaches its LP: the feasible cells
    # and their optima must be the same, in the same order
    def run():
        rng = random.Random(53)
        values, lps = [], 0
        for _ in range(60):
            inst = random_instance(rng, n=rng.randint(2, 5), seeded_rate=0.8)
            values.append(cell_values(inst))
            prepared = _prepare(inst)
            if not isinstance(prepared, Infeasible):
                lps += sum(1 for _ in enumerate_cells(inst, *prepared))
        return values, lps

    screened, screened_lps = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fourblock_snf, "_propagate", lambda rows, lo, hi: True)
        mp.setattr(fourblock_snf, "_p_rows_have_slack", lambda *args: True)
        unscreened, unscreened_lps = run()
    assert unscreened == screened
    assert sum(map(len, screened)) >= 50
    # the switch really reached the screen: without it more cells get an LP
    assert unscreened_lps > screened_lps, (unscreened_lps, screened_lps)


def test_most_cells_are_screened_without_an_lp(monkeypatch):
    # n = 40 single-row bricks make hundreds of candidate cells per solve,
    # almost all empty; the integer screen must leave few for the LP (86
    # LPs over these 16 solves when written, 120 before the p-free rows)
    calls = []
    real = smallip.solve_lp_warm

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(smallip, "solve_lp_warm", counted)
    rng = random.Random(61)
    solves = 16
    for _ in range(solves):
        inst = generators.random_snf_instance(rng, n=40, s_A=1, t_B=1, s_C=1, seeded_rate=0.9)
        solve_4block_snf(inst)
    assert len(calls) <= 6 * solves, len(calls)


def test_matches_highs_beyond_the_enumerator():
    # 40 bricks: far past enumerate_optimum, so the oracle is HiGHS, with
    # both its answer and the route's re-checked exactly
    pytest.importorskip("scipy.optimize")
    rng = random.Random(67)
    feas, reasons = 0, []
    for _ in range(20):
        inst = generators.random_snf_instance(
            rng, n=40, s_A=rng.choice((1, 2)), t_B=1, s_C=1, seeded_rate=0.5)
        want = highs_optimum(inst)
        got = solve_4block_snf(inst)
        if want is None:
            assert isinstance(got, Infeasible), got
            reasons.append(got.reason)
            continue
        assert isinstance(got, Solution), (got, want.objective)
        report = evaluate(inst, got.x)
        assert report.feasible and report.objective == got.objective
        assert got.objective == want.objective
        feas += 1
    # some infeasible verdicts come from the cells, not from divisibility
    assert feas >= 8 and reasons.count("NoLatticePoint") >= 2, (feas, reasons)


def test_smith_routes_edge_shapes_against_the_enumerator():
    # t_B = 0 goes through both Smith routes; every other shape through this one
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def instances(draw):
        kind = draw(st.sampled_from(("tB0", "sC0", "n0", "point", "negative", "big")))
        s_A = draw(st.integers(1, 2))
        t_A = s_A + 1
        n = 0 if kind == "n0" else draw(st.integers(1, 3))
        t_B = 0 if kind == "tB0" else draw(st.integers(0, 2))
        s_C = 0 if kind == "sC0" else draw(st.integers(0, 2))
        big = 10 ** 30 if kind == "big" else 1
        width = 2 if kind == "big" else 3

        def mat(rows, cols, scale):
            if not rows:
                return IntMatrix.zero(0, cols)
            coeff = st.integers(-3 * scale, 3 * scale)
            return IntMatrix.from_rows([[draw(coeff) for _ in range(cols)] for _ in range(rows)])

        A = mat(s_A, t_A, big)
        hypothesis.assume(brick_form(A) is not None)
        B, C, D = mat(s_A, t_B, big), mat(s_C, t_B, 1), mat(s_C, t_A, big)
        N = t_B + n * t_A
        l = [draw(st.integers(-3, 2)) for _ in range(N)]
        u = [lo + (0 if kind == "point" else draw(st.integers(0, width))) for lo in l]
        w = [draw(st.integers(-6, -1) if kind == "negative" else st.integers(-6, 6))
             for _ in range(N)]
        z = [draw(st.integers(l[j], u[j])) for j in range(N)]
        x0 = z[:t_B]
        bricks = [z[t_B + i * t_A:t_B + (i + 1) * t_A] for i in range(n)]
        agg = [sum(x[h] for x in bricks) for h in range(t_A)]
        b0 = [c + d for c, d in zip(C.mul_vec(x0), D.mul_vec(agg))]
        b = [[p + q for p, q in zip(B.mul_vec(x0), A.mul_vec(x))] for x in bricks]
        if draw(st.booleans()):  # off the seed: often infeasible
            if s_C:
                b0[draw(st.integers(0, s_C - 1))] += draw(st.sampled_from((1, -1, big)))
            elif n:
                b[draw(st.integers(0, n - 1))][draw(st.integers(0, s_A - 1))] += draw(
                    st.sampled_from((1, -1)))
        return FourBlockInstance.make(n, A, B, C, D, b0, b, l, u, w)

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(instances())
    def check(inst):
        want = enumerate_optimum(inst, OracleBudget(10 ** 6))
        routes = (solve_4block_snf, solve_nfold_snf) if inst.is_nfold else (solve_4block_snf,)
        for solve in routes:
            got = solve(inst)
            if isinstance(want, Infeasible):
                assert isinstance(got, Infeasible), solve.__name__
                continue
            assert isinstance(got, Solution) and got.objective == want.objective, solve.__name__
            report = evaluate(inst, got.x)
            assert report.feasible and report.objective == got.objective, solve.__name__

    check()


def _zero_step_brick(rng, s_A):
    """A full-row-rank brick matrix whose kernel step has a zero entry."""
    while True:
        A = random_full_rank(rng, s_A)
        if 0 in kernel_basis(brick_form(A))[0]:
            return A


def _enumerations(inst):
    """(the package's cells, the reference's cells) of inst, or None."""
    prepared = _prepare(inst)
    if prepared is None or isinstance(prepared, Infeasible):
        return None
    elim, grid = prepared
    return (list(enumerate_cells(inst, elim, grid)),
            list(fourblock_reference.enumerate_cells(inst, elim, grid)))


def _screened_out(cells, want):
    """How many of the reference's cells the package drops.

    cells must be want with some cells removed, and the screen may remove
    a cell only when it has no integer point, so each removed cell's MIP
    must be infeasible.
    """
    dropped = fourblock_reference.screened_out(cells, want)
    assert dropped is not None, "a cell the reference does not yield, or out of its order"
    for cell in dropped:
        assert solve_cell(cell).status == INFEASIBLE, cell
    return len(dropped)


def test_enumeration_matches_the_reference():
    # the vector tournaments, the scalar merge-window sweep and the p-free
    # window rows must yield the reference enumerator's cells in its order,
    # less some that have no integer point, over s_A = 1, 2, 3, t_B = 1, 2,
    # n = 1..40, and a zero-step coordinate in every fifth instance
    rng = random.Random(71)
    tally = {"instances": 0, "cells": 0, "dropped": 0, "three_grid": 0, "zero_step": 0}
    for k in range(330):
        s_A = (1, 2, 3)[k % 3]
        n = rng.randint(1, 40)
        if k % 5 == 4:  # a coordinate with a zero step
            inst = random_instance(rng, n=n, seeded_rate=0.8, A=_zero_step_brick(rng, s_A))
        else:
            inst = generators.random_snf_instance(
                rng, n=n, s_A=s_A, t_B=rng.randint(1, 2), s_C=rng.randint(0, 2),
                seeded_rate=0.8)
        got = _enumerations(inst)
        if got is None:
            continue
        cells, want = got
        tally["dropped"] += _screened_out(cells, want)
        tally["instances"] += 1
        tally["cells"] += len(cells)
        theta = kernel_basis(brick_form(inst.A))[0]
        if cells and sum(1 for v in theta if v) >= 3:
            tally["three_grid"] += 1
        if cells and 0 in theta:
            tally["zero_step"] += 1
    # every shape contributes cells, and the screen drops some of the
    # reference's (220 of 1182 when written), so neither check is vacuous
    assert tally["instances"] >= 250 and tally["cells"] >= 600, tally
    assert tally["dropped"] >= 100, tally
    assert tally["three_grid"] >= 10 and tally["zero_step"] >= 20, tally


def test_enumeration_matches_the_reference_at_scale():
    rng = random.Random(73)
    for n, s_A in ((200, 1), (200, 2), (500, 1), (1000, 1)):
        inst = generators.random_snf_instance(rng, n=n, s_A=s_A, t_B=1, s_C=1, seeded_rate=0.9)
        got, want = _enumerations(inst)
        _screened_out(got, want)
        assert got, (n, s_A)  # each instance reaches at least one cell LP
