import dataclasses
import itertools
import random

import fourblock_reference
import pytest
from alarm import timed
from highs_oracle import highs_optimum

from blockip import fourblock_snf, generators, ratlp, smallip
from blockip.errors import (
    BudgetExceededError,
    InternalInconsistencyError,
    MalformedProblemError,
    NotEligibleError,
)
from blockip.fourblock_snf import (
    EliminationData,
    _prepare,
    build_grid,
    elimination_from_snf,
    enumerate_cells,
    lift_solution,
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
from blockip.ones import solve_ones
from blockip.oracle import OracleBudget, enumerate_optimum
from blockip.ratlp import OPTIMAL, LpProblem, LpResult, solve_lp_warm
from blockip.smallip import MipProblem, _settled, best_of


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


def test_lift_rejects_a_tampered_cell_point():
    # an optimal cell point lifts; moving its z or p coordinate off the
    # cell leaves a brick a negative bound gap or more merged total than
    # the gaps hold, and the lift raises before it builds a point
    rng = random.Random(4242)
    tampered = 0
    while tampered < 3:
        inst = random_instance(rng, n=rng.randint(2, 4), seeded_rate=1.0)
        prepared = _prepare(inst)
        if not isinstance(prepared, tuple):
            continue
        elim, grid = prepared
        for cell in enumerate_cells(inst, elim, grid):
            res = solve_cell(cell)
            # a brick whose gap runs between two different z columns
            pairs = [(hl, hu) for hl, hu in zip(cell.arg_lo, cell.arg_hi) if hl != hu]
            if res.status != OPTIMAL or not pairs:
                continue
            value = res.value + cell.constant
            assert lift_solution(inst, elim, cell, res.point, value).objective == value
            point = list(res.point)
            point[cell.layout["z"][pairs[0][1]]] += 10 ** 6
            with pytest.raises(InternalInconsistencyError, match="negative bound gap"):
                lift_solution(inst, elim, cell, point, value)
            point = list(res.point)
            point[cell.layout["p"]] += 10 ** 6
            with pytest.raises(InternalInconsistencyError, match="merged total exceeds"):
                lift_solution(inst, elim, cell, point, value)
            tampered += 1
            break


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
    must be infeasible.  Each kept cell's LP is taken over the box that
    propagation tightened, so it must lie in its reference cell's box and
    have the same optimum.
    """
    why, dropped = fourblock_reference.screen_fault(cells, want)
    assert why is None, why
    return dropped


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


def _count_lps(monkeypatch):
    """A list that grows by one per cell LP: root solves and B&B re-solves."""
    calls = []
    cold, warm = smallip.solve_lp_warm, ratlp.WarmLp.edited

    def counted_cold(*args, **kwargs):
        calls.append(None)
        return cold(*args, **kwargs)

    def counted_warm(self, *args, **kwargs):
        calls.append(None)
        return warm(self, *args, **kwargs)

    monkeypatch.setattr(smallip, "solve_lp_warm", counted_cold)
    monkeypatch.setattr(ratlp.WarmLp, "edited", counted_warm)
    return calls


def _search_battery():
    """Seeded instances with s_A, t_B in {1, 2}, n in 1..40 and scale 1, 10
    or 100; every third has w = 0, where every feasible cell ties.

    At scale 100 t_B is 1, and two-row bricks have n at most 16 at scale 10
    and 8 at scale 100: wider shared boxes there leave cells whose branch
    and bound takes 10^4 nodes, and two-row bricks grids that take seconds
    to enumerate, for the same check.
    """
    rng = random.Random(83)
    for k in range(120):
        s_A, scale = 1 + k % 2, (1, 10, 100)[k % 3]
        inst = generators.random_snf_instance(
            rng, n=rng.randint(1, {1: 40, 10: 16, 100: 8}[scale] if s_A == 2 else 40), s_A=s_A,
            t_B=1 if scale == 100 else rng.randint(1, 2), s_C=1, scale=scale, seeded_rate=0.9)
        if k % 3 == 1:
            inst = dataclasses.replace(inst, w=[0] * len(inst.w))
        yield inst


def _same_or_tie(inst, got, want):
    """Why got is neither want nor another optimum of inst, or None.

    A cell the search rewrites in lattice coordinates branches on other
    variables than the reference, so it may accept another point of the
    same value: that point must meet every row and be worth want's value.
    """
    if got == want:
        return None
    if not (isinstance(got, Solution) and isinstance(want, Solution)):
        return f"verdict {got!r}, reference {want!r}"
    report = evaluate(inst, got.x)
    if got.objective != want.objective or not report.feasible or report.objective != want.objective:
        return f"{got!r} is no optimum; reference {want!r}"
    return None


def test_best_first_search_matches_the_cell_by_cell_loop(monkeypatch):
    # the same Solution as solving every cell in order with the incumbent
    # as cutoff and coordinate branching, or another optimum (a tie), and
    # never more LPs; and exactly the Solution of that loop under the
    # route's own branching rule, smallip.solve_mip per cell
    calls = _count_lps(monkeypatch)
    tally = {"solutions": 0, "ties": 0, "fewer": 0}
    for inst in _search_battery():
        want = fourblock_reference.solve_cell_by_cell(inst)
        reference_lps = len(calls)
        del calls[:]
        got = solve_4block_snf(inst)
        why = _same_or_tie(inst, got, want)
        assert why is None, (why, inst)
        assert len(calls) <= reference_lps, inst
        tally["fewer"] += len(calls) < reference_lps
        assert got == fourblock_reference.solve_cell_by_cell(inst, smallip.solve_mip), inst
        del calls[:]
        if isinstance(got, Solution):
            tally["solutions"] += 1
            tally["ties"] += not any(inst.w)
    # 113 solutions, 38 of them ties, 28 solves with fewer LPs (217 LPs in
    # all, against 1980) and 1 point moved to another optimum when written
    assert tally["solutions"] >= 90 and tally["ties"] >= 30 and tally["fewer"] >= 15, tally


def test_every_cell_ceiling_bounds_its_optimum():
    # the ceiling bounds every integer point of the cell, so it bounds the
    # cell's own optimum; many cells reach it, so it is no idle bound
    cells = tight = 0
    for inst in _search_battery():
        prepared = _prepare(inst)
        if not isinstance(prepared, tuple):
            continue
        for cell in enumerate_cells(inst, *prepared):
            res = solve_cell(cell)
            assert type(cell.ceiling) is int
            if res.status == OPTIMAL:
                total = res.value + cell.constant
                assert cell.ceiling >= total, (inst, cell)
                cells += 1
                tight += cell.ceiling == total
    # 154 cells with a point, 120 of them at their ceiling, when written
    assert cells >= 120 and tight >= 60, (cells, tight)


def test_a_ceiling_below_the_cell_optimum_raises(monkeypatch):
    # the winning cell's value is checked against its ceiling: lowering
    # every ceiling keeps their order and puts each below its cell's points
    real = fourblock_snf.enumerate_cells

    def lowered(*args):
        for cell in real(*args):
            yield dataclasses.replace(cell, ceiling=cell.ceiling - 10**6)

    monkeypatch.setattr(fourblock_snf, "enumerate_cells", lowered)
    with pytest.raises(InternalInconsistencyError, match="exceeds the cell's ceiling"):
        solve_4block_snf(running_example())


def test_one_cell_lp_decides_ten_thousand_bricks(monkeypatch):
    # 2000 cells reach an LP when each is solved in turn; the best ceiling
    # is the winner's, so the search solves at most half of them (1 when
    # written)
    calls = _count_lps(monkeypatch)
    inst = generators.random_snf_instance(random.Random(1), 10**4, s_A=1, t_B=1, s_C=1,
                                          seeded_rate=0.9)
    got = solve_4block_snf(inst)
    assert isinstance(got, Solution) and got.objective == 5922
    assert len(calls) <= 1000, len(calls)


# the lattice battery: one seeded draw per shape, never chosen by solve time
LATTICE_DRAWS = {
    f"sA{s_A}-tB{t_B}-sC{s_C}-x{scale}-n{n}": dict(n=n, s_A=s_A, t_B=t_B, s_C=s_C, scale=scale)
    for s_A, t_B, s_C, scale, n in itertools.product((1, 2), (1, 2), (0, 1, 2), (1, 10, 100), (5, 20))
}
# each route and reference solve of a draw runs under this alarm; the
# slowest draw took 2.2 s each way when written, the median 4 ms
LATTICE_ALARM_S = 30.0


@pytest.mark.parametrize("draw", sorted(LATTICE_DRAWS))
def test_lattice_branching_matches_coordinate_branching(draw):
    # the route branches a cell in the lattice coordinates of its equality
    # rows once its root LP point is fractional; the reference solves each
    # cell in turn and branches on the cell's own columns.  Same verdict and
    # value, and the point is the reference's or another optimum (all 72
    # points were the reference's when written)
    inst = generators.random_snf_instance(
        random.Random(f"lattice/{draw}"), seeded_rate=0.9, **LATTICE_DRAWS[draw])
    got, _ = timed(solve_4block_snf, inst, LATTICE_ALARM_S)
    want, _ = timed(fourblock_reference.solve_cell_by_cell, inst, LATTICE_ALARM_S)
    why = _same_or_tie(inst, got, want)
    assert why is None, why
    if isinstance(got, Solution):
        report = evaluate(inst, got.x)
        assert report.feasible and report.objective == got.objective


def test_the_lattice_draws_reach_both_verdicts():
    verdicts = {type(solve_4block_snf(generators.random_snf_instance(
        random.Random(f"lattice/{draw}"), seeded_rate=0.9, **shape))).__name__
        for draw, shape in LATTICE_DRAWS.items() if shape["n"] == 5}
    assert verdicts == {"Solution", "Infeasible"}


# random_snf_instance(Random(seed), 20, s_A=1, t_B=1, s_C=1, scale) per
# (scale, seed), with its optimum.  Coordinate branching runs past 20 s on
# all but the second, whose optimum it confirms (6.6 s); no independent
# oracle reaches the others, so their optima are pinned as first found,
# and each point is re-checked by evaluate.  Each took at most 1.3 s when
# written.
LARGE_DELTA = {
    (10**6, 0): 16359673,
    (10**6, 3): -42296041,
    (10**30, 0): -24198197965585453983987573394742,
    (10**30, 1): 11256826282633467650482853155859,
    (10**30, 3): 63510217778684120737207638268659,
}
LARGE_DELTA_ALARM_S = 10.0


@pytest.mark.parametrize("scale,seed", sorted(LARGE_DELTA))
def test_large_coefficients_solve_under_the_alarm(scale, seed):
    inst = generators.random_snf_instance(random.Random(seed), 20, s_A=1, t_B=1, s_C=1, scale=scale)
    got, _ = timed(solve_4block_snf, inst, LARGE_DELTA_ALARM_S)
    assert isinstance(got, Solution) and got.objective == LARGE_DELTA[(scale, seed)]
    report = evaluate(inst, got.x)
    assert report.feasible and report.objective == got.objective


# no bricks at large coefficients: max w . x0 over C x0 = b0 and the box
# [0, S]^t_B, C's entries in [S, 2S], one seeded draw per shape, never
# chosen by solve time.  The integer points form a sparse lattice in a box
# S wide, which branching on x0 sweeps: at 10^6 and 10^30 that ran past
# 20 s on 8 of the 12 draws and took 11 s and 0.7 s on two more, and in
# the lattice coordinates of the top rows every draw took at most 1.1 ms,
# when written
NO_BRICKS_DRAWS = {
    f"tB{t_B}-sC{s_C}-1e{len(str(scale)) - 1}": (t_B, s_C, scale)
    for t_B, s_C, scale in itertools.product((2, 3, 4), (1, 2), (10**2, 10**3, 10**6, 10**30))
}
NO_BRICKS_ALARM_S = 1.0


def _no_bricks(t_B, s_C, scale):
    rng = random.Random(f"no-bricks/{t_B}/{s_C}/{scale}")
    C = IntMatrix.from_rows([[rng.randint(scale, 2 * scale) for _ in range(t_B)] for _ in range(s_C)])
    seed = [rng.randint(0, scale) for _ in range(t_B)]
    w = [rng.randint(-scale, scale) for _ in range(t_B)]
    return FourBlockInstance.make(0, IntMatrix.from_rows([(1, 1)]), IntMatrix.zero(1, t_B), C,
                                  IntMatrix.zero(s_C, 2), C.mul_vec(seed), [], [0] * t_B, [scale] * t_B, w)


def _one_empty_brick(inst):
    """inst with one brick held at zero: A = (1, 1), b_1 = 0, box [0, 0]^2."""
    return FourBlockInstance.make(1, inst.A, inst.B, inst.C, inst.D, inst.b0, [(0,)],
                                  inst.l + (0, 0), inst.u + (0, 0), inst.w + (0, 0))


@pytest.mark.parametrize("draw", sorted(NO_BRICKS_DRAWS))
def test_no_bricks_at_large_coefficients_matches_the_ones_route(draw):
    # the embedding is all-ones, so the ones route solves it by its own
    # aggregate search; at 10^3 and below the enumerator confirms the
    # optimum where its budget allows (6 of the 12 draws when written)
    inst = _no_bricks(*NO_BRICKS_DRAWS[draw])
    got, _ = timed(solve_4block_snf, inst, NO_BRICKS_ALARM_S)
    want, _ = timed(solve_ones, _one_empty_brick(inst), NO_BRICKS_ALARM_S)
    assert isinstance(got, Solution) and isinstance(want, Solution)
    assert got.objective == want.objective
    if NO_BRICKS_DRAWS[draw][2] <= 10**3:
        try:
            oracle = enumerate_optimum(inst, OracleBudget(10**4))
        except BudgetExceededError:
            return
        assert got.objective == oracle.objective


def _cells_of(count, seed="settle"):
    """The cells of count instances of the fourblock-cells shape."""
    rng = random.Random(seed)
    for _ in range(count):
        inst = generators.random_snf_instance(rng, n=40, s_A=1, t_B=1, s_C=1, seeded_rate=0.9)
        prepared = _prepare(inst)
        if isinstance(prepared, tuple):
            yield inst, list(enumerate_cells(inst, *prepared))


def test_a_settled_root_is_the_lp_result():
    # wherever the box corner at the objective meets every row, the LP
    # solve from the row-less start returns that same result; on cell LPs
    # and on random small LPs, both outcomes occur
    settled = solved = 0
    lps = [cell.mip.lp for _, cells in _cells_of(10) for cell in cells]
    rng = random.Random(97)
    for _ in range(300):
        n = rng.randint(1, 4)
        lo = [rng.randint(-3, 1) for _ in range(n)]
        hi = [a + rng.randint(0, 3) for a in lo]
        rows = []
        for _ in range(rng.randint(0, 3)):
            coeffs = [rng.randint(-2, 2) for _ in range(n)]
            a = rng.randint(-6, 3)
            rows.append((coeffs, a, a + rng.randint(0, 4)))
        lps.append(LpProblem.make([rng.randint(-3, 3) for _ in range(n)], rows, lo, hi))
    for lp in lps:
        got = _settled(lp)
        if got is None:
            solved += 1
            continue
        want, _ = solve_lp_warm(lp)
        assert got == want and got.den == want.den == 1, lp
        settled += 1
    assert settled >= 100 and solved >= 100, (settled, solved)


def test_a_corner_that_breaks_a_row_goes_to_the_lp(monkeypatch):
    # max x + y over [0, 1]^2: alone, the corner (1, 1) is settled with no
    # LP; with x + y <= 1 it breaks the row, so the LP decides, and the
    # corner's value 2 is never accepted
    calls = _count_lps(monkeypatch)
    free = MipProblem.make(LpProblem.make([1, 1], [], [0, 0], [1, 1]), [True, True])
    k, res = best_of([(free, 0, 2)])
    assert (k, res.value, res.point, len(calls)) == (0, 2, (1, 1), 0)
    tied = MipProblem.make(LpProblem.make([1, 1], [([1, 1], 0, 1)], [0, 0], [1, 1]), [True, True])
    assert _settled(tied.lp) is None
    k, res = best_of([(tied, 0, 2)])
    assert k == 0 and res.value == 1 and len(calls) == 1
    # on the cells, a root is settled exactly when its corner meets its rows
    for _, cells in _cells_of(10):
        for cell in cells:
            lp = cell.mip.lp
            corner = [u if c > 0 else lo for c, lo, u in zip(lp.objective, lp.lower, lp.upper)]
            meets = all(a <= sum(x * y for x, y in zip(coeffs, corner)) <= b for coeffs, a, b in lp.rows)
            assert (_settled(lp) is not None) == meets


class _Builds:
    """Counts the cell LPs fourblock_snf builds, by wrapping its LpProblem."""

    def __init__(self):
        self.count = 0

    def make(self, *args):
        self.count += 1
        return LpProblem.make(*args)


def test_each_cell_is_built_at_most_once_and_only_when_popped(monkeypatch):
    builds = _Builds()
    monkeypatch.setattr(fourblock_snf, "LpProblem", builds)
    popped = []
    real = smallip._settled
    monkeypatch.setattr(smallip, "_settled", lambda lp: popped.append(None) or real(lp))
    cells_seen = built_in_search = 0
    for inst, cells in _cells_of(20, "fourblock-cells/digest"):
        builds.count = 0
        del popped[:]
        best_of([(cell.recipe, cell.constant, cell.ceiling) for cell in cells])
        # every root the search builds it pops, and tries to settle
        assert builds.count <= len(popped), inst
        built_in_search += builds.count
        cells_seen += len(cells)
        # reading mip builds the other cells, each once, and no cell again
        for _ in range(2):
            assert all(type(cell.mip) is MipProblem for cell in cells)
        assert builds.count == len(cells)
    # the search builds 65 of these 123 cells (49 solved by an LP, as
    # PINNED_CELL_LPS counts, and 16 settled) when written
    assert cells_seen - built_in_search >= 40, (built_in_search, cells_seen)
