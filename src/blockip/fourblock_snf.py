"""4-block solver for bricks with one more column than rows.

The brick systems differ only in their right-hand sides, so once brick 1 is
chosen every other brick is pinned up to one free integer: one Smith form of
A solves each difference system A x = b_i - b_1 (intlin.brick_solutions),
for a 1x2 brick matrix as for any other.  Splitting the
anchor brick into remainder and quotient per coordinate turns all box
constraints into floor/ceil bounds that are piecewise constant in the
remainders; enumerating the constancy cells, the orderings of the per-brick
bounds (via pairwise quotient differences), and the greedy-merge windows
leaves a family of constant-size integer programs.  Their best value is the
optimum.

Almost all of these cells have no integer point.  While a cell's rows are
still sparse int maps, integer bound propagation over them (_propagate)
proves most empty cells empty, and only the survivors become exact LPs and
MIPs.  The screen removes only cells with no integer point, and survivors
keep their untightened boxes, so the cell LPs and the answer are the same
as without it.  The merge windows j = 1..n of one window combination are
built in one pass along the rate order: each window's objective and its
Lambda(j-1) extend the previous window's running sums by one brick.

All enumeration is exact and the winning cell's solution is lifted back to a
full point and re-checked against the original constraints; any disagreement
raises instead of returning silently wrong output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    InternalInconsistencyError,
    LiftInconsistencyError,
    MalformedProblemError,
    NotEligibleError,
)
from .intlin import brick_form, brick_solutions, quotient_range
from .model import (
    FourBlockInstance,
    Infeasible,
    Solution,
    evaluate,
    validate,
)
from .ratlp import OPTIMAL, LpProblem
from .smallip import MipProblem, solve_mip

# integer_rank and smith_normal_form are no longer called here; they stay
# importable under these names because perfbench/tracer.py wraps them here
from .intlin import integer_rank, smith_normal_form  # noqa: F401


@dataclass(frozen=True)
class EliminationData:
    """Brick-difference elimination: x^i = x^1 + offsets[i] + theta * t_i."""

    theta: tuple  # step column, length t_A
    offsets: tuple  # per brick, length-t_A constant shift; offsets[0] is zero
    offset_totals: tuple  # componentwise sum of offsets
    c0: int  # objective contribution of the offsets


def elimination_from_snf(inst: FourBlockInstance):
    """Elimination via the Smith form of the brick matrix.

    That Smith form, intlin.brick_form(A), is the eligibility check too:
    NotEligibleError when it is None.  Each brick's offset is the particular
    solution of A x = b_i - b_1 that intlin.brick_solutions gives, and theta
    is the free column of V.  Returns EliminationData, or
    Infeasible("DivisibilityFail") at the first brick whose difference
    system has no integer solution.
    """
    tB, tA = inst.t_B, inst.t_A
    snf = brick_form(inst.A)
    if snf is None:
        raise NotEligibleError("needs one more brick column than rows and full row rank")
    deltas = ([v - v1 for v, v1 in zip(bi, inst.b[0])] for bi in inst.b)
    offsets = []
    totals = [0] * tA
    c0 = 0
    for i, off in enumerate(brick_solutions(snf, deltas)):
        if off is None:
            return Infeasible("DivisibilityFail")
        s = tB + i * tA
        for h in range(tA):
            totals[h] += off[h]
            c0 += inst.w[s + h] * off[h]
        offsets.append(off)
    return EliminationData(snf.V.col(inst.s_A), tuple(offsets), tuple(totals), c0)


# The 1x2 gcd route is the Smith route now; the old name stays only because
# perfbench/tracer.py wraps it by name and perfbench/checks.py calls it.
elimination_from_bezout = elimination_from_snf


@dataclass(frozen=True)
class SubInterval:
    tau: int
    tau_bar: int
    d: tuple  # per brick, the lower quotient bound on this sub-interval
    d_bar: tuple  # per brick, the upper quotient bound


@dataclass(frozen=True)
class SubIntervalGrid:
    """Per coordinate: the constancy partition of its remainder range.

    Coordinates with a zero step carry None; their anchor value is directly
    box-bounded and needs no remainder split.
    """

    per_h: tuple  # tuple per h: tuple of SubInterval, or None


def build_grid(elim: EliminationData, lower, upper) -> SubIntervalGrid:
    """Constancy cells of the floor/ceil bound values per remainder.

    lower/upper are per-brick coordinate bounds.  A bound's value changes
    only where its shifted endpoint crosses a multiple of |theta_h|: the
    lower endpoint at its remainder, the upper one just past it.  Both
    signs of theta_h produce the same breakpoint set with the roles of the
    two bounds swapped.
    """
    n = len(lower)
    per_h = []
    for h, th in enumerate(elim.theta):
        if th == 0:
            per_h.append(None)
            continue
        m = abs(th)
        points = {0}
        for i in range(n):
            shift = elim.offsets[i][h]
            points.add((lower[i][h] - shift) % m)
            r = (upper[i][h] - shift) % m
            if r + 1 < m:
                points.add(r + 1)
        starts = sorted(points)
        cells = []
        for k, tau in enumerate(starts):
            tau_bar = (starts[k + 1] - 1) if k + 1 < len(starts) else m - 1
            d, dbar = [], []
            for i in range(n):
                shift = elim.offsets[i][h]
                a, b = quotient_range(th, lower[i][h] - shift - tau,
                                      upper[i][h] - shift - tau)
                d.append(a)
                dbar.append(b)
            cells.append(SubInterval(tau, tau_bar, tuple(d), tuple(dbar)))
        per_h.append(tuple(cells))
    return SubIntervalGrid(tuple(per_h))


@dataclass(frozen=True)
class CellProblem:
    """One fully discretized subproblem, ready for the small MIP solver."""

    mip: MipProblem
    constant: int  # objective value outside the MIP variables
    sub_choice: tuple  # per grid coordinate, the chosen SubInterval
    layout: dict  # variable-name -> column metadata for lifting
    order: tuple  # brick indices (>=1) sorted by objective rate
    arg_lo: tuple  # per brick >=1: coordinate attaining its lower bound
    arg_hi: tuple  # per brick >=1: coordinate attaining its upper bound


def _range_of(coeffs, lo, hi):
    mn = mx = 0
    for j, a in coeffs.items():
        if a > 0:
            mn += a * lo[j]
            mx += a * hi[j]
        elif a < 0:
            mn += a * hi[j]
            mx += a * lo[j]
    return mn, mx


# Rounds of bound propagation per cell.  A fixpoint can take as many rounds
# as the coefficients are large (x - y <= -1 and y - x <= 0 over [0, M]
# shrink the boxes by one per round), so the screen stops here and lets the
# cell's LP decide.
_PROPAGATION_ROUNDS = 30


def _propagate(rows, lo, hi):
    """Integer bound propagation; False when the box has no integer point.

    rows are (coeffs, b) for sum_k coeffs[k] * x_k <= b, where coeffs maps a
    variable index to a nonzero int, over integer x with lo <= x <= hi.  Each
    row bounds every variable by the row's least activity over the others,
    rounded inward because x is integral (Savelsbergh, ORSA J. Comput. 1994;
    Achterberg, Constraint Integer Programming, 2007, ch. 7).  lo and hi are
    tightened in place and never lose an integer point that meets every
    row, so False is a proof of emptiness and True proves nothing.
    """
    for k in range(len(lo)):
        if lo[k] > hi[k]:
            return False
    for _ in range(_PROPAGATION_ROUNDS):
        changed = False
        for coeffs, b in rows:
            slack = b
            for k, a in coeffs.items():
                slack -= a * (lo[k] if a > 0 else hi[k])
            if slack < 0:
                return False
            # x_k may move from its best bound by slack // |a| at most; the
            # tightened bound stays on the box side, so lo <= hi holds
            for k, a in coeffs.items():
                if a > 0:
                    if a * (hi[k] - lo[k]) > slack:
                        hi[k] = lo[k] + slack // a
                        changed = True
                elif a * (lo[k] - hi[k]) > slack:
                    lo[k] = hi[k] - slack // -a
                    changed = True
        if not changed:
            break
    return True


class _CellBuilder:
    """Shared per-instance data for assembling cell MIPs."""

    def __init__(self, inst: FourBlockInstance, elim: EliminationData):
        self.inst = inst
        self.elim = elim
        n, tA, tB = inst.n, inst.t_A, inst.t_B
        self.grid_hs = [h for h in range(tA) if elim.theta[h] != 0]
        self.zero_hs = [h for h in range(tA) if elim.theta[h] == 0]
        # coordinates with a zero step: the anchor value is shared by all
        # bricks up to constant shifts, so the boxes intersect directly
        self.zero_lo, self.zero_hi = {}, {}
        for h in self.zero_hs:
            los, his = [], []
            for i in range(n):
                s = tB + i * tA
                los.append(inst.l[s + h] - elim.offsets[i][h])
                his.append(inst.u[s + h] - elim.offsets[i][h])
            self.zero_lo[h] = max(los)
            self.zero_hi[h] = min(his)
        self.wsum = [0] * tA  # total objective weight per coordinate
        for i in range(n):
            s = tB + i * tA
            for h in range(tA):
                self.wsum[h] += inst.w[s + h]
        self.rates = [0] * n  # objective rate of each brick's free integer
        for i in range(n):
            s = tB + i * tA
            self.rates[i] = sum(
                inst.w[s + h] * elim.theta[h] for h in range(tA)
            )
        self.order = tuple(
            sorted(range(1, n), key=lambda i: (-self.rates[i], i))
        )


def enumerate_cells(inst: FourBlockInstance, elim: EliminationData,
                    grid: SubIntervalGrid):
    """Yield every CellProblem; the max over their optima is the optimum."""
    builder = _CellBuilder(inst, elim)
    if any(builder.zero_lo[h] > builder.zero_hi[h] for h in builder.zero_hs):
        return
    gh = builder.grid_hs
    axes = [grid.per_h[h] for h in gh]
    for combo in itertools.product(*axes):
        yield from _cells_for_combo(builder, dict(zip(gh, combo)))


def _pair_windows(builder, chosen, zlo, zhi, a, b):
    """Difference windows for z_a - z_b, clipped to the box range."""
    n = builder.inst.n
    da, dba = chosen[a].d, chosen[a].d_bar
    db, dbb = chosen[b].d, chosen[b].d_bar
    crit = set()
    for i in range(1, n):
        crit.add(da[i] - db[i])
        crit.add(dba[i] - dbb[i])
    lo_all = zlo[a] - zhi[b]
    hi_all = zhi[a] - zlo[b]
    cuts = sorted(c for c in crit if lo_all < c <= hi_all)
    windows = []
    start = lo_all
    for c in cuts:
        windows.append((start, c - 1))
        start = c
    windows.append((start, hi_all))
    return [w for w in windows if w[0] <= w[1]]


def _tournament(n, chosen, pairs, lower_side):
    """Per brick, the coordinate attaining the binding bound, or None.

    lower_side picks argmax of d - z; otherwise argmin of d_bar - z.  Every
    pairwise comparison is decided by the chosen difference windows; if the
    relation turns cyclic the windows admit no actual point and the caller
    must skip the cell.
    """
    def beats(i, a, b):
        # True when coordinate a binds at least as tightly as b for brick i
        if a == b:
            return True
        flip = a > b
        x, y = (b, a) if flip else (a, b)
        lo, hi = pairs[(x, y)]
        if lower_side:
            dd = chosen[x].d[i] - chosen[y].d[i]
            xwins = hi < dd  # z_x - z_y < dd throughout
            ywins = lo >= dd
        else:
            dd = chosen[x].d_bar[i] - chosen[y].d_bar[i]
            xwins = lo >= dd  # d_x - z_x <= d_y - z_y throughout
            ywins = hi < dd
        if not (xwins or ywins):
            raise InternalInconsistencyError("undecided bound comparison")
        return xwins != flip

    hs = sorted(chosen)
    args = []
    for i in range(1, n):
        best = hs[0]
        for h in hs[1:]:
            if not beats(i, best, h):
                best = h
        if all(beats(i, best, h) for h in hs):
            args.append(best)
        else:
            return None  # cyclic: the windows are jointly unrealizable
    return tuple(args)


def _cells_for_combo(builder, chosen):
    n = builder.inst.n
    gh = builder.grid_hs
    # the anchor brick has no free integer: its box bounds each quotient
    zlo = {h: chosen[h].d[0] for h in gh}
    zhi = {h: chosen[h].d_bar[0] for h in gh}
    if any(zlo[h] > zhi[h] for h in gh):
        return
    pairs_list = list(itertools.combinations(gh, 2))
    options = []
    for a, b in pairs_list:
        ws = _pair_windows(builder, chosen, zlo, zhi, a, b)
        if not ws:
            return
        options.append(ws)
    for assignment in itertools.product(*options):
        pairs = dict(zip(pairs_list, assignment))
        ok = True
        for (a, b), (c, dd) in pairs.items():
            for e in gh:
                if e == a or e == b:
                    continue
                # transitivity: (a-e) + (e-b) must meet (a-b)
                lo1, hi1 = pairs[(a, e) if a < e else (e, a)]
                lo2, hi2 = pairs[(e, b) if e < b else (b, e)]
                s1, t1 = (lo1, hi1) if a < e else (-hi1, -lo1)
                s2, t2 = (lo2, hi2) if e < b else (-hi2, -lo2)
                if s1 + s2 > dd or t1 + t2 < c:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        arg_lo = _tournament(n, chosen, pairs, True)
        arg_hi = _tournament(n, chosen, pairs, False)
        if arg_lo is None or arg_hi is None:
            continue
        yield from _cells_for_windows(builder, chosen, pairs, arg_lo, arg_hi,
                                      zlo, zhi)


def _cells_for_windows(builder, chosen, pairs, arg_lo, arg_hi, zlo, zhi):
    inst, elim = builder.inst, builder.elim
    n, tA, tB, sC, sA = inst.n, inst.t_A, inst.t_B, inst.s_C, inst.s_A
    gh = builder.grid_hs
    zh = builder.zero_hs
    theta = elim.theta

    # variable layout: x0 | xi_h | z_h | anchor values on zero-step coords | p
    layout = {"xi": {}, "z": {}, "direct": {}, "p": None}
    col = tB
    for h in gh:
        layout["xi"][h] = col
        col += 1
    for h in gh:
        layout["z"][h] = col
        col += 1
    for h in zh:
        layout["direct"][h] = col
        col += 1
    layout["p"] = col
    col += 1
    base_vars = col

    lo = list(inst.l[:tB])
    hi = list(inst.u[:tB])
    for h in gh:
        lo.append(chosen[h].tau)
        hi.append(chosen[h].tau_bar)
    for h in gh:
        lo.append(zlo[h])
        hi.append(zhi[h])
    for h in zh:
        lo.append(builder.zero_lo[h])
        hi.append(builder.zero_hi[h])

    # per brick i>=1: bound gap cap_i(z) = cc_i + z_{arg_lo} - z_{arg_hi} >= 0
    caps = []
    for i in range(1, n):
        hl, hu = arg_lo[i - 1], arg_hi[i - 1]
        cc = chosen[hu].d_bar[i] - chosen[hl].d[i]
        caps.append((cc, hl, hu))

    # p's own box from the caps over the z boxes
    p_hi = 0
    for cc, hl, hu in caps:
        p_hi += cc + zhi[hl] - zlo[hu]
    if n > 1 and p_hi < 0:
        return
    lo.append(0)
    hi.append(max(0, p_hi))

    def expr():
        return {}

    def add(e, j, a):
        # a sum that cancels drops its key: _propagate wants nonzero entries
        a += e.get(j, 0)
        if a:
            e[j] = a
        else:
            e.pop(j, None)

    def dense(e):
        row = [0] * base_vars
        for var, coef in e.items():
            row[var] = coef
        return row

    # equality rows: top block, then the anchor brick's own system
    eq_rows = []
    for r in range(sC):
        e = expr()
        const = 0
        for bcol in range(tB):
            add(e, bcol, inst.C.at(r, bcol))
        for h in range(tA):
            drh = inst.D.at(r, h)
            if drh == 0:
                continue
            const += drh * elim.offset_totals[h]
            if h in layout["direct"]:
                add(e, layout["direct"][h], n * drh)
                continue
            add(e, layout["xi"][h], n * drh)
            add(e, layout["z"][h], n * drh * theta[h])
            add(e, layout["p"], drh * theta[h])
            for i in range(1, n):
                hl = arg_lo[i - 1]
                const += drh * theta[h] * chosen[hl].d[i]
                add(e, layout["z"][hl], -drh * theta[h])
        eq_rows.append((e, inst.b0[r] - const))
    for r in range(sA):
        e = expr()
        for bcol in range(tB):
            add(e, bcol, inst.B.at(r, bcol))
        for h in range(tA):
            arh = inst.A.at(r, h)
            if arh == 0:
                continue
            if h in layout["direct"]:
                add(e, layout["direct"][h], arh)
            else:
                add(e, layout["xi"][h], arh)
                add(e, layout["z"][h], arh * theta[h])
        eq_rows.append((e, inst.b[0][r]))

    # inequality rows, as coefficient maps with a <= bound
    ineq_rows = []
    seen_caps = {}
    for cc, hl, hu in caps:
        if hl == hu:
            if cc < 0:
                return
            continue
        key = (hl, hu)
        if key not in seen_caps or cc < seen_caps[key]:
            seen_caps[key] = cc
    for (hl, hu), cc in sorted(seen_caps.items()):
        e = expr()
        add(e, layout["z"][hu], 1)
        add(e, layout["z"][hl], -1)
        ineq_rows.append((e, cc))
    for (a, b), (wlo, whi) in sorted(pairs.items()):
        e = expr()
        add(e, layout["z"][a], 1)
        add(e, layout["z"][b], -1)
        ineq_rows.append((e, whi))
        e = expr()
        add(e, layout["z"][a], -1)
        add(e, layout["z"][b], 1)
        ineq_rows.append((e, -wlo))

    # objective pieces shared by every merge window
    base_obj = expr()
    base_const = elim.c0
    for bcol in range(tB):
        add(base_obj, bcol, inst.w[bcol])
    for h in gh:
        add(base_obj, layout["xi"][h], builder.wsum[h])
        add(base_obj, layout["z"][h], builder.wsum[h] * theta[h])
    for h in zh:
        add(base_obj, layout["direct"][h], builder.wsum[h])
    for i in range(1, n):
        hl = arg_lo[i - 1]
        v = builder.rates[i]
        base_const += v * chosen[hl].d[i]
        add(base_obj, layout["z"][hl], -v)

    # the integer screen: the inequality rows, and each equality row as two
    # <= rows.  What it proves over the rows shared by every merge window holds
    # in each window, so each window's screen starts from these bounds.
    screen_rows = list(ineq_rows)
    for e, b in eq_rows:
        screen_rows.append((e, b))
        screen_rows.append(({var: -coef for var, coef in e.items()}, -b))
    shared_lo, shared_hi = list(lo), list(hi)
    if not _propagate(screen_rows, shared_lo, shared_hi):
        return

    order = builder.order
    p = layout["p"]
    # running sums over the bricks before the window, order[:j-2]: their
    # objective terms, and Lambda(j-1), the sum of their caps
    run_obj, run_const = expr(), 0
    lam_prev, lam_prev_const = expr(), 0
    for j in range(1, n + 1):
        p_rows = []
        if j > 2:
            i = order[j - 3]
            cc, hl, hu = caps[i - 1]
            v_i = builder.rates[i]
            run_const += v_i * cc
            add(run_obj, layout["z"][hl], v_i)
            add(run_obj, layout["z"][hu], -v_i)
            lam_prev_const += cc
            add(lam_prev, layout["z"][hl], 1)
            add(lam_prev, layout["z"][hu], -1)
        if j > 1:
            # Lambda(j-1) + 1 <= p <= Lambda(j)
            e = dict(lam_prev)
            add(e, p, -1)
            p_rows.append((e, -lam_prev_const - 1))
            cc, hl, hu = caps[order[j - 2] - 1]
            e = expr()
            add(e, p, 1)
            for var, coef in lam_prev.items():
                add(e, var, -coef)
            add(e, layout["z"][hl], -1)
            add(e, layout["z"][hu], 1)
            p_rows.append((e, lam_prev_const + cc))

        cell_lo = list(lo)
        cell_hi = list(hi)
        box_lo, box_hi = list(shared_lo), list(shared_hi)
        if j == 1:
            cell_lo[p] = cell_hi[p] = 0
            box_hi[p] = 0  # p >= 0 already
        if not _propagate(screen_rows + p_rows, box_lo, box_hi):
            continue  # no integer point: skip the LP

        obj = dict(base_obj)
        const = base_const
        if j > 1:
            v_j = builder.rates[order[j - 2]]
            add(obj, p, v_j)
            for var, coef in run_obj.items():
                add(obj, var, coef)
            const += run_const - v_j * lam_prev_const
            for var, coef in lam_prev.items():
                add(obj, var, -v_j * coef)
        # the cell's LP keeps the untightened boxes; rows that the boxes
        # already imply are dropped
        rows = [(dense(e), b, b) for e, b in eq_rows]
        for e, b in ineq_rows + p_rows:
            mn, mx = _range_of(e, cell_lo, cell_hi)
            if mx > b:
                rows.append((dense(e), mn, b))

        lp = LpProblem.make(dense(obj), rows, cell_lo, cell_hi)
        mip = MipProblem.make(lp, [True] * base_vars)
        yield CellProblem(
            mip=mip,
            constant=const,
            sub_choice=tuple(chosen[h] for h in gh),
            layout=layout,
            order=order,
            arg_lo=arg_lo,
            arg_hi=arg_hi,
        )


def solve_cell(cell: CellProblem, cutoff=None):
    """Exact optimum of one cell's MIP; cutoff is on the MIP part only."""
    return solve_mip(cell.mip, cutoff=cutoff)


def lift_solution(inst: FourBlockInstance, elim: EliminationData,
                  cell: CellProblem, point, cell_value) -> Solution:
    """Expand a cell optimum back to a full point and re-verify it."""
    n, tA, tB = inst.n, inst.t_A, inst.t_B
    layout = cell.layout
    theta = elim.theta
    x0 = tuple(int(point[j]) for j in range(tB))
    anchor = [0] * tA
    zval = {}
    for h, cidx in layout["xi"].items():
        anchor[h] = int(point[cidx])
    for h, cidx in layout["z"].items():
        zval[h] = int(point[cidx])
        anchor[h] += theta[h] * zval[h]
    for h, cidx in layout["direct"].items():
        anchor[h] = int(point[cidx])
    p_total = int(point[layout["p"]])

    chosen = dict(zip([h for h in range(tA) if theta[h] != 0], cell.sub_choice))
    free = [0] * n  # free integer per brick; the anchor's is zero
    rem = p_total
    caps = {}
    lows = {}
    for i in range(1, n):
        hl = cell.arg_lo[i - 1]
        hu = cell.arg_hi[i - 1]
        lows[i] = chosen[hl].d[i] - zval[hl]
        caps[i] = (chosen[hu].d_bar[i] - zval[hu]) - lows[i]
        if caps[i] < 0:
            raise LiftInconsistencyError(f"negative bound gap at brick {i}")
    for i in cell.order:
        take = caps[i] if caps[i] < rem else rem
        free[i] = lows[i] + take
        rem -= take
    if rem != 0:
        raise LiftInconsistencyError("merged total exceeds the bound gaps")

    x = list(x0)
    for i in range(n):
        off = elim.offsets[i]
        for h in range(tA):
            x.append(anchor[h] + off[h] + theta[h] * free[i])
    report = evaluate(inst, tuple(x))
    if not report.feasible:
        raise LiftInconsistencyError(
            f"lifted point violates: {report.violations[:3]}"
        )
    if report.objective != cell_value:
        raise LiftInconsistencyError(
            f"lifted objective {report.objective} != cell value {cell_value}"
        )
    return Solution(x=tuple(x), objective=report.objective,
                    solver_tag="fourblock_snf")


def _solve_trivial(inst: FourBlockInstance):
    """No bricks: only the shared variables and the top block remain."""
    rows = [(inst.C.row(r), inst.b0[r], inst.b0[r]) for r in range(inst.s_C)]
    lp = LpProblem.make(inst.w, rows, inst.l, inst.u)
    res = solve_mip(MipProblem.make(lp, [True] * inst.t_B))
    if res.status != OPTIMAL:
        return Infeasible("NoLatticePoint")
    x = tuple(int(v) for v in res.point)
    return Solution(x=x, objective=int(res.value), solver_tag="fourblock_snf")


def _prepare(inst: FourBlockInstance):
    """The solver's input checks, then the elimination and the grid.

    Raises MalformedProblemError for a malformed instance, and, from the
    elimination's Smith form (run with or without bricks), NotEligibleError
    for an ineligible brick matrix.  Returns None when there are no bricks,
    Infeasible when the brick differences have no integral solution, and
    (elimination, grid) otherwise.
    """
    issues = validate(inst)
    if issues:
        raise MalformedProblemError(issues[0].message)
    elim = elimination_from_snf(inst)
    if inst.n == 0:
        return None
    if isinstance(elim, Infeasible):
        return elim
    grid = build_grid(
        elim,
        [inst.l[inst.brick_slice(i)] for i in range(inst.n)],
        [inst.u[inst.brick_slice(i)] for i in range(inst.n)],
    )
    return elim, grid


def solve_4block_snf(inst: FourBlockInstance):
    """Exact optimum for eligible 4-block instances; Solution or Infeasible."""
    prepared = _prepare(inst)
    if prepared is None:
        return _solve_trivial(inst)
    if isinstance(prepared, Infeasible):
        return prepared
    elim, grid = prepared

    best = None  # (value, cell, point)
    for cell in enumerate_cells(inst, elim, grid):
        cutoff = None if best is None else best[0] - cell.constant
        res = solve_cell(cell, cutoff=cutoff)
        if res.status == OPTIMAL:
            total = res.value + cell.constant
            if best is None or total > best[0]:
                best = (total, cell, res.point)

    if best is None:
        return Infeasible("NoLatticePoint")
    total, cell, point = best
    return lift_solution(inst, elim, cell, point, total)

