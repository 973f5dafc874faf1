"""4-block solver for bricks with one more column than rows.

The brick systems differ only in their right-hand sides, so once brick 1 is
chosen every other brick is pinned up to one free integer.  Splitting the
anchor brick into remainder and quotient per coordinate turns all box
constraints into floor/ceil bounds that are piecewise constant in the
remainders; enumerating the constancy cells, the orderings of the per-brick
bounds (via pairwise quotient differences), and the greedy-merge windows
leaves a family of constant-size integer programs.  Their best value is the
optimum.

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
from .intlin import SnfDecomposition, extended_gcd, integer_rank, smith_normal_form
from .model import (
    FourBlockInstance,
    Infeasible,
    Solution,
    evaluate,
    validate,
)
from .ratlp import OPTIMAL, LpProblem
from .smallip import MipProblem, solve_mip


@dataclass(frozen=True)
class EliminationData:
    """Brick-difference elimination: x^i = x^1 + offsets[i] + theta * t_i."""

    theta: tuple  # step column, length t_A
    offsets: tuple  # per brick, length-t_A constant shift; offsets[0] is zero
    offset_totals: tuple  # componentwise sum of offsets
    fixed_y: tuple  # per brick, the components pinned by divisibility
    c0: int  # objective contribution of the offsets
    snf: SnfDecomposition | None  # None when built from a gcd identity


def _structurally_eligible(inst: FourBlockInstance) -> bool:
    A = inst.A
    return (
        A.rows >= 1
        and A.cols == A.rows + 1
        and integer_rank(A) == A.rows
    )


def _finish_elimination(inst, theta, offsets, fixed_y, snf):
    totals = [0] * inst.t_A
    c0 = 0
    tB, tA = inst.t_B, inst.t_A
    for i, off in enumerate(offsets):
        s = tB + i * tA
        for h in range(tA):
            totals[h] += off[h]
            c0 += inst.w[s + h] * off[h]
    return EliminationData(
        tuple(theta),
        tuple(tuple(o) for o in offsets),
        tuple(totals),
        tuple(tuple(y) for y in fixed_y),
        c0,
        snf,
    )


def elimination_from_snf(inst: FourBlockInstance):
    """General elimination via the Smith form of the brick matrix."""
    sA, tA = inst.s_A, inst.t_A
    snf = smith_normal_form(inst.A)
    alphas = snf.diagonal
    U_rows = snf.U.row_lists()
    V_rows = snf.V.row_lists()
    theta = [V_rows[h][sA] for h in range(tA)]
    offsets = []
    fixed_y = []
    b1 = inst.b[0]
    for i in range(inst.n):
        delta = [inst.b[i][r] - b1[r] for r in range(sA)]
        ys = []
        for j in range(sA):
            bt = sum(U_rows[j][r] * delta[r] for r in range(sA))
            if bt % alphas[j] != 0:
                return Infeasible("DivisibilityFail")
            ys.append(bt // alphas[j])
        offsets.append(
            [sum(V_rows[h][j] * ys[j] for j in range(sA)) for h in range(tA)]
        )
        fixed_y.append(ys)
    return _finish_elimination(inst, theta, offsets, fixed_y, snf)


def elimination_from_bezout(inst: FourBlockInstance):
    """Single-row, two-column elimination from the extended gcd identity."""
    if inst.s_A != 1 or inst.t_A != 2:
        raise MalformedProblemError("gcd elimination needs a 1x2 brick matrix")
    lam, mu = inst.A.row(0)
    bez = extended_gcd(lam, mu)
    theta = (bez.step_x, bez.step_y)  # (mu/g, -lam/g)
    offsets = []
    fixed_y = []
    b1 = inst.b[0][0]
    for i in range(inst.n):
        delta = inst.b[i][0] - b1
        if delta % bez.g != 0:
            return Infeasible("DivisibilityFail")
        t = delta // bez.g
        offsets.append([bez.x * t, bez.y * t])
        fixed_y.append((t,))
    return _finish_elimination(inst, theta, offsets, fixed_y, None)


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


def _quot_bounds(theta, lo, up, shift, xi):
    """d, d_bar with lo - shift - xi <= theta * q <= up - shift - xi."""
    a = lo - shift - xi
    b = up - shift - xi
    if theta > 0:
        return -((-a) // theta), b // theta
    return -((-b) // theta), a // theta


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
                a, b = _quot_bounds(th, lower[i][h], upper[i][h], shift, tau)
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
    pair_choice: tuple  # per coordinate pair, the (lo, hi) difference window
    j: int  # merge window index; 1 means the merged variable is zero
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

    def zero_coords_consistent(self):
        return all(self.zero_lo[h] <= self.zero_hi[h] for h in self.zero_hs)


def enumerate_cells(inst: FourBlockInstance, elim: EliminationData,
                    grid: SubIntervalGrid):
    """Yield every CellProblem; the max over their optima is the optimum."""
    builder = _CellBuilder(inst, elim)
    if not builder.zero_coords_consistent():
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
    hs = sorted(chosen)
    args = []
    for i in range(1, n):
        def beats(a, b):
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
            win_x = xwins
            return win_x != flip

        best = hs[0]
        for h in hs[1:]:
            if not beats(best, h):
                best = h
        if all(beats(best, h) for h in hs):
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
    layout = {"x0": 0, "xi": {}, "z": {}, "direct": {}, "p": None}
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
        if a:
            e[j] = e.get(j, 0) + a

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

    order = builder.order
    cap_by_brick = {i: caps[i - 1] for i in range(1, n)}
    for j in range(1, n + 1):
        obj = dict(base_obj)
        const = base_const
        p_rows = []
        if j == 1:
            p_lo, p_hi_j = 0, 0
        else:
            v_j = builder.rates[order[j - 2]]
            add(obj, layout["p"], v_j)
            lam_prev = expr()  # Lambda(j-1) as coefficients, plus constant
            lam_prev_const = 0
            for gamma in range(j - 2):
                i = order[gamma]
                cc, hl, hu = cap_by_brick[i]
                v_i = builder.rates[i]
                const += v_i * cc
                add(obj, layout["z"][hl], v_i)
                add(obj, layout["z"][hu], -v_i)
                lam_prev_const += cc
                add(lam_prev, layout["z"][hl], 1)
                add(lam_prev, layout["z"][hu], -1)
            const -= v_j * lam_prev_const
            for var, coef in lam_prev.items():
                add(obj, var, -v_j * coef)
            # Lambda(j-1) + 1 <= p <= Lambda(j)
            e = dict(lam_prev)
            add(e, layout["p"], -1)
            p_rows.append((e, -lam_prev_const - 1))
            i = order[j - 2]
            cc, hl, hu = cap_by_brick[i]
            e = expr()
            add(e, layout["p"], 1)
            for var, coef in lam_prev.items():
                add(e, var, -coef)
            add(e, layout["z"][hl], -1)
            add(e, layout["z"][hu], 1)
            p_rows.append((e, lam_prev_const + cc))
            p_lo, p_hi_j = None, None

        cell_lo = list(lo)
        cell_hi = list(hi)
        if j == 1:
            cell_lo[layout["p"]] = 0
            cell_hi[layout["p"]] = 0

        rows_all = []
        rhs_all = []
        ok = True
        for e, b in eq_rows:
            mn, mx = _range_of(e, cell_lo, cell_hi)
            if not (mn <= b <= mx):
                ok = False
                break
            rows_all.append(e)
            rhs_all.append(b)
        if not ok:
            continue
        slack_boxes = []
        for e, b in ineq_rows + p_rows:
            mn, mx = _range_of(e, cell_lo, cell_hi)
            if mn > b:
                ok = False
                break
            if mx <= b:
                continue  # always satisfied inside the boxes
            rows_all.append(e)
            rhs_all.append(b)
            slack_boxes.append(b - mn)
        if not ok:
            continue

        nv = base_vars + len(slack_boxes)
        dense = []
        k = 0
        for ri, e in enumerate(rows_all):
            row = [0] * nv
            for var, coef in e.items():
                row[var] = coef
            if ri >= len(eq_rows):
                row[base_vars + k] = 1
                k += 1
            dense.append(row)
        full_lo = cell_lo + [0] * len(slack_boxes)
        full_hi = cell_hi + slack_boxes
        c = [0] * nv
        for var, coef in obj.items():
            c[var] = coef
        lp = LpProblem.make(c, dense, rhs_all, full_lo, full_hi)
        mip = MipProblem.make(lp, [True] * nv)
        yield CellProblem(
            mip=mip,
            constant=const,
            sub_choice=tuple(chosen[h] for h in gh),
            pair_choice=tuple(sorted(pairs.items())),
            j=j,
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
    rows = [list(inst.C.row(r)) for r in range(inst.s_C)]
    lp = LpProblem.make(
        list(inst.w), rows, list(inst.b0), list(inst.l), list(inst.u)
    )
    res = solve_mip(MipProblem.make(lp, [True] * inst.t_B))
    if res.status != OPTIMAL:
        return Infeasible("NoLatticePoint")
    x = tuple(int(v) for v in res.point)
    return Solution(x=x, objective=int(res.value), solver_tag="fourblock_snf")


def solve_4block_snf(inst: FourBlockInstance, eliminate="auto"):
    """Exact optimum for eligible 4-block instances; Solution or Infeasible.

    eliminate picks the brick-difference route: "snf" always diagonalizes,
    "bezout" uses the gcd identity (1x2 bricks only), "auto" prefers the gcd
    route when it applies.  Both routes must agree on the optimum; the choice
    affects intermediate encodings only.
    """
    issues = validate(inst)
    if issues:
        raise MalformedProblemError(issues[0].message)
    if not _structurally_eligible(inst):
        raise NotEligibleError(
            "needs one more brick column than rows and full row rank"
        )
    if inst.n == 0:
        return _solve_trivial(inst)

    if eliminate == "auto":
        eliminate = "bezout" if (inst.s_A, inst.t_A) == (1, 2) else "snf"
    if eliminate == "bezout":
        elim = elimination_from_bezout(inst)
    elif eliminate == "snf":
        elim = elimination_from_snf(inst)
    else:
        raise MalformedProblemError(f"unknown elimination route {eliminate!r}")
    if isinstance(elim, Infeasible):
        return elim

    grid = build_grid(
        elim,
        [inst.l[inst.brick_slice(i)] for i in range(inst.n)],
        [inst.u[inst.brick_slice(i)] for i in range(inst.n)],
    )

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


def cell_values(inst: FourBlockInstance, eliminate="auto"):
    """Optima of every feasible cell, in enumeration order (no pruning)."""
    issues = validate(inst)
    if issues:
        raise MalformedProblemError(issues[0].message)
    if not _structurally_eligible(inst) or inst.n == 0:
        raise NotEligibleError("cell enumeration needs an eligible instance")
    if eliminate == "auto":
        eliminate = "bezout" if (inst.s_A, inst.t_A) == (1, 2) else "snf"
    elim = (elimination_from_bezout(inst) if eliminate == "bezout"
            else elimination_from_snf(inst))
    if isinstance(elim, Infeasible):
        return []
    grid = build_grid(
        elim,
        [inst.l[inst.brick_slice(i)] for i in range(inst.n)],
        [inst.u[inst.brick_slice(i)] for i in range(inst.n)],
    )
    values = []
    for cell in enumerate_cells(inst, elim, grid):
        res = solve_cell(cell)
        if res.status == OPTIMAL:
            values.append(res.value + cell.constant)
    return values
