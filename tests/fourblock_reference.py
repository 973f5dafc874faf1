"""References for the 4-block route: its old cell enumeration, its old
cell-by-cell loop, smallip.solve_mip as it stood before it branched in
lattice coordinates, and the paper's own reduction to n-folds.

enumerate_cells is the route's cell enumerator as it stood before its
vector rewrite: per choice of sub-intervals, difference windows and
arguments, per brick a pairwise tournament through a comparison closure,
and per merge window the rows and objective built as sparse dicts and
screened by smallip._propagate.  It yields CellProblem, whose linear MIP
the cell's mip reads, and lift_cell expands a cell optimum to a full point
as the route once did.  The route no longer has cells: it searches one
concave master per choice of sub-intervals (fourblock_snf.enumerate_cells
and solve_cell).  This enumerator shares with the package only the data
types, build_grid and _propagate.

solve_mip_by_coordinates is smallip.solve_mip as it stood before every
all-integer root was rewritten in the lattice coordinates of its equality
rows: the same best-first search over one root, branching on the
program's own columns throughout.  solve_cell_by_cell is the route's old
loop over these cells, each solved to optimality with the best total so
far, less the cell's constant, as its cutoff, and with no bricks the
route's own _solve_trivial.  The route must return its verdict, Infeasible
reason included, and its objective.

solve_by_shared_brick is the paper's reduction and uses none of the cell
or master code: for every x0 in the shared box it solves the n-fold that
is left with nfold_snf and takes the best total.
"""

import heapq
import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction

from blockip import fourblock_snf, smallip
from blockip.errors import InternalInconsistencyError
from blockip.fourblock_snf import EliminationData
from blockip.model import FourBlockInstance, Infeasible, Solution, checked_solution, evaluate
from blockip.nfold_snf import solve_nfold_snf
from blockip.ratlp import INFEASIBLE, OPTIMAL, LpProblem, LpResult
from blockip.smallip import MipProblem, _propagate


@dataclass(frozen=True)
class CellProblem:
    """One fully discretized subproblem, ready for the small MIP solver."""

    # returns the cell's MipProblem; no part of the cell's identity
    recipe: object = field(compare=False, repr=False)
    constant: int  # objective value outside the MIP variables
    sub_choice: tuple  # per grid coordinate, the chosen SubInterval
    layout: dict  # variable-name -> column metadata for lifting
    order: tuple  # brick indices (>=1) sorted by objective rate
    arg_lo: tuple  # per brick >=1: coordinate attaining its lower bound
    arg_hi: tuple  # per brick >=1: coordinate attaining its upper bound

    @property
    def mip(self) -> MipProblem:
        return self.recipe()


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


def enumerate_cells(inst: FourBlockInstance, elim: EliminationData, grid: tuple):
    """Yield every CellProblem; the max over their optima is the optimum."""
    builder = _CellBuilder(inst, elim)
    if any(builder.zero_lo[h] > builder.zero_hi[h] for h in builder.zero_hs):
        return
    gh = builder.grid_hs
    axes = [grid[h] for h in gh]
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
            recipe=lambda mip=mip: mip,
            constant=const,
            sub_choice=tuple(chosen[h] for h in gh),
            layout=layout,
            order=order,
            arg_lo=arg_lo,
            arg_hi=arg_hi,
        )


def solve_mip_by_coordinates(mip, cutoff=None):
    """smallip.solve_mip with coordinate branching at every node.

    Best-first over the nodes of mip's one root, each node under the LP
    total of the node it was split from, or its own once solved; ties go
    to the node pushed last.  The root is settled at its box corner when
    that corner meets its rows (smallip._settled), and otherwise solved
    cold; each child is re-solved warm from its parent's state with its
    box edited.  A node whose point is integral on the mask is accepted
    when popped again; otherwise it is split at smallip._branch_var, and
    it is never rewritten.  An LP total is floored when the objective
    reads only masked variables.  The LP calls go through
    smallip.solve_lp_warm and the state's edited method, looked up when
    called, so a test can count or replace them.
    """
    integral = all(m or not c for c, m in zip(mip.lp.objective, mip.integer_mask))
    # (-bound, -seq, box, state to re-solve from, its LpResult once solved)
    heap = [(0, 0, tuple(mip.lp.lower), tuple(mip.lp.upper), None, None)]
    nodes = seq = 0
    while heap:
        neg, _, lo, hi, state, res = heapq.heappop(heap)
        if res is None:
            if state is None:
                res = smallip._settled(mip.lp)
                if res is None:
                    res, state = smallip.solve_lp_warm(mip.lp)
            else:
                edges = [(j, a, b) for j, (a, b) in enumerate(zip(lo, hi)) if state.bounds(j) != (a, b)]
                res, state = state.edited(edges, [])
            nodes += 1
            if res.status != OPTIMAL:
                continue
            bound = res.value_num // res.den if integral else Fraction(res.value_num, res.den)
            if cutoff is None or bound > cutoff:
                seq += 1
                heapq.heappush(heap, (-bound, -seq, lo, hi, state, res))
            continue
        j = smallip._branch_var(res.num, res.den, mip.integer_mask)
        if j < 0:
            return replace(res, nodes=nodes)
        at = res.num[j] // res.den
        for child in ((lo, hi[:j] + (at,) + hi[j + 1:]), (lo[:j] + (at + 1,) + lo[j + 1:], hi)):
            seq += 1
            heapq.heappush(heap, (neg, -seq, *child, state, None))
    return LpResult(status=INFEASIBLE, nodes=nodes)


def lift_cell(inst, elim, cell, point, cell_value):
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
            raise InternalInconsistencyError(f"negative bound gap at brick {i}")
    for i in cell.order:
        take = caps[i] if caps[i] < rem else rem
        free[i] = lows[i] + take
        rem -= take
    if rem != 0:
        raise InternalInconsistencyError("merged total exceeds the bound gaps")

    x = list(x0)
    for i in range(n):
        off = elim.offsets[i]
        for h in range(tA):
            x.append(anchor[h] + off[h] + theta[h] * free[i])
    return checked_solution(evaluate(inst, x), x, cell_value, "fourblock_snf")


def solve_cell_by_cell(inst, solve=solve_mip_by_coordinates):
    """The route's old loop: one cutoff-pruned solve(mip, cutoff) per cell of
    this module's enumerate_cells, in order."""
    prepared = fourblock_snf._prepare(inst)
    if prepared is None:
        return fourblock_snf._solve_trivial(inst)
    if isinstance(prepared, Infeasible):
        return prepared
    elim, grid = prepared

    best = None  # (value, cell, point)
    for cell in enumerate_cells(inst, elim, grid):
        cutoff = None if best is None else best[0] - cell.constant
        res = solve(cell.mip, cutoff=cutoff)
        if res.status == OPTIMAL:
            total = res.value + cell.constant
            if best is None or total > best[0]:
                best = (total, cell, res.point)

    if best is None:
        return Infeasible("NoLatticePoint")
    total, cell, point = best
    return lift_cell(inst, elim, cell, point, total)


def solve_by_shared_brick(inst):
    """The best total over every x0 of the shared box, each by nfold_snf.

    For fixed x0 the instance is an n-fold with brick rows b_i - B x0 and
    top rows b0 - C x0 (FourBlockInstance.nfold); its optimum plus w0 . x0
    is the best total with that x0.  Returns the best Solution, or
    Infeasible("NoLatticePoint") when no x0 leaves a feasible n-fold.
    """
    tB = inst.t_B
    best = None
    for x0 in itertools.product(*(range(a, b + 1) for a, b in zip(inst.l[:tB], inst.u[:tB]))):
        bx, cx = inst.B.mul_vec(x0), inst.C.mul_vec(x0)
        rest = FourBlockInstance.nfold(
            inst.n, inst.A, inst.D, [v - c for v, c in zip(inst.b0, cx)],
            [[v - c for v, c in zip(bi, bx)] for bi in inst.b], inst.l[tB:], inst.u[tB:], inst.w[tB:])
        got = solve_nfold_snf(rest)
        if isinstance(got, Solution):
            total = got.objective + sum(w * v for w, v in zip(inst.w, x0))
            if best is None or total > best.objective:
                best = Solution(x0 + got.x, total, "shared_brick")
    return Infeasible("NoLatticePoint") if best is None else best
