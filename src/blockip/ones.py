"""Solver for instances whose brick matrix is a single all-ones row.

Three stages.  First the bricks collapse into one integral aggregate
vector y of column totals, so only (x0, y) stays integer; for fixed (x0, y)
the bricks relax to a capacitated transportation problem, totally
unimodular, so the relaxation is exact.  Second, the integral (x0, y) live
on an affine lattice (coupling rows plus the sum of all brick rows), which
intlin.lattice_in_box writes as a recentred point plus an LLL-reduced
kernel basis over a coordinate box.  The concave transport value function
is maximized over its coordinates by smallip.best_of, the package's
best-first search, with this module's separator: it evaluates the lattice
corners around a bound LP point nearest first and hands the search
supergradient cuts from transport duals and blocking-set cuts from the
max-flow min-cut feasibility condition, stopping at the first cut that
separates the point, not after all 2^f corners.  The search propagates
over those rows, solves the bound LPs warm, splits boxes and prunes them
with floored bounds (every candidate value is an integer).  Third, the
winning aggregate's bricks are the search's own transport there.

Every transport is solved by flow.solve_transport on one
flow.TransportTable that the search builds from the bricks' boxes and
profits, the transports differing only in their totals (b - q, y).  Most
share the row totals b - q too, and the table holds the greedy fill of the
last row totals it met, so a transport at a new y only rebalances that
fill's columns.  Both kinds of cut come from the flow and are checked once
from the transport's own data, not from the held fill: a feasible
transport by the flow's column prices and row prices derived from them,
whose dual value equals its objective; an infeasible one by the column set
H its verdict names, where the rows' supply that cannot leave H exceeds
H's demand.  So the winning transport is neither solved nor checked a
second time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import le, mul, sub

from .errors import (
    InternalInconsistencyError,
    MalformedProblemError,
    NotAllOnesError,
)
from .flow import Blocked, TransportProblem, TransportResult, solve_transport
from .intlin import lattice_in_box, smith_normal_form
from .model import (
    FourBlockInstance,
    Infeasible,
    IntMatrix,
    StructureClass,
    checked_solution,
    classify,
    evaluate,
    validate,
)
# solve_lp is no longer called here; it stays importable under this name
# because perfbench/tracer.py wraps blockip.ones.solve_lp
from .ratlp import LpProblem, solve_lp  # noqa: F401
from .smallip import MipProblem, _nearest_first, best_of


@dataclass(frozen=True)
class OnesContext:
    """Integral aggregate picked by the mixed-integer stage."""

    instance: FourBlockInstance
    y: tuple  # length t_A, the column totals the bricks must reach
    x0: tuple  # length t_B


def _require_ones(inst: FourBlockInstance) -> None:
    issues = validate(inst)
    if issues:
        raise MalformedProblemError(issues[0].message)
    if classify(inst) != StructureClass.ALL_ONES_ROW:
        raise NotAllOnesError("brick matrix is not a single all-ones row")


@dataclass(frozen=True)
class _LatticeForm:
    """Affine lattice carrying every integral aggregate: (x0, y) = offset + basis v."""

    offset: tuple  # integral point of the (x0, y) solution lattice
    basis: tuple  # reduced lattice basis, one vector per coordinate
    v_lo: tuple  # coordinate box containing every lattice point of the xy box
    v_hi: tuple
    xy_lower: tuple  # box on (x0, y): instance box on x0, brick sums on y
    xy_upper: tuple


def _aggregate_lattice(inst: FourBlockInstance):
    """Lattice of the integral (x0, y) aggregates, in reduced coordinates.

    Any integral solution has (x0, y) on the affine lattice cut out by the
    coupling rows together with the balance row (the sum of every brick row):
    p + W Zᶠ with W a reduced kernel basis.  Searching directly over x0 or y
    crosses the lattice's fundamental cell one unit at a time, which is
    hopeless when the cell is wide; coordinates move cell to cell.  The
    particular point is recentred near the box midpoint (nearest-plane
    rounding) and the coordinate box comes from exact interval arithmetic,
    so it contains every lattice point of the xy box.  Returns None when the
    lattice or the coordinate box is empty, which proves infeasibility.

    The rows and the xy box are built here; the lattice is
    intlin.lattice_in_box of their Smith form: the particular solution and
    kernel it reads off, the integral LLL of intlin.reduce_basis, and the
    fraction-free coordinate box of intlin.coordinate_box.  All of it is
    integer arithmetic.
    """
    n, tA, tB, sC = inst.n, inst.t_A, inst.t_B, inst.s_C
    brow = inst.B.row(0) if inst.s_A else (0,) * tB
    rows = [list(inst.C.row(r)) + list(inst.D.row(r)) for r in range(sC)]
    rows.append([n * c for c in brow] + [1] * tA)
    rhs = list(inst.b0) + [sum(inst.b[i][0] for i in range(n))]
    # y's box is the brick sums of the brick boxes, the tightest one
    xy_lo = list(inst.l[:tB]) + inst.brick_sums(inst.l)
    xy_hi = list(inst.u[:tB]) + inst.brick_sums(inst.u)
    lattice = lattice_in_box(smith_normal_form(IntMatrix.from_rows(rows)), rhs, xy_lo, xy_hi)
    if lattice is None:
        return None
    return _LatticeForm(*lattice, tuple(xy_lo), tuple(xy_hi))


def _transport_problem(inst: FourBlockInstance, ctx: OnesContext) -> TransportProblem:
    bx0 = inst.B.mul_vec(ctx.x0)[0] if inst.s_A else 0
    row_totals = [inst.b[i][0] - bx0 for i in range(inst.n)]
    return TransportProblem.make(row_totals, ctx.y, *map(inst.bricks, (inst.l, inst.u, inst.w)))


def _transport_duals(p: TransportProblem, res: TransportResult):
    """Optimal dual prices (row, column), certifying that res is optimal.

    The column prices c are res.prices, the flow's own.  In the one pass
    over the rows that checks the cells, a_i is the least profit - c_h over
    row i's cells above their lower bound, else the greatest over its cells
    with room, else 0.  From the TransportProblem fields and res alone it
    checks that c is t ints, that the cells meet every box and total and
    are worth res.objective, and that the dual value a . r + c . y + the sum
    over cells of max(gap * lower, gap * upper), gap = profit - a_i - c_h,
    equals res.objective.  That value bounds every feasible transport
    whatever produced the prices, so equality proves res optimal; each
    check is an explicit raise of InternalInconsistencyError, so it still
    runs under python -O.  By complementarity (a, c) is also a supergradient
    of the concave value function at these totals: for totals (r', y') the
    optimum is at most res.objective + a . (r' - r) + c . (y' - y).
    """
    t = len(p.col_totals)
    cells, c = res.cells, res.prices
    if len(c) != t or not set(map(type, c)) <= {int}:
        raise InternalInconsistencyError(f"transport prices {c!r} are not {t} ints")
    if len(cells) != len(p.row_totals):
        raise InternalInconsistencyError("transport cells miss their boxes or totals")
    col_sums = [0] * t
    primal = 0
    dual = sum(map(mul, c, p.col_totals))
    a = []
    for z, lo, up, pr, r in zip(cells, p.cell_lower, p.cell_upper, p.cell_profit, p.row_totals):
        if len(z) != t or sum(z) != r:
            raise InternalInconsistencyError("transport cells miss their boxes or totals")
        worths = list(map(sub, pr, c))
        above = room = None  # least worth above the lower bound, greatest with room
        for h in range(t):
            zh = z[h]
            if not lo[h] <= zh <= up[h]:
                raise InternalInconsistencyError("transport cells miss their boxes or totals")
            col_sums[h] += zh
            primal += pr[h] * zh
            worth = worths[h]
            if zh > lo[h] and (above is None or worth < above):
                above = worth
            if zh < up[h] and (room is None or worth > room):
                room = worth
        ai = above if above is not None else room if room is not None else 0
        a.append(ai)
        dual += ai * r
        for worth, low, high in zip(worths, lo, up):
            gap = worth - ai
            dual += gap * (high if gap > 0 else low)
    if col_sums != list(p.col_totals):
        raise InternalInconsistencyError("transport cells miss their boxes or totals")
    if primal != res.objective:
        raise InternalInconsistencyError(
            f"transport cells are worth {primal}, not the reported {res.objective}"
        )
    if dual != res.objective:
        raise InternalInconsistencyError(
            f"transport dual value {dual} != primal objective {res.objective}"
        )
    return a, c


def _blocking_pair(p: TransportProblem, blocked: Blocked):
    """Violated blocking pair (rows R, columns H) of an infeasible transport
    and R's summed capacity outside H, certifying that p is infeasible.

    H is the flow's own, blocked.columns.  With the lower bounds shifted
    out, rho_i is row i's supply, delta_h column h's demand and out_i row
    i's capacity outside H; R is the rows with rho_i > out_i.  One pass over
    the TransportProblem fields checks that R's excess, the sum of
    rho_i - out_i, exceeds H's demand, which no flow can carry.  A missing
    or non-blocking H raises InternalInconsistencyError, under python -O too.
    """
    t = len(p.col_totals)
    if blocked.columns is None:
        raise InternalInconsistencyError(f"transport infeasible ({blocked.reason}) but no blocking pair")
    cols = [h for h in range(t) if h in blocked.columns]
    outside = [h for h in range(t) if h not in blocked.columns]
    rows, excess, out_sum = [], 0, 0
    demand = sum(p.col_totals[h] for h in cols)
    for i, (r, lo, up) in enumerate(zip(p.row_totals, p.cell_lower, p.cell_upper)):
        demand -= sum(lo[h] for h in cols)
        out = sum(up[h] - lo[h] for h in outside)
        m = r - sum(lo) - out
        if m > 0:
            rows.append(i)
            excess += m
            out_sum += out
    if excess <= demand:
        raise InternalInconsistencyError(f"{blocked.reason}: transport columns {cols} do not block")
    return rows, cols, out_sum


def _optimize_aggregate(inst: FourBlockInstance, form: _LatticeForm):
    """Optimal (value, x0, cells) over the lattice, or None; cells is the
    bricks' transport at the winning (x0, y), certified by _transport_duals.

    Maximizes g(v) = w0 . x0(v) + T(v) over integer lattice coordinates v,
    T the bricks' exact transport optimum at the aggregate of v, by
    smallip.best_of over one root, max t over (v, t) in the coordinate box
    and [t_lo, t_hi] with t not masked integral, and the separator below.
    The rows it holds are integer rows over (v, t) that hold at every
    lattice point v with t = g(v): both sides of the xy box rows and of the
    shared-row range, and the upper sides of supergradient cuts at feasible
    evaluations and of blocking cuts at infeasible ones.  They hold there
    because the point is feasible, because g is concave, and by max-flow
    min-cut; g is an integer at every point, so t is integral there too, as
    best_of asks of a separator.

    At a node's LP point the separator evaluates the fresh lattice corners
    (the floor or the ceiling of each coordinate, in the box because the
    point is) one at a time, nearest first (_nearest_first).  It stops at
    the first one whose cut is new and separates the point; a point outside
    the xy box or the q range adds no cut and does not stop it.  Its first
    call, at the point of the bare box, holds the box rows and puts the box
    point nearest the recentred offset before the corners.  It returns the
    best value evaluated and keeps that point's transport.  At an LP point
    integral in v, the cut at v holds t to g(v), which the best value
    reaches, so the search accepts no point and the best one evaluated is
    the optimum.
    """
    n, tA, tB = inst.n, inst.t_A, inst.t_B
    taw = tB + tA
    f = len(form.basis)
    brow = inst.B.row(0) if inst.s_A else (0,) * tB
    basis = form.basis
    p0 = form.offset

    lower, upper, profit = map(inst.bricks, (inst.l, inst.u, inst.w))
    bvals = [inst.b[i][0] for i in range(n)]
    # the bricks' transport table, built once; each evaluation sets its totals
    bricks = TransportProblem.make(bvals, [0] * tA, lower, upper, profit)
    table = bricks.table

    # range of the shared quantity q = B x0 allowed by the brick row sums
    q_lo = q_hi = None
    if n:
        q_lo = max(bvals[i] - sum(upper[i]) for i in range(n))
        q_hi = min(bvals[i] - sum(lower[i]) for i in range(n))
        if q_lo > q_hi:
            return None
    q0 = sum(brow[j] * p0[j] for j in range(tB))
    # coordinate i of xy as a row over v; zip(*basis) yields nothing when f = 0
    basis_rows = list(zip(*basis)) or [()] * taw
    beta = [sum(brow[j] * basis[k][j] for j in range(tB)) for k in range(f)]
    w0w = [sum(inst.w[j] * basis[k][j] for j in range(tB)) for k in range(f)]

    t_lo = sum(min(inst.w[j] * inst.l[j], inst.w[j] * inst.u[j]) for j in range(inst.num_vars))
    t_hi = sum(max(inst.w[j] * inst.l[j], inst.w[j] * inst.u[j]) for j in range(inst.num_vars))

    # rows over (v, t) as (coefficients, lo, hi): the xy box, then the
    # shared-quantity range
    box_rows = [([basis[k][i] for k in range(f)] + [0], form.xy_lower[i] - p0[i], form.xy_upper[i] - p0[i])
                for i in range(taw)]
    if q_lo is not None:
        box_rows.append((beta + [0], q_lo - q0, q_hi - q0))

    evaluated = set()  # every lattice point v passed to evaluate_at
    transports = {}  # (q, y) -> (result, duals or blocking pair)
    best = None  # (value, x0, cells of the certified transport)

    def evaluate_at(v):
        """The cut at lattice point v, or None outside the xy box or q range."""
        nonlocal best
        evaluated.add(v)
        xy = [p + sum(map(mul, row, v)) for p, row in zip(p0, basis_rows)]
        if not (all(map(le, form.xy_lower, xy)) and all(map(le, xy, form.xy_upper))):
            return None
        q = sum(map(mul, brow, xy))
        if q_lo is not None and not q_lo <= q <= q_hi:
            return None
        x0, y = tuple(xy[:tB]), tuple(xy[tB:])
        # distinct x0 with equal q and y share one transport: solve it once
        got = transports.get((q, y))
        if got is None:
            tp = bricks.with_totals([b - q for b in bvals], y)
            tr = solve_transport(tp)
            if isinstance(tr, TransportResult):
                cert = _transport_duals(tp, tr)
            else:
                cert = _blocking_pair(tp, tr)
            got = transports[q, y] = (tr, cert)
        tr, cert = got
        if isinstance(tr, TransportResult):
            value = sum(map(mul, inst.w, x0)) + tr.objective
            a, c = cert
            asum = sum(a)
            slope = [
                w0w[k] - asum * beta[k]
                + sum(c[h] * basis[k][tB + h] for h in range(tA))
                for k in range(f)
            ]
            if best is None or value > best[0]:
                best = (value, x0, tr.cells)
            return [-s for s in slope] + [1], None, value - sum(map(mul, slope, v))
        rows, cols, out_sum = cert
        # surplus of R that cannot leave H must fit under H's demand; linear in v
        coeffs = [-len(rows) * beta[k] - sum(basis[k][tB + h] for h in cols) for k in range(f)]
        rhs = out_sum + sum(p0[tB + h] - table.col_lower[h] for h in cols)
        rhs -= sum(bvals[i] - q0 - table.row_lower[i] for i in rows)
        if sum(coeffs[k] * v[k] for k in range(f)) <= rhs:
            raise InternalInconsistencyError("blocking cut fails to separate its point")
        return coeffs + [0], None, rhs

    def separate(num, den, add):
        corners = _nearest_first(num, den, f)
        if not evaluated:
            # the bare box's point: hold the box rows, and take the box point
            # nearest the recentred offset first
            for row in box_rows:
                add(*row)
            start = tuple(min(max(0, form.v_lo[k]), form.v_hi[k]) for k in range(f))
            corners = itertools.chain([start], corners)
        for v in corners:
            cut = None if v in evaluated else evaluate_at(v)
            # solve again once a new cut separates the LP point (v, t) = num / den
            if cut and add(*cut) and sum(map(mul, cut[0], num)) > cut[2] * den:
                break
        return None if best is None else best[0]

    lp = LpProblem.make([0] * f + [1], [], list(form.v_lo) + [t_lo], list(form.v_hi) + [t_hi])
    root = MipProblem.make(lp, (True,) * f + (False,))
    if best_of([(root, 0, t_hi)], None, separate)[0] is not None:
        raise InternalInconsistencyError("bound LP returned an evaluated lattice point")
    return best


def round_bricks(inst: FourBlockInstance, ctx: OnesContext):
    """Integral bricks meeting the aggregate exactly; n x t_A matrix.

    For callers that hold only an aggregate: solves its transportation
    problem and certifies the flow with _transport_duals.  The polytope is
    nonempty whenever ctx came from a feasible aggregate solve, so an
    infeasible flow here is an internal contradiction.
    """
    p = _transport_problem(inst, ctx)
    res = solve_transport(p)
    if not isinstance(res, TransportResult):
        raise InternalInconsistencyError(
            f"rounding flow infeasible ({res.reason}) despite feasible aggregate"
        )
    _transport_duals(p, res)
    return res.cells


def solve_ones(inst: FourBlockInstance):
    """Optimal integral solution, Infeasible, or NotAllOnes for wrong shapes.

    The bricks are the cells of the search's transport at the winning
    aggregate.  _transport_duals certified that transport optimal when the
    search evaluated it, and the assembled point is re-evaluated against the
    instance before it is returned.
    """
    _require_ones(inst)
    form = _aggregate_lattice(inst)
    if form is None:
        return Infeasible("NoLatticePoint")
    agg = _optimize_aggregate(inst, form)
    if agg is None:
        return Infeasible("NoLatticePoint")
    value, x0, cells = agg
    x = x0 + tuple(v for row in cells for v in row)
    return checked_solution(evaluate(inst, x), x, value, "ones")
