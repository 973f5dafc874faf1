"""Solver for instances whose brick matrix is a single all-ones row.

Three stages.  First the bricks are collapsed into one integral aggregate
vector y of column totals, so only (x0, y) stays integer; for fixed (x0, y)
the bricks relax to a capacitated transportation problem whose matrix is
totally unimodular, hence the relaxation is exact.  Second, the integral
(x0, y) live on an explicit affine lattice (coupling rows plus the sum of
all brick rows), which intlin.lattice_in_box writes as a recentred point
plus an LLL-reduced kernel basis over a coordinate box.  The concave
transportation value function is maximized over the lattice coordinates
by an exact cutting-plane search: supergradient cuts from transportation
duals, blocking-set cuts from the max-flow min-cut feasibility condition,
and box splitting with floor pruning (every candidate value is an
integer).  Third, the winning aggregate is redistributed over
the bricks, and that redistribution is the search's own transport at the
winning aggregate.  Every transport of the search is solved by
flow.solve_transport, which fills each brick greedily and then moves units
between the t_A columns along shortest paths over those t_A nodes alone,
the bricks entering only through one heap per ordered column pair.  The
transports of one search differ only in their totals (b - q, y), so the
search builds one flow.TransportTable from the bricks' boxes and profits
(capacities, lower-bound sums, profit orders, presorted pair lists, and
the out-of-H capacities the blocking cuts read) and derives every
transport from it with with_totals.  The winning transport was solved once
during the search and certified optimal there by integral dual prices,
again shortest distances over the t_A columns, whose dual value equals its
objective, so it is neither solved nor checked a second time.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from operator import mul

from .errors import (
    InternalInconsistencyError,
    MalformedProblemError,
    NotAllOnesError,
)
from .flow import TransportProblem, TransportResult, solve_transport
from .intlin import lattice_in_box, smith_normal_form
from .model import (
    FourBlockInstance,
    Infeasible,
    IntMatrix,
    Solution,
    StructureClass,
    classify,
    evaluate,
    validate,
)
# solve_lp is no longer called here; it stays importable under this name
# because perfbench/tracer.py wraps blockip.ones.solve_lp
from .ratlp import OPTIMAL, LpProblem, solve_lp, solve_lp_warm  # noqa: F401


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

    The prices are shortest distances in the residual graph of res's cells
    (arcs row -> column at cost -profit where a cell has room, column -> row
    at cost profit where it is above its lower bound) from a virtual source
    joined to every node at cost zero; they exist exactly when the residual
    graph has no negative cycle, which optimality guarantees.  Rows only
    pass paths between columns, so Bellman-Ford runs over the t columns:
    each is seeded at min(0, least -profit over the rows with room in it),
    the cheapest row exchange h -> g is relaxed for t rounds, and a row's
    price is min(0, least d_h + profit over its cells above their lower
    bound).  The certificate is checked from scratch, in the same per-row
    pass that gathers each row's room and above sets and the pair costs:
    the cells meet every box and total, their profit is res.objective, and
    for the integral prices a, c the dual value
    a . r + c . y + sum over cells of max(gap * lower, gap * upper), with
    gap = profit - a_i - c_h, equals res.objective.  That dual value bounds
    every feasible transport from above, so equality proves res optimal
    without trusting the flow code.  Each check is an explicit raise of
    InternalInconsistencyError, so it still runs under python -O.

    The returned prices also satisfy complementarity, so for any totals
    (r', y') the optimum is at most the certified value plus
    a . (r' - r) + c . (y' - y): the value function is concave and (a, c)
    is a supergradient at the current totals.
    """
    t = len(p.col_totals)
    cells = res.cells
    if len(cells) != len(p.row_totals):
        raise InternalInconsistencyError("transport cells miss their boxes or totals")
    col_sums = [0] * t
    primal = 0
    d = [0] * t  # column distances
    pair = [[None] * t for _ in range(t)]  # [h][g]: cheapest p_ih - p_ig over rows that can exchange
    above = []
    for z, lo, up, pr, r in zip(cells, p.cell_lower, p.cell_upper, p.cell_profit, p.row_totals):
        if len(z) != t or sum(z) != r:
            raise InternalInconsistencyError("transport cells miss their boxes or totals")
        room, ab = [], []
        for h in range(t):
            zh = z[h]
            if not lo[h] <= zh <= up[h]:
                raise InternalInconsistencyError("transport cells miss their boxes or totals")
            col_sums[h] += zh
            primal += pr[h] * zh
            if zh < up[h]:
                room.append(h)
                if -pr[h] < d[h]:
                    d[h] = -pr[h]
            if zh > lo[h]:
                ab.append(h)
        above.append(ab)
        for h in ab:
            ph, costs = pr[h], pair[h]
            for g in room:
                cost = ph - pr[g]
                if g != h and (costs[g] is None or cost < costs[g]):
                    costs[g] = cost
    if col_sums != list(p.col_totals):
        raise InternalInconsistencyError("transport cells miss their boxes or totals")
    if primal != res.objective:
        raise InternalInconsistencyError(
            f"transport cells are worth {primal}, not the reported {res.objective}"
        )
    arcs = [(h, g, cost) for h in range(t) for g, cost in enumerate(pair[h]) if cost is not None]
    for _ in range(t):
        changed = False
        for h, g, cost in arcs:
            if d[h] + cost < d[g]:
                d[g] = d[h] + cost
                changed = True
        if not changed:
            break
    else:
        raise InternalInconsistencyError("negative cycle in optimal transport residual")
    c = [-dh for dh in d]
    dual = sum(map(mul, c, p.col_totals))
    a = []
    for ab, lo, up, pr, r in zip(above, p.cell_lower, p.cell_upper, p.cell_profit, p.row_totals):
        ai = min([0] + [d[h] + pr[h] for h in ab])
        a.append(ai)
        dual += ai * r
        for h in range(t):
            gap = pr[h] - ai - c[h]
            dual += gap * (up[h] if gap > 0 else lo[h])
    if dual != res.objective:
        raise InternalInconsistencyError(
            f"transport dual value {dual} != primal objective {res.objective}"
        )
    return a, c


def _blocking_cut(p: TransportProblem):
    """Violated blocking pair (rows R, columns H) of an infeasible transport.

    After shifting out the lower bounds, a feasible flow exists iff for every
    column set H the rows' surplus that cannot drain outside H fits under H's
    demand.  The worst row set for a fixed H is found greedily, so scanning
    the 2^t column subsets is exhaustive.  Returns None when no pair is
    violated, which certifies feasibility of the totals.
    """
    t = len(p.col_totals)
    table = p.table
    rho = [r - low for r, low in zip(p.row_totals, table.row_lower)]
    delta = [c - low for c, low in zip(p.col_totals, table.col_lower)]
    for hmask in range(1 << t):
        cols = [h for h in range(t) if hmask >> h & 1]
        rows, lhs = [], 0
        for i, out in enumerate(table.outside(hmask)):
            m = rho[i] - out
            if m > 0:
                rows.append(i)
                lhs += m
        if lhs > sum(delta[h] for h in cols):
            return rows, cols
    return None


def _optimize_aggregate(inst: FourBlockInstance, form: _LatticeForm):
    """Optimal (value, x0, y, cells) over the lattice, or None.

    cells is the bricks' transport at the winning aggregate (x0, y), already
    certified optimal by _transport_duals, so it is the rounding.

    Maximizes g(v) = w0 . x0(v) + T(v) over integer lattice coordinates,
    where T is the exact transportation optimum of the bricks for the
    aggregate at v.  g is evaluated only at integer points, so there is no
    relaxation gap to cross: the upper bound on a coordinate box comes from a
    small exact LP over (v, t) whose integer ranged rows hold at every
    lattice point of the box (xy box rows, the shared-row range,
    supergradient cuts at feasible evaluations, blocking cuts at infeasible
    ones), and g is an integer at every point (integral data, integral flow),
    so a box closes as soon as its bound drops below the incumbent plus one.
    Evaluated points always either improve the incumbent, tighten the bound
    through their cut, or shrink the box through splitting, so the search is
    finite.  A box splits only at a fractional coordinate of its LP point:
    an integral LP point is evaluated if fresh, and if not, its cut already
    closed the box.

    The bound LP is one warm tableau carried from box to box.  Only the root
    box is solved cold, from the row-less start.  Every heap entry holds the
    solved state of the box it came from (the two halves of a split share
    it) and the number of cuts that state already holds; on pop the box's
    edges are edited in, the cuts found since are added as rows, and the
    dual simplex re-solves from the old basis.  A cut whose range is empty
    over the root box makes every later bound LP infeasible, which closes
    the box as it should.
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
    beta = [sum(brow[j] * basis[k][j] for j in range(tB)) for k in range(f)]
    w0w = [sum(inst.w[j] * basis[k][j] for j in range(tB)) for k in range(f)]

    t_lo = sum(min(inst.w[j] * inst.l[j], inst.w[j] * inst.u[j]) for j in range(inst.num_vars))
    t_hi = sum(max(inst.w[j] * inst.l[j], inst.w[j] * inst.u[j]) for j in range(inst.num_vars))

    # bound-LP rows over (v, t) as (coefficients, lo, hi): the xy box, then
    # the shared-quantity range; cuts grows as the search evaluates points
    box_rows = [
        ([basis[k][i] for k in range(f)] + [0], form.xy_lower[i] - p0[i], form.xy_upper[i] - p0[i])
        for i in range(taw)
    ]
    if q_lo is not None:
        box_rows.append((beta + [0], q_lo - q0, q_hi - q0))
    # feasibility cuts coeffs . v <= rhs and optimality cuts t - slope . v <= rhs,
    # each bounded below by its minimum over the root box
    cuts = []
    evaluated = set()  # every lattice point v passed to evaluate_at
    transports = {}  # (q, y) -> (result, duals or blocking pair)
    best = None  # (value, x0, y, cells of the certified transport)

    def root_min(coeffs):
        return sum(min(c * form.v_lo[k], c * form.v_hi[k]) for k, c in enumerate(coeffs))

    def root_max(coeffs):
        return sum(max(c * form.v_lo[k], c * form.v_hi[k]) for k, c in enumerate(coeffs))

    def evaluate_at(v):
        nonlocal best
        evaluated.add(v)
        xy = [p0[i] + sum(basis[k][i] * v[k] for k in range(f)) for i in range(taw)]
        if any(xy[i] < form.xy_lower[i] or xy[i] > form.xy_upper[i] for i in range(taw)):
            return
        q = sum(brow[j] * xy[j] for j in range(tB))
        if q_lo is not None and not q_lo <= q <= q_hi:
            return
        x0, y = tuple(xy[:tB]), tuple(xy[tB:])
        # distinct x0 with equal q and y share one transport: solve it once
        got = transports.get((q, y))
        if got is None:
            tp = bricks.with_totals([b - q for b in bvals], y)
            tr = solve_transport(tp)
            if isinstance(tr, TransportResult):
                cert = _transport_duals(tp, tr)
            else:
                cert = _blocking_cut(tp)
                if cert is None:
                    raise InternalInconsistencyError(
                        f"transport infeasible ({tr.reason}) but no blocking pair"
                    )
            got = transports[q, y] = (tr, cert)
        tr, cert = got
        if isinstance(tr, TransportResult):
            value = sum(inst.w[j] * x0[j] for j in range(tB)) + tr.objective
            a, c = cert
            asum = sum(a)
            slope = [
                w0w[k] - asum * beta[k]
                + sum(c[h] * basis[k][tB + h] for h in range(tA))
                for k in range(f)
            ]
            rhs = value - sum(slope[k] * v[k] for k in range(f))
            cuts.append(([-s for s in slope] + [1], t_lo - root_max(slope), rhs))
            if best is None or value > best[0]:
                best = (value, x0, y, tr.cells)
            return
        rows, cols = cert
        # surplus of R that cannot leave H must fit under H's demand; linear in v
        coeffs = [
            -len(rows) * beta[k] - sum(basis[k][tB + h] for h in cols)
            for k in range(f)
        ]
        outside = table.outside(sum(1 << h for h in cols))
        rhs = (
            sum(p0[tB + h] - table.col_lower[h] for h in cols)
            + sum(outside[i] for i in rows)
            - sum(bvals[i] - q0 - table.row_lower[i] for i in rows)
        )
        if sum(coeffs[k] * v[k] for k in range(f)) <= rhs:
            raise InternalInconsistencyError("blocking cut fails to separate its point")
        cuts.append((coeffs + [0], root_min(coeffs), rhs))

    if f == 0:
        evaluate_at(())
        return best

    objective = [0] * f + [1]
    evaluate_at(tuple(min(max(0, form.v_lo[k]), form.v_hi[k]) for k in range(f)))
    seq = 0
    # entries: (-bound, -seq, box, solved state of the parent box, cuts it holds)
    heap = [(-t_hi, 0, form.v_lo, form.v_hi, None, 0)]
    while heap:
        _, _, box_lo, box_hi, state, seen = heapq.heappop(heap)
        if state is None:
            res, state = solve_lp_warm(LpProblem.make(
                objective, box_rows + cuts, list(box_lo) + [t_lo], list(box_hi) + [t_hi]
            ))
        else:
            edges = [
                (k, box_lo[k], box_hi[k]) for k in range(f)
                if state.bounds(k) != (box_lo[k], box_hi[k])
            ]
            res, state = state.edited(edges, cuts[seen:])
        if res.status != OPTIMAL:
            continue
        seen = len(cuts)
        # the LP point (v, t) is num over den: floors and ceilings in ints
        num, den = res.num, res.den
        ceiling = res.value_num // den
        if best is not None and ceiling <= best[0]:
            continue
        cand_axes = []
        for k in range(f):
            lo = max(box_lo[k], min(num[k] // den, box_hi[k]))
            hi = max(box_lo[k], min(-(-num[k] // den), box_hi[k]))
            cand_axes.append((lo, hi) if hi != lo else (lo,))
        fresh = [v for v in itertools.product(*cand_axes) if v not in evaluated]
        seq += 1
        if fresh:
            for v in fresh:
                evaluate_at(v)
            heapq.heappush(heap, (-ceiling, -seq, box_lo, box_hi, state, seen))
            continue
        split = next((k for k in range(f) if num[k] % den), None)
        if split is None:
            # evaluating a point leaves a cut that holds t to its value, at
            # most the incumbent, or one that cuts the point off: a box whose
            # LP optimum is an evaluated point closed at the ceiling test
            raise InternalInconsistencyError("bound LP returned an evaluated lattice point")
        at = num[split] // den
        left_hi = list(box_hi)
        left_hi[split] = at
        right_lo = list(box_lo)
        right_lo[split] = at + 1
        heapq.heappush(heap, (-ceiling, -seq, box_lo, tuple(left_hi), state, seen))
        heapq.heappush(heap, (-ceiling, -seq, tuple(right_lo), box_hi, state, seen))
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
    value, x0, _, cells = agg
    x = x0 + tuple(v for row in cells for v in row)
    report = evaluate(inst, x)
    if not report.feasible or report.objective != value:
        raise InternalInconsistencyError(
            f"assembled point infeasible or off-objective: {report.violations[:3]}"
        )
    return Solution(x=x, objective=report.objective, solver_tag="ones")
