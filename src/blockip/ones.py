"""Solver for instances whose brick matrix is a single all-ones row.

Three stages.  First the bricks are collapsed into one integral aggregate
vector y of column totals, so only (x0, y) stays integer; for fixed (x0, y)
the bricks relax to a capacitated transportation problem whose matrix is
totally unimodular, hence the relaxation is exact.  Second, the integral
(x0, y) live on an explicit affine lattice (coupling rows plus the sum of
all brick rows), and the concave transportation value function is maximized
over the lattice coordinates by an exact cutting-plane search: supergradient
cuts from transportation duals, blocking-set cuts from the max-flow min-cut
feasibility condition, and box splitting with floor pruning (every candidate
value is an integer).  Third, the winning aggregate is redistributed over
the bricks, and that redistribution is the search's own transport at the
winning aggregate.  Every transport of the search is solved by
flow.solve_transport, which fills each brick greedily and then moves units
between the t_A columns along shortest paths over those t_A nodes alone,
the bricks entering only through one heap per ordered column pair.  The
winning transport was solved once during the search and certified optimal
there by integral dual prices, again shortest distances over the t_A
columns, whose dual value equals its objective, so it is neither solved
nor checked a second time.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

from .errors import (
    InternalInconsistencyError,
    MalformedProblemError,
    NotAllOnesError,
)
from .flow import TransportProblem, TransportResult, solve_transport
from .intlin import smith_normal_form
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


def _y_box(inst: FourBlockInstance):
    """Componentwise sums of the brick boxes: the tightest box on y."""
    y_lo = [0] * inst.t_A
    y_hi = [0] * inst.t_A
    for i in range(inst.n):
        s = inst.brick_slice(i).start
        for h in range(inst.t_A):
            y_lo[h] += inst.l[s + h]
            y_hi[h] += inst.u[s + h]
    return y_lo, y_hi


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _round_half_even(num: int, den: int) -> int:
    """num / den rounded to the nearest integer, ties to even; den > 0.

    The rule of round() on a Fraction, in integers.
    """
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    return q


def _reduce_kernel(kernel):
    """Lenstra-Lenstra-Lovasz reduction of an integer lattice basis.

    The unimodular transform out of the normal form is typically extremely
    skewed: with 40-digit inputs its columns reach 80+ digits even though the
    lattice has generators near the input magnitude.  Everything downstream
    (coordinate boxes, branching geometry, nearest-point rounding) needs the
    basis near-orthogonal, and pairwise size reduction alone is not enough,
    so this is the classic exact-arithmetic LLL with delta = 3/4.

    It is the integral LLL of de Weger (1987) in the form of Cohen, A Course
    in Computational Algebraic Number Theory, Alg. 2.6.7: every quantity is
    an int.  With b*_j the Gram-Schmidt vectors and mu_kj the Gram-Schmidt
    coefficients, d[0] = 1 and d[i + 1] = |b*_0|^2 ... |b*_i|^2 is the Gram
    determinant of b_0 .. b_i, and lam[k][j] = d[j + 1] mu_kj; both are
    integers for an integer basis.  A size-reduction step changes only row k
    of lam; a swap updates d[k] and the lam of later rows by exact integer
    division.

    The decisions and their order are those of the textbook loop: b_k is
    size-reduced against b_{k-1}, ..., b_0 in turn, each multiplier
    rounded half to even (round(mu_kj) in exact rationals), and only then
    is the Lovasz condition |b*_k|^2 >= (3/4 - mu_k,k-1^2) |b*_{k-1}|^2
    tested, as 4 d[k+1] d[k-1] >= 3 d[k]^2 - 4 lam[k][k-1]^2.  (Cohen tests
    after reducing against b_{k-1} alone, which can end at another basis.)
    The input vectors must be linearly independent.
    """
    basis = [list(v) for v in kernel]
    m = len(basis)
    if m <= 1:
        return basis

    # integral Gram-Schmidt of the whole input
    d = [1] + [0] * m
    lam = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1):
            u = _dot(basis[i], basis[j])
            for t in range(j):
                u = (d[t + 1] * u - lam[i][t] * lam[j][t]) // d[t]
            if j < i:
                lam[i][j] = u
            else:
                d[i + 1] = u

    k = 1
    while k < m:
        row = lam[k]
        for j in range(k - 1, -1, -1):
            q = _round_half_even(row[j], d[j + 1])
            if q:
                basis[k] = [x - q * y for x, y in zip(basis[k], basis[j])]
                row[j] -= q * d[j + 1]
                for t in range(j):
                    row[t] -= q * lam[j][t]
        la = row[k - 1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] * d[k] - 4 * la * la:
            k += 1
            continue
        basis[k], basis[k - 1] = basis[k - 1], basis[k]
        for t in range(k - 1):
            lam[k][t], lam[k - 1][t] = lam[k - 1][t], lam[k][t]
        dk = (d[k + 1] * d[k - 1] + la * la) // d[k]
        for i in range(k + 1, m):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - la * t) // d[k]
            lam[i][k - 1] = (dk * t + la * lam[i][k]) // d[k + 1]
        d[k] = dk
        k = max(k - 1, 1)
    return basis


def _coordinate_box(basis, p, xy_lo, xy_hi):
    """Recentred offset and coordinate box of the lattice p + basis^T v.

    With W the f x taw matrix of the basis rows and G = W W^T its Gram
    matrix, v = G^-1 W (xy - p) recovers the coordinates of a lattice point
    xy.  The work is fraction-free: one Bareiss (1968) elimination of
    [G | W] (G is positive definite, so no pivot is zero and none is moved)
    and a back substitution by exact division give the integer matrix
    Y = det(G) G^-1 W.  The offset is moved by the nearest integer
    coordinates (ties to even) of the box midpoint, so the numbers of the
    search stay small, and each coordinate's
    range over the xy box, which is Y (xy - p) / det(G) summed end by end,
    is rounded inward.  Returns (offset, v_lo, v_hi), or None when some
    coordinate range holds no integer.
    """
    f, taw = len(basis), len(p)
    m = [
        [_dot(basis[a], basis[b]) for b in range(f)] + list(basis[a])
        for a in range(f)
    ]
    width = f + taw
    prev = 1
    for k in range(f - 1):
        piv, top = m[k][k], m[k]
        for r in range(k + 1, f):
            low, c = m[r], m[r][k]
            for j in range(k + 1, width):
                low[j] = (piv * low[j] - c * top[j]) // prev
            low[k] = 0
        prev = piv
    det = m[f - 1][f - 1]
    y = [None] * f
    for k in range(f - 1, -1, -1):
        y[k] = [
            (det * m[k][f + i] - sum(m[k][j] * y[j][i] for j in range(k + 1, f))) // m[k][k]
            for i in range(taw)
        ]
    mid2 = [xy_lo[i] + xy_hi[i] - 2 * p[i] for i in range(taw)]
    shift = [_round_half_even(_dot(y[k], mid2), 2 * det) for k in range(f)]
    if any(shift):
        p = [p[i] + sum(shift[k] * basis[k][i] for k in range(f)) for i in range(taw)]
    v_lo, v_hi = [], []
    for k in range(f):
        lo = hi = 0
        for i in range(taw):
            c = y[k][i]
            if c:
                ends = (c * (xy_lo[i] - p[i]), c * (xy_hi[i] - p[i]))
                lo += min(ends)
                hi += max(ends)
        v_lo.append(-(-lo // det))
        v_hi.append(hi // det)
        if v_lo[-1] > v_hi[-1]:
            return None
    return p, v_lo, v_hi


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

    All of it is integer arithmetic: the Smith form, the integral LLL of
    _reduce_kernel, and the fraction-free coordinate box of _coordinate_box,
    which scales every rational by the Gram determinant of the basis and
    rounds by integer division.
    """
    n, tA, tB, sC = inst.n, inst.t_A, inst.t_B, inst.s_C
    taw = tB + tA
    brow = inst.B.row(0) if inst.s_A else (0,) * tB
    rows = [list(inst.C.row(r)) + list(inst.D.row(r)) for r in range(sC)]
    rows.append([n * c for c in brow] + [1] * tA)
    rhs = list(inst.b0) + [sum(inst.b[i][0] for i in range(n))]
    dec = smith_normal_form(IntMatrix.from_rows(rows))
    r = dec.rank
    tt = dec.U.mul_vec(rhs)
    if any(tt[j] for j in range(r, len(tt))):
        return None
    base = [0] * taw
    for j in range(r):
        a = dec.S.at(j, j)
        if tt[j] % a:
            return None
        base[j] = tt[j] // a
    p = dec.V.mul_vec(base)
    basis = _reduce_kernel([[dec.V.at(i, k) for i in range(taw)] for k in range(r, taw)])

    y_lo, y_hi = _y_box(inst)
    xy_lo = list(inst.l[:tB]) + y_lo
    xy_hi = list(inst.u[:tB]) + y_hi
    v_lo = v_hi = ()
    if basis:
        box = _coordinate_box(basis, p, xy_lo, xy_hi)
        if box is None:
            return None
        p, v_lo, v_hi = box
    return _LatticeForm(
        tuple(p),
        tuple(tuple(v) for v in basis),
        tuple(v_lo),
        tuple(v_hi),
        tuple(xy_lo),
        tuple(xy_hi),
    )


def _brick_slices(inst: FourBlockInstance):
    """(lower, upper, profit): per brick, its slices of l, u and w."""
    tA, tB = inst.t_A, inst.t_B
    lower, upper, profit = [], [], []
    for i in range(inst.n):
        s = tB + i * tA
        lower.append(inst.l[s:s + tA])
        upper.append(inst.u[s:s + tA])
        profit.append(inst.w[s:s + tA])
    return lower, upper, profit


def _transport_problem(inst: FourBlockInstance, ctx: OnesContext) -> TransportProblem:
    bx0 = inst.B.mul_vec(ctx.x0)[0] if inst.s_A else 0
    row_totals = [inst.b[i][0] - bx0 for i in range(inst.n)]
    return TransportProblem.make(row_totals, ctx.y, *_brick_slices(inst))


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
    bound).  The certificate is then
    checked from scratch: the cells meet every box and total, their profit is
    res.objective, and for the integral prices a, c the dual value
    a . r + c . y + sum over cells of max(gap * lower, gap * upper), with
    gap = profit - a_i - c_h, equals res.objective.  That dual value bounds
    every feasible transport from above, so equality proves res optimal
    without trusting the flow code.  Anything else raises
    InternalInconsistencyError.

    The returned prices also satisfy complementarity, so for any totals
    (r', y') the optimum is at most the certified value plus
    a . (r' - r) + c . (y' - y): the value function is concave and (a, c)
    is a supergradient at the current totals.
    """
    n, t = len(p.row_totals), len(p.col_totals)
    cells = res.cells
    if (
        len(cells) != n
        or any(len(cells[i]) != t for i in range(n))
        or any(not p.cell_lower[i][h] <= cells[i][h] <= p.cell_upper[i][h]
               for i in range(n) for h in range(t))
        or any(sum(cells[i]) != p.row_totals[i] for i in range(n))
        or any(sum(cells[i][h] for i in range(n)) != p.col_totals[h] for h in range(t))
    ):
        raise InternalInconsistencyError("transport cells miss their boxes or totals")
    primal = sum(p.cell_profit[i][h] * cells[i][h] for i in range(n) for h in range(t))
    if primal != res.objective:
        raise InternalInconsistencyError(
            f"transport cells are worth {primal}, not the reported {res.objective}"
        )
    d = [0] * t  # column distances
    pair = {}  # (h, g) -> cheapest p_ih - p_ig over rows i that can exchange
    above = []
    for i in range(n):
        z, lo, up, pr = cells[i], p.cell_lower[i], p.cell_upper[i], p.cell_profit[i]
        room = [g for g in range(t) if z[g] < up[g]]
        above.append([h for h in range(t) if z[h] > lo[h]])
        for g in room:
            if -pr[g] < d[g]:
                d[g] = -pr[g]
        for h in above[i]:
            for g in room:
                cost = pr[h] - pr[g]
                if g != h and ((h, g) not in pair or cost < pair[h, g]):
                    pair[h, g] = cost
    for _ in range(t):
        changed = False
        for (h, g), cost in pair.items():
            if d[h] + cost < d[g]:
                d[g] = d[h] + cost
                changed = True
        if not changed:
            break
    else:
        raise InternalInconsistencyError("negative cycle in optimal transport residual")
    a = [min([0] + [d[h] + p.cell_profit[i][h] for h in above[i]]) for i in range(n)]
    c = [-dh for dh in d]
    dual = sum(a[i] * p.row_totals[i] for i in range(n))
    dual += sum(c[h] * p.col_totals[h] for h in range(t))
    for i in range(n):
        for h in range(t):
            gap = p.cell_profit[i][h] - a[i] - c[h]
            dual += gap * (p.cell_upper[i][h] if gap > 0 else p.cell_lower[i][h])
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
    n, t = len(p.row_totals), len(p.col_totals)
    rho = [p.row_totals[i] - sum(p.cell_lower[i]) for i in range(n)]
    delta = [p.col_totals[h] - sum(p.cell_lower[i][h] for i in range(n)) for h in range(t)]
    for hmask in range(1 << t):
        cols = [h for h in range(t) if hmask >> h & 1]
        out = [h for h in range(t) if not hmask >> h & 1]
        rows, lhs = [], 0
        for i in range(n):
            m = rho[i] - sum(p.cell_upper[i][h] - p.cell_lower[i][h] for h in out)
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
    finite.

    The bound LP is one warm tableau carried from box to box.  Only the root
    box is solved cold, from the slack start.  Every heap entry holds the
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

    lower, upper, profit = _brick_slices(inst)
    bvals = [inst.b[i][0] for i in range(n)]

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
    cache = {}
    transports = {}  # (q, y) -> (result, duals or blocking pair)
    best = None  # (value, x0, y, cells of the certified transport)

    def root_min(coeffs):
        return sum(min(c * form.v_lo[k], c * form.v_hi[k]) for k, c in enumerate(coeffs))

    def root_max(coeffs):
        return sum(max(c * form.v_lo[k], c * form.v_hi[k]) for k, c in enumerate(coeffs))

    def evaluate_at(v):
        nonlocal best
        if v in cache:
            return
        cache[v] = None
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
            tp = TransportProblem.make([b - q for b in bvals], y, lower, upper, profit)
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
            cache[v] = value
            if best is None or value > best[0]:
                best = (value, x0, y, tr.cells)
            return
        rows, cols = cert
        # surplus of R that cannot leave H must fit under H's demand; linear in v
        coeffs = [
            -len(rows) * beta[k] - sum(basis[k][tB + h] for h in cols)
            for k in range(f)
        ]
        rhs = (
            sum(p0[tB + h] - sum(lower[i][h] for i in range(n)) for h in cols)
            + sum(upper[i][h] - lower[i][h] for i in rows for h in range(tA) if h not in cols)
            - sum(bvals[i] - q0 - sum(lower[i]) for i in rows)
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
        vhat = res.point[:f]
        ceiling = math.floor(res.value)
        if best is not None and ceiling <= best[0]:
            continue
        cand_axes = []
        for k in range(f):
            lo = max(box_lo[k], min(math.floor(vhat[k]), box_hi[k]))
            hi = max(box_lo[k], min(math.ceil(vhat[k]), box_hi[k]))
            cand_axes.append((lo, hi) if hi != lo else (lo,))
        fresh = [v for v in itertools.product(*cand_axes) if v not in cache]
        seq += 1
        if fresh:
            for v in fresh:
                evaluate_at(v)
            heapq.heappush(heap, (-ceiling, -seq, box_lo, box_hi, state, seen))
            continue
        split = next((k for k in range(f) if vhat[k].denominator != 1), None)
        if split is None:
            split = max(range(f), key=lambda k: box_hi[k] - box_lo[k])
            if box_hi[split] == box_lo[split]:
                continue
            at = (box_lo[split] + box_hi[split]) // 2
        else:
            at = math.floor(vhat[split])
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
