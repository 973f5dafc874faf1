"""4-block solver for bricks with one more column than rows.

The brick systems differ only in their right-hand sides, so one Smith form
of A pins every brick to brick 1 up to one free integer:
x^i = x^1 + offset_i + theta t_i (intlin.particular_solutions).  Splitting
each anchor coordinate with theta_h != 0 into remainder and quotient,
x^1_h = xi_h + theta_h z_h, turns each brick's box into bounds d_ih <= z_h +
t_i <= dbar_ih that stay constant while xi_h stays in one sub-interval of
the residue grid (build_grid).  One sub-interval per grid axis, the paper's
n^{O(t_A)} guess, leaves a master over (x0, xi_h, z_h, the zero-step anchor
values, P = sum t_i): the anchor's rows A x^1 + B x0 = b_1, the top rows
C x0 + n D x^1 + (D theta) P = b0 - D . offset_totals, and z_a - z_c <=
min_i(dbar_ia - d_ic), which keep each L_i(z) = max_h(d_ih - z_h) ..
U_i(z) = min_h(dbar_ih - z_h) nonempty.  At integer (z, P) the bricks are
worth G(z, P), the greedy fill of P - sum L_i units, best rates first
(nfold_snf.greedy_ip8), the value of a box and one sum row: concave.

A master maximizes its linear part plus a continuous eta <= G by
smallip.best_of with a separator, as the all-ones route does with its
transports, in the lattice coordinates v of its equality rows, x = p + Q^T
v (Aardal, Hurkens & Lenstra, Math. Oper. Res. 25(3), 2000), Q reduced in
the metric of its box.  The separator cuts at the LP point's lattice
corners, nearest first, or at the point itself: the greedy's supergradient
cut, or the P-range row where P leaves sum L_i .. sum U_i (Padberg &
Rinaldi, SIAM Rev. 33, 1991).  Each holds at every integer point by LP
duality and as a max is at least, and a min at most, any of its terms; each
supergradient cut is certified in O(n) integers by its dual (_greedy_dual).
The masters are searched in ceiling order, and the winner is lifted and
re-checked against the original rows; any disagreement raises.  With no
bricks, solve_mip branches the shared columns in lattice coordinates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from itertools import compress
from operator import add, eq, gt, le, lt, mul, sub

from .errors import InternalInconsistencyError, MalformedProblemError, NotEligibleError
from .intlin import (box_reduced, brick_form, coordinate_box, kernel_basis, particular_solutions,
                     quotient_range, reduce_basis, smith_normal_form)
from .model import (FourBlockInstance, Infeasible, IntMatrix, Solution, checked_solution, evaluate,
                    validate)
from .nfold_snf import greedy_ip8
from .ratlp import INFEASIBLE, OPTIMAL, LpProblem, LpResult
from .smallip import MipProblem, _nearest_first, best_of, solve_mip

from .intlin import integer_rank  # noqa: F401  (perfbench/tracer.py wraps it here)


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
    solution of A x = b_i - b_1 that intlin.particular_solutions gives, and
    theta is the one vector of intlin.kernel_basis.  Returns
    EliminationData, or Infeasible("DivisibilityFail") at the first brick
    whose difference system has no integer solution.
    """
    snf = brick_form(inst.A)
    if snf is None:
        raise NotEligibleError("needs one more brick column than rows and full row rank")
    deltas = ([v - v1 for v, v1 in zip(bi, inst.b[0])] for bi in inst.b)
    offsets = []
    totals = [0] * inst.t_A
    c0 = 0
    for off, wi in zip(particular_solutions(snf, deltas), inst.bricks(inst.w)):
        if off is None:
            return Infeasible("DivisibilityFail")
        totals = [t + o for t, o in zip(totals, off)]
        c0 += sum(map(mul, wi, off))
        offsets.append(off)
    (theta,) = kernel_basis(snf)
    return EliminationData(theta, tuple(offsets), tuple(totals), c0)


# the old name of the 1x2 gcd route, which perfbench wraps and calls
elimination_from_bezout = elimination_from_snf


@dataclass(frozen=True)
class SubInterval:
    tau: int
    tau_bar: int
    d: tuple  # per brick, the lower quotient bound on this sub-interval
    d_bar: tuple  # per brick, the upper quotient bound


def build_grid(elim: EliminationData, lower, upper) -> tuple:
    """Per coordinate h: the SubIntervals of its remainder range where the
    floor/ceil bounds of every brick's box (lower/upper, per brick) are
    constant, or None when theta_h = 0.  A bound changes only where its
    shifted endpoint crosses a multiple of |theta_h|: the lower endpoint at
    its remainder, the upper one just past it.
    """
    per_h = []
    for h, th in enumerate(elim.theta):
        if th == 0:
            per_h.append(None)
            continue
        m = abs(th)
        # each brick's box on coordinate h, less its offset
        los = [lo[h] - off[h] for lo, off in zip(lower, elim.offsets)]
        his = [up[h] - off[h] for up, off in zip(upper, elim.offsets)]
        starts = sorted({0, *(a % m for a in los), *(b % m + 1 for b in his)} - {m})
        cells = []
        for tau, end in zip(starts, starts[1:] + [m]):
            d, dbar = zip(*(quotient_range(th, a - tau, b - tau) for a, b in zip(los, his)))
            cells.append(SubInterval(tau, end - 1, d, dbar))
        per_h.append(tuple(cells))
    return tuple(per_h)


@dataclass(frozen=True)
class Master:
    """One combination of sub-intervals, one per grid axis, for solve_cell.

    Its columns x0 | xi_h, then z_h, per grid axis | the zero-step anchor
    values | P are boxed by lower..upper, where each integer point of the
    equality rows is offset + Q^T v, v_lo <= v <= v_hi, Q the basis.
    static holds the rows z_a - z_c <= k as (a, c, k)."""

    # the instance's _MasterBuilder and the basis Q, out of == and repr
    builder: object = field(compare=False, repr=False)
    basis: tuple = field(compare=False, repr=False)
    sub_choice: tuple  # per grid axis, the chosen SubInterval
    lower: tuple
    upper: tuple
    offset: tuple
    v_lo: tuple
    v_hi: tuple
    static: tuple
    eta_lo: int  # eta_lo..eta_hi bounds G over the box
    eta_hi: int
    ceiling: int  # no integer point's total exceeds it


class _MasterBuilder:
    """Per-instance data of the masters: layout, linear objective, rates of
    bricks i >= 1, the equality rows (the same in every combination)."""

    def __init__(self, inst: FourBlockInstance, elim: EliminationData):
        n, tA, tB = inst.n, inst.t_A, inst.t_B
        theta = elim.theta
        gh = self.grid_hs = [h for h in range(tA) if theta[h]]
        zh = [h for h in range(tA) if not theta[h]]
        # a zero-step anchor value is every brick's up to its offset
        lower, upper = (inst.bricks(inst.l), inst.bricks(inst.u)) if zh else ((), ())
        self.zero_lo = [max(lo[h] - off[h] for lo, off in zip(lower, elim.offsets)) for h in zh]
        self.zero_hi = [min(up[h] - off[h] for up, off in zip(upper, elim.offsets)) for h in zh]
        rates = [0] * n  # w_i . theta per brick, one coordinate at a time
        for h in gh:
            rates = [r + theta[h] * v for r, v in zip(rates, inst.w[tB + h::tA])]
        self.anchor_rate, self.rates = rates[0], rates[1:]
        g = len(gh)
        self.z_cols = range(tB + g, tB + 2 * g)
        self.p_col = tB + 2 * g + len(zh)

        def spread(coef):
            # coef . x^1 as a row over the anchor's columns xi | z | direct
            return [coef[h] for h in gh] + [coef[h] * theta[h] for h in gh] + [coef[h] for h in zh]

        self.objective = list(inst.w[:tB]) + spread(inst.brick_sums(inst.w)) + [0]
        self.c0 = elim.c0
        rows = [list(inst.B.row(r)) + spread(inst.A.row(r)) + [0] for r in range(inst.s_A)]
        rhs = list(inst.b[0])
        for r in range(inst.s_C):
            drow = inst.D.row(r)
            rows.append(list(inst.C.row(r)) + spread([n * v for v in drow]) + [sum(map(mul, drow, theta))])
            rhs.append(inst.b0[r] - sum(map(mul, drow, elim.offset_totals)))
        self.eq_rows, self.eq_rhs = rows, rhs
        self.forms = {}  # fixed columns -> their _LatticeForm
        self.shifts = not any(row[-1] for row in rows[inst.s_A:])  # no top row reads P

    def boxes(self, lo, hi):
        """The boxes to search for one combination's box lo..hi.  When no top
        row reads P, the move z_h - 1 on every grid axis with P + n - 1 keeps
        every row and brick i >= 1 (t_i + 1) and moves only the anchor brick,
        by -theta, changing the total by -r_0.  So the box is searched once
        per grid axis with that anchor quotient at the end the move does not
        make worse: a flat direction, where the search would creep, is gone."""
        if not self.shifts:
            return [(lo, hi)]
        out = []
        for j in self.z_cols:
            end = hi[j] if self.anchor_rate >= 0 else lo[j]
            box = (lo[:j] + [end] + lo[j + 1:], hi[:j] + [end] + hi[j + 1:])
            if box not in out:  # an axis fixed already gives the box itself
                out.append(box)
        return out

    def lattice(self, lo, hi):
        """(basis, recentred point, v_lo, v_hi) of the equality rows' integer
        points in the box lo..hi, or None when it holds none.  Its fixed
        columns (lo = hi) are substituted; each set of them gets one
        _LatticeForm per instance.  A box with more coordinate points than
        2^f corners, which solve_cell searches, reduces that basis again in
        its own metric (intlin.box_reduced), as its widths differ widely."""
        fixed = tuple(j for j, (a, b) in enumerate(zip(lo, hi)) if a == b)
        form = self.forms.get(fixed)
        if form is None:
            form = self.forms[fixed] = _LatticeForm(self, fixed)
        rhs = [r - sum(row[j] * lo[j] for j in fixed) for row, r in zip(self.eq_rows, self.eq_rhs)]
        q = next(particular_solutions(form.snf, [rhs])) if form.snf else [0] * len(form.free)
        if q is None or not form.snf and any(rhs):
            return None
        values = iter(q)
        p = [a if j in fixed else next(values) for j, a in enumerate(lo)]
        if any(not lo[j] <= p[j] <= hi[j] for j in form.pinned):
            return None
        basis = form.basis
        if not basis:
            return basis, p, (), ()
        box = coordinate_box(basis, p, lo, hi)
        if box is not None and math.prod(b - a + 1 for a, b in zip(*box[1:])) > 2 ** len(basis):
            basis = box_reduced(basis, lo, hi)
            box = coordinate_box(basis, p, lo, hi)
        return None if box is None else (basis, *box)

    def master(self, combo, lo, hi, basis, offset, v_lo, v_hi):
        """combo's Master over lo..hi, or None when its static rows or some
        brick's range of t_i over the z box prove it empty; O(n)."""
        g = len(combo)
        z_lo, z_hi = lo[self.z_cols.start:self.z_cols.stop], hi[self.z_cols.start:self.z_cols.stop]
        static = []
        if self.rates:
            for a, c in itertools.permutations(range(g), 2):
                k = min(map(sub, combo[a].d_bar[1:], combo[c].d[1:]))
                if z_lo[a] - z_hi[c] > k:
                    return None
                static.append((a, c, k))
        t_lo = _ends([[v - z for v in sub_.d[1:]] for sub_, z in zip(combo, z_hi)], max)
        t_hi = _ends([[v - z for v in sub_.d_bar[1:]] for sub_, z in zip(combo, z_lo)], min)
        if any(map(gt, t_lo, t_hi)):
            return None
        lo[-1], hi[-1] = max(lo[-1], sum(t_lo)), min(hi[-1], sum(t_hi))
        if lo[-1] > hi[-1]:
            return None
        ends = [(r * a, r * b) for r, a, b in zip(self.rates, t_lo, t_hi)]
        eta_lo, eta_hi = sum(map(min, ends)), sum(map(max, ends))
        ceiling = self.c0 + eta_hi + sum(max(c * a, c * b) for c, a, b in zip(self.objective, lo, hi))
        return Master(self, tuple(basis), combo, tuple(lo), tuple(hi), tuple(offset), tuple(v_lo),
                      tuple(v_hi), tuple(static), eta_lo, eta_hi, ceiling)


class _LatticeForm:
    """The Smith form of the equality rows over the free columns, None when
    they read none, the LLL-reduced basis of its integer kernel, 0 in the
    fixed columns, and pinned, the free columns no basis vector moves."""

    def __init__(self, builder: _MasterBuilder, fixed):
        width = builder.p_col + 1
        self.free = [j for j in range(width) if j not in fixed]
        rows = [[row[j] for j in self.free] for row in builder.eq_rows]
        self.snf = smith_normal_form(IntMatrix.from_rows(rows)) if any(map(any, rows)) else None
        kernel = reduce_basis(kernel_basis(self.snf)) if self.snf else [
            [int(k == j) for k in self.free] for j in self.free]
        self.basis = [[0 if j in fixed else next(q) for j in range(width)] for q in map(iter, kernel)]
        self.pinned = [j for j in self.free if not any(q[j] for q in self.basis)]


def enumerate_cells(inst: FourBlockInstance, elim: EliminationData, grid: tuple):
    """Yield the Masters of every combination of sub-intervals that may hold
    a point; the best total over them is the optimum.  Three screens run
    before any O(n) work on a combination, in order: the constant checks (a
    sub-interval whose anchor range or own range of some brick is empty is
    in no combination), the P-range test (z_h <= dbar_0h puts P >= sum_i d_ih
    - (n - 1) dbar_0h, and z_h >= d_0h bounds P above alike) and the lattice
    test (_MasterBuilder.lattice)."""
    builder = _MasterBuilder(inst, elim)
    if any(map(gt, builder.zero_lo, builder.zero_hi)):
        return
    m, tB = inst.n - 1, inst.t_B
    axes = [[(c, sum(c.d[1:]), sum(c.d_bar[1:])) for c in grid[h]
             if c.d[0] <= c.d_bar[0] and all(map(le, c.d[1:], c.d_bar[1:]))]
            for h in builder.grid_hs]
    for combo in itertools.product(*axes):
        p_lo = max(s - m * c.d_bar[0] for c, s, _ in combo)
        p_hi = min(s - m * c.d[0] for c, _, s in combo)
        if p_lo > p_hi:
            continue
        subs = tuple(c for c, _, _ in combo)
        lo = [*inst.l[:tB], *(c.tau for c in subs), *(c.d[0] for c in subs), *builder.zero_lo, p_lo]
        hi = [*inst.u[:tB], *(c.tau_bar for c in subs), *(c.d_bar[0] for c in subs), *builder.zero_hi, p_hi]
        for lo, hi in builder.boxes(lo, hi):
            lattice = builder.lattice(lo, hi)
            if lattice is not None:
                master = builder.master(subs, lo, hi, *lattice)
                if master is not None:
                    yield master


def _ends(cols, pick):
    """Per brick, pick (max or min) over the axes' columns of values."""
    return cols[0] if len(cols) == 1 else list(map(pick, *cols))


def _brick_bounds(combo, z, den):
    """(L, U, L's columns, U's columns) times den over the bricks i >= 1 at
    quotients z / den: the columns hold d_ih den - z_h and dbar_ih den - z_h."""
    lo_cols = [[v * den - zh for v in c.d[1:]] for c, zh in zip(combo, z)]
    hi_cols = [[v * den - zh for v in c.d_bar[1:]] for c, zh in zip(combo, z)]
    return _ends(lo_cols, max), _ends(hi_cols, min), lo_cols, hi_cols


def _per_axis(weights, ends, cols):
    """Per axis, the sum of weights[i] over the bricks i whose ends[i] it is first to attain."""
    sums = []
    for col in cols[:-1]:
        hit = list(map(eq, col, ends))
        sums.append(sum(compress(weights, hit)))
        weights = [0 if h else wt for wt, h in zip(weights, hit)]
    sums.append(sum(weights))
    return sums


def _greedy_dual(rates, lows, highs, fill, total, lam, alpha, beta):
    """The value of fill, certified optimal by the dual (lam, alpha, beta):
    fill must lie in lows..highs and sum to total, and alpha, beta >= 0
    with lam + beta_i - alpha_i = rate_i, so that by weak duality lam P +
    sum_i (beta_i highs_i - alpha_i lows_i) bounds any fill of any total P;
    at P = total it must equal fill's value.  O(n) in integers, each check
    an explicit raise of InternalInconsistencyError, so also under -O."""
    if len({len(rates), len(lows), len(highs), len(fill), len(alpha), len(beta)}) != 1:
        raise InternalInconsistencyError("greedy fill and dual miss a brick")
    if not (all(map(le, lows, fill)) and all(map(le, fill, highs))) or sum(fill) != total:
        raise InternalInconsistencyError(f"greedy fill {fill} is no fill of {total} in its box")
    if min(alpha + beta, default=0) < 0 or list(map(sub, beta, alpha)) != [r - lam for r in rates]:
        raise InternalInconsistencyError(f"greedy dual ({lam}, {alpha}, {beta}) is infeasible")
    value = sum(map(mul, rates, fill))
    dual = lam * total + sum(map(mul, beta, highs)) - sum(map(mul, alpha, lows))
    if dual != value:
        raise InternalInconsistencyError(f"greedy dual value {dual} != fill value {value}")
    return value


def _greedy_cut(rates, lows, highs, total):
    """(fill, value, lam, alpha, beta): greedy_ip8's fill of total over
    lows..highs and its dual, certified by _greedy_dual.  lam is the greatest
    rate of a brick with room left (or the least rate when all are full)."""
    extra = greedy_ip8(list(zip(lows, highs)), rates, total - sum(lows))
    room = list(compress(rates, map(lt, extra, map(sub, highs, lows))))
    lam = max(room) if room else min(rates, default=0)
    alpha = [lam - r if r < lam else 0 for r in rates]
    beta = [r - lam if r > lam else 0 for r in rates]
    fill = list(map(add, lows, extra))
    return fill, _greedy_dual(rates, lows, highs, fill, total, lam, alpha, beta), lam, alpha, beta


class _MasterSearch:
    """One master's program over (v, eta), and the separator that cuts it.
    The program maximizes the linear objective at x = offset + Q^T v plus
    eta over the v box and eta_lo..eta_hi.  Its held rows hold at every
    integer point of the master with eta = G, an integer, as best_of asks:
    the box rows the v box does not imply, the static rows, and the cuts."""

    def __init__(self, master: Master):
        self.master, self.builder, self.f = master, master.builder, len(master.basis)
        self.cols = list(zip(*master.basis)) or [()] * len(master.lower)  # zip(*()) yields nothing
        self.rows = []  # held at the separator's first call
        self.evaluated = set()  # every lattice point passed to cut_at
        self.best = None  # (total, point over the master's columns)

    def root(self):
        """best_of's root (MipProblem, constant, ceiling); gathers self.rows."""
        m, b = self.master, self.builder
        p = m.offset
        for col, a, c, pj in zip(self.cols, m.lower, m.upper, p):
            least = sum(q * (vl if q > 0 else vh) for q, vl, vh in zip(col, m.v_lo, m.v_hi))
            most = sum(q * (vh if q > 0 else vl) for q, vl, vh in zip(col, m.v_lo, m.v_hi))
            if least < a - pj or most > c - pj:
                self.rows.append((list(col) + [0], a - pj, c - pj))
        zc = b.z_cols
        for a, c, k in m.static:
            coeffs = list(map(sub, self.cols[zc[a]], self.cols[zc[c]]))
            self.rows.append((coeffs + [0], None, k - p[zc[a]] + p[zc[c]]))
        objective_v = [sum(map(mul, b.objective, q)) for q in m.basis]
        lp = LpProblem.make(objective_v + [1], [], [*m.v_lo, m.eta_lo], [*m.v_hi, m.eta_hi])
        constant = b.c0 + sum(map(mul, b.objective, p))
        return MipProblem.make(lp, (True,) * self.f + (False,)), constant, m.ceiling

    def cut_at(self, v):
        """The cut at lattice point v (_cut), or None outside the box; the
        total at v may become the best one."""
        self.evaluated.add(v)
        m, b = self.master, self.builder
        x = [pj + sum(map(mul, col, v)) for pj, col in zip(m.offset, self.cols)]
        if not (all(map(le, m.lower, x)) and all(map(le, x, m.upper))):
            return None
        cut, value = self._cut(x, 1)
        if value is not None:
            total = b.c0 + sum(map(mul, b.objective, x)) + value
            if self.best is None or total > self.best[0]:
                self.best = (total, x)
        return cut

    def _cut(self, x, den):
        """(cut, G) at the point x / den of the master's columns, or (None,
        None) where some brick's interval is empty (held rows cut it off).
        Where P < sum L_i the cut is P >= sum_i (d_ih - z_h), where P > sum
        U_i it is P <= sum_i (dbar_ig - z_g), h and g the axes attaining L_i
        and U_i here, with G None; otherwise the greedy's supergradient cut.
        Each is an integer row, exact at a fractional point too."""
        m, b = self.master, self.builder
        z, big_p = [x[j] for j in b.z_cols], x[b.p_col]
        lows, highs, lo_cols, hi_cols = _brick_bounds(m.sub_choice, z, den)
        if any(map(gt, lows, highs)):
            return None, None
        if big_p < sum(lows):
            e = [-c for c in _per_axis([1] * len(lows), lows, lo_cols)]
            e_p, e_eta, rhs, value = -1, 0, -sum(lows), None
        elif big_p > sum(highs):
            e = _per_axis([1] * len(highs), highs, hi_cols)
            e_p, e_eta, rhs, value = 1, 0, sum(highs), None
        else:
            _, value, lam, alpha, beta = _greedy_cut(b.rates, lows, highs, big_p)
            e = list(map(sub, _per_axis(beta, highs, hi_cols), _per_axis(alpha, lows, lo_cols)))
            e_p, e_eta, rhs = -lam, 1, value - lam * big_p
        row = [0] * len(x)
        for j, eh in zip(b.z_cols, e):
            row[j] = eh
        row[b.p_col] = e_p
        rhs, rest = divmod(rhs + sum(map(mul, e, z)), den)
        if rest:
            raise InternalInconsistencyError(f"cut at {x} / {den} has no integer right-hand side")
        rhs -= sum(map(mul, row, m.offset))
        return ([sum(map(mul, row, q)) for q in m.basis] + [e_eta], None, rhs), value

    def separate(self, num, den, add):
        """best_of's separator: the fresh lattice corners of the LP point num
        / den nearest first, up to the first new cut that separates it (the
        first call holds self.rows and starts at the box point nearest the
        offset), else the cut at the point itself.  Returns the best total."""
        corners = _nearest_first(num, den, self.f)
        if not self.evaluated:
            for row in self.rows:
                add(*row)
            start = tuple(min(max(0, lo), hi) for lo, hi in zip(self.master.v_lo, self.master.v_hi))
            corners = itertools.chain([start], corners)
        for v in corners:
            cut = None if v in self.evaluated else self.cut_at(v)
            if cut and add(*cut) and sum(map(mul, cut[0], num)) > cut[2] * den:
                break
        else:
            # no corner's cut separates the point: the cut at the point itself
            x = [pj * den + sum(map(mul, col, num)) for pj, col in zip(self.master.offset, self.cols)]
            cut = self._cut(x, den)[0]
            if cut and sum(map(mul, cut[0], num)) > cut[2] * den:
                add(*cut)
        return None if self.best is None else self.best[0]


def solve_cell(master: Master, cutoff=None) -> LpResult:
    """The best total of one master above cutoff (None or an int): Optimal
    with the best point over its columns, den 1 and the total, or Infeasible,
    with the search's nodes.  best_of accepts no node: at an LP point integral
    in v the cut at v holds eta to G.  A box of at most 2^f points has no LP."""
    search = _MasterSearch(master)
    if math.prod(b - a + 1 for a, b in zip(master.v_lo, master.v_hi)) <= 2 ** search.f:
        for v in itertools.product(*map(range, master.v_lo, [b + 1 for b in master.v_hi])):
            search.cut_at(v)
        nodes = 0
    else:
        k, res = best_of([search.root()], cutoff, search.separate)
        if k is not None:
            raise InternalInconsistencyError("a master's bound LP returned an evaluated lattice point")
        nodes = res.nodes
    best = search.best
    if best is None or cutoff is not None and best[0] <= cutoff:
        return LpResult(INFEASIBLE, nodes=nodes)
    return LpResult(OPTIMAL, tuple(best[1]), 1, best[0], nodes)


def lift_solution(inst: FourBlockInstance, elim: EliminationData,
                  master: Master, point, value) -> Solution:
    """Expand a master's point to a full point and re-verify it: brick i >= 1
    takes t_i = L_i(z) plus its share of P - sum L_i from greedy_ip8, and a
    point that leaves a brick no room or P outside sum L_i .. sum U_i raises
    InternalInconsistencyError."""
    b = master.builder
    tB, g = inst.t_B, len(master.sub_choice)
    point = [int(v) for v in point]
    z = [point[j] for j in b.z_cols]
    xi, zs, direct = iter(point[tB:tB + g]), iter(z), iter(point[tB + 2 * g:b.p_col])
    anchor = [next(xi) + th * next(zs) if th else next(direct) for th in elim.theta]
    lows, highs, _, _ = _brick_bounds(master.sub_choice, z, 1)
    gaps = list(map(gt, lows, highs))
    if any(gaps):
        raise InternalInconsistencyError(f"negative bound gap at brick {1 + gaps.index(True)}")
    target = point[b.p_col] - sum(lows)
    if not 0 <= target <= sum(highs) - sum(lows):
        raise InternalInconsistencyError("merged total exceeds the bound gaps")
    free = [0] + list(map(add, lows, greedy_ip8(list(zip(lows, highs)), b.rates, target)))
    x = point[:tB] + [a + o + th * t for off, t in zip(elim.offsets, free)
                      for a, o, th in zip(anchor, off, elim.theta)]
    return checked_solution(evaluate(inst, x), x, value, "fourblock_snf")


def _solve_trivial(inst: FourBlockInstance):
    """No bricks: only the shared variables and the top block remain."""
    rows = [(inst.C.row(r), inst.b0[r], inst.b0[r]) for r in range(inst.s_C)]
    lp = LpProblem.make(inst.w, rows, inst.l, inst.u)
    res = solve_mip(MipProblem.make(lp, [True] * inst.t_B))
    if res.status != OPTIMAL:
        return Infeasible("NoLatticePoint")
    x = [int(v) for v in res.point]
    return checked_solution(evaluate(inst, x), x, res.value, "fourblock_snf")


def _prepare(inst: FourBlockInstance):
    """The input checks (MalformedProblemError, NotEligibleError), then
    None with no bricks, the elimination's Infeasible, or (elimination, grid)."""
    issues = validate(inst)
    if issues:
        raise MalformedProblemError(issues[0].message)
    if not isinstance(inst, FourBlockInstance):
        raise NotEligibleError("needs one brick matrix A and one top block D")
    elim = elimination_from_snf(inst)
    if inst.n == 0:
        return None
    if isinstance(elim, Infeasible):
        return elim
    return elim, build_grid(elim, inst.bricks(inst.l), inst.bricks(inst.u))


def solve_4block_snf(inst: FourBlockInstance):
    """Exact optimum for eligible 4-block instances; Solution or Infeasible.

    The masters are searched in ceiling order (ties in enumeration order),
    each with the best total so far as its cutoff, up to the first ceiling
    not above it; the winner's total is checked against its ceiling."""
    prepared = _prepare(inst)
    if prepared is None:
        return _solve_trivial(inst)
    if isinstance(prepared, Infeasible):
        return prepared
    elim, grid = prepared

    best = None  # (total, master, point)
    for master in sorted(enumerate_cells(inst, elim, grid), key=lambda m: -m.ceiling):
        if best is not None and master.ceiling <= best[0]:
            break
        res = solve_cell(master, None if best is None else best[0])
        if res.status == OPTIMAL:
            if res.value_num > master.ceiling:
                raise InternalInconsistencyError(
                    f"master optimum {res.value_num} exceeds the master's ceiling {master.ceiling}")
            best = (res.value_num, master, res.num)
    if best is None:
        return Infeasible("NoLatticePoint")
    total, master, point = best
    return lift_solution(inst, elim, master, point, total)
