"""4-block solver for bricks with one more column than rows.

The brick systems differ only in their right-hand sides, so once brick 1 is
chosen every other brick is pinned up to one free integer: one Smith form of
A solves each difference system A x = b_i - b_1 (intlin.particular_solutions),
for a 1x2 brick matrix as for any other.  Splitting the
anchor brick into remainder and quotient per coordinate turns all box
constraints into floor/ceil bounds that are piecewise constant in the
remainders; enumerating the constancy cells, the orderings of the per-brick
bounds (via pairwise quotient differences), and the greedy-merge windows
leaves a family of constant-size integer programs.  Their best value is the
optimum.

Almost all of these cells have no integer point.  While a cell's rows are
still sparse int maps, integer bound propagation over them
(smallip._propagate, at its default cap of 30 rounds) proves most empty
cells empty, and only the survivors become exact LPs and MIPs.  Each
survivor's LP is taken over the box that propagation tightened, less the
rows that box implies.  Propagation removes no integer point that meets
the cell's rows, so each cell keeps its integer points and its optimum,
and the screen removes only cells with none.

The merge windows j = 1..n of one choice of sub-intervals, difference
windows and arguments share all rows but two, the p rows Lambda(j-1) + 1
<= p <= Lambda(j).  They are swept in one pass along the rate order, with
Lambda(j-1) and the running objective carried as integer coefficients per
grid coordinate plus a constant, each window adding one brick.  The shared
rows are propagated once.  A window's two p rows are then first tested at
that shared box in O(#grid coordinates) (_p_rows_have_slack): a row with
negative slack there has negative slack in every sub-box, so _propagate,
whose first pass meets the row in a sub-box, would return False.  The same
test drops a window whose brick has no room (Lambda(j) = Lambda(j-1)), the
constant case of the p rows' sum.  Only the windows that pass get dict
rows, the propagation, an objective and an LP.

Bound propagation reads one row at a time, but a window's empty set mostly
needs two at once: a p row together with a top equality row, whose p
coefficient is k_r = sum_h D_rh theta_h.  So each window's screen also gets,
for each top row with k_r != 0 and each p row with p coefficient c_p, the
row |k_r| (p row) - sign(k_r) c_p (top row), in which p cancels.  It is a
nonnegative multiple of an inequality plus a multiple of an equality, so
every point of the window meets it, and its coefficients are integers like
those of any other row, so a window that _propagate proves empty with it
has no integer point.  The survivors are therefore those of propagating
every window without these rows, less some cells with no integer point.

Only the best cell matters, so the cells are not solved one by one.  Each
carries a ceiling, an int that no integer point of the cell exceeds: its
constant plus, per column, the larger of the objective coefficient times
either end of the cell's box.  The cells are yielded with their ceilings
and a recipe for their MipProblem, not as built LPs, and handed to
smallip.best_of, one best-first branch and bound over the nodes of all
cells, in which a cell not yet built waits under its ceiling.  A cell is
built only when its ceiling is the best bound left, so a cell whose
ceiling is below the optimum is never built or solved.  A popped cell
whose box corner at the objective meets its rows is settled there with no
LP: that corner is the point its ceiling reads.  A cell whose root LP point
is fractional is rewritten at that first split in the lattice coordinates
of its equality rows and branched on them, as best_of does with every
all-integer root, so its node count does not grow with the width of its
box when its integer points form a sparse lattice (tests/fourblock_reference.py
keeps branching on the cell's own columns as the reference).  Ties go to
the earlier cell, so the Solution returned, point included, is the one
that solve_mip on each cell in turn, with the incumbent as cutoff, returns.
With no bricks, solve_mip branches the shared columns in the lattice
coordinates of the top rows too.

All enumeration is exact, the winning cell's value is checked against its
ceiling, and its solution is lifted back to a full point and re-checked
against the original constraints; any disagreement raises instead of
returning silently wrong output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import mul

from .errors import (
    InternalInconsistencyError,
    MalformedProblemError,
    NotEligibleError,
)
from .intlin import brick_form, kernel_basis, particular_solutions, quotient_range
from .model import (
    FourBlockInstance,
    Infeasible,
    Solution,
    checked_solution,
    evaluate,
    validate,
)
from .ratlp import OPTIMAL, LpProblem
from .smallip import MipProblem, _propagate, best_of, solve_mip

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


# The 1x2 gcd route is the Smith route now; the old name stays only because
# perfbench/tracer.py wraps it by name and perfbench/checks.py calls it.
elimination_from_bezout = elimination_from_snf


@dataclass(frozen=True)
class SubInterval:
    tau: int
    tau_bar: int
    d: tuple  # per brick, the lower quotient bound on this sub-interval
    d_bar: tuple  # per brick, the upper quotient bound


def build_grid(elim: EliminationData, lower, upper) -> tuple:
    """Per coordinate h: the constancy partition of its remainder range.

    Each entry is a tuple of SubInterval, the cells of the floor/ceil bound
    values per remainder, or None when theta_h = 0: that coordinate's
    anchor value is directly box-bounded and needs no remainder split.

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
    return tuple(per_h)


@dataclass(frozen=True)
class CellProblem:
    """One fully discretized subproblem, ready for the small MIP solver.

    Its MipProblem is built by its recipe on the first read of mip, or when
    the search first pops the cell, and at most once.
    """

    # builds the cell's MipProblem once and keeps it (_CellRecipe); it is no
    # part of the cell's identity, which its choices below fix
    recipe: object = field(compare=False, repr=False)
    constant: int  # objective value outside the MIP variables
    sub_choice: tuple  # per grid coordinate, the chosen SubInterval
    layout: dict  # variable-name -> column metadata for lifting
    order: tuple  # brick indices (>=1) sorted by objective rate
    arg_lo: tuple  # per brick >=1: coordinate attaining its lower bound
    arg_hi: tuple  # per brick >=1: coordinate attaining its upper bound
    # an int no integer point of the cell exceeds, constant included; it
    # orders the search and is no part of the cell's identity (== skips it,
    # and the tests' reference enumerator builds cells without one)
    ceiling: int = field(default=None, compare=False)

    @property
    def mip(self) -> MipProblem:
        return self.recipe()


class _CellRecipe:
    """A cell's MipProblem, built on the first call and kept.

    The LP is max objective . x over the box, with the equality rows and
    those of the sparse rows e . x <= b that the box does not imply, each
    as a ranged row from its least activity over the box.
    """

    __slots__ = ("args", "mip")

    def __init__(self, objective, eq_dense, sparse_rows, box_lo, box_hi):
        self.args = (objective, eq_dense, sparse_rows, box_lo, box_hi)
        self.mip = None

    def __call__(self) -> MipProblem:
        if self.mip is None:
            objective, eq_dense, sparse_rows, box_lo, box_hi = self.args
            width = len(objective)
            rows = list(eq_dense)
            for e, b in sparse_rows:
                mn, mx = _range_of(e, box_lo, box_hi)
                if mx > b:
                    rows.append((_dense(e, width), mn, b))
            lp = LpProblem.make(objective, rows, box_lo, box_hi)
            self.mip = MipProblem.make(lp, [True] * width)
            self.args = None
        return self.mip


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
    """Per-instance data shared by every cell.

    The variable layout, the anchor brick's own rows, and the parts of the
    top rows and of the objective that no choice of sub-intervals, windows
    or arguments changes; the per-brick objective rates and the merge order.
    """

    def __init__(self, inst: FourBlockInstance, elim: EliminationData):
        self.inst = inst
        self.elim = elim
        n, tA, tB = inst.n, inst.t_A, inst.t_B
        theta = elim.theta
        gh = self.grid_hs = [h for h in range(tA) if theta[h] != 0]
        zh = self.zero_hs = [h for h in range(tA) if theta[h] == 0]
        # coordinates with a zero step: the anchor value is shared by all
        # bricks up to constant shifts, so the boxes intersect directly
        self.zero_lo, self.zero_hi = {}, {}
        lower, upper = inst.bricks(inst.l), inst.bricks(inst.u)
        for h in zh:
            self.zero_lo[h] = max(lo[h] - off[h] for lo, off in zip(lower, elim.offsets))
            self.zero_hi[h] = min(up[h] - off[h] for up, off in zip(upper, elim.offsets))
        self.wsum = inst.brick_sums(inst.w)  # total objective weight per coordinate
        # objective rate of each brick's free integer
        self.rates = [sum(map(mul, wi, theta)) for wi in inst.bricks(inst.w)]
        self.order = tuple(
            sorted(range(1, n), key=lambda i: (-self.rates[i], i))
        )

        # variable layout: x0 | xi_h | z_h | anchor values on zero-step coords | p
        g = len(gh)
        xi = {h: tB + k for k, h in enumerate(gh)}
        z = self.z_col = {h: tB + g + k for k, h in enumerate(gh)}
        direct = {h: tB + 2 * g + k for k, h in enumerate(zh)}
        p = self.p = tB + 2 * g + len(zh)
        self.layout = {"xi": xi, "z": z, "direct": direct, "p": p}
        self.nvars = p + 1
        anchor_col = {**xi, **direct}

        # top rows: brick i's free integer is its lower bound d_i - z_{h_i}
        # plus its share of p, where h_i is the coordinate setting that bound
        # (arg_lo) and d_i its quotient, so top row r reads
        #   C_r x0 + n sum_h D_rh (xi_h or direct_h)
        #     + sum_h (n D_rh theta_h - k_r cnt_h) z_h + k_r p
        #   = b0_r - sum_h D_rh offset_totals_h - k_r sum_i d_i
        # with k_r = sum_h D_rh theta_h and cnt_h the number of bricks with
        # h_i = h.  Kept per row: the coefficients no cell changes, the z
        # coefficients before the cnt_h term, k_r, and the constant before
        # the sum of the d_i
        self.top = []
        for r in range(inst.s_C):
            e = {bcol: a for bcol in range(tB) if (a := inst.C.at(r, bcol))}
            zc = dict.fromkeys(gh, 0)
            k = 0
            const = 0
            for h in range(tA):
                drh = inst.D.at(r, h)
                if drh == 0:
                    continue
                const += drh * elim.offset_totals[h]
                e[anchor_col[h]] = n * drh
                if theta[h]:
                    zc[h] = n * drh * theta[h]
                    k += drh * theta[h]
            self.top.append((e, zc, k, inst.b0[r] - const))
        # the anchor brick's own system A x^1 + B x0 = b_1, the same in every cell
        self.anchor_rows = []
        for r in range(inst.s_A):
            e = {bcol: a for bcol in range(tB) if (a := inst.B.at(r, bcol))}
            for h in range(tA):
                arh = inst.A.at(r, h)
                if arh:
                    e[anchor_col[h]] = arh
                    if theta[h]:
                        e[z[h]] = arh * theta[h]
            self.anchor_rows.append((e, inst.b[0][r]))
        self.anchor_screen = []
        for e, b in self.anchor_rows:
            self.anchor_screen += [(e, b), ({var: -a for var, a in e.items()}, -b)]
        # objective terms with no brick's bound in them; z_h's is completed
        # per cell by the rates of the bricks whose lower bound it sets
        obj = [0] * self.nvars
        obj[:tB] = inst.w[:tB]
        for h in gh:
            obj[xi[h]] = self.wsum[h]
            obj[z[h]] = self.wsum[h] * theta[h]
        for h in zh:
            obj[direct[h]] = self.wsum[h]
        self.objective = obj


def enumerate_cells(inst: FourBlockInstance, elim: EliminationData, grid: tuple):
    """Yield every CellProblem; the max over their optima is the optimum."""
    builder = _CellBuilder(inst, elim)
    if any(builder.zero_lo[h] > builder.zero_hi[h] for h in builder.zero_hs):
        return
    # the anchor brick has no free integer: its box bounds each quotient,
    # so a sub-interval whose anchor range d[0]..d_bar[0] is empty is in no
    # cell, whatever the other coordinates choose
    axes = [[c for c in grid[h] if c.d[0] <= c.d_bar[0]]
            for h in builder.grid_hs]
    for combo in itertools.product(*axes):
        yield from _cells_for_combo(builder, combo)


def _pair_windows(n, chosen, zlo, zhi, a, b):
    """Difference windows for z_a - z_b, clipped to the box range."""
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


def _tournament(n, gh, diffs, pairs, lower_side):
    """Per brick i >= 1, the coordinate attaining the binding bound, or None.

    lower_side picks argmax of d - z; otherwise argmin of d_bar - z.  For
    each coordinate pair x < y, diffs[(x, y)] lists per brick the difference
    dd of the two coordinates' d (or d_bar) values, and pairs[(x, y)] is the
    chosen window [lo, hi] of z_x - z_y.  One pass per pair decides it for
    every brick: dd > hi puts d_x - z_x above d_y - z_y throughout the
    window, dd <= lo puts it at or below.  _pair_windows cuts the windows at
    every such dd, so one of the two holds; otherwise the bound comparison
    is undecided and InternalInconsistencyError is raised.  With two grid
    coordinates these outcomes are the arguments.  With more, each brick's
    argument is the winner of a tournament read from them; if the relation
    turns cyclic the windows admit no actual point and the caller must skip
    the cell.
    """
    if len(gh) == 1:
        return (gh[0],) * (n - 1)
    beats = {}  # (a, b) -> per brick, True when a binds at least as tightly as b
    for (x, y), (lo, hi) in pairs.items():
        dds = diffs[(x, y)]
        if any(lo < dd <= hi for dd in dds):
            raise InternalInconsistencyError("undecided bound comparison")
        above = [dd > hi for dd in dds]
        if len(gh) == 2:
            return tuple(x if a == lower_side else y for a in above)
        beats[(x, y)] = [a == lower_side for a in above]
        beats[(y, x)] = [a != lower_side for a in above]
    args = []
    for i in range(n - 1):
        best = gh[0]
        for h in gh[1:]:
            if not beats[(best, h)][i]:
                best = h
        if all(h == best or beats[(best, h)][i] for h in gh):
            args.append(best)
        else:
            return None  # cyclic: the windows are jointly unrealizable
    return tuple(args)


def _cells_for_combo(builder, combo):
    n = builder.inst.n
    gh = builder.grid_hs
    chosen = dict(zip(gh, combo))
    zlo = {h: chosen[h].d[0] for h in gh}
    zhi = {h: chosen[h].d_bar[0] for h in gh}
    pairs_list = list(itertools.combinations(gh, 2))
    options = []
    for a, b in pairs_list:
        ws = _pair_windows(n, chosen, zlo, zhi, a, b)
        if not ws:
            return
        options.append(ws)
    d = {h: chosen[h].d for h in gh}
    d_bar = {h: chosen[h].d_bar for h in gh}
    diffs_lo, diffs_hi = {}, {}
    for a, b in pairs_list:
        diffs_lo[(a, b)] = [x - y for x, y in zip(d[a][1:], d[b][1:])]
        diffs_hi[(a, b)] = [x - y for x, y in zip(d_bar[a][1:], d_bar[b][1:])]
    # the box of every column but p, the same in every cell of this combo
    inst = builder.inst
    lo = list(inst.l[:inst.t_B])
    hi = list(inst.u[:inst.t_B])
    for h in gh:
        lo.append(chosen[h].tau)
        hi.append(chosen[h].tau_bar)
    for h in gh:
        lo.append(zlo[h])
        hi.append(zhi[h])
    for h in builder.zero_hs:
        lo.append(builder.zero_lo[h])
        hi.append(builder.zero_hi[h])
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
        arg_lo = _tournament(n, gh, diffs_lo, pairs, True)
        arg_hi = _tournament(n, gh, diffs_hi, pairs, False)
        if arg_lo is None or arg_hi is None:
            continue
        yield from _cells_for_windows(builder, combo, d, d_bar, lo, hi, pairs,
                                      arg_lo, arg_hi)


def _p_rows_have_slack(lam, lam_const, cap, z_lo, z_hi, p_lo, p_hi):
    """Whether both p rows of a merge window can hold in the given box.

    The rows are Lambda(j-1) + 1 <= p and p <= Lambda(j) = Lambda(j-1) +
    cap, where lam maps each grid coordinate to its z coefficient in
    Lambda(j-1), lam_const is its constant and cap is (cc, hl, hu), the
    window brick's bound gap cc + z_hl - z_hu.  A row's slack is its
    right-hand side less its least activity over the box; False when either
    is negative.  That is exactly the first test _propagate makes of a row,
    and a tighter box only raises the least activity, so a False here means
    _propagate over any sub-box would return False too.  The rows' sum is
    the p-free row cap(z) >= 1, which every point of the window meets; when
    hl == hu the cap is the constant cc, so a brick with no room (cc == 0,
    Lambda(j) = Lambda(j-1)) gives False whatever the box.
    """
    cc, hl, hu = cap
    if hl == hu and cc < 1:
        return False
    least1 = least2 = 0  # over the z columns of the two rows
    for h, a in lam.items():
        least1 += a * (z_lo[h] if a > 0 else z_hi[h])
        a = -a - (h == hl) + (h == hu)
        least2 += a * (z_lo[h] if a > 0 else z_hi[h])
    return p_hi - lam_const - 1 >= least1 and lam_const + cc - p_lo >= least2


def _without_p(k, e, b, t, tb, p):
    """The row k * (e <= b) + (t <= tb), whose p coefficients cancel."""
    row = dict(t)
    for var, a in e.items():
        if var != p:
            a = k * a + row.get(var, 0)
            if a:
                row[var] = a
            else:
                del row[var]
    return row, k * b + tb


def _dense(e, width):
    row = [0] * width
    for var, coef in e.items():
        row[var] = coef
    return row


def _cells_for_windows(builder, combo, d, d_bar, lo, hi, pairs, arg_lo, arg_hi):
    """The cells of one choice of sub-intervals, windows and arguments.

    combo holds the chosen sub-interval per grid coordinate, d and d_bar
    their quotient bounds per brick, and lo, hi the box of every column but
    p.  One pass over the bricks gives each brick's cap and the
    per-coordinate sums that the top rows, p's box and the objective take
    (how many bricks each coordinate bounds from below, their rates, and
    the sums of those bounds); no brick is visited again.  The rows shared
    by every merge window are propagated once, and then the windows are
    swept as the module docstring describes.  The pre-test
    _p_rows_have_slack and the p-free rows only skip windows with no
    integer point, so the cells yielded and their order are those of
    screening every window with its p rows alone, less some empty cells.
    """
    inst = builder.inst
    n = inst.n
    gh = builder.grid_hs
    zcol = builder.z_col
    p = builder.p
    rates = builder.rates
    width = builder.nvars

    # per brick i>=1: bound gap cap_i(z) = cc_i + z_{arg_lo} - z_{arg_hi} >= 0;
    # per coordinate h, the bricks whose lower bound h sets: their count and
    # their rates; and the sums of those bounds and of rate times bound
    caps = [None] * n
    cnt_lo = dict.fromkeys(gh, 0)
    rate_lo = dict.fromkeys(gh, 0)
    d_lo_sum = rate_d_lo_sum = 0
    p_hi = 0
    gaps = {}  # (hl, hu) -> least cc over the bricks with that pair
    for i in range(1, n):
        hl, hu = arg_lo[i - 1], arg_hi[i - 1]
        dl = d[hl][i]
        cc = d_bar[hu][i] - dl
        caps[i] = (cc, hl, hu)
        cnt_lo[hl] += 1
        rate_lo[hl] += rates[i]
        d_lo_sum += dl
        rate_d_lo_sum += rates[i] * dl
        # p's own box from the caps over the z boxes
        p_hi += cc + hi[zcol[hl]] - lo[zcol[hu]]
        if hl == hu:
            if cc < 0:
                return
        elif (hl, hu) not in gaps or cc < gaps[(hl, hu)]:
            gaps[(hl, hu)] = cc
    if p_hi < 0:
        return
    lo = lo + [0]
    hi = hi + [p_hi]

    # equality rows: top block, then the anchor brick's own system
    eq_rows = []
    for fixed, zc, k, b in builder.top:
        e = dict(fixed)
        for h in gh:
            a = zc[h] - k * cnt_lo[h]
            if a:
                e[zcol[h]] = a
        if k:
            e[p] = k
        eq_rows.append((e, b - k * d_lo_sum))

    # inequality rows, as coefficient maps with a <= bound
    ineq_rows = []
    for (hl, hu), cc in sorted(gaps.items()):
        ineq_rows.append(({zcol[hu]: 1, zcol[hl]: -1}, cc))
    for (a, b), (wlo, whi) in sorted(pairs.items()):
        ineq_rows.append(({zcol[a]: 1, zcol[b]: -1}, whi))
        ineq_rows.append(({zcol[a]: -1, zcol[b]: 1}, -wlo))

    # the integer screen: the inequality rows, and each equality row as two
    # <= rows.  What it proves over the rows shared by every merge window holds
    # in each window, so each window's screen starts from these bounds.
    screen_rows = list(ineq_rows)
    for e, b in eq_rows:
        screen_rows.append((e, b))
        screen_rows.append(({var: -coef for var, coef in e.items()}, -b))
    screen_rows += builder.anchor_screen
    shared_lo, shared_hi = list(lo), list(hi)
    if not _propagate(screen_rows, shared_lo, shared_hi):
        return
    # the p-free rows of the module docstring: per top row t + k p = b with
    # k != 0, (|k|, s t, s b, -s t) with s the sign of k.  |k| times a p row
    # whose p coefficient is -1 (+1), plus s t (-s t), has no p term
    p_free = []
    for e, b in eq_rows:
        k = e.get(p, 0)
        if k:
            s = 1 if k > 0 else -1
            t = {var: s * a for var, a in e.items() if var != p}
            p_free.append((abs(k), t, s * b, {var: -a for var, a in t.items()}))
    eq_dense = [(_dense(e, width), b, b) for e, b in eq_rows + builder.anchor_rows]
    base_obj = list(builder.objective)
    for h in gh:
        base_obj[zcol[h]] -= rate_lo[h]
    base_const = builder.elim.c0 + rate_d_lo_sum

    z_lo = {h: shared_lo[zcol[h]] for h in gh}
    z_hi = {h: shared_hi[zcol[h]] for h in gh}
    order = builder.order
    # running sums over the bricks before the window, order[:j-2], as z
    # coefficients per coordinate and a constant: their objective terms,
    # and Lambda(j-1), the sum of their caps
    run, run_const = dict.fromkeys(gh, 0), 0
    lam, lam_const = dict.fromkeys(gh, 0), 0
    for j in range(1, n + 1):
        if j > 2:
            i = order[j - 3]
            cc, hl, hu = caps[i]
            v_i = rates[i]
            run_const += v_i * cc
            run[hl] += v_i
            run[hu] -= v_i
            lam_const += cc
            lam[hl] += 1
            lam[hu] -= 1
        if j == 1:
            p_rows = window_rows = []
            box_lo, box_hi = list(shared_lo), list(shared_hi)
            box_hi[p] = 0  # p >= 0 already
        else:
            cap = caps[order[j - 2]]
            if not _p_rows_have_slack(lam, lam_const, cap, z_lo, z_hi,
                                      shared_lo[p], shared_hi[p]):
                continue  # no integer point
            box_lo, box_hi = list(shared_lo), list(shared_hi)
            # Lambda(j-1) + 1 <= p <= Lambda(j)
            cc, hl, hu = cap
            e1 = {zcol[h]: a for h, a in lam.items() if a}
            e1[p] = -1
            e2 = {p: 1}
            for h, a in lam.items():
                a = -a - (h == hl) + (h == hu)
                if a:
                    e2[zcol[h]] = a
            p_rows = [(e1, -lam_const - 1), (e2, lam_const + cc)]
            window_rows = list(p_rows)
            for k, t, tb, neg_t in p_free:
                window_rows.append(_without_p(k, e1, -lam_const - 1, t, tb, p))
                window_rows.append(_without_p(k, e2, lam_const + cc, neg_t, -tb, p))
        # the window's own rows first: they are the ones that prove most
        # windows empty, and _propagate stops at the first row with no slack
        if not _propagate(window_rows + screen_rows, box_lo, box_hi):
            continue  # no integer point: skip the LP

        obj = list(base_obj)
        const = base_const
        if j > 1:
            v_j = rates[order[j - 2]]
            obj[p] += v_j
            for h in gh:
                obj[zcol[h]] += run[h] - v_j * lam[h]
            const += run_const - v_j * lam_const
        # the LP is taken over the propagated box, less the rows it implies;
        # its ceiling reads the box corner at the objective
        ceiling = const
        for c, a, b in zip(obj, box_lo, box_hi):
            ceiling += c * (b if c > 0 else a)
        yield CellProblem(
            recipe=_CellRecipe(obj, eq_dense, ineq_rows + p_rows, box_lo, box_hi),
            constant=const,
            sub_choice=combo,
            layout=builder.layout,
            order=order,
            arg_lo=arg_lo,
            arg_hi=arg_hi,
            ceiling=ceiling,
        )


def solve_cell(cell: CellProblem):
    """Exact optimum of one cell's MIP, its constant left out.

    The route searches all cells at once through best_of; this solves one
    alone with the same branching, for the tests' screen checks, and
    perfbench/tracer.py wraps it by name.
    """
    return solve_mip(cell.mip)


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
    """The solver's input checks, then the elimination and the grid.

    Raises MalformedProblemError for a malformed instance,
    NotEligibleError for a GeneralizedNFoldInstance and, from the
    elimination's Smith form (run with or without bricks), for an
    ineligible brick matrix.  Returns None when there are no bricks,
    Infeasible when the brick differences have no integral solution, and
    (elimination, grid) otherwise.
    """
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
    """Exact optimum for eligible 4-block instances; Solution or Infeasible."""
    prepared = _prepare(inst)
    if prepared is None:
        return _solve_trivial(inst)
    if isinstance(prepared, Infeasible):
        return prepared
    elim, grid = prepared

    cells = list(enumerate_cells(inst, elim, grid))
    k, res = best_of([(cell.recipe, cell.constant, cell.ceiling) for cell in cells])
    if k is None:
        return Infeasible("NoLatticePoint")
    cell = cells[k]
    total = res.value + cell.constant
    if total > cell.ceiling:
        raise InternalInconsistencyError(
            f"cell optimum {total} exceeds the cell's ceiling {cell.ceiling}")
    return lift_solution(inst, elim, cell, res.point, total)

