"""Exact rational linear programming.

One algorithm: the bounded-variable dual simplex, exact in integer
arithmetic.  The leaving row is the most bound-violated basic variable, with
a fallback to Bland's rule after a run of degenerate pivots, so the method is
fast in practice and still provably finite.  Tableau rows are sparse maps
from column to nonzero entry: the programs the structured solvers build are
block angular, and their bases keep the tableau sparse.  Every pivot is
exact, so the returned optimum is the true rational optimum, not an
approximation.

The tableau is fraction free (Edmonds 1967; Bareiss 1968).  Rational input
is turned into integers once, on entry: each ranged row is multiplied by the
least common multiple of its own denominators, lo and hi included, and the
objective by that of its own.  Tableau entries and reduced costs are then
integer numerators over one common denominator D, the absolute value of the
basis determinant; it is 1 at the all-slack start.  A pivot on entry T_re
turns row i into (D' T_i - T_ie T_r) / D with D' = |T_re| and row r
multiplied by the sign of T_re, and the division is exact because every
entry is a minor of the constraint matrix.  Bounds are numerators over L,
the least common multiple of the box denominators, and basic values are
numerators over D L.  Comparisons that used to divide (the dual ratio test,
the most violated row) cross-multiply instead, so every choice is the one
the same method makes over fractions.Fraction, and so is every point.

One cold start.  An LpProblem has ranged rows lo <= a . x <= hi (an
equality row has lo = hi).  solve_lp_warm gives each row its own bounded
slack and starts from the all-slack basis with every structural at the
bound its cost prefers.  That basis is dual feasible by construction, so the
dual simplex alone reaches the optimum: no artificials, no phase 1.  Every
column is boxed, so no LP is unbounded.

The warm path is WarmLp, the optimal tableau of a solve.
WarmLp.edited changes structural boxes and adds ranged rows, then re-solves
from the old basis with the same dual simplex.  Every column is boxed, so
any basis is dual feasible once each nonbasic column sits at the bound its
reduced cost prefers (the boxed-variable start of Koberstein, The Dual
Simplex Method, 2005): a box edit puts a nonbasic column there (set_box),
and a new row enters with its slack basic after the basic columns are
substituted out of it, which changes neither a reduced cost nor D.  A box
whose denominator does not divide L multiplies L, the bounds and the values
by the missing factor.  A dual simplex pass then restores primal
feasibility in a few pivots instead of a cold solve.  Branch and bound leans
on the box edits (WarmLp.reoptimized: each child differs from its parent by
one tightened bound); the all-ones aggregate search leans on both, carrying
one tableau from box to box and adding each new cut as a row.

Every Optimal result is audited in integers with explicit raises, so the
audits still run under python -O: the point meets every row and box and its
objective is the tableau value, and every reduced cost has its optimal sign
(zero on a basic column; at most zero at a lower bound and at least zero at
an upper bound, unless the box is a point).  A failed audit raises
InternalInconsistencyError.  Only then are the point and the value built as
Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import InternalInconsistencyError, MalformedProblemError

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"


def _exact(v):
    return v if type(v) is int else Fraction(v)


@dataclass(frozen=True)
class LpProblem:
    """max objective . x  s.t.  lo <= a . x <= hi per row, lower <= x <= upper.

    rows holds one (coefficients, lo, hi) per row; an equality row has
    lo = hi.  make keeps every int as it is and turns any other number into
    an exact Fraction; the solver scales each row and the objective to
    integers on entry, so integral programs, the only ones the package
    builds, never become Fractions.  make stores lists, not tuples: the
    solvers build and drop many small programs, and lists of their widths do
    not pile up in CPython's per-size tuple free lists.  Treat the fields as
    read-only.
    """

    objective: list
    rows: list
    lower: list
    upper: list

    @staticmethod
    def make(objective, rows, lower, upper) -> "LpProblem":
        return LpProblem(
            [_exact(c) for c in objective],
            [([_exact(a) for a in coeffs], _exact(lo), _exact(hi)) for coeffs, lo, hi in rows],
            [_exact(v) for v in lower],
            [_exact(v) for v in upper],
        )


@dataclass(frozen=True)
class LpResult:
    status: str
    point: tuple | None = None
    value: Fraction | None = None
    nodes: int | None = None  # filled by the branch-and-bound wrapper


def _validate(p: LpProblem) -> None:
    n = len(p.objective)
    if len(p.lower) != n or len(p.upper) != n:
        raise MalformedProblemError("objective and bounds disagree on variable count")
    for coeffs, _, _ in p.rows:
        if len(coeffs) != n:
            raise MalformedProblemError("row has wrong width")
    for j in range(n):
        if p.lower[j] > p.upper[j]:
            raise MalformedProblemError(f"lower[{j}] > upper[{j}]")


def _scaled(values):
    """(ints, s): the least s >= 1 that makes every s * v an int, and the s * v."""
    s = 1
    for v in values:
        if type(v) is not int:
            s = lcm(s, Fraction(v).denominator)
    return [v * s if type(v) is int else int(Fraction(v) * s) for v in values], s


def _ranged(rows, n):
    """Ranged rows (coefficients, lo, hi) in integers, as (support, lo, hi, s):
    the row times s, the least common multiple of its denominators."""
    out = []
    for coeffs, lo, hi in rows:
        if len(coeffs) != n:
            raise MalformedProblemError("row has wrong width")
        cols = [j for j, a in enumerate(coeffs) if a]
        ints, s = _scaled([coeffs[j] for j in cols] + [lo, hi])
        out.append((list(zip(cols, ints)), ints[-2], ints[-1], s))
    return out


class _Simplex:
    """Tableau state over all variables: the structurals, then one slack
    column per ranged row, all in integers.

    T holds one dict per row mapping column index to a nonzero numerator
    over D; the basic column of row r reads D there.  d holds the reduced
    costs as numerators over gamma D, where gamma scales the objective to
    integers, and z the objective value as a numerator over gamma D L.
    lower and upper are numerators over L.  A nonbasic column sits at the
    bound where names ("L" or "U"), so only basic values are stored: beta[r]
    is the value of basis[r] as a numerator over D L.  Row r's slack counts
    in units of 1 / scale of its column (the row was multiplied by it), so
    violations are compared in the row's own units; a structural has scale 1.
    """

    @staticmethod
    def slack_start(objective, gamma, rows, lower, upper, L) -> "_Simplex":
        """All-slack basis of ranged rows (support, lo, hi, s), dual feasible.

        objective holds the costs times gamma, lower and upper the boxes
        times L, all ints.  Row r reads s_r - a_r . x = 0 with its slack s_r
        boxed to [lo, hi].  Each structural sits at the bound its cost
        prefers (the lower one at cost zero), so every reduced cost has the
        optimal sign already.
        """
        s = object.__new__(_Simplex)
        n, m = len(objective), len(rows)
        s.ns, s.m, s.nv = n, m, n + m
        s.D, s.L, s.gamma = 1, L, gamma
        s.where = ["U" if c > 0 else "L" for c in objective] + ["B"] * m
        x = [upper[j] if c > 0 else lower[j] for j, c in enumerate(objective)]
        s.lower = lower + [lo * L for _, lo, _, _ in rows]
        s.upper = upper + [hi * L for _, _, hi, _ in rows]
        s.scale = [1] * n + [sr for _, _, _, sr in rows]
        s.T = []
        s.beta = []
        for r, (support, _, _, _) in enumerate(rows):
            trow = {j: -a for j, a in support}
            trow[n + r] = 1
            s.T.append(trow)
            s.beta.append(sum(a * x[j] for j, a in support))
        s.basis = list(range(n, n + m))
        s.d = list(objective) + [0] * m
        s.z = sum(c * x[j] for j, c in enumerate(objective) if c)
        return s

    def _over_L(self, values):
        """values (ints and Fractions) as numerators over L, once L is grown
        to a multiple of their denominators (which multiplies the bounds, the
        values and z by the same factor)."""
        q = 1
        for v in values:
            if type(v) is not int:
                q = lcm(q, v.denominator)
        L = self.L
        if L % q:
            g = q // gcd(L, q)
            L = self.L = L * g
            self.lower = [v * g for v in self.lower]
            self.upper = [v * g for v in self.upper]
            self.beta = [v * g for v in self.beta]
            self.z *= g
        return [v * L if type(v) is int else v.numerator * (L // v.denominator) for v in values]

    def set_box(self, j: int, lo, hi) -> None:
        """Replace column j's box with the rationals [lo, hi], keeping the
        basis dual feasible.

        A nonbasic j moves to the bound its reduced cost prefers, as in
        slack_start: the upper one when d_j > 0, the lower one when d_j < 0.
        With d_j = 0, or a point box lo = hi, it stays on its side.  A basic
        j keeps its value; the dual simplex repairs a value left outside.
        """
        lo, hi = self._over_L((lo, hi))
        side = self.where[j]
        was = self.lower[j] if side == "L" else self.upper[j]
        self.lower[j] = lo
        self.upper[j] = hi
        if side == "B":
            return
        if lo != hi and self.d[j]:
            side = self.where[j] = "U" if self.d[j] > 0 else "L"
        self._shift_nonbasic(j, (lo if side == "L" else hi) - was)

    def add_row(self, support, lo: int, hi: int, scale: int, row_of) -> None:
        """Append the integer ranged row lo <= a . x <= hi with its slack basic.

        row_of maps each basic structural column to its tableau row; those
        columns are substituted out so the new row holds nonbasics only.
        The slack's column is a unit column, so D stays; the slack has cost
        zero, so no reduced cost changes.
        """
        D, T, beta, lower, upper, where = self.D, self.T, self.beta, self.lower, self.upper, self.where
        col = self.nv
        trow = {col: D}
        value = 0
        for j, a in support:
            r = row_of.get(j)
            if r is None:
                terms = ((j, -a * D),)
                value += a * D * (lower[j] if where[j] == "L" else upper[j])
            else:
                terms = ((k, a * b) for k, b in T[r].items() if k != j)
                value += a * beta[r]
            for k, b in terms:
                v = trow.get(k, 0) + b
                if v:
                    trow[k] = v
                else:
                    trow.pop(k, None)
        T.append(trow)
        beta.append(value)
        self.basis.append(col)
        where.append("B")
        lower.append(lo * self.L)
        upper.append(hi * self.L)
        self.scale.append(scale)
        self.d.append(0)
        self.m += 1
        self.nv += 1

    def _copy(self) -> "_Simplex":
        s = object.__new__(_Simplex)
        s.ns, s.m, s.nv = self.ns, self.m, self.nv
        s.D, s.L, s.gamma = self.D, self.L, self.gamma
        s.lower = self.lower[:]
        s.upper = self.upper[:]
        s.scale = self.scale[:]
        s.beta = self.beta[:]
        s.where = self.where[:]
        s.basis = self.basis[:]
        s.T = [row.copy() for row in self.T]
        s.d = self.d[:]
        s.z = self.z
        return s

    def _pivot(self, r: int, e: int, bound: int) -> None:
        """Column e enters on row r, whose basic leaves at bound (over L).

        Every row, reduced cost, basic value and z moves to the new common
        denominator D' = |T_re| in one Bareiss step.
        """
        T, beta, d, D = self.T, self.beta, self.d, self.D
        Tr = T[r]
        p = Tr[e]
        if p < 0:
            p = -p
            for j in Tr:
                Tr[j] = -Tr[j]
            delta = D * bound - beta[r]
        else:
            delta = beta[r] - D * bound
        # column e moves by delta / (D' L), which takes the leaving basic
        # to bound
        start = self.lower[e] if self.where[e] == "L" else self.upper[e]
        for i, Ti in enumerate(T):
            if i == r:
                continue
            f = Ti.get(e)
            if f is None:
                if p != D:
                    T[i] = {j: v * p // D for j, v in Ti.items()}
                    beta[i] = beta[i] * p // D
                continue
            if p != 1:
                Ti = {j: v * p for j, v in Ti.items()}
            for j, b in Tr.items():
                v = Ti.get(j, 0) - f * b
                if v:
                    Ti[j] = v
                else:
                    del Ti[j]
            T[i] = {j: v // D for j, v in Ti.items()} if D != 1 else Ti
            beta[i] = (p * beta[i] - f * delta) // D
        beta[r] = p * start + delta
        de = d[e]
        self.z = (p * self.z + de * delta) // D
        if p != 1:
            d[:] = [v * p for v in d]
        if de:
            for j, b in Tr.items():
                d[j] -= de * b
        if D != 1:
            d[:] = [v // D for v in d]
        self.D = p
        self.basis[r] = e
        self.where[e] = "B"

    def _shift_nonbasic(self, j: int, delta: int) -> None:
        """Move nonbasic variable j by delta (over L), updating basics and z."""
        if delta == 0:
            return
        beta = self.beta
        for r, Tr in enumerate(self.T):
            a = Tr.get(j)
            if a:
                beta[r] -= a * delta
        self.z += self.d[j] * delta

    def dual_iterate(self) -> bool:
        """Restore primal feasibility from a dual feasible basis.

        Picks the most bound-violated basic variable, then the entering column
        by the exact dual ratio test, so the reduced-cost sign pattern (and
        with it optimality on exit) is preserved.  Returns True when primal
        feasible, hence optimal, and False when a row proves the problem
        infeasible.  A long run of degenerate pivots switches to Bland's rule
        (the violated basic of smallest index leaves), which cannot cycle, so
        every pass finishes.
        """
        lower, upper, where, d, basis, beta, scale, T = (
            self.lower, self.upper, self.where, self.d, self.basis, self.beta, self.scale, self.T,
        )
        degenerate = 0
        fallback = 50 + 2 * (self.m + self.nv)
        bland = False
        while True:
            D = self.D
            # violations are numerators over D L in each row's own units:
            # viol / scale is the violation of the row as given
            r_best = -1
            best_viol = 0
            best_scale = 1
            to_upper = False
            for r in range(self.m):
                bv = basis[r]
                v = beta[r]
                lo = D * lower[bv]
                if v < lo:
                    viol, side = lo - v, False
                else:
                    up = D * upper[bv]
                    if v <= up:
                        continue
                    viol, side = v - up, True
                if r_best < 0:
                    better = True
                elif bland:
                    better = bv < basis[r_best]
                else:
                    a, b = viol * best_scale, best_viol * scale[bv]
                    better = a > b or (a == b and bv < basis[r_best])
                if better:
                    r_best, best_viol, best_scale, to_upper = r, viol, scale[bv], side
            if r_best < 0:
                return True
            r = r_best
            leaving = basis[r]
            # entering column: admissible sign pattern, tightest dual ratio
            # d_j / a_j (negated toward an upper bound) as num / den, den > 0
            enter = -1
            best_num, best_den = 0, 1
            for j, a in T[r].items():
                if where[j] == "B":
                    continue
                if lower[j] == upper[j]:
                    continue
                at_low = where[j] == "L"
                if not to_upper:
                    ok = (at_low and a < 0) or (not at_low and a > 0)
                else:
                    ok = (at_low and a > 0) or (not at_low and a < 0)
                if not ok:
                    continue
                num, den = (d[j], a) if a > 0 else (-d[j], -a)
                if to_upper:
                    num = -num
                if enter < 0:
                    better = True
                else:
                    lhs, rhs = num * best_den, best_num * den
                    better = lhs < rhs or (lhs == rhs and j < enter)
                if better:
                    best_num, best_den, enter = num, den, j
            if enter < 0:
                return False  # the violated row admits no compensating move
            # a zero dual ratio leaves the dual objective unchanged
            degenerate = degenerate + 1 if best_num == 0 else 0
            bland = bland or degenerate >= fallback
            self._pivot(r, enter, lower[leaving] if not to_upper else upper[leaving])
            where[leaving] = "L" if not to_upper else "U"


def _extract(s: _Simplex, objective, rows) -> LpResult:
    """The audited optimum of s; objective and rows are the scaled program."""
    n, D = s.ns, s.D
    DL = D * s.L
    lower, upper, where = s.lower, s.upper, s.where
    # every structural's value as a numerator over D L
    x = [D * (lower[j] if where[j] == "L" else upper[j]) for j in range(n)]
    for r, j in enumerate(s.basis):
        if j < n:
            x[j] = s.beta[r]
    # exactness audit: the reported optimum is the objective at the point,
    # the point meets every row's range exactly and sits inside the live box
    check = sum(c * x[j] for j, c in enumerate(objective) if c)
    if check != s.z:
        raise InternalInconsistencyError(
            f"objective at the point {Fraction(check, s.gamma * DL)} "
            f"!= tableau value {Fraction(s.z, s.gamma * DL)}")
    for r, (support, lo, hi, _) in enumerate(rows):
        ax = sum(a * x[j] for j, a in support)
        if not lo * DL <= ax <= hi * DL:
            raise InternalInconsistencyError(f"row {r} reads {Fraction(ax, DL)}, outside [{lo}, {hi}]")
    for j in range(n):
        if not D * lower[j] <= x[j] <= D * upper[j]:
            raise InternalInconsistencyError(f"variable {j} = {Fraction(x[j], DL)} leaves its box")
    # optimality audit: no column can improve the objective, so a basic one
    # has reduced cost zero and a nonbasic one with room to move a cost that
    # pushes it against the bound it sits at (<= 0 at lower, >= 0 at upper)
    for j, dj in enumerate(s.d):
        if dj and (where[j] == "B" or (lower[j] != upper[j] and (dj > 0) == (where[j] == "L"))):
            raise InternalInconsistencyError(
                f"column {j} ({where[j]}) has reduced cost {Fraction(dj, s.gamma * D)} of the wrong sign")
    return LpResult(OPTIMAL, tuple(Fraction(v, DL) for v in x), Fraction(s.z, s.gamma * DL))


def _finish(s: _Simplex, objective, rows):
    """The dual simplex, then the audits; (LpResult, WarmLp or None)."""
    if not s.dual_iterate():
        return LpResult(INFEASIBLE), None
    return _extract(s, objective, rows), WarmLp(objective, rows, s)


class WarmLp:
    """A solved tableau that supports exact re-optimization after edits.

    Holds the optimal basis of one LP together with its objective and its
    rows in integers, the objective times the tableau's gamma and each row
    as (support, lo, hi, s), meaning lo <= a . x <= hi after the row as
    given was multiplied by s (an equality row has lo = hi).  edited()
    produces the result for the same program with structural boxes replaced
    and ranged rows added, starting the dual simplex from this basis, and
    returns a fresh WarmLp so re-solves chain.  The receiver itself is never
    mutated, so several successors (both children of a branch step, both
    halves of a split box) can reuse one parent state.
    """

    def __init__(self, objective, rows, simplex: _Simplex):
        self._objective = objective
        self._rows = rows
        self._simplex = simplex

    def bounds(self, j: int):
        """Current (lower, upper) box of structural variable j, as Fractions."""
        s = self._simplex
        return Fraction(s.lower[j], s.L), Fraction(s.upper[j], s.L)

    def edited(self, boxes=(), rows=()):
        """Re-solve with boxes (j, lower, upper) set and rows (coeffs, lo, hi) added.

        Each added row reads lo <= coeffs . x <= hi over the structurals.  An
        empty box or range makes the result Infeasible; a box index that
        names no structural column raises MalformedProblemError.  Returns
        (LpResult, WarmLp or None); the state is None exactly when the
        result is not Optimal.
        """
        s = self._simplex
        boxes = [(j, _exact(lo), _exact(hi)) for j, lo, hi in boxes]
        for j, _, _ in boxes:
            if j not in range(s.ns):
                raise MalformedProblemError(f"box index {j!r} names no structural column")
        rows = _ranged(rows, s.ns)
        if any(lo > hi for _, lo, hi in boxes) or any(lo > hi for _, lo, hi, _ in rows):
            return LpResult(INFEASIBLE), None
        s = s._copy()
        for j, lo, hi in boxes:
            s.set_box(j, lo, hi)
        if rows:
            row_of = {col: r for r, col in enumerate(s.basis) if col < s.ns}
            for support, lo, hi, scale in rows:
                s.add_row(support, lo, hi, scale, row_of)
        return _finish(s, self._objective, self._rows + rows if rows else self._rows)

    def reoptimized(self, j: int, new_lower, new_upper):
        """Re-solve with variable j's box set to [new_lower, new_upper].

        Returns (LpResult, WarmLp or None).  The state is None exactly when
        the result is not Optimal.
        """
        return self.edited(boxes=((j, new_lower, new_upper),))


def solve_lp_warm(p: LpProblem):
    """Exact optimum of p, and a WarmLp for re-solves after edits.

    Solved by the dual simplex from the all-slack basis.  A row with an
    empty range makes the result Infeasible; shape errors and an empty
    structural box raise MalformedProblemError.  Returns (LpResult, WarmLp
    or None); the state is None exactly when the result is not Optimal.
    """
    _validate(p)
    n = len(p.objective)
    rows = _ranged(p.rows, n)
    if any(lo > hi for _, lo, hi, _ in rows):
        return LpResult(INFEASIBLE), None
    objective, gamma = _scaled(p.objective)
    bounds, L = _scaled(list(p.lower) + list(p.upper))
    s = _Simplex.slack_start(objective, gamma, rows, bounds[:n], bounds[n:], L)
    return _finish(s, objective, rows)


def solve_lp(p: LpProblem) -> LpResult:
    """Exact optimum of p; solve_lp_warm without the warm state."""
    return solve_lp_warm(p)[0]
