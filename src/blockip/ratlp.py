"""Exact linear programming over integer data.

One algorithm: the bounded-variable dual simplex, exact in integer
arithmetic.  The leaving row is the most bound-violated basic variable, with
a fallback to Bland's rule after a run of degenerate pivots, so the method is
fast in practice and still provably finite.  Tableau rows are sparse maps
from column to nonzero entry: the programs the structured solvers build are
block angular, and their bases keep the tableau sparse.  Every pivot is
exact, so the returned optimum is the true rational optimum, not an
approximation.

The data are integers: the paper's programs, and every LP the structured
solvers build from them, are integral, and make and edited reject any other
entry.  The tableau is fraction free (Edmonds 1967; Bareiss 1968): tableau
entries, reduced costs, basic values and the objective value are integer
numerators over one common denominator D, the absolute value of the basis
determinant; it is 1 at the all-slack start.  A pivot on entry T_re turns
row i into (D' T_i - T_ie T_r) / D with D' = |T_re| and row r multiplied by
the sign of T_re, and the division is exact because every entry is a minor
of the constraint matrix.  Bounds stay plain integers.  The dual ratio test
cross-multiplies instead of dividing, so every choice is the one the same
method makes over fractions.Fraction, and so is every point.  The optimum
of an integer LP is still rational, so the point and the value are returned
as Fractions over D.

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
substituted out of it, which changes neither a reduced cost nor D.  A dual
simplex pass then restores primal feasibility in a few pivots instead of a
cold solve.  Branch and bound leans on the box edits (WarmLp.reoptimized:
each child differs from its parent by one tightened bound); the all-ones
aggregate search leans on both, carrying one tableau from box to box and
adding each new cut as a row.

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

from .errors import InternalInconsistencyError, MalformedProblemError

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"


def _ints(values) -> list:
    """values as a list; MalformedProblemError unless every entry is an int.

    bool fails too (type(v) is int), the rule model.validate uses.
    """
    values = list(values)
    for v in values:
        if type(v) is not int:
            raise MalformedProblemError(f"LP data must be ints, not {v!r}")
    return values


def _int_rows(rows) -> list:
    """Ranged rows (coefficients, lo, hi), every entry checked by _ints."""
    return [(_ints(coeffs), *_ints((lo, hi))) for coeffs, lo, hi in rows]


@dataclass(frozen=True)
class LpProblem:
    """max objective . x  s.t.  lo <= a . x <= hi per row, lower <= x <= upper.

    rows holds one (coefficients, lo, hi) per row; an equality row has
    lo = hi.  Every entry is an int: make raises MalformedProblemError for
    any other value, bools, floats and Fractions included.  make stores
    lists, not tuples: the solvers build and drop many small programs, and
    lists of their widths do not pile up in CPython's per-size tuple free
    lists.  Treat the fields as read-only.
    """

    objective: list
    rows: list
    lower: list
    upper: list

    @staticmethod
    def make(objective, rows, lower, upper) -> "LpProblem":
        return LpProblem(_ints(objective), _int_rows(rows), _ints(lower), _ints(upper))


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
    for j in range(n):
        if p.lower[j] > p.upper[j]:
            raise MalformedProblemError(f"lower[{j}] > upper[{j}]")


def _ranged(rows, n):
    """Ranged rows (coefficients, lo, hi) of width n as (support, lo, hi),
    where support lists the (column, coefficient) pairs with a nonzero
    coefficient."""
    out = []
    for coeffs, lo, hi in rows:
        if len(coeffs) != n:
            raise MalformedProblemError("row has wrong width")
        out.append(([(j, a) for j, a in enumerate(coeffs) if a], lo, hi))
    return out


class _Simplex:
    """Tableau state over all variables: the structurals, then one slack
    column per ranged row, all in integers.

    T holds one dict per row mapping column index to a nonzero numerator
    over D; the basic column of row r reads D there.  d holds the reduced
    costs and z the objective value as numerators over D.  lower and upper
    are the integer boxes.  A nonbasic column sits at the bound where names
    ("L" or "U"), so only basic values are stored: beta[r] is the value of
    basis[r] as a numerator over D.
    """

    @staticmethod
    def slack_start(objective, rows, lower, upper) -> "_Simplex":
        """All-slack basis of ranged rows (support, lo, hi), dual feasible.

        The costs and the boxes lower, upper are ints.  Row r reads
        s_r - a_r . x = 0 with its slack s_r boxed to [lo, hi].  Each
        structural sits at the bound its cost prefers (the lower one at cost
        zero), so every reduced cost has the optimal sign already.
        """
        s = object.__new__(_Simplex)
        n, m = len(objective), len(rows)
        s.ns, s.m, s.nv = n, m, n + m
        s.D = 1
        s.where = ["U" if c > 0 else "L" for c in objective] + ["B"] * m
        x = [upper[j] if c > 0 else lower[j] for j, c in enumerate(objective)]
        s.lower = list(lower) + [lo for _, lo, _ in rows]
        s.upper = list(upper) + [hi for _, _, hi in rows]
        s.T = []
        s.beta = []
        for r, (support, _, _) in enumerate(rows):
            trow = {j: -a for j, a in support}
            trow[n + r] = 1
            s.T.append(trow)
            s.beta.append(sum(a * x[j] for j, a in support))
        s.basis = list(range(n, n + m))
        s.d = list(objective) + [0] * m
        s.z = sum(c * x[j] for j, c in enumerate(objective) if c)
        return s

    def set_box(self, j: int, lo: int, hi: int) -> None:
        """Replace column j's box with [lo, hi], keeping the basis dual
        feasible.

        A nonbasic j moves to the bound its reduced cost prefers, as in
        slack_start: the upper one when d_j > 0, the lower one when d_j < 0.
        With d_j = 0, or a point box lo = hi, it stays on its side.  A basic
        j keeps its value; the dual simplex repairs a value left outside.
        """
        side = self.where[j]
        was = self.lower[j] if side == "L" else self.upper[j]
        self.lower[j] = lo
        self.upper[j] = hi
        if side == "B":
            return
        if lo != hi and self.d[j]:
            side = self.where[j] = "U" if self.d[j] > 0 else "L"
        self._shift_nonbasic(j, (lo if side == "L" else hi) - was)

    def add_row(self, support, lo: int, hi: int, row_of) -> None:
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
        lower.append(lo)
        upper.append(hi)
        self.d.append(0)
        self.m += 1
        self.nv += 1

    def _copy(self) -> "_Simplex":
        s = object.__new__(_Simplex)
        s.ns, s.m, s.nv = self.ns, self.m, self.nv
        s.D = self.D
        s.lower = self.lower[:]
        s.upper = self.upper[:]
        s.beta = self.beta[:]
        s.where = self.where[:]
        s.basis = self.basis[:]
        s.T = [row.copy() for row in self.T]
        s.d = self.d[:]
        s.z = self.z
        return s

    def _pivot(self, r: int, e: int, bound: int) -> None:
        """Column e enters on row r, whose basic leaves at bound.

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
        # column e moves by delta / D', which takes the leaving basic to bound
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
        """Move nonbasic variable j by delta, updating basics and z."""
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
        lower, upper, where, d, basis, beta, T = (
            self.lower, self.upper, self.where, self.d, self.basis, self.beta, self.T,
        )
        degenerate = 0
        fallback = 50 + 2 * (self.m + self.nv)
        bland = False
        while True:
            D = self.D
            # violations are numerators over D
            r_best = -1
            best_viol = 0
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
                    better = viol > best_viol or (viol == best_viol and bv < basis[r_best])
                if better:
                    r_best, best_viol, to_upper = r, viol, side
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
    """The audited optimum of s; objective and rows are the program it solves."""
    n, D = s.ns, s.D
    lower, upper, where = s.lower, s.upper, s.where
    # every structural's value as a numerator over D
    x = [D * (lower[j] if where[j] == "L" else upper[j]) for j in range(n)]
    for r, j in enumerate(s.basis):
        if j < n:
            x[j] = s.beta[r]
    # exactness audit: the reported optimum is the objective at the point,
    # the point meets every row's range exactly and sits inside the live box
    check = sum(c * x[j] for j, c in enumerate(objective) if c)
    if check != s.z:
        raise InternalInconsistencyError(
            f"objective at the point {Fraction(check, D)} != tableau value {Fraction(s.z, D)}")
    for r, (support, lo, hi) in enumerate(rows):
        ax = sum(a * x[j] for j, a in support)
        if not lo * D <= ax <= hi * D:
            raise InternalInconsistencyError(f"row {r} reads {Fraction(ax, D)}, outside [{lo}, {hi}]")
    for j in range(n):
        if not D * lower[j] <= x[j] <= D * upper[j]:
            raise InternalInconsistencyError(f"variable {j} = {Fraction(x[j], D)} leaves its box")
    # optimality audit: no column can improve the objective, so a basic one
    # has reduced cost zero and a nonbasic one with room to move a cost that
    # pushes it against the bound it sits at (<= 0 at lower, >= 0 at upper)
    for j, dj in enumerate(s.d):
        if dj and (where[j] == "B" or (lower[j] != upper[j] and (dj > 0) == (where[j] == "L"))):
            raise InternalInconsistencyError(
                f"column {j} ({where[j]}) has reduced cost {Fraction(dj, D)} of the wrong sign")
    return LpResult(OPTIMAL, tuple(Fraction(v, D) for v in x), Fraction(s.z, D))


def _finish(s: _Simplex, objective, rows):
    """The dual simplex, then the audits; (LpResult, WarmLp or None)."""
    if not s.dual_iterate():
        return LpResult(INFEASIBLE), None
    return _extract(s, objective, rows), WarmLp(objective, rows, s)


class WarmLp:
    """A solved tableau that supports exact re-optimization after edits.

    Holds the optimal basis of one LP together with its objective and its
    rows, each as (support, lo, hi), meaning lo <= a . x <= hi over the
    nonzero coefficients in support (an equality row has lo = hi).  edited()
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
        """Current (lower, upper) box of structural variable j, as ints."""
        s = self._simplex
        return s.lower[j], s.upper[j]

    def edited(self, boxes=(), rows=()):
        """Re-solve with boxes (j, lower, upper) set and rows (coeffs, lo, hi) added.

        Each added row reads lo <= coeffs . x <= hi over the structurals.  An
        empty box or range makes the result Infeasible; a box index that
        names no structural column, a row of the wrong width or an entry
        that is not an int raises MalformedProblemError.  Returns
        (LpResult, WarmLp or None); the state is None exactly when the
        result is not Optimal.
        """
        s = self._simplex
        boxes = [(j, *_ints((lo, hi))) for j, lo, hi in boxes]
        for j, _, _ in boxes:
            if j not in range(s.ns):
                raise MalformedProblemError(f"box index {j!r} names no structural column")
        rows = _ranged(_int_rows(rows), s.ns)
        if any(lo > hi for _, lo, hi in boxes) or any(lo > hi for _, lo, hi in rows):
            return LpResult(INFEASIBLE), None
        s = s._copy()
        for j, lo, hi in boxes:
            s.set_box(j, lo, hi)
        if rows:
            row_of = {col: r for r, col in enumerate(s.basis) if col < s.ns}
            for support, lo, hi in rows:
                s.add_row(support, lo, hi, row_of)
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
    rows = _ranged(p.rows, len(p.objective))
    if any(lo > hi for _, lo, hi in rows):
        return LpResult(INFEASIBLE), None
    s = _Simplex.slack_start(p.objective, rows, p.lower, p.upper)
    return _finish(s, p.objective, rows)


def solve_lp(p: LpProblem) -> LpResult:
    """Exact optimum of p; solve_lp_warm without the warm state."""
    return solve_lp_warm(p)[0]
