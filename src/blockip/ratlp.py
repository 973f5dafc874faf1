"""Exact rational linear programming.

One algorithm: the bounded-variable dual simplex over fractions.Fraction.
The leaving row is the most bound-violated basic variable, with a fallback
to Bland's rule after a run of degenerate pivots, so the method is fast in
practice and still provably finite.  Tableau rows are sparse maps from
column to nonzero coefficient: the programs the structured solvers build are
block angular, and their bases keep the tableau sparse, so row operations
touch only the support instead of every column.  Built for correctness at
desk scale: every pivot is exact, so the returned optimum is the true
rational optimum, not an approximation.

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
substituted out of it, which changes no reduced cost.  A dual simplex pass
then restores primal feasibility in a few pivots instead of a cold solve.
Branch and bound leans on the box edits (WarmLp.reoptimized: each child
differs from its parent by one tightened bound); the all-ones aggregate
search leans on both, carrying one tableau from box to box and adding each
new cut as a row.

Every Optimal result is audited with explicit raises, so the audits still
run under python -O: the point meets every row and box and its objective is
the tableau value, and every reduced cost has its optimal sign (zero on a
basic column; at most zero at a lower bound and at least zero at an upper
bound, unless the box is a point).  A failed audit raises
InternalInconsistencyError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInconsistencyError, MalformedProblemError

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"


@dataclass(frozen=True)
class LpProblem:
    """max objective . x  s.t.  lo <= a . x <= hi per row, lower <= x <= upper.

    rows holds one (coefficients, lo, hi) per row; an equality row has
    lo = hi.  make stores objective, bounds and each row's coefficients as
    lists of Fractions.  The solvers build and drop many small programs;
    lists of their widths, unlike tuples, do not pile up in CPython's
    per-size tuple free lists, which measurably raised peak memory.  Treat
    the fields as read-only.
    """

    objective: list
    rows: list
    lower: list
    upper: list

    @staticmethod
    def make(objective, rows, lower, upper) -> "LpProblem":
        return LpProblem(
            [Fraction(c) for c in objective],
            [([Fraction(a) for a in coeffs], Fraction(lo), Fraction(hi)) for coeffs, lo, hi in rows],
            [Fraction(v) for v in lower],
            [Fraction(v) for v in upper],
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


class _Simplex:
    """Tableau state over all variables: the structurals, then one slack
    column per ranged row.

    T holds one dict per row mapping column index to a nonzero Fraction;
    entries that cancel are deleted so the support never carries zeros.
    """

    @staticmethod
    def slack_start(objective, rows, lower, upper) -> "_Simplex":
        """All-slack basis of ranged rows (support, lo, hi), dual feasible.

        Row r reads s_r - a_r . x = 0 with its slack s_r boxed to [lo, hi].
        Each structural sits at the bound its cost prefers (the lower one at
        cost zero), so every reduced cost has the optimal sign already.
        """
        s = object.__new__(_Simplex)
        n, m = len(objective), len(rows)
        s.ns, s.m, s.nv = n, m, n + m
        s.where = ["U" if c > 0 else "L" for c in objective] + ["B"] * m
        s.val = [upper[j] if s.where[j] == "U" else lower[j] for j in range(n)]
        s.lower = list(lower)
        s.upper = list(upper)
        s.T = []
        for r, (support, lo, hi) in enumerate(rows):
            trow = {j: -a for j, a in support}
            trow[n + r] = Fraction(1)
            s.T.append(trow)
            s.val.append(sum(a * s.val[j] for j, a in support))
            s.lower.append(lo)
            s.upper.append(hi)
        s.basis = list(range(n, n + m))
        s.d = list(objective) + [Fraction(0)] * m
        s.z = sum((c * s.val[j] for j, c in enumerate(objective) if c), Fraction(0))
        return s

    def set_box(self, j: int, lo: Fraction, hi: Fraction) -> None:
        """Replace column j's box, keeping the basis dual feasible.

        A nonbasic j moves to the bound its reduced cost prefers, as in
        slack_start: the upper one when d_j > 0, the lower one when d_j < 0.
        With d_j = 0, or a point box lo = hi, it stays on its side.  A basic
        j keeps its value; the dual simplex repairs a value left outside.
        """
        self.lower[j] = lo
        self.upper[j] = hi
        side = self.where[j]
        if side == "B":
            return
        if lo != hi and self.d[j]:
            side = self.where[j] = "U" if self.d[j] > 0 else "L"
        self._shift_nonbasic(j, (lo if side == "L" else hi) - self.val[j])

    def add_row(self, support, lo: Fraction, hi: Fraction, row_of) -> None:
        """Append the ranged row lo <= a . x <= hi with its slack basic.

        row_of maps each basic structural column to its tableau row; those
        columns are substituted out so the new row holds nonbasics only.
        The slack has cost zero, so no reduced cost changes.
        """
        col = self.nv
        trow = {col: Fraction(1)}
        for j, a in support:
            r = row_of.get(j)
            if r is None:
                terms = ((j, -a),)
            else:
                terms = ((k, a * b) for k, b in self.T[r].items() if k != j)
            for k, b in terms:
                v = trow.get(k, 0) + b
                if v:
                    trow[k] = v
                else:
                    trow.pop(k, None)
        self.T.append(trow)
        self.basis.append(col)
        self.where.append("B")
        self.val.append(sum(a * self.val[j] for j, a in support))
        self.lower.append(lo)
        self.upper.append(hi)
        self.d.append(Fraction(0))
        self.m += 1
        self.nv += 1

    def _copy(self) -> "_Simplex":
        s = object.__new__(_Simplex)
        s.ns, s.m, s.nv = self.ns, self.m, self.nv
        s.lower = self.lower[:]
        s.upper = self.upper[:]
        s.val = self.val[:]
        s.where = self.where[:]
        s.basis = self.basis[:]
        s.T = [row.copy() for row in self.T]
        s.d = self.d[:]
        s.z = self.z
        return s

    def _pivot(self, r: int, e: int) -> None:
        # all updates mutate the existing dicts: callers hold aliases to rows
        T = self.T
        Tr = T[r]
        piv = Tr[e]
        if piv != 1:
            inv = Fraction(1) / piv
            for j in Tr:
                Tr[j] *= inv
        for i in range(self.m):
            if i == r:
                continue
            Ti = T[i]
            f = Ti.get(e)
            if f is None:
                continue
            for j, b in Tr.items():
                v = Ti.get(j)
                if v is None:
                    Ti[j] = -f * b
                else:
                    v = v - f * b
                    if v:
                        Ti[j] = v
                    else:
                        del Ti[j]
        de = self.d[e]
        if de:
            d = self.d
            for j, b in Tr.items():
                d[j] -= de * b
        self.basis[r] = e
        self.where[e] = "B"

    def _shift_nonbasic(self, j: int, delta: Fraction) -> None:
        """Move nonbasic variable j by delta, updating basics and the value."""
        if delta == 0:
            return
        val, T, basis = self.val, self.T, self.basis
        val[j] += delta
        for r in range(self.m):
            a = T[r].get(j)
            if a:
                val[basis[r]] -= a * delta
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
        lower, upper, val, where, d, basis = (
            self.lower, self.upper, self.val, self.where, self.d, self.basis,
        )
        degenerate = 0
        fallback = 50 + 2 * (self.m + self.nv)
        bland = False
        while True:
            r_best = -1
            best_viol = Fraction(0)
            to_upper = False
            for r in range(self.m):
                bv = basis[r]
                v = val[bv]
                lo = lower[bv]
                if v < lo:
                    viol, side = lo - v, False
                else:
                    up = upper[bv]
                    if v <= up:
                        continue
                    viol, side = v - up, True
                if r_best < 0 or (
                    bv < basis[r_best] if bland
                    else viol > best_viol or (viol == best_viol and bv < basis[r_best])
                ):
                    r_best, best_viol, to_upper = r, viol, side
            if r_best < 0:
                return True
            r = r_best
            leaving = basis[r]
            Tr = self.T[r]
            # entering column: admissible sign pattern, tightest dual ratio
            enter = -1
            best_key = None
            for j, a in Tr.items():
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
                key = d[j] / a
                if to_upper:
                    key = -key
                if best_key is None or key < best_key or (key == best_key and j < enter):
                    best_key, enter = key, j
            if enter < 0:
                return False  # the violated row admits no compensating move
            # a zero dual ratio leaves the dual objective unchanged
            degenerate = degenerate + 1 if best_key == 0 else 0
            bland = bland or degenerate >= fallback
            bound = lower[leaving] if not to_upper else upper[leaving]
            delta = -(bound - val[leaving]) / Tr[enter]
            val[enter] += delta
            for i in range(self.m):
                if i == r:
                    continue
                a = self.T[i].get(enter)
                if a:
                    val[basis[i]] -= a * delta
            val[leaving] = bound
            self.z += d[enter] * delta
            self._pivot(r, enter)
            where[leaving] = "L" if not to_upper else "U"


def _extract(s: _Simplex, objective, rows) -> LpResult:
    n = s.ns
    point = tuple(s.val[:n])
    value = s.z
    # exactness audit: the reported optimum is the objective at the point,
    # the point meets every row's range exactly and sits inside the live box
    check = sum(objective[j] * point[j] for j in range(n) if objective[j])
    if check != value:
        raise InternalInconsistencyError(f"objective at the point {check} != tableau value {value}")
    for r, (support, lo, hi) in enumerate(rows):
        ax = sum(a * point[j] for j, a in support)
        if not lo <= ax <= hi:
            raise InternalInconsistencyError(f"row {r} reads {ax}, outside [{lo}, {hi}]")
    for j in range(n):
        if not s.lower[j] <= point[j] <= s.upper[j]:
            raise InternalInconsistencyError(f"variable {j} = {point[j]} leaves its box")
    # optimality audit: no column can improve the objective, so a basic one
    # has reduced cost zero and a nonbasic one with room to move a cost that
    # pushes it against the bound it sits at (<= 0 at lower, >= 0 at upper)
    for j, dj in enumerate(s.d):
        if dj and (s.where[j] == "B" or (
                s.lower[j] != s.upper[j] and (dj > 0) == (s.where[j] == "L"))):
            raise InternalInconsistencyError(
                f"column {j} ({s.where[j]}) has reduced cost {dj} of the wrong sign")
    return LpResult(OPTIMAL, point, value)


def _finish(s: _Simplex, objective, rows):
    """The dual simplex, then the audits; (LpResult, WarmLp or None)."""
    if not s.dual_iterate():
        return LpResult(INFEASIBLE), None
    return _extract(s, objective, rows), WarmLp(objective, rows, s)


def _ranged(rows, n):
    """Ranged rows (coefficients, lo, hi) as (support, lo, hi) of Fractions."""
    out = []
    for coeffs, lo, hi in rows:
        if len(coeffs) != n:
            raise MalformedProblemError("row has wrong width")
        out.append(([(j, Fraction(a)) for j, a in enumerate(coeffs) if a], Fraction(lo), Fraction(hi)))
    return out


class WarmLp:
    """A solved tableau that supports exact re-optimization after edits.

    Holds the optimal basis of one LP together with its objective and its
    rows as (support, lo, hi), meaning lo <= a . x <= hi (an equality row
    has lo = hi).  edited() produces the result for the same program with
    structural boxes replaced and ranged rows added, starting the dual
    simplex from this basis, and returns a fresh WarmLp so re-solves chain.
    The receiver itself is never mutated, so several successors (both
    children of a branch step, both halves of a split box) can reuse one
    parent state.
    """

    def __init__(self, objective, rows, simplex: _Simplex):
        self._objective = objective
        self._rows = rows
        self._simplex = simplex

    def bounds(self, j: int):
        """Current (lower, upper) box of structural variable j."""
        return self._simplex.lower[j], self._simplex.upper[j]

    def edited(self, boxes=(), rows=()):
        """Re-solve with boxes (j, lower, upper) set and rows (coeffs, lo, hi) added.

        Each added row reads lo <= coeffs . x <= hi over the structurals.  An
        empty box or range makes the result Infeasible; a box index that
        names no structural column raises MalformedProblemError.  Returns
        (LpResult, WarmLp or None); the state is None exactly when the
        result is not Optimal.
        """
        s = self._simplex
        boxes = [(j, Fraction(lo), Fraction(hi)) for j, lo, hi in boxes]
        for j, _, _ in boxes:
            if j not in range(s.ns):
                raise MalformedProblemError(f"box index {j!r} names no structural column")
        rows = _ranged(rows, s.ns)
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
    rows = [([(j, a) for j, a in enumerate(coeffs) if a], lo, hi) for coeffs, lo, hi in p.rows]
    if any(lo > hi for _, lo, hi in rows):
        return LpResult(INFEASIBLE), None
    s = _Simplex.slack_start(p.objective, rows, p.lower, p.upper)
    return _finish(s, p.objective, rows)


def solve_lp(p: LpProblem) -> LpResult:
    """Exact optimum of p; solve_lp_warm without the warm state."""
    return solve_lp_warm(p)[0]
