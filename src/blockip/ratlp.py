"""Exact rational linear programming.

Bounded-variable simplex over fractions.Fraction.  The entering rule is
Dantzig (largest reduced-cost improvement) with a fallback to Bland's rule
after a run of degenerate pivots, so the method is fast in practice and
still provably finite.  Tableau rows are sparse maps from column to nonzero
coefficient: the programs the structured solvers build are block angular, and
their bases keep the tableau sparse, so row operations touch only the support
instead of every column.  Built for correctness at desk scale: every pivot is
exact, so the returned optimum is the true rational optimum, not an
approximation.

Two cold starts.  solve_lp and solve_lp_warm take an equality-form
LpProblem and run two phases with one artificial per row.  solve_lp_ranged
takes ranged rows lo <= a . x <= hi, gives each row its own bounded slack
and starts from the all-slack basis with every structural at the bound its
cost prefers.  That basis is dual feasible by construction, so the dual
simplex alone reaches the optimum: no artificials, no phase 1.

The warm path is WarmLp, the optimal tableau of either start.
WarmLp.edited changes structural boxes and adds ranged rows, then re-solves
from the old basis.  A box edit moves a nonbasic column with the bound it
sits at, and a new row enters with its slack basic after the basic columns
are substituted out of it; neither changes a reduced cost, so the basis
stays dual feasible and a dual simplex pass restores primal feasibility in a
few pivots instead of a cold solve.  (Unfixing a column can break dual
feasibility; the primal pass that ends every re-solve repairs that.)  Branch
and bound leans on the box edits (WarmLp.reoptimized: each child differs
from its parent by one tightened bound); the all-ones aggregate search leans
on both, carrying one tableau from box to box and adding each new cut as a
row.  A warm pass that runs out of its pivot budget rebuilds cold from the
slack start over all rows, where the dual simplex switches to Bland's rule
after a degenerate run and so always finishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInconsistencyError, MalformedProblemError, UnboundedError

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"


@dataclass(frozen=True)
class LpProblem:
    """max objective . x  s.t.  eq_matrix . x = eq_rhs, lower <= x <= upper.

    make stores every field as a list of Fractions (the matrix as a list of
    rows).  The solvers build and drop many small programs; lists of their
    widths, unlike tuples, do not pile up in CPython's per-size tuple free
    lists, which measurably raised peak memory.  Treat the fields as
    read-only.
    """

    objective: list
    eq_matrix: list
    eq_rhs: list
    lower: list
    upper: list

    @staticmethod
    def make(objective, eq_matrix, eq_rhs, lower, upper) -> "LpProblem":
        return LpProblem(
            [Fraction(c) for c in objective],
            [[Fraction(a) for a in row] for row in eq_matrix],
            [Fraction(v) for v in eq_rhs],
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
    if len(p.eq_matrix) != len(p.eq_rhs):
        raise MalformedProblemError("matrix and rhs disagree on row count")
    for row in p.eq_matrix:
        if len(row) != n:
            raise MalformedProblemError("matrix row has wrong width")
    for j in range(n):
        if p.lower[j] > p.upper[j]:
            raise MalformedProblemError(f"lower[{j}] > upper[{j}]")


def _row_support(p: LpProblem):
    """Rows of the equality system as (column, coefficient) lists."""
    return [[(j, a) for j, a in enumerate(row) if a] for row in p.eq_matrix]


class _Simplex:
    """Tableau state over all variables: the structurals, then one column per
    row (an artificial of the two-phase start or a ranged row's slack).

    T holds one dict per row mapping column index to a nonzero Fraction;
    entries that cancel are deleted so the support never carries zeros.
    """

    def __init__(self, p: LpProblem):
        self.ns = len(p.objective)
        self.m = len(p.eq_matrix)
        self.nv = self.ns + self.m
        n, m = self.ns, self.m
        self.lower = list(p.lower) + [Fraction(0)] * m
        self.upper = list(p.upper) + [None] * m  # None: artificial, no cap yet
        self.val = [p.lower[j] for j in range(n)] + [Fraction(0)] * m
        self.where = ["L"] * n + ["B"] * m
        self.basis = list(range(n, n + m))
        # residual b - A.l decides the artificial orientation per row
        self.T = []
        for r in range(m):
            row = p.eq_matrix[r]
            resid = p.eq_rhs[r] - sum(row[j] * p.lower[j] for j in range(n) if row[j])
            sign = 1 if resid >= 0 else -1
            trow = {j: sign * a for j, a in enumerate(row) if a}
            trow[n + r] = Fraction(1)
            self.T.append(trow)
            self.val[n + r] = abs(resid)
        self.d = [Fraction(0)] * self.nv
        self.z = Fraction(0)

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
        s.z = sum(c * s.val[j] for j, c in enumerate(objective) if c)
        return s

    def set_box(self, j: int, lo: Fraction, hi: Fraction) -> None:
        """Replace column j's box; a nonbasic j moves with the bound it sits at."""
        self.lower[j] = lo
        self.upper[j] = hi
        if self.where[j] == "L":
            self._shift_nonbasic(j, lo - self.val[j])
        elif self.where[j] == "U":
            self._shift_nonbasic(j, hi - self.val[j])

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

    def set_objective(self, c) -> None:
        # reduced costs d = c - c_B . T, objective value at the current point
        T, basis = self.T, self.basis
        d = list(c)
        for r in range(self.m):
            cb = c[basis[r]]
            if cb:
                for j, a in T[r].items():
                    d[j] -= cb * a
        self.d = d
        self.z = sum(c[j] * self.val[j] for j in range(self.nv) if c[j])

    def _pivot(self, r: int, e: int) -> int:
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
        leaving = self.basis[r]
        self.basis[r] = e
        self.where[e] = "B"
        return leaving

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

    def iterate(self) -> None:
        """Run primal simplex to optimality for the current objective."""
        lower, upper, val, where, d, T = (
            self.lower, self.upper, self.val, self.where, self.d, self.T,
        )
        degenerate = 0
        fallback = 50 + 2 * (self.m + self.nv)
        bland = False
        while True:
            enter = -1
            direction = 0
            best = None
            for j in range(self.nv):
                if where[j] == "B":
                    continue
                uj = upper[j]
                if uj is not None and lower[j] == uj:
                    continue  # fixed variable can never improve
                dj = d[j]
                if where[j] == "L" and dj > 0:
                    score, dirn = dj, 1
                elif where[j] == "U" and dj < 0:
                    score, dirn = -dj, -1
                else:
                    continue
                if bland:
                    enter, direction = j, dirn
                    break
                if best is None or score > best:
                    best, enter, direction = score, j, dirn
            if enter < 0:
                return
            # ratio test: basic variables move by -direction * T[r][enter] * t
            ue = upper[enter]
            tmax = None if ue is None else ue - lower[enter]
            leave_row = -1
            for r in range(self.m):
                a = T[r].get(enter)
                if a is None:
                    continue
                rate = a * direction
                if rate > 0:
                    allowance = (val[self.basis[r]] - lower[self.basis[r]]) / rate
                else:
                    ub = upper[self.basis[r]]
                    if ub is None:
                        continue
                    allowance = (ub - val[self.basis[r]]) / (-rate)
                if (
                    tmax is None
                    or allowance < tmax
                    or (allowance == tmax and leave_row >= 0 and self.basis[r] < self.basis[leave_row])
                ):
                    tmax = allowance
                    leave_row = r
            if tmax is None:
                raise UnboundedError("no blocking bound; problem misses a finite bound")
            if tmax != 0:
                val[enter] += direction * tmax
                for r in range(self.m):
                    a = T[r].get(enter)
                    if a:
                        val[self.basis[r]] -= direction * a * tmax
                self.z += d[enter] * direction * tmax
                degenerate = 0
            else:
                # a long degenerate streak risks cycling; Bland's rule ends it
                degenerate += 1
                if degenerate >= fallback:
                    bland = True
            if leave_row < 0:
                where[enter] = "U" if direction > 0 else "L"
            else:
                rate = T[leave_row][enter] * direction
                leaving = self.basis[leave_row]
                bound = lower[leaving] if rate > 0 else upper[leaving]
                val[leaving] = bound
                self._pivot(leave_row, enter)
                if leaving != enter:
                    self.where[leaving] = "L" if rate > 0 else "U"

    def dual_iterate(self, max_pivots: int | None = None) -> bool | None:
        """Restore primal feasibility from a dual feasible basis.

        Picks the most bound-violated basic variable, then the entering column
        by the exact dual ratio test, so the reduced-cost sign pattern (and
        with it optimality on exit) is preserved.  Returns True when primal
        feasible, False when a row proves the problem infeasible, and None
        when the pivot budget runs out (caller falls back to a cold solve).
        Without a budget, a long run of degenerate pivots switches to Bland's
        rule (the violated basic of smallest index leaves), which cannot
        cycle, so the pass always finishes.
        """
        lower, upper, val, where, d, basis = (
            self.lower, self.upper, self.val, self.where, self.d, self.basis,
        )
        pivots = 0
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
                    if up is None or v <= up:
                        continue
                    viol, side = v - up, True
                if r_best < 0 or (
                    bv < basis[r_best] if bland
                    else viol > best_viol or (viol == best_viol and bv < basis[r_best])
                ):
                    r_best, best_viol, to_upper = r, viol, side
            if r_best < 0:
                return True
            if max_pivots is not None and pivots >= max_pivots:
                return None
            pivots += 1
            r = r_best
            leaving = basis[r]
            Tr = self.T[r]
            # entering column: admissible sign pattern, tightest dual ratio
            enter = -1
            best_key = None
            for j, a in Tr.items():
                if where[j] == "B":
                    continue
                uj = upper[j]
                if uj is not None and lower[j] == uj:
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
            if max_pivots is None:
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
            self.where[leaving] = "L" if not to_upper else "U"


def _run_phases(p: LpProblem) -> _Simplex | None:
    """Two-phase solve; returns the optimal tableau or None when infeasible."""
    n = len(p.objective)
    m = len(p.eq_matrix)
    s = _Simplex(p)

    # phase 1: drive artificial variables to zero
    phase1 = [Fraction(0)] * n + [Fraction(-1)] * m
    s.set_objective(phase1)
    s.iterate()
    if s.z < 0:
        return None
    for r in range(m):
        if s.basis[r] >= n:
            # degenerate artificial still basic at zero: swap a structural
            # column in, or accept the row as redundant and pin it
            pivot_col = min(
                (j for j, a in s.T[r].items() if j < n and s.where[j] != "B"),
                default=None,
            )
            if pivot_col is not None:
                old = s.basis[r]
                if s.val[old] != 0:
                    raise InternalInconsistencyError(
                        f"artificial {old} is basic at {s.val[old]} after phase 1"
                    )
                s._pivot(r, pivot_col)
                s.where[old] = "L"
                s.val[old] = Fraction(0)
    for a in range(n, n + m):
        s.upper[a] = Fraction(0)

    # phase 2: the real objective over the feasible tableau
    phase2 = list(p.objective) + [Fraction(0)] * m
    s.set_objective(phase2)
    s.iterate()
    return s


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
    return LpResult(OPTIMAL, point, value)


def _equality_rows(p: LpProblem):
    """p's equality rows as ranged rows (support, rhs, rhs)."""
    return [(support, b, b) for support, b in zip(_row_support(p), p.eq_rhs)]


def solve_lp(p: LpProblem) -> LpResult:
    """Exact optimum of a bounded-variable equality-form LP."""
    _validate(p)
    if len(p.objective) == 0:
        ok = all(r == 0 for r in p.eq_rhs)
        return LpResult(OPTIMAL, (), Fraction(0)) if ok else LpResult(INFEASIBLE)
    s = _run_phases(p)
    if s is None:
        return LpResult(INFEASIBLE)
    return _extract(s, p.objective, _equality_rows(p))


def _warm_budget(s: _Simplex) -> int:
    """Dual pivots a warm re-solve may spend before it rebuilds cold."""
    return 200 + 4 * (s.m + s.nv)


def _finish(s: _Simplex, objective, rows, max_pivots):
    """Dual simplex, then the primal pass; (LpResult, WarmLp or None)."""
    ok = s.dual_iterate(max_pivots)
    if ok is None:
        # degenerate stall: rebuild cold from the slack start over every row
        s = _Simplex.slack_start(objective, rows, s.lower[:s.ns], s.upper[:s.ns])
        ok = s.dual_iterate()
    if not ok:
        return LpResult(INFEASIBLE), None
    # a box edit can reopen primal moves; from a feasible point the primal
    # pass finishes in zero pivots when already optimal
    s.iterate()
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
        empty box or range makes the result Infeasible.  Returns (LpResult,
        WarmLp or None); the state is None exactly when the result is not
        Optimal.
        """
        s = self._simplex
        boxes = [(j, Fraction(lo), Fraction(hi)) for j, lo, hi in boxes]
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
        return _finish(s, self._objective, self._rows + rows if rows else self._rows, _warm_budget(s))

    def reoptimized(self, j: int, new_lower, new_upper):
        """Re-solve with variable j's box set to [new_lower, new_upper].

        Returns (LpResult, WarmLp or None).  The state is None exactly when
        the result is not Optimal.
        """
        return self.edited(boxes=((j, new_lower, new_upper),))


def solve_lp_warm(p: LpProblem):
    """Like solve_lp but also returns a WarmLp for re-solves after edits.

    The state is None exactly when the result is not Optimal (and for the
    degenerate zero-variable program, which has nothing to re-optimize).
    """
    _validate(p)
    if len(p.objective) == 0:
        ok = all(r == 0 for r in p.eq_rhs)
        return (LpResult(OPTIMAL, (), Fraction(0)), None) if ok else (LpResult(INFEASIBLE), None)
    s = _run_phases(p)
    if s is None:
        return LpResult(INFEASIBLE), None
    rows = _equality_rows(p)
    return _extract(s, p.objective, rows), WarmLp(p.objective, rows, s)


def solve_lp_ranged(objective, rows, lower, upper):
    """max objective . x  s.t.  lo <= a . x <= hi per row, lower <= x <= upper.

    rows holds (coefficients, lo, hi).  Solved by the dual simplex from the
    all-slack basis (no artificials, no phase 1).  An empty box or range
    makes the result Infeasible.  Returns (LpResult, WarmLp or None) like
    solve_lp_warm.
    """
    n = len(objective)
    if len(lower) != n or len(upper) != n:
        raise MalformedProblemError("objective and bounds disagree on variable count")
    objective = [Fraction(c) for c in objective]
    lower = [Fraction(v) for v in lower]
    upper = [Fraction(v) for v in upper]
    rows = _ranged(rows, n)
    if any(lo > hi for lo, hi in zip(lower, upper)) or any(lo > hi for _, lo, hi in rows):
        return LpResult(INFEASIBLE), None
    return _finish(_Simplex.slack_start(objective, rows, lower, upper), objective, rows, None)
