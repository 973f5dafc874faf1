"""Exact rational linear programming.

Bounded-variable simplex over fractions.Fraction, two phases.  The entering
rule is Dantzig (largest reduced-cost improvement) with a fallback to Bland's
rule after a run of degenerate pivots, so the method is fast in practice and
still provably finite.  Tableau rows are sparse maps from column to nonzero
coefficient: the programs the structured solvers build are block angular, and
their bases keep the tableau sparse, so row operations touch only the support
instead of every column.  Built for correctness at desk scale: every pivot is
exact, so the returned optimum is the true rational optimum, not an
approximation.

Besides the one-shot solve_lp there is a warm path: solve_lp_warm returns the
optimal tableau wrapped in a WarmLp, and WarmLp.reoptimized re-solves after a
single variable's box changes.  The old basis stays dual feasible under a
bound change, so a dual simplex pass restores feasibility in a few pivots
instead of a cold two-phase solve.  Branch and bound leans on this: each child
differs from its parent by one tightened bound.
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
    """Tableau state over all variables (structural + one artificial per row).

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

    def dual_iterate(self, max_pivots: int) -> bool | None:
        """Restore primal feasibility from a dual feasible basis.

        Picks the most bound-violated basic variable, then the entering column
        by the exact dual ratio test, so the reduced-cost sign pattern (and
        with it optimality on exit) is preserved.  Returns True when primal
        feasible, False when a row proves the problem infeasible, and None
        when the pivot budget runs out (caller falls back to a cold solve).
        """
        lower, upper, val, where, d, basis = (
            self.lower, self.upper, self.val, self.where, self.d, self.basis,
        )
        pivots = 0
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
                if viol > best_viol or (
                    viol == best_viol and r_best >= 0 and bv < basis[r_best]
                ):
                    r_best, best_viol, to_upper = r, viol, side
            if r_best < 0:
                return True
            if pivots >= max_pivots:
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


def _extract(s: _Simplex, p: LpProblem, rows=None) -> LpResult:
    n = s.ns
    point = tuple(s.val[:n])
    value = s.z
    # exactness audit: the reported optimum is the objective at the point,
    # the point satisfies every row exactly and sits inside the live box
    check = sum(p.objective[j] * point[j] for j in range(n) if p.objective[j])
    if check != value:
        raise InternalInconsistencyError(f"objective at the point {check} != tableau value {value}")
    if rows is None:
        rows = _row_support(p)
    for r, row in enumerate(rows):
        resid = sum(a * point[j] for j, a in row) - p.eq_rhs[r]
        if resid != 0:
            raise InternalInconsistencyError(f"row {r} misses its right-hand side by {resid}")
    for j in range(n):
        if not s.lower[j] <= point[j] <= s.upper[j]:
            raise InternalInconsistencyError(f"variable {j} = {point[j]} leaves its box")
    return LpResult(OPTIMAL, point, value)


def solve_lp(p: LpProblem) -> LpResult:
    """Exact optimum of a bounded-variable equality-form LP."""
    _validate(p)
    if len(p.objective) == 0:
        ok = all(r == 0 for r in p.eq_rhs)
        return LpResult(OPTIMAL, (), Fraction(0)) if ok else LpResult(INFEASIBLE)
    s = _run_phases(p)
    if s is None:
        return LpResult(INFEASIBLE)
    return _extract(s, p)


class WarmLp:
    """A solved tableau that supports exact re-optimization after bound edits.

    Holds the optimal basis of one LP.  reoptimized() produces the result for
    the same program with one variable's box replaced, starting the dual
    simplex from this basis, and returns a fresh WarmLp so re-solves chain.
    The receiver itself is never mutated, so both children of a branch step
    can reuse one parent state.
    """

    def __init__(self, problem: LpProblem, simplex: _Simplex, rows=None):
        self._problem = problem
        self._simplex = simplex
        self._rows = _row_support(problem) if rows is None else rows

    def bounds(self, j: int):
        """Current (lower, upper) box of structural variable j."""
        return self._simplex.lower[j], self._simplex.upper[j]

    def reoptimized(self, j: int, new_lower, new_upper):
        """Re-solve with variable j's box set to [new_lower, new_upper].

        Returns (LpResult, WarmLp or None).  The state is None exactly when
        the result is not Optimal.
        """
        nl, nu = Fraction(new_lower), Fraction(new_upper)
        if nl > nu:
            return LpResult(INFEASIBLE), None
        s = self._simplex._copy()
        s.lower[j] = nl
        s.upper[j] = nu
        if s.where[j] == "L":
            s._shift_nonbasic(j, nl - s.val[j])
        elif s.where[j] == "U":
            s._shift_nonbasic(j, nu - s.val[j])
        ok = s.dual_iterate(200 + 4 * (s.m + s.nv))
        if ok is None:
            # degenerate stall: rebuild cold on the current bounds
            q = LpProblem(
                self._problem.objective,
                self._problem.eq_matrix,
                self._problem.eq_rhs,
                s.lower[: s.ns],
                s.upper[: s.ns],
            )
            return solve_lp_warm(q)
        if not ok:
            return LpResult(INFEASIBLE), None
        # a widened box can reopen primal moves; from a feasible point the
        # primal pass finishes in zero pivots when already optimal
        s.iterate()
        return _extract(s, self._problem, self._rows), WarmLp(self._problem, s, self._rows)


def solve_lp_warm(p: LpProblem):
    """Like solve_lp but also returns a WarmLp for bound-change re-solves.

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
    rows = _row_support(p)
    return _extract(s, p, rows), WarmLp(p, s, rows)
