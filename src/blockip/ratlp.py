"""Exact linear programming over integer data.

One algorithm: the bounded-variable dual simplex, exact in integer
arithmetic.  The leaving row is the most bound-violated basic variable, with
a fallback to Bland's rule after a run of degenerate pivots, so the method is
fast in practice and still provably finite.  Every pivot is exact, so the
returned optimum is the true rational optimum, not an approximation.

The data are integers: the paper's programs, and every LP the structured
solvers build from them, are integral, and LpProblem and edited reject any
other entry.  The tableau is fraction free (Edmonds 1967; Bareiss 1968):
tableau entries, reduced costs, basic values and the objective value are
integer numerators over one common denominator D, the absolute value of the
basis determinant; it is 1 at the row-less start.  A pivot on entry T_re
turns row i into (D' T_i - T_ie T_r) / D with D' = |T_re| and row r
multiplied by the sign of T_re, and the division is exact because every
entry is a minor of the constraint matrix.  Bounds stay plain integers.
The dual ratio test cross-multiplies instead of dividing, so every choice
is the one the same method makes over fractions.Fraction, and so is every
point.

The tableau is reduced to the nonbasic columns.  With ns structurals and
one slack per row, exactly ns columns are nonbasic whatever the basis, so
each row is a list of ns integers, one per nonbasic position, and the basic
column's own entry, always D, is left implicit.  A pivot rebuilds each row
with one comprehension over two lists, and the leaving column takes the
entering column's position.  Rows are never changed in place, so a copy of
the tableau shares them.

The optimum of an integer LP is rational, and it comes back in integers:
LpResult holds the point as int numerators over one common denominator
den, the tableau's D, and the value as a numerator over den.  Callers that
floor, round or compare coordinates do so with // and %, in integers; point
and value are also available as Fractions, built on first read.

One tableau, one way in.  An LpProblem has ranged rows lo <= a . x <= hi
(an equality row has lo = hi) and boxed columns, so no LP is unbounded.
WarmLp is the tableau: the structurals, then one bounded slack per row.  It
starts with no row, each structural at the bound its cost prefers, which is
optimal for the box alone.  A row enters with its slack basic after the
basic columns are substituted out of it (add_row), which changes neither a
reduced cost nor D, and a box edit moves a nonbasic column to the bound its
reduced cost prefers (set_box).  Every reduced cost keeps its optimal sign
(the boxed-variable start of Koberstein, The Dual Simplex Method, 2005), so
the dual simplex alone restores primal feasibility: no artificials, no
phase 1.  solve_lp_warm adds a program's rows to the row-less start;
WarmLp.edited sets boxes and adds rows on a copy of a solved tableau, so a
re-solve takes a few pivots instead of a cold solve.  Branch and bound
(smallip.best_of) leans on both: a node differs from the parent it is
re-solved from by a few tightened bounds, and by the rows the search has
added since, such as the all-ones search's cuts.

Every Optimal result is audited in integers with explicit raises, so the
audits still run under python -O: the point meets every row and box and its
objective is the tableau value; basis and nonbasic split the columns
between them, as where and pos say; and every nonbasic reduced cost has its
optimal sign (at most zero at a lower bound and at least zero at an upper
bound, unless the box is a point).  A failed audit raises
InternalInconsistencyError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .errors import InternalInconsistencyError, MalformedProblemError
from .model import _SEQS, _check_ints

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"


def _check_rows(rows, n) -> None:
    """MalformedProblemError unless rows is a tuple or list of ranged rows
    (coefficients, lo, hi), each of width n with only int entries."""
    if type(rows) not in _SEQS:
        raise MalformedProblemError(f"rows must be a tuple or list, not {rows!r}")
    for row in rows:
        if type(row) not in _SEQS or len(row) != 3:
            raise MalformedProblemError(f"row {row!r} is not (coefficients, lo, hi)")
        coeffs, lo, hi = row
        _check_ints(coeffs)
        if len(coeffs) != n:
            raise MalformedProblemError("row has wrong width")
        _check_ints((lo, hi))


def _row_lists(rows) -> list:
    """Ranged rows (coefficients, lo, hi) with each coefficient row a list."""
    return [(list(coeffs), lo, hi) for coeffs, lo, hi in rows]


@dataclass(frozen=True)
class LpProblem:
    """max objective . x  s.t.  lo <= a . x <= hi per row, lower <= x <= upper.

    rows holds one (coefficients, lo, hi) per row; an equality row has
    lo = hi.  Every entry is an int: construction, through make or the
    dataclass constructor alike, raises MalformedProblemError for any other
    value, bools, floats and Fractions included, and for a row of the wrong
    width, a box vector of the wrong length or an empty box.  make stores
    lists, not tuples: the solvers build and drop many small programs, and
    lists of their widths do not pile up in CPython's per-size tuple free
    lists.  Treat the fields as read-only.
    """

    objective: list
    rows: list
    lower: list
    upper: list

    def __post_init__(self):
        _check_ints(self.objective)
        n = len(self.objective)
        _check_rows(self.rows, n)
        _check_ints(self.lower)
        _check_ints(self.upper)
        if len(self.lower) != n or len(self.upper) != n:
            raise MalformedProblemError("objective and bounds disagree on variable count")
        for j in range(n):
            if self.lower[j] > self.upper[j]:
                raise MalformedProblemError(f"lower[{j}] > upper[{j}]")

    @staticmethod
    def make(objective, rows, lower, upper) -> "LpProblem":
        try:
            return LpProblem(list(objective), _row_lists(rows), list(lower), list(upper))
        except TypeError:
            raise MalformedProblemError("LP objective, rows and bounds must be iterable") from None


@dataclass(frozen=True, eq=False)
class LpResult:
    """An LP or MIP verdict; an Optimal one carries its point in integers.

    num holds the point's coordinates as int numerators over the common
    denominator den > 0, and value_num the objective value as a numerator
    over den; den need not be the least common one.  point and value give
    the same numbers as Fractions, built on first read.  Two results are
    equal when their status, point, value and nodes are, whatever their
    den.  nodes is filled by the branch-and-bound wrapper.
    """

    status: str
    num: tuple | None = None
    den: int = 1
    value_num: int | None = None
    nodes: int | None = None

    @cached_property
    def point(self):
        if self.num is None:
            return None
        den = self.den
        return tuple(Fraction(v, den) for v in self.num)

    @cached_property
    def value(self):
        if self.value_num is None:
            return None
        return Fraction(self.value_num, self.den)

    def _key(self):
        return self.status, self.point, self.value, self.nodes

    def __eq__(self, other):
        if not isinstance(other, LpResult):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class WarmLp:
    """The dual simplex tableau of one LP, with the program it solves.

    objective holds the structural costs and rows the ranged rows, each as
    (coefficients, lo, hi), meaning lo <= a . x <= hi; the audits read
    both.  The columns are the ns structurals, then one slack per row, nv
    in all, and everything is an integer.  basis[r] is the basic column of
    row r; the other ns columns are nonbasic, listed in nonbasic, and
    pos[j] is the position of a nonbasic column j there (-1 for a basic
    one).  T holds one list per row, the entries of the nonbasic columns by
    position as numerators over D, meaning
    D x_basis[r] + sum_q T[r][q] x_nonbasic[q] = 0; a row is replaced,
    never changed in place.  d holds the reduced costs of the nonbasic
    columns by position, and z the objective value, as numerators over D.
    lower and upper are the integer boxes of all columns.  A nonbasic
    column sits at the bound where names ("L" or "U"; "B" marks a basic
    one), so only basic values are stored: beta[r] is the value of basis[r]
    as a numerator over D.

    A WarmLp returned by solve_lp_warm or edited is optimal and never
    mutated again: edited re-solves a copy and returns it, so re-solves
    chain and several successors (both children of a branch step, both
    halves of a split box) can reuse one parent state.
    """

    @staticmethod
    def _row_less(objective, lower, upper) -> "WarmLp":
        """The optimal tableau of max objective . x over the box alone.

        D = 1, and each structural sits at the bound its cost prefers (the
        lower one at cost zero), so every reduced cost has the optimal
        sign.  Rows enter through add_row.
        """
        s = object.__new__(WarmLp)
        n = len(objective)
        s.objective, s.rows = objective, []
        s.ns, s.m, s.nv = n, 0, n
        s.D = 1
        s.where = ["U" if c > 0 else "L" for c in objective]
        s.lower = list(lower)
        s.upper = list(upper)
        s.T, s.beta, s.basis = [], [], []
        s.nonbasic = list(range(n))
        s.pos = list(range(n))
        s.d = list(objective)
        s.z = sum(c * (upper[j] if c > 0 else lower[j]) for j, c in enumerate(objective) if c)
        return s

    def bounds(self, j: int):
        """Current (lower, upper) box of structural variable j, as ints.

        MalformedProblemError unless j is an int naming a structural column.
        """
        if type(j) is not int or not 0 <= j < self.ns:
            raise MalformedProblemError(f"index {j!r} names no structural column")
        return self.lower[j], self.upper[j]

    def edited(self, boxes=(), rows=()):
        """Re-solve with boxes (j, lower, upper) set and rows (coeffs, lo, hi) added.

        Each added row reads lo <= coeffs . x <= hi over the structurals.  An
        empty box or range makes the result Infeasible.  boxes and rows are
        tuples or lists; a box that is not a triple, a box index that is not
        an int naming a structural column, a row that is not a triple or has
        the wrong width, or an entry that is not an int raises
        MalformedProblemError.  Returns (LpResult, WarmLp or None); the
        state is None exactly when the result is not Optimal.
        """
        if type(boxes) not in _SEQS:
            raise MalformedProblemError(f"boxes must be a tuple or list, not {boxes!r}")
        for box in boxes:
            if type(box) not in _SEQS or len(box) != 3:
                raise MalformedProblemError(f"box {box!r} is not (index, lower, upper)")
            j, lo, hi = box
            _check_ints((lo, hi))
            if type(j) is not int or not 0 <= j < self.ns:
                raise MalformedProblemError(f"box index {j!r} names no structural column")
        _check_rows(rows, self.ns)
        rows = _row_lists(rows)
        if any(lo > hi for _, lo, hi in boxes) or any(lo > hi for _, lo, hi in rows):
            return LpResult(INFEASIBLE), None
        return self._copy()._solved(boxes, rows)

    def reoptimized(self, j: int, new_lower, new_upper):
        """Re-solve with variable j's box set to [new_lower, new_upper].

        Returns (LpResult, WarmLp or None).  The state is None exactly when
        the result is not Optimal.
        """
        return self.edited(boxes=((j, new_lower, new_upper),))

    def _solved(self, boxes, rows):
        """Set boxes (j, lo, hi), add rows (coefficients, lo, hi), then run
        the dual simplex and the audits, all in place; (LpResult, self or
        None)."""
        for j, lo, hi in boxes:
            self.set_box(j, lo, hi)
        if rows:
            row_of = {col: r for r, col in enumerate(self.basis) if col < self.ns}
            for coeffs, lo, hi in rows:
                self.add_row(coeffs, lo, hi, row_of)
        if not self.dual_iterate():
            return LpResult(INFEASIBLE), None
        return _extract(self), self

    def set_box(self, j: int, lo: int, hi: int) -> None:
        """Replace column j's box with [lo, hi], keeping the basis dual
        feasible.

        A nonbasic j moves to the bound its reduced cost prefers, as at the
        row-less start: the upper one when d_j > 0, the lower one when
        d_j < 0.  With d_j = 0, or a point box lo = hi, it stays on its side.
        A basic j keeps its value; the dual simplex repairs a value left
        outside.
        """
        side = self.where[j]
        was = self.lower[j] if side == "L" else self.upper[j]
        self.lower[j] = lo
        self.upper[j] = hi
        if side == "B":
            return
        q = self.pos[j]
        dj = self.d[q]
        if lo != hi and dj:
            side = self.where[j] = "U" if dj > 0 else "L"
        self._shift_nonbasic(q, (lo if side == "L" else hi) - was)

    def add_row(self, coeffs, lo: int, hi: int, row_of) -> None:
        """Append the integer ranged row lo <= a . x <= hi with its slack basic.

        row_of maps each basic structural column to its tableau row; those
        columns are substituted out so the new row holds nonbasics only.
        The slack's column is a unit column, so D stays; the slack has cost
        zero, so no reduced cost changes.  The row joins rows for the audits.
        """
        D, T, beta, lower, upper, where, pos = (
            self.D, self.T, self.beta, self.lower, self.upper, self.where, self.pos,
        )
        trow = [0] * self.ns
        value = 0
        for j, a in enumerate(coeffs):
            if not a:
                continue
            r = row_of.get(j)
            if r is None:
                trow[pos[j]] -= a * D
                value += a * D * (lower[j] if where[j] == "L" else upper[j])
            else:
                trow = [t + a * b for t, b in zip(trow, T[r])]
                value += a * beta[r]
        self.rows.append((coeffs, lo, hi))
        T.append(trow)
        beta.append(value)
        self.basis.append(self.nv)
        where.append("B")
        pos.append(-1)
        lower.append(lo)
        upper.append(hi)
        self.m += 1
        self.nv += 1

    def _copy(self) -> "WarmLp":
        s = object.__new__(WarmLp)
        s.objective, s.rows = self.objective, self.rows[:]
        s.ns, s.m, s.nv = self.ns, self.m, self.nv
        s.D = self.D
        s.lower = self.lower[:]
        s.upper = self.upper[:]
        s.beta = self.beta[:]
        s.where = self.where[:]
        s.basis = self.basis[:]
        s.nonbasic = self.nonbasic[:]
        s.pos = self.pos[:]
        s.T = self.T[:]  # rows are replaced, never changed in place
        s.d = self.d[:]
        s.z = self.z
        return s

    def _pivot(self, r: int, q: int, bound: int) -> None:
        """The nonbasic column at position q enters on row r, whose basic
        leaves at bound and takes position q.

        Every row, reduced cost, basic value and z moves to the new common
        denominator D' = |T_rq| in one Bareiss step.
        """
        T, beta, D = self.T, self.beta, self.D
        e, leaving = self.nonbasic[q], self.basis[r]
        Tr = T[r]
        p = Tr[q]
        # row r signed so the entering entry is p > 0; over the new
        # nonbasics, the leaving column's entry at q is then sgn * D
        if p < 0:
            p, sgn = -p, -1
            Tr = [-v for v in Tr]
            delta = D * bound - beta[r]
        else:
            sgn = 1
            Tr = Tr[:]
            delta = beta[r] - D * bound
        # column e moves by delta / D', which takes the leaving basic to bound
        start = self.lower[e] if self.where[e] == "L" else self.upper[e]
        for i, Ti in enumerate(T):
            if i == r:
                continue
            f = Ti[q]
            if not f:
                if p != D:
                    T[i] = [v * p // D for v in Ti]
                    beta[i] = beta[i] * p // D
                continue
            if D == 1:
                row = [p * a - f * b for a, b in zip(Ti, Tr)]
            else:
                row = [(p * a - f * b) // D for a, b in zip(Ti, Tr)]
            row[q] = -f * sgn
            T[i] = row
            beta[i] = (p * beta[i] - f * delta) // D
        beta[r] = p * start + delta
        d = self.d
        de = d[q]
        self.z = (p * self.z + de * delta) // D
        if de:
            d = [(p * v - de * b) // D for v, b in zip(d, Tr)]
            d[q] = -de * sgn
        elif p != D:
            d = [v * p // D for v in d]
        self.d = d
        Tr[q] = sgn * D
        T[r] = Tr
        self.D = p
        self.basis[r] = e
        self.nonbasic[q] = leaving
        self.pos[leaving] = q
        self.pos[e] = -1
        self.where[e] = "B"

    def _shift_nonbasic(self, q: int, delta: int) -> None:
        """Move the nonbasic variable at position q by delta, updating
        basics and z."""
        if delta == 0:
            return
        beta = self.beta
        for r, Tr in enumerate(self.T):
            a = Tr[q]
            if a:
                beta[r] -= a * delta
        self.z += self.d[q] * delta

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
        lower, upper, where, basis, beta, T, nonbasic = (
            self.lower, self.upper, self.where, self.basis, self.beta, self.T, self.nonbasic,
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
            # d_j / a_j (negated toward an upper bound) as num / den, den > 0,
            # ties to the smaller column
            d = self.d
            enter = q_enter = -1
            best_num, best_den = 0, 1
            for q, a in enumerate(T[r]):
                if not a:
                    continue
                j = nonbasic[q]
                if lower[j] == upper[j]:
                    continue
                at_low = where[j] == "L"
                if not to_upper:
                    ok = (at_low and a < 0) or (not at_low and a > 0)
                else:
                    ok = (at_low and a > 0) or (not at_low and a < 0)
                if not ok:
                    continue
                num, den = (d[q], a) if a > 0 else (-d[q], -a)
                if to_upper:
                    num = -num
                if enter < 0:
                    better = True
                else:
                    lhs, rhs = num * best_den, best_num * den
                    better = lhs < rhs or (lhs == rhs and j < enter)
                if better:
                    best_num, best_den, enter, q_enter = num, den, j, q
            if enter < 0:
                return False  # the violated row admits no compensating move
            # a zero dual ratio leaves the dual objective unchanged
            degenerate = degenerate + 1 if best_num == 0 else 0
            bland = bland or degenerate >= fallback
            self._pivot(r, q_enter, lower[leaving] if not to_upper else upper[leaving])
            where[leaving] = "L" if not to_upper else "U"


def _extract(s: WarmLp) -> LpResult:
    """The audited optimum of the tableau s, checked against its own program."""
    n, D = s.ns, s.D
    lower, upper, where, basis, nonbasic, pos = s.lower, s.upper, s.where, s.basis, s.nonbasic, s.pos
    # every structural's value as a numerator over D
    x = [D * (lower[j] if where[j] == "L" else upper[j]) for j in range(n)]
    for r, j in enumerate(basis):
        if j < n:
            x[j] = s.beta[r]
    # exactness audit: the reported optimum is the objective at the point,
    # the point meets every row's range exactly and sits inside the live box
    check = sum(map(mul, s.objective, x))
    if check != s.z:
        raise InternalInconsistencyError(
            f"objective at the point {Fraction(check, D)} != tableau value {Fraction(s.z, D)}")
    for r, (coeffs, lo, hi) in enumerate(s.rows):
        ax = sum(map(mul, coeffs, x))
        if not lo * D <= ax <= hi * D:
            raise InternalInconsistencyError(f"row {r} reads {Fraction(ax, D)}, outside [{lo}, {hi}]")
    for j in range(n):
        if not D * lower[j] <= x[j] <= D * upper[j]:
            raise InternalInconsistencyError(f"variable {j} = {Fraction(x[j], D)} leaves its box")
    # basis audit: basis holds m distinct columns marked "B", and those are
    # all the "B" columns; nonbasic holds the other ns, each where pos says
    m = s.m
    if (len(basis) != m or len(nonbasic) != n or len(where) != s.nv or where.count("B") != m
            or len(set(basis)) != m or any(where[j] != "B" for j in basis)
            or any(where[j] == "B" or pos[j] != q for q, j in enumerate(nonbasic))):
        raise InternalInconsistencyError("basic and nonbasic columns do not split the columns")
    # optimality audit: no nonbasic column with room to move can improve the
    # objective, so its reduced cost pushes it against the bound it sits at
    # (<= 0 at lower, >= 0 at upper)
    for q, dj in enumerate(s.d):
        j = nonbasic[q]
        if dj and lower[j] != upper[j] and (dj > 0) == (where[j] == "L"):
            raise InternalInconsistencyError(
                f"column {j} ({where[j]}) has reduced cost {Fraction(dj, D)} of the wrong sign")
    return LpResult(OPTIMAL, tuple(x), D, s.z)


def solve_lp_warm(p: LpProblem):
    """Exact optimum of p, and a WarmLp for re-solves after edits.

    p's rows are added to the row-less tableau of its box, as edited adds
    rows, and the dual simplex runs from there.  A row with an empty range
    makes the result Infeasible.  Returns (LpResult, WarmLp or None); the
    state is None exactly when the result is not Optimal.  Raises
    MalformedProblemError when p is not an LpProblem.
    """
    if type(p) is not LpProblem:
        raise MalformedProblemError(f"p is a {type(p).__name__}, not an LpProblem")
    if any(lo > hi for _, lo, hi in p.rows):
        return LpResult(INFEASIBLE), None
    return WarmLp._row_less(p.objective, p.lower, p.upper)._solved((), p.rows)


def solve_lp(p: LpProblem) -> LpResult:
    """Exact optimum of p; solve_lp_warm without the warm state."""
    return solve_lp_warm(p)[0]
