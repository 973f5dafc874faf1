"""Integer linear algebra: extended gcd, Smith form, rank, brick solutions.

Everything here is exact over Python ints.  The Smith form is computed by
gcd-driven row/column elimination with a deterministic pivot rule, so equal
inputs always give byte-equal decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .errors import BothZeroError, DimensionMismatchError, ZeroMatrixError
from .model import IntMatrix


@dataclass(frozen=True)
class BezoutSolution:
    """One solution of lam*x + mu*y = g together with the solution lattice.

    The full solution set of lam*x + mu*y = g is
    (x + k*step_x, y + k*step_y) for k in Z, with step_x = mu // g and
    step_y = -lam // g.
    """

    g: int
    x: int
    y: int
    step_x: int
    step_y: int


def extended_gcd(lam: int, mu: int) -> BezoutSolution:
    """Positive gcd g of (lam, mu) with certificate lam*x + mu*y = g."""
    if lam == 0 and mu == 0:
        raise BothZeroError("gcd(0, 0) is undefined")
    old_r, r = lam, mu
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    g, bx, by = old_r, old_x, old_y
    if g < 0:
        g, bx, by = -g, -bx, -by
    return BezoutSolution(g, bx, by, mu // g, -(lam // g))


@dataclass(frozen=True)
class SnfDecomposition:
    """U * A * V = S with U, V unimodular and S diagonal.

    Diagonal entries alpha_1 | alpha_2 | ... are positive up to the rank and
    zero afterwards.
    """

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix
    rank: int

    @property
    def diagonal(self) -> tuple[int, ...]:
        k = min(self.S.rows, self.S.cols)
        return tuple(self.S.at(i, i) for i in range(k))


def _pivot_position(M, k, nr, nc):
    """Smallest nonzero |entry| in the trailing submatrix, row-then-col tie-break."""
    best = None
    best_pos = None
    for i in range(k, nr):
        Mi = M[i]
        for j in range(k, nc):
            v = Mi[j]
            if v != 0:
                a = -v if v < 0 else v
                if best is None or a < best:
                    best = a
                    best_pos = (i, j)
                    if a == 1:
                        return best_pos
    return best_pos


def smith_normal_form(A: IntMatrix) -> SnfDecomposition:
    """Smith normal form of a nonzero integer matrix.

    Each elimination step applies one unimodular 2x2 Bezout transform that
    lands the gcd on the pivot and zeroes the target in a single operation;
    this keeps pass counts logarithmic and avoids the entry blowup of
    chained remainder subtractions.
    """
    if A.is_zero():
        raise ZeroMatrixError("Smith form of the zero matrix is not defined here")
    nr, nc = A.rows, A.cols
    M = A.row_lists()
    U = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    V = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        if i != j:
            M[i], M[j] = M[j], M[i]
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        if i != j:
            for row in M:
                row[i], row[j] = row[j], row[i]
            for row in V:
                row[i], row[j] = row[j], row[i]

    def clear_in_column(k, i):
        # zero M[i][k] against pivot M[k][k], leaving gcd on the pivot
        a, bval = M[k][k], M[i][k]
        if bval % a == 0:
            q = bval // a
            Mk, Mi = M[k], M[i]
            for j in range(k, nc):
                Mi[j] -= q * Mk[j]
            Uk, Ui = U[k], U[i]
            for j in range(nr):
                Ui[j] -= q * Uk[j]
            return
        s = extended_gcd(a, bval)
        p, q2 = a // s.g, bval // s.g
        Mk, Mi = M[k], M[i]
        for j in range(k, nc):
            mk, mi = Mk[j], Mi[j]
            Mk[j] = s.x * mk + s.y * mi
            Mi[j] = -q2 * mk + p * mi
        Uk, Ui = U[k], U[i]
        for j in range(nr):
            uk, ui = Uk[j], Ui[j]
            Uk[j] = s.x * uk + s.y * ui
            Ui[j] = -q2 * uk + p * ui

    def clear_in_row(k, j):
        # zero M[k][j] against pivot M[k][k], leaving gcd on the pivot
        a, bval = M[k][k], M[k][j]
        if bval % a == 0:
            q = bval // a
            for row in M:
                row[j] -= q * row[k]
            for row in V:
                row[j] -= q * row[k]
            return
        s = extended_gcd(a, bval)
        p, q2 = a // s.g, bval // s.g
        for row in M:
            ck, cj = row[k], row[j]
            row[k] = s.x * ck + s.y * cj
            row[j] = -q2 * ck + p * cj
        for row in V:
            ck, cj = row[k], row[j]
            row[k] = s.x * ck + s.y * cj
            row[j] = -q2 * ck + p * cj

    k = 0
    limit = min(nr, nc)
    while k < limit:
        pos = _pivot_position(M, k, nr, nc)
        if pos is None:
            break
        swap_rows(k, pos[0])
        swap_cols(k, pos[1])
        while True:
            for i in range(k + 1, nr):
                if M[i][k] != 0:
                    clear_in_column(k, i)
            for j in range(k + 1, nc):
                if M[k][j] != 0:
                    clear_in_row(k, j)
            # column clears after row clears only when the pivot already
            # divided the whole row; otherwise the pivot shrank, so repeat
            if all(M[i][k] == 0 for i in range(k + 1, nr)):
                break
        # divisibility fix: the pivot must divide every trailing entry
        fixed = True
        for i in range(k + 1, nr):
            if not fixed:
                break
            for j in range(k + 1, nc):
                if M[i][j] % M[k][k] != 0:
                    # fold the offending row into row k and redo this step
                    Mi, Mk = M[i], M[k]
                    for jj in range(k, nc):
                        Mk[jj] += Mi[jj]
                    Ui, Uk = U[i], U[k]
                    for jj in range(nr):
                        Uk[jj] += Ui[jj]
                    fixed = False
                    break
        if fixed:
            if M[k][k] < 0:
                for j in range(k, nc):
                    M[k][j] = -M[k][j]
                for j in range(nr):
                    U[k][j] = -U[k][j]
            k += 1

    rank = k
    S = IntMatrix(nr, nc, tuple(e for row in M for e in row))
    return SnfDecomposition(
        IntMatrix(nr, nr, tuple(e for row in U for e in row)),
        S,
        IntMatrix(nc, nc, tuple(e for row in V for e in row)),
        rank,
    )


def integer_rank(A: IntMatrix) -> int:
    """Rank of A over the rationals (equals the count of nonzero Smith entries)."""
    if A.rows == 0 or A.cols == 0 or A.is_zero():
        return 0
    return smith_normal_form(A).rank


def brick_form(A: IntMatrix) -> SnfDecomposition | None:
    """A's Smith form if A has s >= 1 rows, s + 1 columns and rank s, else None.

    This is the Smith routes' eligibility rule.  A wrong shape, an empty A or
    a zero A returns None without computing a Smith form.
    """
    s = A.rows
    if s < 1 or A.cols != s + 1 or A.is_zero():
        return None
    snf = smith_normal_form(A)
    return snf if snf.rank == s else None


def brick_solutions(snf: SnfDecomposition, rhs):
    """Particular integer solutions of A x = r for each r in rhs, in turn.

    snf is brick_form(A), the Smith form U A V = S of an s x (s + 1) A of rank s.
    For each r this yields V (U r / alpha, 0), or None when a diagonal entry
    alpha_j does not divide (U r)_j, so that A x = r has no integer point.
    The integer points are the yielded one plus the integer multiples of the
    free column theta = V.col(s), which is primitive since V is unimodular.
    Lazy, so a caller that checks each brick as it comes keeps its order.
    """
    s = snf.rank
    pivots = list(zip(snf.diagonal, snf.U.row_lists()))
    fixed = [row[:s] for row in snf.V.row_lists()]  # V without its free column
    for r in rhs:
        if len(r) != s:
            raise DimensionMismatchError(f"right-hand side has length {len(r)}, expected {s}")
        y = []
        for alpha, u in pivots:
            q, m = divmod(sum(map(mul, u, r)), alpha)
            if m:
                y = None
                break
            y.append(q)
        yield None if y is None else tuple(sum(map(mul, v, y)) for v in fixed)


def quotient_range(theta: int, lo: int, hi: int):
    """Least and greatest integer q with lo <= theta * q <= hi, theta != 0.

    The pair is (ceil, floor) of the two quotients, so it is empty (first >
    second) exactly when no multiple of theta lies in [lo, hi].
    """
    if theta > 0:
        return -(-lo // theta), hi // theta
    return -(-hi // theta), lo // theta
