"""The Smith normal form as it stood before its one-step rewrite.

blockip.intlin.smith_normal_form must return exactly the U, S, V and rank
that this one returns; tests/test_intlin.py checks that on a seeded
battery.  It is kept here, not in src/, because only tests use it.
Everything below is the old code unchanged: the pivot search
_pivot_position, and the 2x2 unimodular step written four times as
closures (swap_rows and swap_cols, clear_in_column and clear_in_row).
"""

from blockip.errors import ZeroMatrixError
from blockip.intlin import SnfDecomposition, extended_gcd
from blockip.model import IntMatrix


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
