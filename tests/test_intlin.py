"""Integer linear algebra checks: gcd certificates and Smith forms."""

import random

import pytest

from blockip.errors import BothZeroError, DimensionMismatchError, ZeroMatrixError
from blockip.intlin import BezoutSolution, extended_gcd, integer_rank, smith_normal_form
from blockip.model import IntMatrix


def solve_two_var(lam: int, mu: int, c: int):
    """Integer solutions of lam*x + mu*y = c, or None when none exist.

    Returns a BezoutSolution whose (x, y) solve the equation for c and whose
    steps span the homogeneous lattice.
    """
    base = extended_gcd(lam, mu)
    if c % base.g != 0:
        return None
    scale = c // base.g
    return BezoutSolution(base.g, base.x * scale, base.y * scale, base.step_x, base.step_y)


def determinant(A: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if A.rows != A.cols:
        raise DimensionMismatchError("determinant needs a square matrix")
    n = A.rows
    if n == 0:
        return 1
    M = A.row_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if pivot_row is None:
                return 0
            M[k], M[pivot_row] = M[pivot_row], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def naive_gcd(a, b):
    # subtraction form, used only as an independent reference
    a, b = abs(a), abs(b)
    while a and b:
        if a >= b:
            a -= b
        else:
            b -= a
    return a + b


def check_bezout(lam, mu, sol, c=None):
    rhs = sol.g if c is None else c
    assert lam * sol.x + mu * sol.y == rhs
    assert lam * sol.step_x + mu * sol.step_y == 0
    for k in (-3, -1, 1, 7):
        assert lam * (sol.x + k * sol.step_x) + mu * (sol.y + k * sol.step_y) == rhs


def test_extended_gcd_frozen_cases():
    sol = extended_gcd(240, 46)
    assert sol.g == 2
    check_bezout(240, 46, sol)

    sol = extended_gcd(1, 0)
    assert (sol.g, sol.x, sol.y) == (1, 1, 0)

    sol = extended_gcd(-4, 6)
    assert sol.g == 2
    check_bezout(-4, 6, sol)


def test_extended_gcd_rejects_zero_pair():
    with pytest.raises(BothZeroError):
        extended_gcd(0, 0)


def test_extended_gcd_matches_subtraction_gcd():
    rng = random.Random(101)
    for _ in range(300):
        lam = rng.randint(-10**6, 10**6)
        mu = rng.randint(-10**6, 10**6)
        if lam == 0 and mu == 0:
            continue
        sol = extended_gcd(lam, mu)
        assert sol.g == naive_gcd(lam, mu) > 0
        check_bezout(lam, mu, sol)


def test_two_var_diophantine():
    assert solve_two_var(2, 4, 3) is None
    sol = solve_two_var(2, 4, 6)
    assert sol is not None
    check_bezout(2, 4, sol, c=6)

    delta = 97
    sol = solve_two_var(1, 1, delta)
    check_bezout(1, 1, sol, c=delta)
    # (delta, 0) must lie on the returned solution line
    k = (delta - sol.x) // sol.step_x if sol.step_x else 0
    assert (sol.x + k * sol.step_x, sol.y + k * sol.step_y) == (delta, 0)


def test_two_var_diophantine_battery():
    rng = random.Random(202)
    for _ in range(200):
        lam = rng.randint(-50, 50)
        mu = rng.randint(-50, 50)
        if lam == 0 and mu == 0:
            continue
        c = rng.randint(-100, 100)
        sol = solve_two_var(lam, mu, c)
        g = naive_gcd(lam, mu)
        if c % g != 0:
            assert sol is None
        else:
            check_bezout(lam, mu, sol, c=c)


def check_snf(A, snf):
    assert snf.U.mul_mat(A).mul_mat(snf.V).entries == snf.S.entries
    assert abs(determinant(snf.U)) == 1
    assert abs(determinant(snf.V)) == 1
    diag = snf.diagonal
    assert snf.rank == sum(1 for a in diag if a != 0)
    for i in range(snf.rank):
        assert diag[i] > 0
    for i in range(snf.rank - 1):
        assert diag[i + 1] % diag[i] == 0
    for i in range(snf.S.rows):
        for j in range(snf.S.cols):
            if i != j:
                assert snf.S.at(i, j) == 0


def test_snf_identity():
    I3 = IntMatrix.identity(3)
    snf = smith_normal_form(I3)
    assert snf.S.entries == I3.entries
    check_snf(I3, snf)


def test_snf_diag_2_3():
    A = IntMatrix.from_rows([[2, 0], [0, 3]])
    snf = smith_normal_form(A)
    assert snf.diagonal == (1, 6)
    check_snf(A, snf)


def test_snf_single_row_matches_bezout_steps():
    rng = random.Random(303)
    for _ in range(100):
        lam = rng.randint(-40, 40)
        mu = rng.randint(-40, 40)
        if lam == 0 and mu == 0:
            continue
        A = IntMatrix.from_rows([[lam, mu]])
        snf = smith_normal_form(A)
        g = naive_gcd(lam, mu)
        assert snf.diagonal == (g,)
        assert snf.S.at(0, 1) == 0
        check_snf(A, snf)
        # kernel column of V agrees with the Bezout step direction up to sign
        kx, ky = snf.V.at(0, 1), snf.V.at(1, 1)
        sol = extended_gcd(lam, mu)
        assert (kx, ky) in ((sol.step_x, sol.step_y), (-sol.step_x, -sol.step_y))


def test_snf_zero_matrix_rejected():
    with pytest.raises(ZeroMatrixError):
        smith_normal_form(IntMatrix.zero(2, 2))


def test_snf_random_battery():
    rng = random.Random(404)
    for _ in range(200):
        s = rng.randint(1, 4)
        t = rng.randint(1, 4)
        A = IntMatrix.from_rows(
            [[rng.randint(-30, 30) for _ in range(t)] for _ in range(s)]
        )
        if A.is_zero():
            continue
        check_snf(A, smith_normal_form(A))


def test_snf_diagonal_matches_sympy():
    # an independent Smith form; rank-deficient matrices come as products
    # through a narrower inner dimension
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(606)
    deficient = 0
    for _ in range(300):
        s, t = rng.randint(1, 4), rng.randint(1, 5)
        big = rng.choice((9, 1000, 10**6))
        if rng.random() < 0.5:
            M = [[rng.randint(-big, big) for _ in range(t)] for _ in range(s)]
        else:
            k = rng.randint(1, max(1, min(s, t) - 1))
            span = max(1, big // 30)
            L = [[rng.randint(-30, 30) for _ in range(k)] for _ in range(s)]
            R = [[rng.randint(-span, span) for _ in range(t)] for _ in range(k)]
            M = [[sum(L[i][h] * R[h][j] for h in range(k)) for j in range(t)] for i in range(s)]
        A = IntMatrix.from_rows(M)
        if A.is_zero():
            continue
        snf = smith_normal_form(A)
        theirs = sympy_snf(sympy.Matrix(M), domain=sympy.ZZ)
        assert tuple(abs(v) for v in snf.diagonal) == tuple(
            abs(int(theirs[i, i])) for i in range(min(s, t))), M
        deficient += snf.rank < min(s, t)
    assert deficient >= 60


def test_snf_huge_entries_complete_quickly():
    import time

    rng = random.Random(505)
    start = time.monotonic()
    for _ in range(20):
        A = IntMatrix.from_rows(
            [[rng.randint(-10**50, 10**50) for _ in range(5)] for _ in range(5)]
        )
        check_snf(A, smith_normal_form(A))
    assert time.monotonic() - start < 30.0


def test_determinant():
    assert determinant(IntMatrix.identity(4)) == 1
    assert determinant(IntMatrix.from_rows([[2, 0], [0, 3]])) == 6
    assert determinant(IntMatrix.from_rows([[0, 1], [1, 0]])) == -1
    assert determinant(IntMatrix.from_rows([[1, 2], [2, 4]])) == 0
    with pytest.raises(DimensionMismatchError):
        determinant(IntMatrix.zero(2, 3))
    # cross-check on random small matrices against cofactor expansion
    rng = random.Random(606)

    def cofactor_det(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        total = 0
        for j in range(n):
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * cofactor_det(minor)
        return total

    for _ in range(100):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert determinant(IntMatrix.from_rows(rows)) == cofactor_det(rows)


def test_integer_rank():
    assert integer_rank(IntMatrix.zero(3, 2)) == 0
    assert integer_rank(IntMatrix.from_rows([[1, 1, 97]])) == 1
    assert integer_rank(IntMatrix.from_rows([[2, 0], [0, 3]])) == 2
    assert integer_rank(IntMatrix.from_rows([[1, 2], [2, 4]])) == 1
