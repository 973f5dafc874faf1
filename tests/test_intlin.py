"""Integer linear algebra checks: gcd certificates, Smith forms, integer solutions."""

import itertools
import math
import random

import pytest

import smith_reference
from blockip import intlin
from blockip.errors import BothZeroError, DimensionMismatchError, ZeroMatrixError
from blockip.intlin import (
    BezoutSolution,
    brick_form,
    extended_gcd,
    integer_rank,
    kernel_basis,
    particular_solutions,
    quotient_range,
    smith_normal_form,
)
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


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The matrix product a b."""
    assert a.cols == b.rows
    return IntMatrix(a.rows, b.cols, tuple(
        sum(x * y for x, y in zip(a.row(i), b.col(j))) for i in range(a.rows) for j in range(b.cols)
    ))


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
    assert mat_mul(mat_mul(snf.U, A), snf.V).entries == snf.S.entries
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


def test_snf_matches_the_reference_bit_for_bit():
    # the one-step elimination keeps the reference's pivot order and its
    # transforms, so U, S, V and the rank are equal, not just equivalent
    rng = random.Random(808)
    compared = deficient = 0
    while compared < 10_000:
        s, t = rng.randint(1, 5), rng.randint(1, 6)
        big = rng.choice((1, 3, 30, 10**6, 10**30))
        M = [[0 if rng.random() < 0.2 else rng.randint(-big, big) for _ in range(t)]
             for _ in range(s)]
        if s > 1 and rng.random() < 0.3:
            # the last row a combination of the others: rank below s
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            M[-1] = [a * x + b * y for x, y in zip(M[0], M[-2])]
        A = IntMatrix.from_rows(M)
        if A.is_zero():
            continue
        snf = smith_normal_form(A)
        assert snf == smith_reference.smith_normal_form(A), M
        compared += 1
        deficient += snf.rank < min(s, t)
    assert deficient >= 1000, deficient


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


def random_full_row_rank(rng, s, coeff):
    """Random s x (s + 1) integer matrix of rank s."""
    while True:
        A = IntMatrix.from_rows([[rng.randint(-coeff, coeff) for _ in range(s + 1)] for _ in range(s)])
        if integer_rank(A) == s:
            return A


def test_brick_solutions_are_base_plus_multiples_of_theta():
    rng = random.Random(505)
    big = 0
    for trial in range(120):
        s = rng.choice((1, 1, 2, 3))
        coeff = 10 ** 6 if trial % 2 else 5
        A = random_full_row_rank(rng, s, coeff)
        snf = smith_normal_form(A)
        (theta,) = kernel_basis(snf)
        assert all(v == 0 for v in A.mul_vec(theta))
        assert math.gcd(*theta) == 1  # primitive: no shorter kernel step
        xs = [[rng.randint(-10 ** 7, 10 ** 7) for _ in range(s + 1)] for _ in range(4)]
        bases = list(particular_solutions(snf, [A.mul_vec(x) for x in xs]))
        assert len(bases) == len(xs)
        for x, base in zip(xs, bases):
            assert base is not None
            h = next(h for h in range(s + 1) if theta[h])
            k, rem = divmod(x[h] - base[h], theta[h])
            assert rem == 0
            assert all(x[g] - base[g] == k * theta[g] for g in range(s + 1)), (A, x, base)
        big += max(map(abs, A.entries)) > 10 ** 5
    assert big >= 40


def test_brick_solutions_fail_only_without_an_integer_point():
    # small systems and arbitrary right-hand sides: None must mean that no
    # integer point exists, so a search over a box finds none either
    rng = random.Random(606)
    found = missing = 0
    for _ in range(40):
        s = rng.choice((1, 2))
        A = random_full_row_rank(rng, s, 3)
        snf = smith_normal_form(A)
        rhs = [tuple(rng.randint(-6, 6) for _ in range(s)) for _ in range(3)]
        for r, base in zip(rhs, particular_solutions(snf, rhs)):
            if base is not None:
                assert tuple(A.mul_vec(base)) == r
                found += 1
                continue
            box = itertools.product(range(-8, 9), repeat=s + 1)
            assert not any(tuple(A.mul_vec(x)) == r for x in box), (A, r)
            missing += 1
    assert found >= 20 and missing >= 20, (found, missing)


def test_brick_solutions_frozen_and_rejections():
    # 4x + 6y = r: gcd 2, so odd r has no integer point
    snf = smith_normal_form(IntMatrix.from_rows([[4, 6]]))
    got = list(particular_solutions(snf, [(2,), (3,), (0,)]))
    assert got[1] is None and got[2] == (0, 0)
    assert 4 * got[0][0] + 6 * got[0][1] == 2
    assert kernel_basis(snf) in (((3, -2),), ((-3, 2),))
    with pytest.raises(DimensionMismatchError):
        list(particular_solutions(snf, [(1, 2)]))


def shear(rng, n, steps, big):
    """A random n x n unimodular matrix: steps row additions with big multipliers."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps if n > 1 else 0):
        a, b = rng.sample(range(n), 2)
        q = rng.randint(-big, big)
        rows[a] = [x + q * y for x, y in zip(rows[a], rows[b])]
    return IntMatrix.from_rows(rows)


def test_particular_solutions_of_any_rank():
    # M = P S Q with P, Q unimodular and S small: M x = P r exactly when
    # S (Q x) = r, so a search of S's box checks every None, while M is
    # rank-deficient or tall and has entries beyond 10^5.  A right-hand side
    # S y with y in the box must be solved; a free one may be either way.
    rng = random.Random(707)
    tally = dict(found=0, missing=0, deficient=0, tall=0, big=0)
    for trial in range(150):
        rows, cols = rng.randint(1, 4), rng.randint(1, 3)
        inner = min(rows, cols) - 1
        if trial % 2 and inner:  # rank below both sides: a product through inner
            L = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(inner)] for _ in range(rows)])
            R = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(cols)] for _ in range(inner)])
            S = mat_mul(L, R)
        else:
            S = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        if S.is_zero():
            continue
        P, Q = shear(rng, rows, 2, 10), shear(rng, cols, 3, 100)
        M = mat_mul(mat_mul(P, S), Q)
        snf = smith_normal_form(M)
        tally["deficient"] += snf.rank < min(rows, cols)
        tally["tall"] += rows > cols
        tally["big"] += max(map(abs, M.entries)) > 10 ** 5
        kernel = kernel_basis(snf)
        assert len(kernel) == cols - snf.rank
        assert all(not any(M.mul_vec(k)) for k in kernel), (M, kernel)
        box = list(itertools.product(range(-8, 9), repeat=cols))
        small = [S.mul_vec(rng.choice(box)) for _ in range(2)]
        small += [tuple(rng.randint(-6, 6) for _ in range(rows)) for _ in range(2)]
        rhs = [P.mul_vec(r) for r in small]
        for k, (r, p) in enumerate(zip(small, particular_solutions(snf, rhs))):
            if p is None:
                assert k >= 2 and not any(S.mul_vec(y) == r for y in box), (M, r)
                tally["missing"] += 1
            else:
                assert M.mul_vec(p) == rhs[k], (M, r)
                tally["found"] += 1
    assert min(tally.values()) >= 20, tally


def test_brick_form_is_the_smith_route_rule(monkeypatch):
    # eligible: s >= 1 rows, s + 1 columns, rank s; the form is A's Smith form
    for rows in ([[4, 6]], [[1, 1]], [[2, 0, 1], [0, 3, 1]]):
        A = IntMatrix.from_rows(rows)
        assert brick_form(A) == smith_normal_form(A)
    # rank-deficient, or a shape other than s x (s + 1): no form
    assert brick_form(IntMatrix.from_rows([[1, 2], [2, 4]])) is None
    assert brick_form(IntMatrix.from_rows([[1, 2, 3], [2, 4, 6]])) is None
    assert brick_form(IntMatrix.from_rows([[1, 2, 3]])) is None
    # the same rule as t_A = s_A + 1 with full row rank, on a random battery
    rng = random.Random(11)
    for _ in range(200):
        s = rng.randint(1, 3)
        A = IntMatrix(s, s + 1, tuple(rng.choice((0, 0, 1, -1, 2, 6)) for _ in range(s * (s + 1))))
        assert (brick_form(A) is not None) == (integer_rank(A) == s), A

    # a wrong shape, a zero A or an empty A is refused without a Smith form
    def no_smith_form(A):
        raise AssertionError(f"Smith form computed for {A}")

    monkeypatch.setattr(intlin, "smith_normal_form", no_smith_form)
    for A in (
        IntMatrix.from_rows([[1, 2, 3]]),
        IntMatrix.from_rows([[1, 2], [3, 4]]),
        IntMatrix.zero(1, 2),
        IntMatrix.zero(2, 3),
        IntMatrix.zero(0, 1),
        IntMatrix.zero(0, 0),
    ):
        assert brick_form(A) is None, A


def test_quotient_range_is_the_set_of_multiples():
    for theta in (-3, -1, 1, 2, 5):
        for lo in range(-7, 8):
            for hi in range(lo - 1, 8):
                a, b = quotient_range(theta, lo, hi)
                assert list(range(a, b + 1)) == [q for q in range(-20, 21) if lo <= theta * q <= hi]
