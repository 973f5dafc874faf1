"""Integer linear algebra: the one home of Smith forms and integer lattices.

Everything here is exact over Python ints.  The Smith form is computed by
one elimination step, a 2x2 unimodular transform (a subtraction or a Bezout
step) that rows and columns share, under a deterministic pivot rule, so
equal inputs always give byte-equal decompositions.  No other module reads
a decomposition's U, S, V or rank.  The toolkit: extended_gcd;
smith_normal_form, integer_rank and brick_form (the Smith routes'
eligibility rule); particular_solutions and kernel_basis, the integer
solutions of A x = r for A of any rank; reduce_basis, an integral LLL;
coordinate_box, a lattice's coordinate box over a box; lattice_in_box,
which chains those four; quotient_range, the ceil/floor rule for the
multiples of an integer in a range; and round_half_even.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .errors import BothZeroError, DimensionMismatchError, MalformedProblemError, ZeroMatrixError
from .model import IntMatrix, _matrix_issues


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
    if type(lam) is not int or type(mu) is not int:
        raise MalformedProblemError(f"gcd of {lam!r} and {mu!r}: both must be ints")
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


def _eliminate(X, a, b, pivot, target):
    """Zero the entry b against the pivot a by one 2x2 unimodular step.

    pivot and target are the indices in X of two rows or two columns.  The
    step subtracts a multiple of the pivot line from the target when a
    divides b, else it is the Bezout transform, which puts gcd(a, b) on the
    pivot.
    """
    if b % a == 0:
        q = b // a
        for u, v in zip(pivot, target):
            X[v] -= q * X[u]
        return
    s = extended_gcd(a, b)
    p, q = a // s.g, b // s.g
    for u, v in zip(pivot, target):
        x, y = X[u], X[v]
        X[u] = s.x * x + s.y * y
        X[v] = p * y - q * x


def smith_normal_form(A: IntMatrix) -> SnfDecomposition:
    """Smith normal form of a nonzero integer matrix.

    Step k moves the row-major first entry of least |value| in the trailing
    block to (k, k).  It then clears column k by row steps on M and U and
    row k by column steps on M and V, in turn until both are clear.  Every
    step is one 2x2 unimodular transform (_eliminate), so the pivot takes
    the gcd at once rather than through chained remainder subtractions,
    which blow entries up.  When the pivot fails to divide a trailing
    entry, that entry's row is folded into row k and step k runs again.
    Anything but an IntMatrix, and an IntMatrix that model._matrix_issues
    rejects or with an entry that is not an int, raises
    MalformedProblemError.
    """
    issues = _matrix_issues((("A", A),))
    if issues:
        raise MalformedProblemError(issues[0])
    if not set(map(type, A.entries)) <= {int}:
        raise MalformedProblemError("A has an entry that is not an int")
    if A.is_zero():
        raise ZeroMatrixError("Smith form of the zero matrix is not defined here")
    nr, nc = A.rows, A.cols
    # M, U and V row-major in one list, so that a row of the elimination
    # (row i of M and of U) and a column (column j of M and of V) are each
    # one sequence of indices
    oU, oV = nr * nc, nr * nc + nr * nr
    X = list(A.entries) + [0] * (nr * nr + nc * nc)
    X[oU:oV:nr + 1] = [1] * nr
    X[oV::nc + 1] = [1] * nc
    rows = [(*range(i * nc, i * nc + nc), *range(oU + i * nr, oU + i * nr + nr)) for i in range(nr)]
    cols = [(*range(j, oU, nc), *range(oV + j, len(X), nc)) for j in range(nc)]

    k, limit = 0, min(nr, nc)
    while k < limit:
        pivot = None
        for i in range(k, nr):
            for j in range(k, nc):
                e = abs(X[i * nc + j])
                if e and (pivot is None or e < pivot[0]):
                    pivot = e, i, j
        if pivot is None:
            break
        _, i, j = pivot
        for one, other in ((rows[k], rows[i]), (cols[k], cols[j])):
            if one is not other:
                for u, v in zip(one, other):
                    X[u], X[v] = X[v], X[u]
        p = k * nc + k
        while True:
            for i in range(k + 1, nr):
                if X[i * nc + k]:
                    _eliminate(X, X[p], X[i * nc + k], rows[k], rows[i])
            for j in range(k + 1, nc):
                if X[k * nc + j]:
                    _eliminate(X, X[p], X[k * nc + j], cols[k], cols[j])
            if not any(X[p + nc:oU:nc]):
                break
        bad = next((i for i in range(k + 1, nr) for j in range(k + 1, nc) if X[i * nc + j] % X[p]), None)
        if bad is not None:
            # the pivot must divide every trailing entry: fold and redo step k
            for u, v in zip(rows[k], rows[bad]):
                X[u] += X[v]
            continue
        if X[p] < 0:
            for u in rows[k]:
                X[u] = -X[u]
        k += 1
    return SnfDecomposition(
        IntMatrix(nr, nr, tuple(X[oU:oV])), IntMatrix(nr, nc, tuple(X[:oU])),
        IntMatrix(nc, nc, tuple(X[oV:])), k)


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


def particular_solutions(snf: SnfDecomposition, rhs):
    """One integer solution of A x = r for each r in rhs, in turn.

    snf is the Smith form U A V = S of A, of any shape and rank k.  For each
    r this yields V (U r / alpha, 0), or None when a diagonal entry alpha_j
    does not divide (U r)_j or a row of U r past the rank is not 0, so that
    A x = r has no integer point.  The integer points are the yielded one
    plus the integer kernel, kernel_basis(snf).  Lazy, so a caller that
    checks each brick as it comes keeps its order.
    """
    k = snf.rank
    rows = snf.U.row_lists()
    pivots = list(zip(snf.diagonal, rows[:k]))
    zero_rows = rows[k:]  # rows of U whose product with r must vanish
    fixed = [row[:k] for row in snf.V.row_lists()]  # V without its kernel columns
    for r in rhs:
        if len(r) != len(rows):
            raise DimensionMismatchError(f"right-hand side has length {len(r)}, expected {len(rows)}")
        y = []
        for alpha, u in pivots:
            q, m = divmod(sum(map(mul, u, r)), alpha)
            if m:
                y = None
                break
            y.append(q)
        if y is None or zero_rows and any(sum(map(mul, u, r)) for u in zero_rows):
            yield None
        else:
            yield tuple(sum(map(mul, v, y)) for v in fixed)


def kernel_basis(snf: SnfDecomposition):
    """Integer kernel basis of A: the columns of V past the rank (unimodular V)."""
    return tuple(snf.V.col(j) for j in range(snf.rank, snf.V.cols))


def round_half_even(num: int, den: int) -> int:
    """num / den rounded to the nearest integer, ties to even; den > 0.

    The rule of round() on a Fraction, in integers.
    """
    if den <= 0:
        raise MalformedProblemError(f"round_half_even needs den > 0, not {den!r}")
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    return q


def quotient_range(theta: int, lo: int, hi: int):
    """Least and greatest integer q with lo <= theta * q <= hi, theta != 0.

    The pair is (ceil, floor) of the two quotients, so it is empty (first >
    second) exactly when no multiple of theta lies in [lo, hi].
    """
    if theta > 0:
        return -(-lo // theta), hi // theta
    if theta < 0:
        return -(-hi // theta), lo // theta
    raise MalformedProblemError("quotient_range needs theta != 0")


def reduce_basis(basis):
    """Lenstra-Lenstra-Lovasz reduction of an integer lattice basis.

    The unimodular transform out of the normal form is typically extremely
    skewed: with 40-digit inputs its columns reach 80+ digits even though the
    lattice has generators near the input magnitude.  Everything downstream
    (coordinate boxes, branching geometry, nearest-point rounding) needs the
    basis near-orthogonal, and pairwise size reduction alone is not enough,
    so this is the classic exact-arithmetic LLL with delta = 3/4.

    It is the integral LLL of de Weger (1987) in the form of Cohen, A Course
    in Computational Algebraic Number Theory, Alg. 2.6.7: every quantity is
    an int.  With b*_j the Gram-Schmidt vectors and mu_kj the Gram-Schmidt
    coefficients, d[0] = 1 and d[i + 1] = |b*_0|^2 ... |b*_i|^2 is the Gram
    determinant of b_0 .. b_i, and lam[k][j] = d[j + 1] mu_kj; both are
    integers for an integer basis.  A size-reduction step changes only row k
    of lam; a swap updates d[k] and the lam of later rows by exact integer
    division.

    The decisions and their order are those of the textbook loop: b_k is
    size-reduced against b_{k-1}, ..., b_0 in turn, each multiplier
    rounded half to even (round(mu_kj) in exact rationals), and only then
    is the Lovasz condition |b*_k|^2 >= (3/4 - mu_k,k-1^2) |b*_{k-1}|^2
    tested, as 4 d[k+1] d[k-1] >= 3 d[k]^2 - 4 lam[k][k-1]^2.  (Cohen tests
    after reducing against b_{k-1} alone, which can end at another basis.)
    The input vectors must be linearly independent: a zero Gram determinant
    raises MalformedProblemError.
    """
    basis = [list(v) for v in basis]
    m = len(basis)

    # integral Gram-Schmidt of the whole input
    d = [1] + [0] * m
    lam = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1):
            u = sum(map(mul, basis[i], basis[j]))
            for t in range(j):
                u = (d[t + 1] * u - lam[i][t] * lam[j][t]) // d[t]
            if j < i:
                lam[i][j] = u
            elif u:
                d[i + 1] = u
            else:
                raise MalformedProblemError("reduce_basis needs linearly independent vectors")

    k = 1
    while k < m:
        row = lam[k]
        for j in range(k - 1, -1, -1):
            q = round_half_even(row[j], d[j + 1])
            if q:
                basis[k] = [x - q * y for x, y in zip(basis[k], basis[j])]
                row[j] -= q * d[j + 1]
                for t in range(j):
                    row[t] -= q * lam[j][t]
        la = row[k - 1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] * d[k] - 4 * la * la:
            k += 1
            continue
        basis[k], basis[k - 1] = basis[k - 1], basis[k]
        for t in range(k - 1):
            lam[k][t], lam[k - 1][t] = lam[k - 1][t], lam[k][t]
        dk = (d[k + 1] * d[k - 1] + la * la) // d[k]
        for i in range(k + 1, m):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - la * t) // d[k]
            lam[i][k - 1] = (dk * t + la * lam[i][k]) // d[k + 1]
        d[k] = dk
        k = max(k - 1, 1)
    return basis


def coordinate_box(basis, p, lo, hi):
    """Recentred offset and coordinate box of the lattice p + basis^T v.

    With W the f x t matrix of the basis rows and G = W W^T its Gram
    matrix, v = G^-1 W (x - p) recovers the coordinates of a lattice point
    x.  The work is fraction-free: one Bareiss (1968) elimination of
    [G | W] (G is positive definite, so no pivot is zero and none is moved)
    and a back substitution by exact division give the integer matrix
    Y = det(G) G^-1 W.  The offset is moved by the nearest integer
    coordinates (ties to even) of the box midpoint, so the numbers of the
    search stay small, and each coordinate's range over the box lo <= x <= hi,
    which is Y (x - p) / det(G) summed end by end, is rounded inward.
    Returns (offset, v_lo, v_hi), or None when some coordinate range holds
    no integer.
    """
    f, t = len(basis), len(p)
    m = [[sum(map(mul, a, b)) for b in basis] + list(a) for a in basis]
    width = f + t
    prev = 1
    for k in range(f - 1):
        piv, top = m[k][k], m[k]
        for r in range(k + 1, f):
            low, c = m[r], m[r][k]
            for j in range(k + 1, width):
                low[j] = (piv * low[j] - c * top[j]) // prev
            low[k] = 0
        prev = piv
    det = m[f - 1][f - 1]
    y = [None] * f
    for k in range(f - 1, -1, -1):
        y[k] = [
            (det * m[k][f + i] - sum(m[k][j] * y[j][i] for j in range(k + 1, f))) // m[k][k]
            for i in range(t)
        ]
    mid2 = [lo[i] + hi[i] - 2 * p[i] for i in range(t)]
    shift = [round_half_even(sum(map(mul, y[k], mid2)), 2 * det) for k in range(f)]
    if any(shift):
        p = [p[i] + sum(shift[k] * basis[k][i] for k in range(f)) for i in range(t)]
    v_lo, v_hi = [], []
    for k in range(f):
        end_lo = end_hi = 0
        for i in range(t):
            c = y[k][i]
            if c:
                ends = (c * (lo[i] - p[i]), c * (hi[i] - p[i]))
                end_lo += min(ends)
                end_hi += max(ends)
        a, b = quotient_range(det, end_lo, end_hi)
        if a > b:
            return None
        v_lo.append(a)
        v_hi.append(b)
    return p, v_lo, v_hi


def lattice_in_box(snf: SnfDecomposition, r, lo, hi):
    """The integer points of A x = r in the box lo <= x <= hi, in coordinates.

    snf is A's Smith form.  Every such point is p + basis^T v for an integer v
    in the box v_lo <= v <= v_hi: p is a particular solution recentred near
    the box midpoint and basis the LLL-reduced integer kernel.  Returns
    (p, basis, v_lo, v_hi) as tuples, or None when A x = r has no integer
    point or the coordinate box is empty, which proves that the box holds
    none.
    """
    if type(snf) is not SnfDecomposition:
        raise MalformedProblemError(f"lattice_in_box needs a Smith form, not a {type(snf).__name__}")
    p = next(particular_solutions(snf, [r]))
    if p is None:
        return None
    basis = reduce_basis(kernel_basis(snf))
    if not basis:
        return p, (), (), ()
    box = coordinate_box(basis, p, lo, hi)
    if box is None:
        return None
    p, v_lo, v_hi = box
    return tuple(p), tuple(map(tuple, basis)), tuple(v_lo), tuple(v_hi)
