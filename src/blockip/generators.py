"""Seeded random instance generators for the three structured solver routes.

Each generator takes a random.Random and is a pure function of its stream,
so a fixed seed reproduces the instance byte for byte after serialization.
With seeded_rate probability the right-hand sides are derived from a random
in-box point, guaranteeing feasibility; otherwise they are sampled freely
and the instance may be empty.  scale stretches matrix entries and boxes to
the requested magnitude without changing the shape.
"""

from .errors import BadParamsError
from .intlin import brick_form
from .model import FourBlockInstance, IntMatrix


def _check_params(seeded_rate, **sizes):
    """BadParamsError for parameters no instance can have, before any draw.

    Every size must be an int (a bool or a float equal to an int is
    refused, as model.validate refuses such entries) and seeded_rate an int
    or a float.  No size may be negative: a negative width or n has no box,
    and a negative block shape no matrix.  coeff < 1 or scale < 1 would
    leave only the zero brick matrix, which _full_rank_brick redraws
    forever.
    """
    odd = [f"{name} = {v!r}" for name, v in sizes.items() if type(v) is not int]
    if odd:
        raise BadParamsError(f"sizes must be ints, got {', '.join(odd)}")
    if type(seeded_rate) not in (int, float):
        raise BadParamsError(f"seeded_rate must be an int or a float, got {seeded_rate!r}")
    odd = [f"{name} = {v}" for name, v in sizes.items() if v < 0]
    if odd:
        raise BadParamsError(f"sizes must be nonnegative, got {', '.join(odd)}")
    coeff, scale = sizes["coeff"], sizes["scale"]
    if coeff < 1 or scale < 1:
        raise BadParamsError(f"coeff and scale must be positive, got {coeff} and {scale}")


def _rand_matrix(rng, rows, cols, coeff, scale=1):
    span = coeff * scale
    return IntMatrix.from_rows(
        [[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)]
    ) if rows else IntMatrix.zero(0, cols)


def _rand_box(rng, size, width, scale):
    l, u = [], []
    for _ in range(size):
        lo = rng.randint(-3 * scale, 2 * scale)
        l.append(lo)
        u.append(lo + rng.randint(0, width * scale))
    return l, u


def _finish(rng, n, A, B, C, D, l, u, scale, seeded_rate):
    """Weights and right-hand sides; seeded instances carry a witness point."""
    t_B, t_A = B.cols, A.cols
    s_C, s_A = C.rows, A.rows
    N = t_B + n * t_A
    w = [rng.randint(-6, 6) for _ in range(N)]
    if rng.random() < seeded_rate:
        x = [rng.randint(l[k], u[k]) for k in range(N)]
        x0 = x[:t_B]
        b0 = list(C.mul_vec(x0))
        b = []
        for i in range(n):
            xi = x[t_B + i * t_A : t_B + (i + 1) * t_A]
            bi = [av + bv for av, bv in zip(A.mul_vec(xi), B.mul_vec(x0))]
            b.append(bi)
            for r, v in enumerate(D.mul_vec(xi)):
                b0[r] += v
    else:
        span = 8 * scale
        b0 = [rng.randint(-span, span) for _ in range(s_C)]
        b = [[rng.randint(-span, span) for _ in range(s_A)] for _ in range(n)]
    return FourBlockInstance.make(n, A, B, C, D, b0, b, l, u, w)


def random_ones_instance(rng, n=3, t_A=2, t_B=1, s_C=1, width=4, coeff=5,
                         scale=1, seeded_rate=0.6) -> FourBlockInstance:
    """Instance whose single brick row is all ones (aggregation route)."""
    _check_params(seeded_rate, n=n, t_A=t_A, t_B=t_B, s_C=s_C, width=width, coeff=coeff, scale=scale)
    if t_A < 1:
        raise BadParamsError("need at least one brick column")
    A = IntMatrix.from_rows([[1] * t_A])
    B = _rand_matrix(rng, 1, t_B, coeff, scale)
    C = _rand_matrix(rng, s_C, t_B, coeff, scale)
    D = _rand_matrix(rng, s_C, t_A, coeff, scale)
    l, u = _rand_box(rng, t_B + n * t_A, width, scale)
    return _finish(rng, n, A, B, C, D, l, u, scale, seeded_rate)


def _full_rank_brick(rng, s_A, coeff, scale=1, forbid_all_ones=False):
    while True:
        M = _rand_matrix(rng, s_A, s_A + 1, coeff, scale)
        if brick_form(M) is not None and not (forbid_all_ones and all(v == 1 for v in M.entries)):
            return M


def random_snf_instance(rng, n=3, s_A=1, t_B=1, s_C=1, width=3, coeff=3,
                        scale=1, seeded_rate=0.6) -> FourBlockInstance:
    """4-block instance with t_A = s_A + 1 and full-row-rank bricks.

    t_B must be positive: with no shared variables the instance would route
    to the plain n-fold solver instead.
    """
    _check_params(seeded_rate, n=n, s_A=s_A, t_B=t_B, s_C=s_C, width=width, coeff=coeff, scale=scale)
    if t_B < 1:
        raise BadParamsError("shared brick must be nonempty for this shape")
    if s_A < 1:
        raise BadParamsError("brick matrix needs at least one row")
    A = _full_rank_brick(rng, s_A, coeff, scale, forbid_all_ones=(s_A == 1))
    B = _rand_matrix(rng, s_A, t_B, 2, scale)
    C = _rand_matrix(rng, s_C, t_B, 2, scale)
    D = _rand_matrix(rng, s_C, s_A + 1, 2, scale)
    l, u = _rand_box(rng, t_B + n * (s_A + 1), width, scale)
    return _finish(rng, n, A, B, C, D, l, u, scale, seeded_rate)


def random_nfold_instance(rng, n=4, t_A=2, s_C=1, width=5, coeff=4,
                          scale=1, seeded_rate=0.6) -> FourBlockInstance:
    """Eligible plain n-fold instance (no shared brick, Smith route)."""
    _check_params(seeded_rate, n=n, t_A=t_A, s_C=s_C, width=width, coeff=coeff, scale=scale)
    if t_A < 2:
        raise BadParamsError("brick needs at least two columns")
    s_A = t_A - 1
    A = _full_rank_brick(rng, s_A, coeff, scale, forbid_all_ones=(s_A == 1))
    B = IntMatrix.zero(s_A, 0)
    C = IntMatrix.zero(s_C, 0)
    D = _rand_matrix(rng, s_C, t_A, coeff, scale)
    l, u = _rand_box(rng, n * t_A, width, scale)
    return _finish(rng, n, A, B, C, D, l, u, scale, seeded_rate)
