"""Subset-sum encodings into block-structured feasibility instances.

Three encodings, one per known hardness frontier: a wide brick with the
target as coefficient, per-block top rows, and per-block brick matrices.
All produced instances have an all-zero objective; only feasibility matters.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadParamsError, BetaExceedsTargetError
from .model import FourBlockInstance, GeneralizedNFoldInstance, IntMatrix


@dataclass(frozen=True)
class SubsetSumInstance:
    betas: tuple[int, ...]
    delta: int

    @staticmethod
    def make(betas, delta: int) -> "SubsetSumInstance":
        try:
            betas = tuple(betas)
        except TypeError:
            raise BadParamsError(f"items must be a sequence of ints, got {betas!r}") from None
        # int() would turn 2.5 into 2 and True into 1: an instance of
        # another problem
        if any(type(v) is not int for v in (*betas, delta)):
            raise BadParamsError("items and target must be ints")
        if not betas:
            raise BadParamsError("need at least one item")
        if any(b < 1 for b in betas):
            raise BadParamsError("all items must be positive")
        if delta < 1:
            raise BadParamsError("target must be positive")
        return SubsetSumInstance(betas, delta)


def _check_betas_bounded(s: SubsetSumInstance):
    for i, beta in enumerate(s.betas):
        if beta > s.delta:
            raise BetaExceedsTargetError(f"item {i} = {beta} exceeds target {s.delta}")


def encode_theorem1(s: SubsetSumInstance) -> FourBlockInstance:
    """Bricks (x1, x2, x3) with x1 + x2 + delta*x3 = delta and sum of x1 = delta.

    Brick i contributes x1 = beta_i to the aggregate exactly when its
    indicator x3 is 0, so the instance is feasible iff some subset of betas
    sums to delta.
    """
    _check_betas_bounded(s)
    n, delta = len(s.betas), s.delta
    A = IntMatrix.from_rows([[1, 1, delta]])
    D = IntMatrix.from_rows([[1, 0, 0]])
    l = [0, 0, 0] * n
    u = []
    for beta in s.betas:
        u.extend([beta, delta - beta, 1])
    return FourBlockInstance.nfold(
        n, A, D, b0=[delta], b=[[delta]] * n, l=l, u=u, w=[0] * (3 * n)
    )


def encode_theorem2a(s: SubsetSumInstance) -> GeneralizedNFoldInstance:
    """Shared brick matrix (delta, 1), per-block top rows (beta_i, 0).

    No box here mentions delta - beta_i, so oversized items are legal:
    they simply cannot be selected and the instance stays well formed.
    """
    n, delta = len(s.betas), s.delta
    A = IntMatrix.from_rows([[delta, 1]])
    A_blocks = [A] * n
    D_blocks = [IntMatrix.from_rows([[beta, 0]]) for beta in s.betas]
    l = [0, 0] * n
    u = []
    for _ in s.betas:
        u.extend([1, delta])
    return GeneralizedNFoldInstance.make(
        n, A_blocks, D_blocks, b0=[delta], b=[[delta]] * n, l=l, u=u, w=[0] * (2 * n)
    )


def encode_theorem2b(s: SubsetSumInstance) -> GeneralizedNFoldInstance:
    """Per-block brick matrices (1, beta_i), shared top row (1, 0)."""
    n, delta = len(s.betas), s.delta
    A_blocks = [IntMatrix.from_rows([[1, beta]]) for beta in s.betas]
    D_blocks = [IntMatrix.from_rows([[1, 0]])] * n
    l = [0, 0] * n
    u = []
    for beta in s.betas:
        u.extend([beta, 1])
    return GeneralizedNFoldInstance.make(
        n,
        A_blocks,
        D_blocks,
        b0=[delta],
        b=[[beta] for beta in s.betas],
        l=l,
        u=u,
        w=[0] * (2 * n),
    )


def encode_scheduling(s: SubsetSumInstance, k: int) -> FourBlockInstance:
    """Machine-loading feasibility: n machines, three job types of sizes 1, 1, delta.

    Machine i accepts at most beta_i type-1, delta - beta_i type-2, one
    type-3 job; there are delta type-1, (n-k-1)*delta type-2, k type-3 jobs
    and every machine must be loaded to exactly delta.  With k = n the
    type-2 job count goes negative, which simply leaves the top row
    unsatisfiable: the instance is constructed anyway and is infeasible.
    A k that is not an int (a bool, float or Fraction included) raises
    BadParamsError, as one outside [0, n] does.
    """
    _check_betas_bounded(s)
    if type(k) is not int:
        raise BadParamsError(f"k must be an int, not {k!r}")
    if k < 0 or k > len(s.betas):
        raise BadParamsError(f"k must lie in [0, {len(s.betas)}], got {k}")
    n, delta = len(s.betas), s.delta
    A = IntMatrix.from_rows([[1, 1, delta]])
    D = IntMatrix.identity(3)
    l = [0, 0, 0] * n
    u = []
    for beta in s.betas:
        u.extend([beta, delta - beta, 1])
    return FourBlockInstance.nfold(
        n,
        A,
        D,
        b0=[delta, (n - k - 1) * delta, k],
        b=[[delta]] * n,
        l=l,
        u=u,
        w=[0] * (3 * n),
    )
