"""Ground-truth engine: exhaustive lattice enumeration.

The enumerator walks variables in odometer order and prunes with per-row
residual intervals, so block-structured instances collapse to a tiny search
tree.  A visited-node budget keeps it from wandering off into boxes it has
no business enumerating; any box whose volume fits the budget is guaranteed
to finish.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import chain

from .errors import BudgetExceededError, MalformedProblemError
from .intlin import quotient_range
from .model import FourBlockInstance, GeneralizedNFoldInstance, Infeasible, IntMatrix, Solution, validate


@dataclass(frozen=True)
class OracleBudget:
    max_points: int = 10**7


def _generalized_issues(g: GeneralizedNFoldInstance) -> list[str]:
    """validate's shape and integrality checks for a GeneralizedNFoldInstance.

    n must be a nonnegative int; A_blocks, D_blocks, b, each b_i, b0, l, u
    and w tuples or lists, with n entries in A_blocks, D_blocks and b;
    every block an IntMatrix of rows x cols entries, each D_i as wide as
    A_i with one row per entry of b0, each b_i one entry per row of A_i;
    l, u and w one entry per variable; and every entry an int (not a bool).
    """
    if type(g.n) is not int or g.n < 0:
        return [f"n = {g.n!r} is not a nonnegative int"]
    vectors = (g.A_blocks, g.D_blocks, g.b, g.b0, g.l, g.u, g.w)
    seqs = (tuple, list)
    if any(type(v) not in seqs for v in vectors) or any(type(bi) not in seqs for bi in g.b):
        return ["A_blocks, D_blocks, b, each b_i, b0, l, u and w must be tuples or lists"]
    if not len(g.A_blocks) == len(g.D_blocks) == len(g.b) == g.n:
        return [f"A_blocks, D_blocks and b have {len(g.A_blocks)}, {len(g.D_blocks)} "
                f"and {len(g.b)} entries, expected n = {g.n}"]
    blocks = list(chain(g.A_blocks, g.D_blocks))
    if any(type(M) is not IntMatrix or len(M.entries) != M.rows * M.cols for M in blocks):
        return ["a block is not an IntMatrix with rows x cols entries"]
    issues = [f"block {i} has the wrong shape"
              for i, (Ai, Di, bi) in enumerate(zip(g.A_blocks, g.D_blocks, g.b))
              if Di.cols != Ai.cols or Di.rows != len(g.b0) or len(bi) != Ai.rows]
    issues += [f"{name} has length {len(v)}, expected {g.num_vars}"
               for name, v in (("l", g.l), ("u", g.u), ("w", g.w)) if len(v) != g.num_vars]
    entries = chain(g.l, g.u, g.w, g.b0, *g.b, *(M.entries for M in blocks))
    if not set(map(type, entries)) <= {int}:
        issues.append("an entry of l, u, w, b0, b or a block is not an int")
    return issues


def enumerate_optimum(inst, budget: OracleBudget | None = None):
    """Exact optimum of a FourBlockInstance or a GeneralizedNFoldInstance.

    Returns a Solution or Infeasible; raises BudgetExceededError once the
    number of visited value assignments passes budget.max_points, and
    MalformedProblemError for an instance that validate rejects (or, for
    a generalized instance, _generalized_issues).  An empty box, l_j > u_j,
    is no error here: it is Infeasible.
    """
    if isinstance(inst, FourBlockInstance):
        issues = [i.message for i in validate(inst) if i.code != "LowerExceedsUpper"]
    elif isinstance(inst, GeneralizedNFoldInstance):
        issues = _generalized_issues(inst)
    else:
        issues = [f"enumeration takes a 4-block or generalized n-fold instance, not {type(inst).__name__}"]
    if issues:
        raise MalformedProblemError(issues[0])
    if budget is None:
        budget = OracleBudget()
    max_points = budget.max_points
    lower, upper, weights = inst.l, inst.u, inst.w
    N = len(lower)
    if any(lower[j] > upper[j] for j in range(N)):
        return Infeasible("EmptyBox")

    rows = list(inst.dense_rows())
    by_var = [[] for _ in range(N)]
    residual = []
    # sufmin/sufmax[r][j] bound the contribution of variables >= j to row r
    sufmin = []
    sufmax = []
    ends_at = [[] for _ in range(N)]
    for r, (coeffs, rhs) in enumerate(rows):
        support = [j for j in range(N) if coeffs[j] != 0]
        if not support:
            if rhs != 0:
                return Infeasible("ConstantRowViolated")
            continue
        idx = len(residual)
        residual.append(rhs)
        mins = [0] * (N + 1)
        maxs = [0] * (N + 1)
        for j in range(N - 1, -1, -1):
            c = coeffs[j]
            lo_c = hi_c = 0
            if c > 0:
                lo_c, hi_c = c * lower[j], c * upper[j]
            elif c < 0:
                lo_c, hi_c = c * upper[j], c * lower[j]
            mins[j] = mins[j + 1] + lo_c
            maxs[j] = maxs[j + 1] + hi_c
        sufmin.append(mins)
        sufmax.append(maxs)
        for j in support:
            by_var[j].append((idx, coeffs[j]))
        ends_at[support[-1]].append(idx)

    if N == 0:
        return Solution((), 0, "bruteforce")

    best_obj = None
    best_x = None
    x = [0] * N
    visited = 0
    sys.setrecursionlimit(max(sys.getrecursionlimit(), N + 200))

    def descend(j: int, obj: int):
        nonlocal best_obj, best_x, visited
        if j == N:
            if best_obj is None or obj > best_obj:
                best_obj = obj
                best_x = tuple(x)
            return
        lo, hi = lower[j], upper[j]
        touched = by_var[j]
        for idx, c in touched:
            # residual minus future contributions brackets c * x_j
            rem_lo = residual[idx] - sufmax[idx][j + 1]
            rem_hi = residual[idx] - sufmin[idx][j + 1]
            q_lo, q_hi = quotient_range(c, rem_lo, rem_hi)
            lo = max(lo, q_lo)
            hi = min(hi, q_hi)
        if lo > hi:
            return
        finals = ends_at[j]
        wj = weights[j]
        for v in range(lo, hi + 1):
            visited += 1
            if visited > max_points:
                raise BudgetExceededError(visited, max_points)
            for idx, c in touched:
                residual[idx] -= c * v
            if all(residual[idx] == 0 for idx in finals):
                x[j] = v
                descend(j + 1, obj + wj * v)
            for idx, c in touched:
                residual[idx] += c * v
        return

    descend(0, 0)
    if best_obj is None:
        return Infeasible("NoLatticePoint")
    return Solution(best_x, best_obj, "bruteforce")
