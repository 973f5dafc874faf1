"""Ground-truth engine: exhaustive lattice enumeration.

The enumerator walks variables in odometer order and prunes with per-row
residual intervals, so block-structured instances collapse to a tiny search
tree.  A visited-node budget keeps it from wandering off into boxes it has
no business enumerating; any box whose volume fits the budget is guaranteed
to finish.  Set-up reads each row's nonzeros once, so the work before the
first visit is linear in them and a small budget fails fast on a large
instance.

It decides either instance kind, FourBlockInstance or
GeneralizedNFoldInstance, row by row from their rows(), so it is the one
solver for the per-block encodings of reductions and for what classify
calls GENERAL or HARD.  Its input check is model.validate, as for the
structured routes.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .errors import BudgetExceededError, MalformedProblemError
from .intlin import quotient_range
from .model import Infeasible, checked_solution, evaluate, validate


@dataclass(frozen=True)
class OracleBudget:
    max_points: int = 10**7


def enumerate_optimum(inst, budget: OracleBudget | None = None):
    """Exact optimum of a FourBlockInstance or a GeneralizedNFoldInstance.

    Returns a Solution or Infeasible; raises BudgetExceededError once the
    number of visited value assignments passes budget.max_points, and
    MalformedProblemError for anything that model.validate rejects, either
    instance kind alike, and for a budget that is not an OracleBudget or
    whose max_points is not an int.  An empty box, l_j > u_j, is no error
    here: it is Infeasible.  The point returned passes model.evaluate
    through model.checked_solution, which raises InternalInconsistencyError
    when it is infeasible or worth another objective.  The search raises
    the recursion limit to the depth it needs and restores the caller's on
    every exit.
    """
    issues = [i.message for i in validate(inst) if i.code != "LowerExceedsUpper"]
    if issues:
        raise MalformedProblemError(issues[0])
    if budget is None:
        budget = OracleBudget()
    if type(budget) is not OracleBudget:
        raise MalformedProblemError(f"budget is a {type(budget).__name__}, not an OracleBudget")
    if type(budget.max_points) is not int:
        raise MalformedProblemError(
            f"budget.max_points is a {type(budget.max_points).__name__}, not an int")
    max_points = budget.max_points
    lower, upper, weights = inst.l, inst.u, inst.w
    N = len(lower)
    if any(lower[j] > upper[j] for j in range(N)):
        return Infeasible("EmptyBox")

    # by_var[j] holds (row, c, rest_lo, rest_hi) for each row with c x_j,
    # rest_* the least and greatest contribution of the row's later columns
    by_var = [[] for _ in range(N)]
    residual = []
    ends_at = [[] for _ in range(N)]
    for row, rhs in inst.rows():
        if not row:
            if rhs != 0:
                return Infeasible("ConstantRowViolated")
            continue
        idx = len(residual)
        residual.append(rhs)
        rest_lo = rest_hi = 0
        for j in reversed(row):
            c = row[j]
            by_var[j].append((idx, c, rest_lo, rest_hi))
            lo_c, hi_c = sorted((c * lower[j], c * upper[j]))
            rest_lo += lo_c
            rest_hi += hi_c
        ends_at[max(row)].append(idx)

    best_obj = None
    best_x = None
    x = [0] * N
    visited = 0

    def descend(j: int, obj: int):
        nonlocal best_obj, best_x, visited
        if j == N:
            if best_obj is None or obj > best_obj:
                best_obj = obj
                best_x = tuple(x)
            return
        lo, hi = lower[j], upper[j]
        touched = by_var[j]
        for idx, c, rest_lo, rest_hi in touched:
            # residual minus the later contributions brackets c * x_j
            q_lo, q_hi = quotient_range(c, residual[idx] - rest_hi, residual[idx] - rest_lo)
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
            for idx, c, _, _ in touched:
                residual[idx] -= c * v
            if all(residual[idx] == 0 for idx in finals):
                x[j] = v
                descend(j + 1, obj + wj * v)
            for idx, c, _, _ in touched:
                residual[idx] += c * v

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, N + 200))
    try:
        descend(0, 0)
    finally:
        sys.setrecursionlimit(limit)
    if best_obj is None:
        return Infeasible("NoLatticePoint")
    return checked_solution(evaluate(inst, best_x), best_x, best_obj, "bruteforce")
