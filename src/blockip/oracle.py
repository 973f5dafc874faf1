"""Ground-truth engine: exhaustive lattice enumeration.

The enumerator walks variables in odometer order and prunes with per-row
residual intervals, so block-structured instances collapse to a tiny search
tree.  A visited-node budget keeps it from wandering off into boxes it has
no business enumerating; any box whose volume fits the budget is guaranteed
to finish.

It decides either instance kind, FourBlockInstance or
GeneralizedNFoldInstance, row by row from dense_rows, so it is the one
solver for the per-block encodings of reductions and for what classify
calls GENERAL or HARD.  Its input check is model.validate, as for the
structured routes.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .errors import BudgetExceededError, InternalInconsistencyError, MalformedProblemError
from .intlin import quotient_range
from .model import Infeasible, Solution, evaluate, validate


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
    here: it is Infeasible.  The point returned is re-checked by
    model.evaluate, and InternalInconsistencyError is raised when it is
    infeasible or worth another objective.
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
        return _checked(inst, (), 0)

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
    return _checked(inst, best_x, best_obj)


def _checked(inst, x, objective):
    report = evaluate(inst, x)
    if not report.feasible or report.objective != objective:
        raise InternalInconsistencyError(
            f"enumerated point infeasible or off-objective: {report.violations[:3]}")
    return Solution(x, objective, "bruteforce")
