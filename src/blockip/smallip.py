"""Exact mixed-integer optimization by branch and bound.

Sits directly on the rational simplex: every node bound is the true LP
optimum, so best-bound search with integer feasibility checks is a complete
and exact method.  Child nodes differ from their parent by one tightened
bound, so they re-solve warm from the parent basis with the dual simplex
instead of paying a cold two-phase solve each.  Intended for the small
auxiliary programs the structured solvers generate (a handful of variables,
narrow boxes), not as a general purpose MIP engine.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInconsistencyError, MalformedProblemError
from .ratlp import INFEASIBLE, OPTIMAL, LpProblem, LpResult, solve_lp_warm


@dataclass(frozen=True)
class MipProblem:
    """LP data plus a mask saying which variables must be integral."""

    lp: LpProblem
    integer_mask: tuple

    @staticmethod
    def make(lp: LpProblem, integer_mask) -> "MipProblem":
        mask = tuple(bool(f) for f in integer_mask)
        if len(mask) != len(lp.objective):
            raise MalformedProblemError("integrality mask has wrong length")
        return MipProblem(lp, mask)


def _branch_var(point, mask):
    """Masked variable farthest from an integer, or -1 if all integral.

    Ties go to the smallest index so the search order is deterministic.
    """
    best, best_dist = -1, Fraction(0)
    for j, v in enumerate(point):
        if not mask[j]:
            continue
        frac = v - (v.numerator // v.denominator)
        dist = min(frac, 1 - frac)
        if dist > best_dist:
            best, best_dist = j, dist
    return best


def _audit_candidate(p: MipProblem, point, value) -> None:
    # a heuristic incumbent steers pruning, so it must be exactly feasible
    lp = p.lp
    n = len(lp.objective)
    if len(point) != n:
        raise InternalInconsistencyError(f"candidate has {len(point)} entries, not {n}")
    for j in range(n):
        if not lp.lower[j] <= point[j] <= lp.upper[j]:
            raise InternalInconsistencyError(f"candidate entry {j} = {point[j]} leaves its box")
        if p.integer_mask[j] and Fraction(point[j]).denominator != 1:
            raise InternalInconsistencyError(f"candidate entry {j} = {point[j]} is not integral")
    for r, (row, rhs) in enumerate(zip(lp.eq_matrix, lp.eq_rhs)):
        if sum(row[j] * point[j] for j in range(n) if row[j]) != rhs:
            raise InternalInconsistencyError(f"candidate misses row {r}")
    check = sum(lp.objective[j] * point[j] for j in range(n) if lp.objective[j])
    if check != value:
        raise InternalInconsistencyError(f"candidate is worth {check}, not the claimed {value}")


def solve_mip(p: MipProblem, cutoff=None, integral_value=False, primal_hint=None) -> LpResult:
    """Maximize over the mixed lattice of p.  Exact.

    cutoff, when given, is an exclusive lower bound on interesting values:
    subtrees whose LP bound is <= cutoff are pruned and only solutions with
    value > cutoff are returned.  When nothing beats the cutoff the result is
    Infeasible even if the program has worse feasible points.  The nodes field
    counts LP relaxations solved.

    integral_value asserts that every feasible point of the mixed lattice has
    an integer objective (for example all-integer programs with integer
    weights, or aggregates whose continuous block is totally unimodular with
    integer weights).  Bounds are then floored before ordering and pruning,
    which collapses sub-unit integrality gaps: a node with bound below
    incumbent + 1 can be discarded outright.

    primal_hint, when given, maps the root relaxation point to a feasible
    (point, value) candidate or None.  A good candidate seeds the incumbent
    so best-bound pruning starts immediately instead of after the search
    stumbles on an integral vertex.  Candidates are audited exactly.
    """
    if cutoff is not None:
        cutoff = Fraction(cutoff)
    root, state = solve_lp_warm(p.lp)
    nodes = 1
    if root.status != OPTIMAL:
        return LpResult(status=root.status, nodes=nodes)

    mask = p.integer_mask
    best_point, best_val = None, cutoff
    if primal_hint is not None:
        cand = primal_hint(root.point)
        if cand is not None:
            pt, val = cand
            pt = tuple(Fraction(v) for v in pt)
            val = Fraction(val)
            _audit_candidate(p, pt, val)
            if best_val is None or val > best_val:
                best_point, best_val = pt, val
    heap = []
    seq = 0

    def strength(bound):
        # best integral value a subtree with this LP bound could still reach
        if integral_value:
            return Fraction(bound.numerator // bound.denominator)
        return bound

    def push(state, res):
        nonlocal seq
        if res.status == OPTIMAL and (best_val is None or strength(res.value) > best_val):
            # ties on the bound pop newest-first: on a value plateau the
            # search dives to an integral point instead of sweeping the tie
            heapq.heappush(heap, (-strength(res.value), -seq, state, res))
            seq += 1

    push(state, root)
    while heap:
        negb, _, state, res = heapq.heappop(heap)
        if best_val is not None and -negb <= best_val:
            break  # best-bound order: nothing left can improve
        j = _branch_var(res.point, mask)
        if j < 0:
            best_point, best_val = res.point, res.value
            continue
        split = res.point[j].numerator // res.point[j].denominator
        lo, up = state.bounds(j)
        for child_lo, child_up in ((lo, Fraction(split)), (Fraction(split + 1), up)):
            child_res, child_state = state.reoptimized(j, child_lo, child_up)
            nodes += 1
            push(child_state, child_res)

    if best_point is None:
        return LpResult(status=INFEASIBLE, nodes=nodes)
    return LpResult(status=OPTIMAL, point=best_point, value=best_val, nodes=nodes)
