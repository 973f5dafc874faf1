"""Exact mixed-integer optimization by branch and bound.

Sits directly on the exact dual simplex of ratlp, whose integer tableau
returns every node bound as the true rational LP optimum, audited for
primal feasibility and for the sign of every reduced cost, so best-bound
search with integer feasibility checks is a complete and exact method.
Each node's point comes back as int numerators over one common
denominator, so the branching variable is chosen and the split point taken
in integers; only the node values, which order the search, are read as
Fractions.
Child nodes differ from their parent by one tightened bound, which keeps
the parent's basis dual feasible, so they re-solve warm from it with a few
dual pivots; only the root is solved cold, from the row-less start.
Intended for the small auxiliary programs the structured solvers generate
(a handful of variables, narrow boxes), not as a general purpose MIP engine.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import MalformedProblemError
from .ratlp import INFEASIBLE, OPTIMAL, LpProblem, LpResult, solve_lp_warm


@dataclass(frozen=True)
class MipProblem:
    """LP data plus a mask saying which variables must be integral."""

    lp: LpProblem
    integer_mask: tuple

    @staticmethod
    def make(lp: LpProblem, integer_mask) -> "MipProblem":
        if type(lp) is not LpProblem:
            raise MalformedProblemError(f"lp is a {type(lp).__name__}, not an LpProblem")
        if type(integer_mask) not in (tuple, list):
            raise MalformedProblemError(
                f"integrality mask is a {type(integer_mask).__name__}, not a tuple or list")
        mask = tuple(bool(f) for f in integer_mask)
        if len(mask) != len(lp.objective):
            raise MalformedProblemError("integrality mask has wrong length")
        return MipProblem(lp, mask)


def _branch_var(num, den, mask):
    """Masked variable farthest from an integer, or -1 if all integral.

    The point is num over the common denominator den, so each distance is
    min(r, den - r) over den with r = num % den, compared as numerators.
    Ties go to the smallest index so the search order is deterministic.
    """
    best, best_dist = -1, 0
    for j, v in enumerate(num):
        if not mask[j]:
            continue
        r = v % den
        dist = min(r, den - r)
        if dist > best_dist:
            best, best_dist = j, dist
    return best


def solve_mip(p: MipProblem, cutoff=None) -> LpResult:
    """Maximize over the mixed lattice of p.  Exact.

    cutoff, when given, is an exclusive lower bound on interesting values:
    subtrees whose LP bound is <= cutoff are pruned and only solutions with
    value > cutoff are returned.  When nothing beats the cutoff the result is
    Infeasible even if the program has worse feasible points.  The nodes field
    counts LP relaxations solved.  cutoff is None, an int or a Fraction.
    """
    if type(p) is not MipProblem:
        raise MalformedProblemError(f"p is a {type(p).__name__}, not a MipProblem")
    if cutoff is not None and type(cutoff) not in (int, Fraction):
        raise MalformedProblemError(f"cutoff {cutoff!r} is not None, an int or a Fraction")
    root, state = solve_lp_warm(p.lp)
    nodes = 1
    if root.status != OPTIMAL:
        return LpResult(status=root.status, nodes=nodes)

    mask = p.integer_mask
    best, best_val = None, cutoff
    heap = []
    seq = 0

    def push(state, res):
        nonlocal seq
        if res.status == OPTIMAL and (best_val is None or res.value > best_val):
            # ties on the bound pop newest-first: on a value plateau the
            # search dives to an integral point instead of sweeping the tie
            heapq.heappush(heap, (-res.value, -seq, state, res))
            seq += 1

    push(state, root)
    while heap:
        negb, _, state, res = heapq.heappop(heap)
        if best_val is not None and -negb <= best_val:
            break  # best-bound order: nothing left can improve
        j = _branch_var(res.num, res.den, mask)
        if j < 0:
            best, best_val = res, res.value
            continue
        split = res.num[j] // res.den
        lo, up = state.bounds(j)
        for child_lo, child_up in ((lo, split), (split + 1, up)):
            child_res, child_state = state.reoptimized(j, child_lo, child_up)
            nodes += 1
            push(child_state, child_res)

    if best is None:
        return LpResult(status=INFEASIBLE, nodes=nodes)
    return replace(best, nodes=nodes)
