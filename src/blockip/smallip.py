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
Several programs can share one search (best_of): a single heap holds the
roots not yet solved, each under a ceiling its caller proves without an
LP, beside the open nodes of the roots already solved, so a root's LP is
solved only once its ceiling is the best bound left.  solve_mip is that
search over one root.
Integer bound propagation over sparse rows (_propagate) is here too: the
4-block route screens its cells with it, and the all-ones search closes
or shrinks its boxes with it before their bound LPs.
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
        mask = tuple(integer_mask)
        if any(type(f) is not bool for f in mask):
            raise MalformedProblemError(f"integrality mask {mask!r} holds a value that is not a bool")
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


def _propagate(rows, lo, hi, rounds=30):
    """Integer bound propagation; False when the box has no integer point.

    rows are (coeffs, b) for sum_k coeffs[k] * x_k <= b, where coeffs maps a
    variable index to a nonzero int, over integer x with lo <= x <= hi.  Each
    row bounds every variable by the row's least activity over the others,
    rounded inward because x is integral (Savelsbergh, ORSA J. Comput. 1994;
    Achterberg, Constraint Integer Programming, 2007, ch. 7).  lo and hi are
    tightened in place and never lose an integer point that meets every
    row, so False is a proof of emptiness and True proves nothing.

    A fixpoint can take as many rounds as the coefficients are large (x - y
    <= -1 and y - x <= 0 over [0, M] shrink the boxes by one per round), so
    propagation stops after rounds passes over the rows and leaves the rest
    to the caller's LP.
    """
    for k in range(len(lo)):
        if lo[k] > hi[k]:
            return False
    for _ in range(rounds):
        changed = False
        for coeffs, b in rows:
            slack = b
            for k, a in coeffs.items():
                slack -= a * (lo[k] if a > 0 else hi[k])
            if slack < 0:
                return False
            # x_k may move from its best bound by slack // |a| at most; the
            # tightened bound stays on the box side, so lo <= hi holds
            for k, a in coeffs.items():
                if a > 0:
                    if a * (hi[k] - lo[k]) > slack:
                        hi[k] = lo[k] + slack // a
                        changed = True
                elif a * (lo[k] - hi[k]) > slack:
                    lo[k] = hi[k] - slack // -a
                    changed = True
        if not changed:
            break
    return True


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
    # one root orders nothing, so its ceiling is never read
    return best_of(((p, 0, 0),), cutoff)[1]


def best_of(roots, cutoff=None):
    """The best integral point over several MIPs, by one best-first search.

    roots is a sequence of (MipProblem, constant, ceiling) with int constant
    and ceiling: a root's total is its MIP value plus its constant, and its
    ceiling bounds the total of every integer point of the root from above.
    One heap holds every root not yet solved under its ceiling, and every
    open node under its LP value plus its root's constant.  Ties go to the
    root listed first and, within one root, to the node pushed last: on a
    value plateau the search dives to an integral point instead of sweeping
    the tie.  Popping a root solves its LP; popping a node branches on it;
    the first integral node popped has the best total, and a root whose
    ceiling is below it is never solved.  So the result is the one solve_mip
    gives the first root that reaches the best total, with the best total
    of the roots before it as its cutoff, and no more LPs are solved than
    by such a solve of every root in turn.

    cutoff, when given, prunes every node whose total is <= cutoff, as in
    solve_mip.  Returns (index of the winning root, LpResult of its MIP
    part), or (None, Infeasible); nodes counts every LP solved.  Raises
    MalformedProblemError when roots is no list or tuple of such triples.
    """
    if type(roots) not in (list, tuple):
        raise MalformedProblemError(f"roots is a {type(roots).__name__}, not a list or tuple")
    for root in roots:
        if (type(root) is not tuple or len(root) != 3 or type(root[0]) is not MipProblem
                or type(root[1]) is not int or type(root[2]) is not int):
            raise MalformedProblemError(f"root {root!r} is not a (MipProblem, int, int) triple")
    heap = [(-ceiling, k, 0, None, None) for k, (_, _, ceiling) in enumerate(roots)]
    heapq.heapify(heap)
    nodes = 0
    seq = 0
    while heap:
        _, k, _, state, res = heapq.heappop(heap)
        mip, constant, _ = roots[k]
        if state is None:
            solved = (solve_lp_warm(mip.lp),)
        else:
            j = _branch_var(res.num, res.den, mip.integer_mask)
            if j < 0:
                return k, replace(res, nodes=nodes)
            split = res.num[j] // res.den
            lo, up = state.bounds(j)
            solved = (state.reoptimized(j, lo, split), state.reoptimized(j, split + 1, up))
        nodes += len(solved)
        for res, state in solved:
            if res.status == OPTIMAL:
                # the total as one Fraction, negated for the min-heap
                neg = Fraction(-res.value_num - constant * res.den, res.den)
                if cutoff is None or -neg > cutoff:
                    seq += 1
                    heapq.heappush(heap, (neg, k, -seq, state, res))
    return None, LpResult(status=INFEASIBLE, nodes=nodes)
