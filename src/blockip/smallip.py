"""Exact mixed-integer optimization by branch and bound.

Sits directly on the exact dual simplex of ratlp, whose integer tableau
returns every node bound as the true rational LP optimum, audited for
primal feasibility and for the sign of every reduced cost, so best-bound
search with integer feasibility checks is a complete and exact method.
Each node's point comes back as int numerators over one common
denominator, so the branching variable is chosen and the split point taken
in integers.
best_of is the one best-first search of the package.  Several programs
can share it: a single heap holds every node under a proven bound, a root
under a ceiling its caller proves without an LP, so a root's LP is solved
only once its ceiling is the best bound left.  A node is solved when it is
popped, warm from the state of the node it came from, with a few dual
pivots; only a root is solved cold, from the row-less start.  solve_mip is
that search over one root, and the 4-block route runs it over its cells.
A separator can grow the rows of the search as it goes: the all-ones route
runs best_of with its cut separator, and the search then closes or shrinks
each node by integer bound propagation over those rows (_propagate, which
also screens the 4-block cells) before its LP.
Intended for the small auxiliary programs the structured solvers generate
(a handful of variables, narrow boxes), not as a general purpose MIP engine.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import mul

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
    # one root orders nothing, so its ceiling is never read
    return best_of(((p, 0, 0),), cutoff)[1]


def best_of(roots, cutoff=None, separator=None):
    """The best integral point over several MIPs, by one best-first search.

    roots is a sequence of (MipProblem, constant, ceiling) with int constant
    and ceiling: a root's total is its MIP value plus its constant, and its
    ceiling bounds the total of every integer point of the root from above.
    Every node enters the heap unsolved, under a proven bound on the totals
    of its integer points: a root's ceiling, or the LP total of the node it
    was split from, whose state it is re-solved from.  A node gets its LP
    when it is popped and goes back on the heap under its LP total; popped
    again, above every bound left, it is accepted if its point is integral
    on the mask, and otherwise split in two at _branch_var.  So the first
    node accepted has the best total.  Ties go to the root listed first
    and, within one root, to the node pushed last: on a value plateau the
    search dives to an integral point instead of sweeping the tie.  A root
    whose ceiling is below the best total is never solved, and the result
    is the one solve_mip gives the first root that reaches the best total,
    with the best total of the roots before it as its cutoff.  An LP total
    is floored when the total is an integer at every point the search
    accepts: when the objective reads only masked variables, or when a
    separator is given.

    cutoff, when given, prunes every node whose total is <= cutoff, as in
    solve_mip.  Returns (index of the winning root, LpResult of its MIP
    part), or (None, Infeasible); nodes counts every LP solved.  Raises
    MalformedProblemError when roots is no list or tuple of such triples,
    when cutoff is not None, an int or a Fraction, or when separator is
    neither None nor callable.

    separator, when given, is called as separator(num, den, add) at the
    point num / den of each node popped above every bound left, unless a
    held row cuts the point off (Achterberg, Constraint Integer Programming,
    2007, ch. 3).  It returns the best total it has found, an int, or None,
    and that total raises the cutoff.  add(coeffs, lo, hi) holds the row
    lo <= coeffs . x <= hi unless the search holds it already, and says
    whether it was new.  A held row must hold at every integer point that
    beats the separator's best total, every variable of such a point must
    be an integer, and the rows are over the variables every root shares.
    A row with lo None has no lower side; its LP row is bounded below by
    the least value over the roots' box.  A node whose point a held row
    cuts off goes back on the heap under its LP total, and is re-solved
    with every row held since its state was solved; a root is first solved
    over its own program.  Before a re-solve, the node gets one round of
    _propagate over the sides of the held rows, with its total held in
    [cutoff + 1, its bound]: propagation that empties the node closes it,
    and propagation that shrinks it has the LP solved over the smaller box.
    """
    if type(roots) not in (list, tuple):
        raise MalformedProblemError(f"roots is a {type(roots).__name__}, not a list or tuple")
    for root in roots:
        if (type(root) is not tuple or len(root) != 3 or type(root[0]) is not MipProblem
                or type(root[1]) is not int or type(root[2]) is not int):
            raise MalformedProblemError(f"root {root!r} is not a (MipProblem, int, int) triple")
    if cutoff is not None and type(cutoff) not in (int, Fraction):
        raise MalformedProblemError(f"cutoff {cutoff!r} is not None, an int or a Fraction")
    if separator is not None and not callable(separator):
        raise MalformedProblemError(f"separator {separator!r} is not callable")
    integral = [separator is not None or all(m or not c for c, m in zip(mip.lp.objective, mip.integer_mask))
                for mip, _, _ in roots]
    # the held rows, as LP rows and each side as a sparse map for _propagate
    rows, prop, held = [], [], set()

    def add(coeffs, lo, hi):
        key = (tuple(coeffs), lo, hi)
        if key in held:
            return False
        held.add(key)
        sparse = {j: a for j, a in enumerate(coeffs) if a}
        prop.append((sparse, hi))
        if lo is None:
            lo = min(sum(a * (mip.lp.lower[j] if a > 0 else mip.lp.upper[j]) for j, a in sparse.items())
                     for mip, _, _ in roots)
        else:
            prop.append(({j: -a for j, a in sparse.items()}, -lo))
        rows.append((list(coeffs), lo, hi))
        return True

    # (-bound, root, -seq, box, state to re-solve from, held rows it holds,
    # its LpResult once solved over this box)
    heap = [(-ceiling, k, 0, tuple(mip.lp.lower), tuple(mip.lp.upper), None, 0, None)
            for k, (mip, _, ceiling) in enumerate(roots)]
    heapq.heapify(heap)
    nodes = seq = 0
    while heap:
        neg, k, _, lo, hi, state, seen, res = heapq.heappop(heap)
        mip, constant, _ = roots[k]
        if res is None:
            if state is None:
                res, state = solve_lp_warm(mip.lp)
            else:
                if prop:
                    objective = {j: c for j, c in enumerate(mip.lp.objective) if c}
                    bounds = [(objective, -neg - constant)]
                    if cutoff is not None:
                        bounds.append(({j: -c for j, c in objective.items()}, constant - cutoff // 1 - 1))
                    lo, hi = list(lo), list(hi)
                    if not _propagate(bounds + prop, lo, hi, 1):
                        continue
                    lo, hi = tuple(lo), tuple(hi)
                edges = [(j, a, b) for j, (a, b) in enumerate(zip(lo, hi)) if state.bounds(j) != (a, b)]
                res, state = state.edited(edges, rows[seen:])
                seen = len(rows)
            nodes += 1
            if res.status != OPTIMAL:
                continue
            total = res.value_num + constant * res.den
            bound = total // res.den if integral[k] else Fraction(total, res.den)
            if cutoff is None or bound > cutoff:
                seq += 1
                heapq.heappush(heap, (-bound, k, -seq, lo, hi, state, seen, res))
            continue
        num, den = res.num, res.den
        cut = any(not a * den <= sum(map(mul, c, num)) <= b * den for c, a, b in rows[seen:])
        # the separator may raise the cutoff past this node, now or since its LP
        if separator is not None and not cut and (cutoff is None or -neg > cutoff):
            made = len(rows)
            best = separator(num, den, add)
            if best is not None and (cutoff is None or best > cutoff):
                cutoff = best
            cut = any(not a * den <= sum(map(mul, c, num)) <= b * den for c, a, b in rows[made:])
        if cutoff is not None and -neg <= cutoff:
            continue
        if cut:
            seq += 1
            heapq.heappush(heap, (neg, k, -seq, lo, hi, state, seen, None))
            continue
        j = _branch_var(num, den, mip.integer_mask)
        if j < 0:
            return k, replace(res, nodes=nodes)
        at = num[j] // den
        for child in ((lo, hi[:j] + (at,) + hi[j + 1:]), (lo[:j] + (at + 1,) + lo[j + 1:], hi)):
            seq += 1
            heapq.heappush(heap, (neg, k, -seq, *child, state, seen, None))
    return None, LpResult(status=INFEASIBLE, nodes=nodes)
