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
pivots; only a root is solved cold, from the row-less start, and a root
whose start already meets its rows is settled there with no tableau.
solve_mip is that search over one root, and a root may also be given as a
recipe that the search builds when it first pops it.  Without a separator,
every root whose columns are all integral is rewritten in the lattice
coordinates of its equality rows at its first split; a mixed root branches
on its own columns.
A separator can grow the rows of the search as it goes: the all-ones route
and each master of the 4-block route run best_of with a cut separator that
evaluates lattice corners nearest first (_nearest_first), and the search
then closes or shrinks each node by integer bound propagation over those
rows (_propagate) before its LP.
Intended for the small auxiliary programs the structured solvers generate
(a handful of variables, narrow boxes), not as a general purpose MIP engine.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import mul

from .errors import MalformedProblemError
from .intlin import lattice_in_box, smith_normal_form
from .model import IntMatrix
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


def _settled(lp: LpProblem):
    """The LpResult solve_lp_warm gives lp when it would make no pivot, else None.

    solve_lp_warm starts from the row-less tableau with D = 1, where every
    column sits at the end of its box that its cost prefers (the lower one
    at cost zero), and adds the rows with their slacks basic.  When that
    corner meets every row, no row is violated, the dual simplex stops at
    once, and the result is the corner and its value over den 1.  So this
    is that same result, read without a tableau.
    """
    objective = lp.objective
    x = [u if c > 0 else l for c, l, u in zip(objective, lp.lower, lp.upper)]
    for coeffs, lo, hi in lp.rows:
        if not lo <= sum(map(mul, coeffs, x)) <= hi:
            return None
    return LpResult(OPTIMAL, tuple(x), 1, sum(map(mul, objective, x)))


def _nearest_first(num, den, f):
    """The lattice corners of the point num / den in its first f
    coordinates, each the floor or the ceiling of the point's, by L1
    distance to the point, the sum over k of |v_k den - num_k|, ties in
    itertools.product order.

    The first is the coordinatewise rounding (halves down); the rest are
    sorted only when the caller asks for a second.
    """
    axes = [sorted({x // den, -(-x // den)}) for x in num[:f]]

    def dist(v):
        return sum(abs(c * den - x) for c, x in zip(v, num))

    rounding = tuple(min(axis, key=lambda c, x=x: abs(c * den - x)) for axis, x in zip(axes, num))
    yield rounding
    yield from (v for v in sorted(itertools.product(*axes), key=dist) if v != rounding)


def _lattice_form(mip: MipProblem, lo, hi):
    """mip over the box lo <= x <= hi, in the lattice coordinates of its equality rows.

    Every column of mip must be integral.  Where the integer points of the
    equality rows form a sparse lattice in a wide box, branching on x
    sweeps the box; branching on the coordinates v of an LLL-reduced basis
    does not (Aardal, Hurkens & Lenstra, Math. Oper. Res. 25(3), 2000).
    The columns with lo = hi are substituted.  The integer points of the
    equality rows over the other columns J are x_J = p + Q^T v for integer
    v (intlin.lattice_in_box), and every one inside the box has v in the
    coordinate box v_lo..v_hi; with no equality row left, Q is the
    identity and p is 0.  The other rows, the box of x_J and the objective
    are rewritten over v; a row that reads a constant over v is checked
    and dropped, and so is a row that every point of the v box meets.  So
    the integer v of the new program are the integer points of mip in the
    box, one to one, with the same values less a constant.

    Returns None when this proves that the box holds no integer point of
    mip, and otherwise (MipProblem over v, constant, to_x): the objective
    at x = p + Q^T v is the new program's at v plus constant, and to_x maps
    an LpResult over v to the LpResult of that x, its value included.
    """
    n = len(lo)
    free = [j for j in range(n) if lo[j] < hi[j]]
    fixed = [(j, lo[j]) for j in range(n) if lo[j] == hi[j]]
    eq, rhs, other = [], [], []
    for coeffs, a, b in mip.lp.rows:
        s = sum(coeffs[j] * x for j, x in fixed)
        row = [coeffs[j] for j in free]
        if not any(row):
            if not a <= s <= b:
                return None
        elif a == b:
            eq.append(row)
            rhs.append(a - s)
        else:
            other.append((row, a - s, b - s))
    lo_j, hi_j = [lo[j] for j in free], [hi[j] for j in free]
    unit = [[int(i == k) for i in range(len(free))] for k in range(len(free))]
    if eq:
        lattice = lattice_in_box(smith_normal_form(IntMatrix.from_rows(eq)), rhs, lo_j, hi_j)
        if lattice is None:
            return None
        p, basis, v_lo, v_hi = lattice
    else:
        p, basis, v_lo, v_hi = [0] * len(free), unit, lo_j, hi_j

    rows = []
    for row, a, b in other + list(zip(unit, lo_j, hi_j)):
        coeffs = [sum(map(mul, row, q)) for q in basis]
        s = sum(map(mul, row, p))
        a, b = a - s, b - s
        least = most = 0
        for c, vl, vh in zip(coeffs, v_lo, v_hi):
            least += c * (vl if c > 0 else vh)
            most += c * (vh if c > 0 else vl)
        if not any(coeffs):
            if not a <= 0 <= b:
                return None
        elif least < a or most > b:
            rows.append((coeffs, a, b))
    objective = mip.lp.objective
    c_j = [objective[j] for j in free]
    constant = sum(map(mul, c_j, p)) + sum(objective[j] * x for j, x in fixed)
    lp = LpProblem.make([sum(map(mul, c_j, q)) for q in basis], rows, v_lo, v_hi)

    def to_x(res):
        den = res.den
        x = [lo[j] * den for j in range(n)]
        for k, j in enumerate(free):
            x[j] = p[k] * den + sum(q[k] * v for q, v in zip(basis, res.num))
        return LpResult(res.status, tuple(x), den, res.value_num + constant * den, res.nodes)

    return MipProblem.make(lp, [True] * len(basis)), constant, to_x


def solve_mip(p: MipProblem, cutoff=None) -> LpResult:
    """Maximize over the mixed lattice of p.  Exact.

    cutoff, when given, is an exclusive lower bound on interesting values:
    subtrees whose LP bound is <= cutoff are pruned and only solutions with
    value > cutoff are returned.  When nothing beats the cutoff the result is
    Infeasible even if the program has worse feasible points.  The nodes field
    counts the nodes whose LP is solved, a settled root included (best_of).
    cutoff is None, an int or a Fraction.
    """
    if type(p) is not MipProblem:
        raise MalformedProblemError(f"p is a {type(p).__name__}, not a MipProblem")
    # one root orders nothing, so its ceiling is never read
    return best_of(((p, 0, 0),), cutoff)[1]


def best_of(roots, cutoff=None, separator=None):
    """The best integral point over several MIPs, by one best-first search.

    roots is a sequence of (program, constant, ceiling) with int constant
    and ceiling: a root's total is its MIP value plus its constant, and its
    ceiling bounds the total of every integer point of the root from above.
    program is a MipProblem, or a recipe: a callable that returns one and
    is called at most once, when the search first pops the root, so a root
    the search never reaches is never built.
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
    with the best total of the roots before it as its cutoff.
    An LP total is floored when the total is an integer at every point the
    search accepts: when the objective reads only masked variables, or
    when a separator is given.  nodes counts every node whose LP is solved,
    settled ones included.

    Without a separator a popped root is settled when it can be: when the
    corner of its box at the objective meets every row, that corner is the
    LP optimum that solve_lp_warm would return from its row-less start, so
    it is taken with no tableau (_settled), and it is integral.  A root
    whose every column is integral and whose LP point is fractional is
    not split: at this first split it is rewritten over its box in the
    lattice coordinates of its equality rows (_lattice_form), which proves
    some roots empty, and the rewritten root goes back on the heap under
    the same bound and branches on those coordinates.  The point accepted
    there is mapped back to the root's own columns, so the result reads
    the same whatever program the search branched in.  A mixed root, and
    every root of a search with a separator, branches on its own columns.

    cutoff, when given, prunes every node whose total is <= cutoff, as in
    solve_mip.  Returns (index of the winning root, LpResult of its MIP
    part), or (None, Infeasible).  Raises MalformedProblemError when roots
    is no list or tuple of such triples, when a recipe returns no
    MipProblem, when cutoff is not None, an int or a Fraction, or when
    separator is neither None nor callable or is given with a recipe root.

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
        if (type(root) is not tuple or len(root) != 3
                or not (type(root[0]) is MipProblem or callable(root[0]))
                or type(root[1]) is not int or type(root[2]) is not int):
            raise MalformedProblemError(f"root {root!r} is not a (program, int, int) triple")
    if cutoff is not None and type(cutoff) not in (int, Fraction):
        raise MalformedProblemError(f"cutoff {cutoff!r} is not None, an int or a Fraction")
    if separator is not None and not callable(separator):
        raise MalformedProblemError(f"separator {separator!r} is not callable")
    # per root: its program once built, its constant, whether its totals are
    # integers, and the map of an accepted point back once it is rewritten
    problems, integral, lifts = [None] * len(roots), [None] * len(roots), [None] * len(roots)
    constants = [constant for _, constant, _ in roots]

    def program_of(k, mip):
        problems[k] = mip
        integral[k] = separator is not None or all(
            m or not c for c, m in zip(mip.lp.objective, mip.integer_mask))

    for k, (program, _, _) in enumerate(roots):
        if type(program) is MipProblem:
            program_of(k, program)
        elif separator is not None:
            raise MalformedProblemError("a separator needs every root built, not a recipe")
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
                     for mip in problems)
        else:
            prop.append(({j: -a for j, a in sparse.items()}, -lo))
        rows.append((list(coeffs), lo, hi))
        return True

    # (-bound, root, -seq, box, state to re-solve from, held rows it holds,
    # its LpResult once solved over this box); a root's box is its program's
    heap = [(-ceiling, k, 0, None, None, None, 0, None) for k, (_, _, ceiling) in enumerate(roots)]
    heapq.heapify(heap)
    nodes = seq = 0
    while heap:
        neg, k, _, lo, hi, state, seen, res = heapq.heappop(heap)
        mip = problems[k]
        if mip is None:
            mip = roots[k][0]()
            if type(mip) is not MipProblem:
                raise MalformedProblemError(f"recipe of root {k} returned {mip!r}, not a MipProblem")
            program_of(k, mip)
        constant = constants[k]
        if res is None:
            if state is None:
                lo, hi = tuple(mip.lp.lower), tuple(mip.lp.upper)
                if separator is None:
                    res = _settled(mip.lp)
                if res is None:
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
            res = replace(res, nodes=nodes)
            return k, res if lifts[k] is None else lifts[k](res)
        # without a separator, an all-integer root not yet rewritten is
        # at its first split: every later split is in lattice coordinates
        if separator is None and lifts[k] is None and all(mip.integer_mask):
            form = _lattice_form(mip, lo, hi)
            if form is None:
                continue
            mip, shift, lifts[k] = form
            program_of(k, mip)
            constants[k] += shift
            seq += 1
            heapq.heappush(heap, (neg, k, -seq, None, None, None, 0, None))
            continue
        at = num[j] // den
        for child in ((lo, hi[:j] + (at,) + hi[j + 1:]), (lo[:j] + (at + 1,) + lo[j + 1:], hi)):
            seq += 1
            heapq.heappush(heap, (neg, k, -seq, *child, state, seen, None))
    return None, LpResult(status=INFEASIBLE, nodes=nodes)
