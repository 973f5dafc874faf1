"""Exact integral transportation problems with few columns.

A transport spreads n row totals over t column totals, every cell boxed,
at maximum profit.  In the all-ones route n is the number of bricks and t
the brick width t_A, so n is large and t small, and the solver works on
the t column nodes only (after Tokuyama & Nakano, Efficient algorithms for
the Hitchcock transportation problem, SIAM J. Comput. 1995):

1. The lower bounds are shipped unconditionally, leaving each cell the
   box [0, cap].
2. Each row is filled greedily, in order of decreasing profit, up to its
   cell capacities.  That is optimal for every row on its own, so no
   residual arc has negative cost and zero potentials are valid.
3. Only the column totals are now off.  Moving a unit of row j from column
   h to column g costs p_jh - p_jg and needs z_jh > 0 and z_jg < cap_jg;
   rows only pass flow between columns, so they contract out of the
   residual graph, and the arc h -> g costs the least p_jh - p_jg over
   those rows.  Successive shortest paths then run Dijkstra over the t
   columns, with potentials, from a column with a surplus to the nearest
   column with a deficit, and augment by the bottleneck.
4. Every ordered pair (h, g) keeps a heap of rows keyed by the static
   p_jh - p_jg.  A row that stops qualifying is dropped when it reaches
   the top; an augmentation pushes again only the rows whose cells it
   changed, and only into the pairs it just made them qualify for.

The greedy start costs O(n t log t) and the heaps O(n t^2); each
augmentation then costs O(t^2 log n) instead of a shortest path over all
n + t nodes.  Each augmentation empties a surplus or a deficit or fills or
empties a cell.  All arithmetic is plain Python int, so totals and
capacities in the 1e40 range cost nothing but digits.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import MalformedProblemError
from .model import Infeasible


@dataclass(frozen=True)
class TransportProblem:
    """Capacitated transportation data: n rows to spread over t columns."""

    row_totals: tuple
    col_totals: tuple
    cell_lower: tuple  # per (row, col)
    cell_upper: tuple
    cell_profit: tuple

    @staticmethod
    def make(row_totals, col_totals, cell_lower, cell_upper, cell_profit):
        n, t = len(row_totals), len(col_totals)
        mats = (cell_lower, cell_upper, cell_profit)
        for m in mats:
            if len(m) != n or any(len(row) != t for row in m):
                raise MalformedProblemError("cell matrix shape mismatch")
        for i in range(n):
            for h in range(t):
                if cell_lower[i][h] > cell_upper[i][h]:
                    raise MalformedProblemError(f"cell ({i},{h}) has empty box")
        return TransportProblem(
            tuple(row_totals),
            tuple(col_totals),
            tuple(tuple(r) for r in cell_lower),
            tuple(tuple(r) for r in cell_upper),
            tuple(tuple(r) for r in cell_profit),
        )


@dataclass(frozen=True)
class TransportResult:
    cells: tuple  # n x t integral matrix
    objective: int


def _cheapest(heap, z, cap, h, g):
    """(p_jh - p_jg, j) of the cheapest row that can move a unit h -> g, or None."""
    while heap:
        j = heap[0][1]
        if z[j][h] > 0 and z[j][g] < cap[j][g]:
            return heap[0]
        heapq.heappop(heap)
    return None


def _rebalance(z, cap, profit, surplus) -> bool:
    """Shift units between columns at least cost until every column total is met.

    z is a fill in which every row is optimal on its own, edited in place;
    surplus[h] is column h's sum minus its total, and the surpluses sum to
    zero.  Returns False when a surplus reaches no deficit, which proves the
    transport infeasible.
    """
    n, t = len(z), len(surplus)
    heaps = [[[] for _ in range(t)] for _ in range(t)]
    for j in range(n):
        zj, cj, pj = z[j], cap[j], profit[j]
        room = [g for g in range(t) if zj[g] < cj[g]]
        for h in range(t):
            if zj[h]:
                for g in room:
                    if g != h:
                        heaps[h][g].append((pj[h] - pj[g], j))
    for row in heaps:
        for heap in row:
            heapq.heapify(heap)
    pot = [0] * t  # reduced cost of h -> g: cost + pot[h] - pot[g] >= 0
    while True:
        s = next((h for h in range(t) if surplus[h] > 0), None)
        if s is None:
            return True
        # Dijkstra over the columns, from s to the nearest deficit
        dist = [None] * t
        dist[s] = 0
        via = [None] * t  # (column, row) the shortest path enters through
        done = [False] * t
        target = None
        while True:
            u = None
            for v in range(t):
                if not done[v] and dist[v] is not None and (u is None or dist[v] < dist[u]):
                    u = v
            if u is None:
                return False
            done[u] = True
            if surplus[u] < 0:
                target = u
                break
            base = dist[u] + pot[u]
            for v in range(t):
                if done[v]:
                    continue
                top = _cheapest(heaps[u][v], z, cap, u, v)
                if top is not None:
                    nd = base + top[0] - pot[v]
                    if dist[v] is None or nd < dist[v]:
                        dist[v] = nd
                        via[v] = (u, top[1])
        dt = dist[target]
        for v in range(t):
            d = dist[v]
            pot[v] += dt if d is None or d > dt else d

        amount = min(surplus[s], -surplus[target])
        g = target
        while g != s:
            h, j = via[g]
            amount = min(amount, z[j][h], cap[j][g] - z[j][g])
            g = h
        surplus[s] -= amount
        surplus[target] += amount
        g = target
        while g != s:
            h, j = via[g]
            zj, cj, pj = z[j], cap[j], profit[j]
            gained, freed = zj[g] == 0, zj[h] == cj[h]
            zj[h] -= amount
            zj[g] += amount
            if gained:  # row j can now give from g
                for x in range(t):
                    if x != g and zj[x] < cj[x]:
                        heapq.heappush(heaps[g][x], (pj[g] - pj[x], j))
            if freed:  # row j can now take into h
                for x in range(t):
                    if x != h and zj[x] > 0:
                        heapq.heappush(heaps[x][h], (pj[x] - pj[h], j))
            g = h


def solve_transport(p: TransportProblem):
    """Profit-maximal integral cell matrix, or Infeasible.

    Infeasible reasons: TotalsMismatch when the row and column totals sum
    differently, LowerBoundsExceedTotals when the lower bounds alone
    overshoot a total, NoAugmentingPath when the cell capacities cannot
    carry the totals.  Total unimodularity makes the integral optimum equal
    the LP optimum over the same polytope.
    """
    n, t = len(p.row_totals), len(p.col_totals)
    if sum(p.row_totals) != sum(p.col_totals):
        return Infeasible("TotalsMismatch")

    row_rest = list(p.row_totals)
    surplus = [-c for c in p.col_totals]  # column sum of z minus its total
    for i, low in enumerate(p.cell_lower):
        row_rest[i] -= sum(low)
        for h in range(t):
            surplus[h] += low[h]
    if any(r < 0 for r in row_rest) or any(s > 0 for s in surplus):
        return Infeasible("LowerBoundsExceedTotals")

    profit = p.cell_profit
    cap = [[hi - lo for hi, lo in zip(up, low)] for up, low in zip(p.cell_upper, p.cell_lower)]
    z = []
    for i in range(n):
        rest, cj, pj = row_rest[i], cap[i], profit[i]
        zj = [0] * t
        for h in sorted(range(t), key=pj.__getitem__, reverse=True):
            if not rest:
                break
            q = cj[h] if cj[h] < rest else rest
            zj[h] = q
            surplus[h] += q
            rest -= q
        if rest:
            return Infeasible("NoAugmentingPath")
        z.append(zj)

    if any(surplus) and not _rebalance(z, cap, profit, surplus):
        return Infeasible("NoAugmentingPath")

    cells = []
    objective = 0
    for zj, low, pj in zip(z, p.cell_lower, profit):
        row = tuple(lo + v for lo, v in zip(low, zj))
        objective += sum(w * v for w, v in zip(pj, row))
        cells.append(row)
    return TransportResult(tuple(cells), objective)
