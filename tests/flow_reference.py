"""The all-ones transport code as it stood before the shared transport table.

solve_transport fills each row greedily and rebalances the columns with one
heap per ordered column pair, built and heapified afresh on every call, and
returns its negated final potentials as the column prices;
_transport_duals certifies a result with integral dual prices of its own,
shortest distances of a Bellman-Ford pass over the residual graph, and
ignores the result's prices; _blocking_cut finds a violated column set of
an infeasible transport by scanning all 2^t column sets, summing
capacities afresh for each.  All three read only the five TransportProblem
fields, so they run on any problem of blockip.flow.  tests/test_flow.py
compares blockip.flow.solve_transport and blockip.ones._transport_duals
with them: cells, objective, column prices and Infeasible reason must
agree exactly, and both certificates must accept with the same dual
value, although their prices may be different optimal duals.  For an
infeasible transport the flow names its own blocking column set, which
need not be the scan's first, so both must block.
"""

from __future__ import annotations

import heapq

from blockip.errors import InternalInconsistencyError
from blockip.flow import TransportProblem, TransportResult
from blockip.model import Infeasible


def _cheapest(heap, z, cap, h, g):
    """(p_jh - p_jg, j) of the cheapest row that can move a unit h -> g, or None."""
    while heap:
        j = heap[0][1]
        if z[j][h] > 0 and z[j][g] < cap[j][g]:
            return heap[0]
        heapq.heappop(heap)
    return None


def _rebalance(z, cap, profit, surplus):
    """Shift units between columns at least cost until every column total is met.

    z is a fill in which every row is optimal on its own, edited in place;
    surplus[h] is column h's sum minus its total, and the surpluses sum to
    zero.  Returns the final node potentials, or None when a surplus reaches
    no deficit, which proves the transport infeasible.
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
            return pot
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
                return None
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

    pot = _rebalance(z, cap, profit, surplus) if any(surplus) else [0] * t
    if pot is None:
        return Infeasible("NoAugmentingPath")

    cells = []
    objective = 0
    for zj, low, pj in zip(z, p.cell_lower, profit):
        row = tuple(lo + v for lo, v in zip(low, zj))
        objective += sum(w * v for w, v in zip(pj, row))
        cells.append(row)
    return TransportResult(tuple(cells), objective, tuple(-v for v in pot))


def _transport_duals(p: TransportProblem, res: TransportResult):
    """Optimal dual prices (row, column), certifying that res is optimal.

    The prices are shortest distances in the residual graph of res's cells
    (arcs row -> column at cost -profit where a cell has room, column -> row
    at cost profit where it is above its lower bound) from a virtual source
    joined to every node at cost zero; they exist exactly when the residual
    graph has no negative cycle, which optimality guarantees.  Rows only
    pass paths between columns, so Bellman-Ford runs over the t columns:
    each is seeded at min(0, least -profit over the rows with room in it),
    the cheapest row exchange h -> g is relaxed for t rounds, and a row's
    price is min(0, least d_h + profit over its cells above their lower
    bound).  The certificate is then
    checked from scratch: the cells meet every box and total, their profit is
    res.objective, and for the integral prices a, c the dual value
    a . r + c . y + sum over cells of max(gap * lower, gap * upper), with
    gap = profit - a_i - c_h, equals res.objective.  That dual value bounds
    every feasible transport from above, so equality proves res optimal
    without trusting the flow code.  Anything else raises
    InternalInconsistencyError.

    The returned prices also satisfy complementarity, so for any totals
    (r', y') the optimum is at most the certified value plus
    a . (r' - r) + c . (y' - y): the value function is concave and (a, c)
    is a supergradient at the current totals.
    """
    n, t = len(p.row_totals), len(p.col_totals)
    cells = res.cells
    if (
        len(cells) != n
        or any(len(cells[i]) != t for i in range(n))
        or any(not p.cell_lower[i][h] <= cells[i][h] <= p.cell_upper[i][h]
               for i in range(n) for h in range(t))
        or any(sum(cells[i]) != p.row_totals[i] for i in range(n))
        or any(sum(cells[i][h] for i in range(n)) != p.col_totals[h] for h in range(t))
    ):
        raise InternalInconsistencyError("transport cells miss their boxes or totals")
    primal = sum(p.cell_profit[i][h] * cells[i][h] for i in range(n) for h in range(t))
    if primal != res.objective:
        raise InternalInconsistencyError(
            f"transport cells are worth {primal}, not the reported {res.objective}"
        )
    d = [0] * t  # column distances
    pair = {}  # (h, g) -> cheapest p_ih - p_ig over rows i that can exchange
    above = []
    for i in range(n):
        z, lo, up, pr = cells[i], p.cell_lower[i], p.cell_upper[i], p.cell_profit[i]
        room = [g for g in range(t) if z[g] < up[g]]
        above.append([h for h in range(t) if z[h] > lo[h]])
        for g in room:
            if -pr[g] < d[g]:
                d[g] = -pr[g]
        for h in above[i]:
            for g in room:
                cost = pr[h] - pr[g]
                if g != h and ((h, g) not in pair or cost < pair[h, g]):
                    pair[h, g] = cost
    for _ in range(t):
        changed = False
        for (h, g), cost in pair.items():
            if d[h] + cost < d[g]:
                d[g] = d[h] + cost
                changed = True
        if not changed:
            break
    else:
        raise InternalInconsistencyError("negative cycle in optimal transport residual")
    a = [min([0] + [d[h] + p.cell_profit[i][h] for h in above[i]]) for i in range(n)]
    c = [-dh for dh in d]
    dual = sum(a[i] * p.row_totals[i] for i in range(n))
    dual += sum(c[h] * p.col_totals[h] for h in range(t))
    for i in range(n):
        for h in range(t):
            gap = p.cell_profit[i][h] - a[i] - c[h]
            dual += gap * (p.cell_upper[i][h] if gap > 0 else p.cell_lower[i][h])
    if dual != res.objective:
        raise InternalInconsistencyError(
            f"transport dual value {dual} != primal objective {res.objective}"
        )
    return a, c


def _blocking_cut(p: TransportProblem):
    """Violated blocking pair (rows R, columns H) of an infeasible transport.

    After shifting out the lower bounds, a feasible flow exists iff for every
    column set H the rows' surplus that cannot drain outside H fits under H's
    demand.  The worst row set for a fixed H is found greedily, so scanning
    the 2^t column subsets is exhaustive.  Returns None when no pair is
    violated, which certifies feasibility of the totals.
    """
    n, t = len(p.row_totals), len(p.col_totals)
    rho = [p.row_totals[i] - sum(p.cell_lower[i]) for i in range(n)]
    delta = [p.col_totals[h] - sum(p.cell_lower[i][h] for i in range(n)) for h in range(t)]
    for hmask in range(1 << t):
        cols = [h for h in range(t) if hmask >> h & 1]
        out = [h for h in range(t) if not hmask >> h & 1]
        rows, lhs = [], 0
        for i in range(n):
            m = rho[i] - sum(p.cell_upper[i][h] - p.cell_lower[i][h] for h in out)
            if m > 0:
                rows.append(i)
                lhs += m
        if lhs > sum(delta[h] for h in cols):
            return rows, cols
    return None
