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
   column with a deficit, and augment by the bottleneck.  The final
   potentials leave no residual arc of negative reduced cost, so, negated,
   they are optimal column prices (Ahuja, Magnanti & Orlin, Network Flows,
   1993, ch. 9); the result carries them, zeros when step 2 already meets
   the column totals.  When a surplus reaches no deficit, the verdict is
   Blocked by the columns the failing search settled (min-cut, ch. 6).
4. Every ordered pair (h, g) keeps a heap of the rows that can move a
   unit from h to g, keyed by the static p_jh - p_jg.  A row that stops
   qualifying is dropped when it reaches the top; an augmentation pushes
   again only the rows whose cells it changed, and only into the pairs it
   just made them qualify for.

Everything that depends on the cells alone (boxes, profits) is a
TransportTable, derived once when a problem is built and shared by every
problem that with_totals derives from it.  The all-ones search re-solves
one table under many totals, mostly under one row-total vector, and steps
1 and 2 and the heaps' start depend on the row totals alone; so the table
also holds the start state of the last row-total vector it was solved
under, and re-solves from it.

Once per table: the box check, the capacities and the lower-bound sums
cost O(n t), the rows' profit orders O(n t log t).  Once per row-total
vector: the row lower-bound check and the greedy fill with its cells and
objective, O(n t), and the heaps of the rows that qualify under the fill,
O(n t^2).  Then per call: comparing the row totals with the held ones
costs O(n), the column lower-bound check and the surplus O(t), and when
the fill meets the column totals that is all.  Otherwise the fill's row
list and the heaps are copied, O(n t^2) pointer copies with no tuple
built, and each augmentation costs O(t^2 log n) instead of a shortest
path over all n + t nodes; only the rows it changes are copied and get new
cells and a new share of the objective.  Each augmentation empties a
surplus or a deficit or fills or empties a cell.  All arithmetic is plain
Python int, so totals and capacities in the 1e40 range cost nothing but
digits.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import add, mul, neg, sub

from .errors import MalformedProblemError
from .model import _SEQS, Infeasible, _check_ints


@dataclass(frozen=True)
class TransportTable:
    """What a transport's cells determine on their own, whatever the totals.

    cap[j][h] is cell (j, h)'s width above its lower bound; row_lower[j]
    and col_lower[h] sum the lower bounds of row j and of column h;
    order[j] lists row j's columns by decreasing profit (ties in column
    order).  start is the _Start of the last row-total vector the table
    was solved under, or None: one start state at a time, replaced whole
    and never edited.  It changes no result: solve_transport gives every
    problem the cells, prices and verdict that a fresh table would.
    """

    cap: tuple
    row_lower: tuple
    col_lower: tuple
    order: tuple
    start: _Start | None = field(default=None, init=False, compare=False, repr=False)

    @staticmethod
    def of(n, t, cell_lower, cell_upper, cell_profit) -> "TransportTable":
        """The table of n x t cell matrices; MalformedProblemError on a bad
        shape, an entry that is not an int or an empty box."""
        for m in (cell_lower, cell_upper, cell_profit):
            if type(m) not in _SEQS or len(m) != n or any(type(r) not in _SEQS or len(r) != t for r in m):
                raise MalformedProblemError("cell matrix is not n x t tuples or lists")
            for row in m:
                _check_ints(row)
        cap = []
        for i, (low, up) in enumerate(zip(cell_lower, cell_upper)):
            for h in range(t):
                if low[h] > up[h]:
                    raise MalformedProblemError(f"cell ({i},{h}) has empty box")
            cap.append(tuple(map(sub, up, low)))
        return TransportTable(
            tuple(cap),
            tuple(map(sum, cell_lower)),
            tuple(sum(low[h] for low in cell_lower) for h in range(t)),
            tuple(tuple(sorted(range(t), key=pj.__getitem__, reverse=True)) for pj in cell_profit),
        )


@dataclass(frozen=True)
class _Start:
    """Where every solve of a table under one row-total vector starts.

    blocked is the verdict that the row totals alone give:
    LowerBoundsExceedTotals with every column when a row total is below
    its row's lower bounds, NoAugmentingPath with () when a row's rest
    exceeds its capacities; the other fields are then empty.  Otherwise
    fill[j] is row j's greedy fill above its lower bounds, a tuple,
    col_sums the fill's column sums, cells and objective the transport it
    is, and heaps[h][g] a heap of (p_jh - p_jg, j) over exactly the rows j
    that can move a unit from h to g under the fill (heaps[h][h] is empty).
    """

    row_totals: tuple
    blocked: Blocked | None
    fill: tuple = ()
    col_sums: tuple = ()
    cells: tuple = ()
    objective: int = 0
    heaps: tuple = ()

    @staticmethod
    def of(p: "TransportProblem") -> "_Start":
        """The start state of p's table under p's row totals."""
        table = p.table
        t = len(table.col_lower)
        rests = list(map(sub, p.row_totals, table.row_lower))
        row_totals = tuple(p.row_totals)
        if any(r < 0 for r in rests):
            return _Start(row_totals, Blocked("LowerBoundsExceedTotals", tuple(range(t))))
        fill = []
        col_sums = [0] * t
        heaps = [[[] for _ in range(t)] for _ in range(t)]
        for j, (rest, cj, order, pj) in enumerate(zip(rests, table.cap, table.order, p.cell_profit)):
            zj = [0] * t
            for h in order:
                if not rest:
                    break
                q = cj[h] if cj[h] < rest else rest
                zj[h] = q
                col_sums[h] += q
                rest -= q
            if rest:
                return _Start(row_totals, Blocked("NoAugmentingPath", ()))
            fill.append(tuple(zj))
            room = [g for g in range(t) if zj[g] < cj[g]]
            for h in range(t):
                if zj[h]:
                    for g in room:
                        if g != h:
                            heaps[h][g].append((pj[h] - pj[g], j))
        for row in heaps:
            for heap in row:
                heapq.heapify(heap)
        cells = tuple(tuple(map(add, low, zj)) for low, zj in zip(p.cell_lower, fill))
        objective = sum(sum(map(mul, pj, row)) for pj, row in zip(p.cell_profit, cells))
        return _Start(row_totals, None, tuple(fill), tuple(col_sums), cells, objective,
                      tuple(map(tuple, heaps)))


@dataclass(frozen=True)
class TransportProblem:
    """Capacitated transportation data: n rows to spread over t columns.

    Every total and cell entry is an int, in tuples or lists (make takes
    any iterables).  Construction, through make or the dataclass
    constructor alike, raises MalformedProblemError for anything else,
    bools, floats and Fractions included, checks the cell shapes and boxes
    and derives the TransportTable; with_totals checks and changes only
    the totals and shares that table.
    """

    row_totals: tuple
    col_totals: tuple
    cell_lower: tuple  # per (row, col)
    cell_upper: tuple
    cell_profit: tuple
    table: TransportTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_ints(self.row_totals)
        _check_ints(self.col_totals)
        object.__setattr__(self, "table", TransportTable.of(
            len(self.row_totals), len(self.col_totals),
            self.cell_lower, self.cell_upper, self.cell_profit,
        ))

    @staticmethod
    def make(row_totals, col_totals, cell_lower, cell_upper, cell_profit):
        try:
            args = [tuple(row_totals), tuple(col_totals)]
            args += [tuple(map(tuple, m)) for m in (cell_lower, cell_upper, cell_profit)]
        except TypeError:
            raise MalformedProblemError("transport totals and cell rows must be iterable") from None
        return TransportProblem(*args)

    def with_totals(self, row_totals, col_totals) -> "TransportProblem":
        """The same cells under new totals, sharing this problem's table and
        so its start state: solving any problem derived from one table under
        the row totals it was last solved under re-solves from that fill."""
        _check_ints(row_totals)
        _check_ints(col_totals)
        row_totals, col_totals = tuple(row_totals), tuple(col_totals)
        if len(row_totals) != len(self.row_totals) or len(col_totals) != len(self.col_totals):
            raise MalformedProblemError("totals vector has the wrong length")
        # bypasses __post_init__: the table depends on the cells alone
        p = object.__new__(TransportProblem)
        p.__dict__.update(self.__dict__, row_totals=row_totals, col_totals=col_totals)
        return p


@dataclass(frozen=True)
class Blocked(Infeasible):
    """An infeasible transport's verdict and a column set H proving it.

    columns lists H in increasing order: the rows' supply that cannot leave
    H exceeds H's demand (ones._blocking_pair checks it).  It is None when
    no H does, for totals whose columns ask more than the rows give.
    """

    columns: tuple | None = None


@dataclass(frozen=True)
class TransportResult:
    """An optimal transport and the column prices that certify it.

    prices[h] is column h's dual price c_h, an int: with them no row can
    move a unit from a cell above its lower bound to one with room at a
    gain, p_jh - c_h >= p_jg - c_g, so the row prices follow row by row
    (ones._transport_duals derives and checks them).
    """

    cells: tuple  # n x t integral matrix
    objective: int
    prices: tuple  # length t


def _cheapest(heap, z, cap, h, g):
    """(p_jh - p_jg, j) of the cheapest row that can move a unit h -> g, or None."""
    while heap:
        j = heap[0][1]
        if z[j][h] > 0 and z[j][g] < cap[j][g]:
            return heap[0]
        heapq.heappop(heap)
    return None


def _rebalance(z, heaps, cap, profit, surplus, moved):
    """Shift units between columns at least cost until every column total is met.

    z is a fill in which every row is optimal on its own, a list of rows
    that may be tuples; a row it changes is first replaced by a list copy
    and its index added to the set moved.  heaps are the pair heaps of z,
    edited in place.  surplus[h] is column h's sum minus its total, and the
    surpluses sum to zero.  Returns the final node potentials, under which
    every residual exchange h -> g has p_jh - p_jg + pot[h] - pot[g] >= 0,
    or, when a surplus reaches no deficit, the Blocked verdict whose
    columns H are the ones the failing search settled.  Each has a surplus
    >= 0, the source one > 0, and no row can move a unit out of H, so every
    row with flow in H has its cells outside H full: the rows' supply that
    cannot leave H exceeds H's demand.

    A heap also holds rows that stopped qualifying, which _cheapest drops
    when they reach the top.  Every qualifying row has an entry, from the
    start or pushed when an augmentation makes it qualify, and the keys are
    static, so _cheapest returns the least qualifying (key, j) whatever
    else the heap holds: every path and cell is the one that heaps of the
    qualifying rows alone would give.
    """
    t = len(surplus)
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
                return Blocked("NoAugmentingPath", tuple(h for h in range(t) if done[h]))
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
            if j not in moved:
                z[j] = list(z[j])
                moved.add(j)
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
    """Profit-maximal integral cell matrix with its column prices, or Blocked.

    Blocked reasons and their column sets H: TotalsMismatch when the row
    and column totals sum differently, H all columns when the rows give
    more, else None; LowerBoundsExceedTotals when the lower bounds alone
    overshoot a total, H all columns for a row's, {h} for column h's;
    NoAugmentingPath when the cell capacities cannot carry the totals, H
    empty when a row's rest exceeds its capacity, else the columns the
    failing shortest-path search settled.  Total unimodularity makes the
    integral optimum equal the LP optimum over the same polytope.
    """
    t = len(p.col_totals)
    if sum(p.row_totals) != sum(p.col_totals):
        return Blocked("TotalsMismatch", tuple(range(t)) if sum(p.row_totals) > sum(p.col_totals) else None)

    table = p.table
    start = table.start
    if start is None or start.row_totals != p.row_totals:
        start = _Start.of(p)
        object.__setattr__(table, "start", start)
    blocked = start.blocked
    if blocked is not None and blocked.reason == "LowerBoundsExceedTotals":
        return blocked
    over = next((h for h in range(t) if table.col_lower[h] > p.col_totals[h]), None)
    if over is not None:
        return Blocked("LowerBoundsExceedTotals", (over,))
    if blocked is not None:
        return blocked

    # column sum of z minus its total
    surplus = [s + low - c for s, low, c in zip(start.col_sums, table.col_lower, p.col_totals)]
    if not any(surplus):
        return TransportResult(start.cells, start.objective, (0,) * t)
    z, moved = list(start.fill), set()
    pot = _rebalance(z, [[list(heap) for heap in row] for row in start.heaps],
                     table.cap, p.cell_profit, surplus, moved)
    if isinstance(pot, Blocked):
        return pot
    cells, objective = list(start.cells), start.objective
    for j in moved:
        pj, was = p.cell_profit[j], cells[j]
        cells[j] = tuple(map(add, p.cell_lower[j], z[j]))
        objective += sum(map(mul, pj, cells[j])) - sum(map(mul, pj, was))
    return TransportResult(tuple(cells), objective, tuple(map(neg, pot)))
