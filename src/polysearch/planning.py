"""Cost-aware path planning and target assignment on grid graphs.

Path cost is the sum over entered cells (start excluded) of 1 + cost(cell),
where cost grows by 0.05 per recorded visit. The Manhattan heuristic stays
admissible because every entered cell contributes at least 1.

`plan_indices` is A* over that objective. `costs_to_target` gives it to
many targets in one batched Dijkstra call, in exact integer units of
VISIT_COST; on a map with no visits yet it reads STEP_UNITS times each
target's BFS hop row instead. `descend` reads a path off such a row where
the cheapest one is unique, which is then the path A* returns, and gives
None where A* must break a tie. `hungarian` takes integer costs in
0..2**53 // (k + 1)**2 for k rows, so its float64 sums stay exact, and
breaks ties over the edges of reduced cost 0 under the recovered duals.
Its solver, scipy's `linear_sum_assignment`, comes from scipy's
self-contained `_lsap` extension, so importing this module skips the
rest of `scipy.optimize`; the public import is the fallback otherwise.
`shortest_indices` walks a per-goal next-hop table that one unweighted
csgraph search fills. What they derive from the grid alone goes into its
bounded `memo`: A*'s |dcol| and |drow| lists, one per goal column and
row; one csgraph matrix, whose weights `costs_to_target` rewrites; one
next-hop row per goal; one hop row per target of a fresh map.
"""
from __future__ import annotations

from heapq import heappop, heappush, heappushpop
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy
from scipy.sparse import csgraph, csr_matrix

from .errors import InvalidConfig, Unreachable
from .geometry import GridGraph

#: Cost of entering an unvisited cell in units of VISIT_COST.
STEP_UNITS = 20

#: Extra cost per earlier visit of a cell; 1 / 20 and 0.05 are the same float64.
VISIT_COST = 1 / STEP_UNITS


def _load_lsa():
    """scipy's linear_sum_assignment from scipy/optimize/_lsap*.so alone, or
    from the public import when that file is missing or fails to load."""
    folder = Path(scipy.__file__).with_name("optimize")
    try:
        for suffix in EXTENSION_SUFFIXES:
            path = folder / f"_lsap{suffix}"
            if path.is_file():
                spec = spec_from_file_location("scipy.optimize._lsap", path)
                module = module_from_spec(spec)
                spec.loader.exec_module(module)
                return module.linear_sum_assignment
    except Exception:
        pass
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment


#: Looked up at call time, so tests and tracers may patch it.
linear_sum_assignment = _load_lsa()


class CostMap:
    """Per-cell visit counters layered over a grid graph.

    `entry[i]` caches 1 + VISIT_COST * counts[i], the cost of stepping into
    cell i, so planners read it without recomputing.
    """

    __slots__ = ("counts", "entry")

    def __init__(self, grid: GridGraph):
        self.counts = [0] * len(grid)
        self.entry = [1.0] * len(grid)

    def bump_index(self, i: int) -> None:
        self.counts[i] += 1
        self.entry[i] = 1.0 + VISIT_COST * self.counts[i]


def plan_indices(g: GridGraph, cm: CostMap, start: int, goal: int) -> list[int]:
    """Minimum-cost path of cell indices under the cost map, by A*.

    The path includes both ends; start == goal gives a 1-cell path. Ties
    break on lower f, then lower h, then earliest push; pushes happen in
    N, E, S, W neighbor order, so the whole expansion is reproducible.
    Heap keys (f, h, seq, cell) are unique because seq is, so the pop
    order depends only on which keys were pushed, never on how the heap
    stores them. So each expansion may hold back one new key and hand it
    to the next pop as one heappushpop; it holds its smallest, which
    heappushpop returns at once when no stored key is smaller. A closed
    cell's distance becomes -1.0, below any new distance, so it is never
    reopened.
    """
    start, goal = g.check_index(start, "start"), g.check_index(goal, "goal")
    gc, gr = g.cols[goal], g.rows[goal]
    hx = g.memo(("col", gc), lambda: [abs(c - gc) for c in g.cols])
    hy = g.memo(("row", gr), lambda: [abs(r - gr) for r in g.rows])
    entry = cm.entry
    adjacency = g.adjacency
    dist = [float("inf")] * len(g.cells)
    parent = [-1] * len(g.cells)
    dist[start] = 0.0
    h0 = hx[start] + hy[start]
    held: tuple[float, int, int, int] | None = (h0, h0, 0, start)
    heap: list[tuple[float, int, int, int]] = []
    seq = 1
    while held or heap:
        v = (heappushpop(heap, held) if held else heappop(heap))[3]
        held = None
        dv = dist[v]
        if dv < 0.0:
            continue
        dist[v] = -1.0
        if v == goal:
            path = [v]
            while parent[v] != -1:
                v = parent[v]
                path.append(v)
            path.reverse()
            return path
        for u in adjacency[v]:
            nd = dv + entry[u]
            if nd < dist[u]:
                dist[u] = nd
                parent[u] = v
                h = hx[u] + hy[u]
                key = (nd + h, h, seq, u)
                seq += 1
                if held is None:
                    held = key
                elif key < held:
                    heappush(heap, held)
                    held = key
                else:
                    heappush(heap, key)
    raise Unreachable(f"no path from {tuple(g.cells[start])} to {tuple(g.cells[goal])}")


def shortest_indices(g: GridGraph, start: int, goal: int) -> tuple[int, ...]:
    """Unweighted shortest path of cell indices, walked along `_next_hops`.

    Of all shortest paths this is the one whose sequence of neighbor ranks
    is lexicographically smallest: the path a FIFO breadth-first search
    from `start` with N, E, S, W pushes returns.
    """
    start, goal = g.check_index(start, "start"), g.check_index(goal, "goal")
    nxt = g.memo(("next_hop", goal), lambda: _next_hops(g, goal))
    if nxt[start] < 0:
        raise Unreachable(f"no path from {tuple(g.cells[start])} to {tuple(g.cells[goal])}")
    path = [start]
    while path[-1] != goal:
        path.append(nxt.item(path[-1]))
    return tuple(path)


def _next_hops(g: GridGraph, goal: int) -> np.ndarray:
    """First neighbor, in N, E, S, W order, one BFS layer closer to `goal`.

    One int32 row, -1 where `goal` is unreachable, filled by one unweighted
    csgraph search; `shortest_indices` keeps one per goal in `g.memo`.
    """
    graph, owner = _graph(g)
    far = csgraph.dijkstra(graph, indices=goal, unweighted=True)
    layer = np.where(np.isfinite(far), far, -2)  # no cell's layer - 1 is -2
    closer = np.flatnonzero(layer[graph.indices] == layer[owner] - 1)
    at = owner[closer]
    first = closer[at != np.concatenate(([-1], at[:-1]))]  # each owner's first closer edge
    row = np.full(len(g.cells), -1, dtype=np.int32)
    row[owner[first]] = graph.indices[first]
    row[goal] = goal
    return row


def _graph(g: GridGraph) -> tuple[csr_matrix, np.ndarray]:
    """The grid as one csgraph matrix, and `owner`, the cell each edge leaves.

    A cell's edges sit together in N, E, S, W order; adjacency is symmetric,
    so this is also the reversed graph. The weights are scratch, written in
    full by `costs_to_target` before each weighted search and never read by
    an unweighted one, so two threads must not weigh one grid at once.
    Built once per grid and kept in `g.memo`.
    """

    def build() -> tuple[csr_matrix, np.ndarray]:
        degrees = [len(nbrs) for nbrs in g.adjacency]
        indptr = np.zeros(len(degrees) + 1, dtype=np.int32)
        np.cumsum(degrees, out=indptr[1:])
        indices = np.array([u for nbrs in g.adjacency for u in nbrs], dtype=np.int32)
        graph = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(len(degrees),) * 2)
        return graph, np.repeat(np.arange(len(degrees)), degrees)

    return g.memo("graph", build)


def costs_to_target(g: GridGraph, cm: CostMap, targets: Sequence[int]) -> np.ndarray:
    """Cost of the cheapest path from every cell to each of `targets`.

    Row r, column i holds the plan_indices objective from cell i to cell
    `targets[r]`, in integer units of VISIT_COST: entering a cell costs
    STEP_UNITS + its visit count. The values are exact in float64, so
    ties between them are exact. One Dijkstra call over the reversed
    graph, edge v -> u weighing the entry of v, serves every target; where
    every visit count is 0, every entry is STEP_UNITS, so the rows are
    `_hop_rows` scaled. A target that is not an integer in 0..len(g) - 1
    raises InvalidConfig.
    """
    targets = [g.check_index(t, "target") for t in targets]
    if not any(cm.counts):  # a fresh map: every cost is STEP_UNITS times a hop count
        hops = _hop_rows(g, targets)
        rows = np.array([hops[t] for t in targets], dtype=np.float64).reshape(len(targets), len(g))
        return STEP_UNITS * rows
    graph, owner = _graph(g)
    np.take(STEP_UNITS + np.asarray(cm.counts, dtype=np.float64), owner, out=graph.data)
    return csgraph.dijkstra(graph, directed=True, indices=targets)


def _hop_rows(g: GridGraph, targets: Sequence[int]) -> dict[int, np.ndarray]:
    """Each target's BFS hop count from every cell, inf where it cannot be reached.

    One float32 row per target, exact below 2**24 > MAX_CELLS, kept in
    `g.memo`; one unweighted csgraph search fills the targets it lacks.
    """
    rows = {t: g.cache.get(("hops", t)) for t in targets}
    missing = [t for t, row in rows.items() if row is None]
    if missing:
        far = csgraph.dijkstra(_graph(g)[0], indices=missing, unweighted=True).astype(np.float32)
        for t, row in zip(missing, far):
            rows[t] = g.memo(("hops", t), row.copy)
    return rows


def descend(g: GridGraph, cm: CostMap, row: Sequence[float], start: int) -> list[int] | None:
    """The path from `start` down `row`, or None where the cheapest path is not unique.

    `row` is one row of `costs_to_target` under `cm`, as a list: each step
    enters the one neighbor u of v with STEP_UNITS + counts[u] + row[u] ==
    row[v], until the target, where the row reads 0. Every other path
    costs at least one unit of VISIT_COST more, so a unique optimum is the
    path `plan_indices` returns. None at the first cell with two such
    neighbors or none, so also where `start` cannot reach the target or
    `row` was computed under other counts.
    """
    adjacency, counts = g.adjacency, cm.counts
    path = [start]
    left = row[start]
    if left == float("inf"):
        return None
    while left:
        left -= STEP_UNITS
        nxt = -1
        for u in adjacency[path[-1]]:
            if counts[u] + row[u] == left:
                if nxt >= 0:
                    return None
                nxt = u
        if nxt < 0:
            return None
        path.append(nxt)
        left = row[nxt]
    return path


def hungarian(cost_matrix: Sequence[Sequence[float]]) -> tuple[int, ...]:
    """Minimum-cost perfect assignment; lexicographically smallest on ties.

    Returns the column of each row: row by row, the smallest column that
    still completes to an optimal assignment. One linear_sum_assignment
    solve gives an optimal matching; every optimal matching uses only tight
    edges (reduced cost 0 under the recovered duals), so the lexicographic
    pass moves along alternating cycles of tight edges, never solving again.

    Costs are integers in 0..top, top = 2**53 // (k + 1)**2, else
    InvalidConfig; an integral float counts. Bellman-Ford's moves lie in
    [-top, top], its potentials in [-k*top, 0]. Each of the solver's k
    phases moves its duals by at most top, so its sums stay within (k + 2) * top.
    """
    try:
        m = np.asarray(cost_matrix, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidConfig(f"cost matrix is not a numeric table: {exc}") from None
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise InvalidConfig(f"cost matrix shape {m.shape} is not square")
    k = m.shape[0]
    top = 2**53 // (k + 1) ** 2
    if not np.all((m >= 0) & (m <= top) & (m == np.trunc(m))):
        raise InvalidConfig(f"cost matrix entries must be integers in 0..{top}")

    _, cols = linear_sum_assignment(m)
    # Column potentials by Bellman-Ford on the residual graph: moving row i
    # from its column to column j costs m[i, j] - m[i, col(i)].
    move = m - m[np.arange(k), cols][:, None]
    pot = np.zeros(k)
    for _ in range(k):
        relaxed = np.minimum(pot, (pot[cols][:, None] + move).min(axis=0))
        if np.array_equal(relaxed, pot):
            break
        pot = relaxed
    tight = move + pot[cols][:, None] - pot[None, :] <= 0
    at, to = np.nonzero(tight)  # row-major, so each row's columns ascend
    ends = np.cumsum(np.bincount(at, minlength=k)).tolist()
    to = to.tolist()
    adj = [to[a:b] for a, b in zip([0, *ends], ends)]

    col_of = cols.tolist()
    row_of = np.argsort(cols).tolist()
    for i in range(k):
        freed = col_of[i]
        for j in adj[i]:
            if j >= freed:
                break
            if row_of[j] < i:
                continue  # held by a row already fixed
            path = _alternating_path(adj, col_of, row_of, i, row_of[j], freed)
            if path is not None:
                for r, c in [(i, j)] + path:
                    col_of[r] = c
                    row_of[c] = r
                break
    return tuple(col_of)


def _alternating_path(
    adj: list[list[int]], col_of: list[int], row_of: list[int], fixed: int, start: int, freed: int
) -> list[tuple[int, int]] | None:
    """Moves (row, new column) that rehome row `start` over tight edges.

    Breadth-first over rows after `fixed`: each row on the path takes a
    column held by the next one, and the last takes `freed`. None when
    no such path exists.
    """
    came_from = {start: None}
    queue = [start]
    for r in queue:
        for c in adj[r]:
            if c == freed:
                path = [(r, c)]
                while came_from[r] is not None:
                    r, c = came_from[r], col_of[r]
                    path.append((r, c))
                return path[::-1]
            nxt = row_of[c]
            if nxt > fixed and nxt not in came_from:
                came_from[nxt] = r
                queue.append(nxt)
    return None
