"""Cost-aware path planning and target assignment on grid graphs.

Path cost is the sum over entered cells (start excluded) of 1 + cost(cell),
where cost grows by 0.05 per recorded visit. The Manhattan heuristic stays
admissible because every entered cell contributes at least 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InvalidConfig, NegativeEntry, NonSquare, Unreachable
from .geometry import GridGraph

VISIT_COST = 0.05


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


def _search(g: GridGraph, entry: Sequence[float] | None, start: int, goal: int, heuristic: bool) -> list[int]:
    """Deterministic best-first search: A* over `entry`, or unit-cost Dijkstra.

    Ties break on lower f, then lower h, then earliest push; pushes happen in
    N, E, S, W neighbor order, so the whole expansion is reproducible.
    """
    n = len(g.cells)
    cols, rows = g.cols, g.rows
    gx, gy = cols[goal], rows[goal]
    dist = [float("inf")] * n
    parent = [-1] * n
    closed = bytearray(n)
    h0 = (abs(cols[start] - gx) + abs(rows[start] - gy)) if heuristic else 0
    heap: list[tuple[float, int, int, int]] = [(h0, h0, 0, start)]
    dist[start] = 0.0
    seq = 1
    adjacency = g.adjacency
    while heap:
        _, _, _, v = heappop(heap)
        if closed[v]:
            continue
        closed[v] = 1
        if v == goal:
            path = [v]
            while parent[v] != -1:
                v = parent[v]
                path.append(v)
            path.reverse()
            return path
        dv = dist[v]
        for u in adjacency[v]:
            if closed[u]:
                continue
            nd = dv + (entry[u] if entry is not None else 1.0)
            if nd < dist[u]:
                dist[u] = nd
                parent[u] = v
                h = (abs(cols[u] - gx) + abs(rows[u] - gy)) if heuristic else 0
                heappush(heap, (nd + h, h, seq, u))
                seq += 1
    raise Unreachable(f"no path from {tuple(g.cells[start])} to {tuple(g.cells[goal])}")


def plan_indices(g: GridGraph, cm: CostMap, start: int, goal: int) -> list[int]:
    """Minimum-cost path of cell indices under the cost map.

    The path includes both ends; start == goal gives a 1-cell path.
    """
    return _search(g, cm.entry, start, goal, heuristic=True)


def shortest_indices(g: GridGraph, start: int, goal: int) -> tuple[int, ...]:
    """Unweighted shortest path of cell indices, memoized per grid.

    Pursuit replans from the same (position, target) pairs over and over,
    so the path table pays for itself within a few trials.
    """
    key = ("path", start, goal)
    hit = g.cache.get(key)
    if hit is None:
        hit = tuple(_search(g, None, start, goal, heuristic=False))
        g.cache[key] = hit
    return hit


def costs_to_target(g: GridGraph, cm: CostMap, t: int) -> list[float]:
    """Cost of the cheapest path from every cell to cell index `t`.

    One reverse relaxation pass: leaving u toward the target through v costs
    entry[v] plus the remaining cost from v, which reproduces the
    plan_indices objective for every source at once.
    """
    n = len(g.cells)
    entry = cm.entry
    dist = [float("inf")] * n
    dist[t] = 0.0
    closed = bytearray(n)
    heap: list[tuple[float, int]] = [(0.0, t)]
    adjacency = g.adjacency
    while heap:
        _, v = heappop(heap)
        if closed[v]:
            continue
        closed[v] = 1
        step_in = dist[v] + entry[v]
        for u in adjacency[v]:
            if not closed[u] and step_in < dist[u]:
                dist[u] = step_in
                heappush(heap, (step_in, u))
    return dist


@dataclass(frozen=True)
class Assignment:
    targets: tuple[int, ...]  # targets[i] = column assigned to row i
    total_cost: float


def hungarian(cost_matrix: Sequence[Sequence[float]]) -> Assignment:
    """Minimum-cost perfect assignment; lexicographically smallest on ties.

    Rows are fixed in order; for each row the smallest column index that
    still completes to an optimal assignment is chosen.
    """
    m = np.asarray(cost_matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise NonSquare(f"cost matrix shape {m.shape} is not square")
    if not np.all(np.isfinite(m)):
        raise InvalidConfig("cost matrix entries must be finite")
    if np.any(m < 0):
        raise NegativeEntry("cost matrix entries must be non-negative")

    k = m.shape[0]
    rows, cols = linear_sum_assignment(m)
    optimal = float(m[rows, cols].sum())

    eps = 1e-9
    available = list(range(k))
    chosen: list[int] = []
    prefix = 0.0
    for i in range(k):
        for pos, j in enumerate(available):
            rest_rows = np.arange(i + 1, k)
            rest_cols = [c for c in available if c != j]
            if len(rest_rows):
                sub = m[np.ix_(rest_rows, rest_cols)]
                rr, cc = linear_sum_assignment(sub)
                rest = float(sub[rr, cc].sum())
            else:
                rest = 0.0
            if prefix + m[i, j] + rest <= optimal + eps:
                chosen.append(j)
                prefix += float(m[i, j])
                available.pop(pos)
                break
    return Assignment(tuple(chosen), float(sum(m[i, chosen[i]] for i in range(k))))
