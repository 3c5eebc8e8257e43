from __future__ import annotations

import heapq
import itertools
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from polysearch import geometry, planning, sim
from polysearch.errors import InvalidConfig, Unreachable
from polysearch.geometry import Cell, GridGraph, rasterize
from polysearch.harness import preset_areas
from polysearch.polygen import inflate_cut
from polysearch.sim import SimConfig, _rs_plan, init_trial, run_trial, step
from polysearch.planning import (
    STEP_UNITS,
    VISIT_COST,
    CostMap,
    costs_to_target,
    descend,
    hungarian,
    plan_indices,
    shortest_indices,
)

from conftest import P, two_part_grid


def ref_weighted_cost(g, entry, start: Cell, goal: Cell) -> float:
    """Dict-based Dijkstra over the same entered-cell objective; oracle only."""
    dist = {start: 0.0}
    pq = [(0.0, start)]
    done = set()
    while pq:
        d, c = heapq.heappop(pq)
        if c in done:
            continue
        done.add(c)
        if c == goal:
            return d
        for dx, dy in ((0, 1), (1, 0), (0, -1), (-1, 0)):
            nb = Cell(c.col + dx, c.row + dy)
            if nb in g.index and nb not in done:
                nd = d + entry[nb]
                if nd < dist.get(nb, float("inf")):
                    dist[nb] = nd
                    heapq.heappush(pq, (nd, nb))
    raise AssertionError("oracle found no path")


def ref_bfs_steps(g, start: Cell, goal: Cell) -> int:
    frontier = [start]
    seen = {start}
    d = 0
    while frontier:
        if goal in seen:
            return d
        nxt = []
        for c in frontier:
            for dx, dy in ((0, 1), (1, 0), (0, -1), (-1, 0)):
                nb = Cell(c.col + dx, c.row + dy)
                if nb in g.index and nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
        frontier = nxt
        d += 1
    raise AssertionError("oracle found no path")


def ref_fifo_bfs_path(g, start: int, goal: int) -> list[int]:
    """FIFO breadth-first search from `start`, N, E, S, W pushes; oracle only.

    The unit-cost search `shortest_indices` replaced: each cell's parent
    is the first cell that discovered it.
    """
    parent = {start: None}
    queue = [start]
    for v in queue:
        if v == goal:
            path = [v]
            while parent[v] is not None:
                v = parent[v]
                path.append(v)
            return path[::-1]
        for u in g.adjacency[v]:
            if u not in parent:
                parent[u] = v
                queue.append(u)
    raise AssertionError("oracle found no path")


def ref_astar_path(g, entry, start: int, goal: int) -> list[int]:
    """A* popping the lowest (f, h, push order), N, E, S, W pushes; oracle only.

    Locks the tie-break of `plan_indices`: among equal-cost paths, which
    one it returns decides the simulated trials.
    """
    gx, gy = g.cols[goal], g.rows[goal]

    def h(i: int) -> int:
        return abs(g.cols[i] - gx) + abs(g.rows[i] - gy)

    dist = {start: 0.0}
    parent = {start: None}
    done = set()
    pushes = itertools.count()
    heap = [(h(start), h(start), next(pushes), start)]
    while heap:
        v = heapq.heappop(heap)[3]
        if v in done:
            continue
        done.add(v)
        if v == goal:
            path = [v]
            while parent[v] is not None:
                v = parent[v]
                path.append(v)
            return path[::-1]
        for u in g.adjacency[v]:
            nd = dist[v] + entry[u]
            if u not in done and nd < dist.get(u, float("inf")):
                dist[u] = nd
                parent[u] = v
                heapq.heappush(heap, (nd + h(u), h(u), next(pushes), u))
    raise AssertionError("oracle found no path")


def ref_next_hop_rows(g) -> list[list[int]]:
    """Per goal, each cell's first N, E, S, W neighbor one BFS layer closer.

    -1 where the goal cannot be reached, the goal itself at the goal.
    Neighbors come from the cell coordinates, not from `g.adjacency`.
    Oracle only.
    """
    steps = ((0, 1), (1, 0), (0, -1), (-1, 0))
    nbrs = [
        [g.index[nb] for nb in (Cell(c.col + dx, c.row + dy) for dx, dy in steps) if nb in g.index]
        for c in g.cells
    ]
    rows = []
    for goal in range(len(g)):
        layer = [-1] * len(g)
        layer[goal] = 0
        queue = [goal]
        for v in queue:
            for u in nbrs[v]:
                if layer[u] < 0:
                    layer[u] = layer[v] + 1
                    queue.append(u)
        row = [next((u for u in nbrs[v] if layer[u] == layer[v] - 1), -1) for v in range(len(g))]
        row[goal] = goal
        rows.append(row)
    return rows


def brute_hungarian(m) -> tuple[tuple[int, ...], float]:
    k = len(m)
    costs = {}
    for perm in itertools.permutations(range(k)):
        costs[perm] = sum(m[i][perm[i]] for i in range(k))
    best = min(costs.values())
    winners = [p for p, c in costs.items() if c <= best + 1e-9]
    return min(winners), best


def ref_lex_assignment(cost_matrix) -> tuple[int, ...]:
    """Lexicographically smallest optimal assignment by k^2 re-solves; oracle only.

    Row by row, takes the smallest free column for which the remaining
    rows and columns still complete to an optimal total (within 1e-9).
    """
    m = np.asarray(cost_matrix, dtype=float)
    k = m.shape[0]
    rows, cols = linear_sum_assignment(m)
    optimal = float(m[rows, cols].sum())
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
            if prefix + m[i, j] + rest <= optimal + 1e-9:
                chosen.append(j)
                prefix += float(m[i, j])
                available.pop(pos)
                break
    return tuple(chosen)


def ref_unit_costs(g, counts, target: int) -> list[float]:
    """Cost from every cell to `target` in units of VISIT_COST, entering a cell
    for STEP_UNITS + its visit count, by a heapq Dijkstra; oracle only."""
    dist = [float("inf")] * len(g)
    dist[target] = 0
    heap = [(0, target)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v in g.adjacency[u]:  # v -> u enters u; adjacency is symmetric
            if d + STEP_UNITS + counts[u] < dist[v]:
                dist[v] = d + STEP_UNITS + counts[u]
                heapq.heappush(heap, (dist[v], v))
    return dist


def ref_planning_trace(cfg: SimConfig, grid) -> tuple[list[list[int]], tuple[bool, int, bool]]:
    """Index rows ``[intruder, *robots]`` of a rs/crs/baseline trial and its
    (captured, steps, via_swap), from a reference stepper; oracle only.

    It draws from its own `random.Random(seed)`: each robot's cell in id
    order, then the intruder's; each step, the targets of the robots that
    plan, in id order, resampled while they equal the robot's cell (32
    draws at most); then the intruder's move. Paths come from the oracles
    above: rs and crs robots walk `ref_astar_path` under visit counts kept
    here (entry 1.0 + VISIT_COST * count, every robot's cell bumped after
    each move); a crs team redeploys once all have arrived, matched by
    `ref_lex_assignment` over `ref_unit_costs`; a baseline robot walks
    a fresh `ref_fifo_bfs_path` to the intruder's cell every step.
    """
    n = len(grid)
    rng = random.Random(cfg.seed)
    pos = [rng.randrange(n) for _ in range(cfg.k)]
    intruder = rng.randrange(n)
    counts, entry = [0] * n, [1.0] * n
    plans: list[list[int]] = [[] for _ in pos]
    t, captured, via_swap = 0, intruder in pos, False

    def target(here: int) -> int:
        for _ in range(32):
            cell = rng.randrange(n)
            if cell != here:
                return cell
        return here

    rows = [[intruder, *pos]]
    while not captured and t < cfg.max_steps:
        if cfg.strategy == "rs":
            for i, here in enumerate(pos):
                if not plans[i]:
                    plans[i] = ref_astar_path(grid, entry, here, target(here))[1:]
        elif cfg.strategy == "crs" and not any(plans):
            goals = [target(here) for here in pos]
            unit_costs = [ref_unit_costs(grid, counts, goal) for goal in goals]
            matched = ref_lex_assignment([[costs[here] for costs in unit_costs] for here in pos])
            plans = [ref_astar_path(grid, entry, here, goals[j])[1:] for here, j in zip(pos, matched)]
        elif cfg.strategy == "baseline":
            plans = [ref_fifo_bfs_path(grid, here, intruder)[1:] for here in pos]
        prev = pos
        pos = [plan.pop(0) if plan else here for plan, here in zip(plans, prev)]
        if cfg.strategy != "baseline":
            for cell in pos:
                counts[cell] += 1
                entry[cell] = 1.0 + VISIT_COST * counts[cell]
        intruder_prev = intruder
        adj = grid.adjacency[intruder]
        if cfg.intruder == "random":
            pick = rng.randrange(len(adj) + 1)
            if pick > 0:
                intruder = adj[pick - 1]
        elif cfg.intruder == "walk" and adj:
            intruder = adj[rng.randrange(len(adj))]
        co_located = intruder in pos
        swapped = any(r == intruder_prev and p == intruder for r, p in zip(pos, prev))
        t += 1
        if co_located or swapped:
            captured, via_swap = True, swapped and not co_located
        rows.append([intruder, *pos])
    return rows, (captured, t, via_swap)


def tie_heavy_matrix(rng: random.Random, k: int, kind: int) -> list[list[float]]:
    """Small integers, thirds, or sums of 1 + 0.05 c as path costs produce them."""
    if kind == 0:
        return [[rng.randrange(4) for _ in range(k)] for _ in range(k)]
    if kind == 1:
        return [[rng.randrange(40) / 3 for _ in range(k)] for _ in range(k)]
    return [
        [sum(1 + 0.05 * rng.randrange(3) for _ in range(rng.randrange(1, 6))) for _ in range(k)]
        for _ in range(k)
    ]


def random_polygon_grid(rng: random.Random):
    shapes = [
        P((0, 0), (5, 0), (5, 4), (0, 4)),
        P((0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)),
        P((0, 0), (6, 0), (6, 2), (4, 2), (4, 4), (2, 4), (2, 2), (0, 2)),
        P((0, 0), (3, 0), (3, 5), (2, 5), (2, 2), (1, 2), (1, 5), (0, 5)),
    ]
    return rasterize(shapes[rng.randrange(len(shapes))])


def path_cost(cm: CostMap, path) -> float:
    """Cost of walking an index path: entered cells only, start free."""
    return sum(cm.entry[i] for i in path[1:])


class TestCostMap:
    def test_fresh_map_zero(self):
        g = rasterize(P((0, 0), (3, 0), (3, 3), (0, 3)))
        cm = CostMap(g)
        assert all(VISIT_COST * n == 0.0 for n in cm.counts)
        assert cm.entry == [1.0] * len(g)

    def test_bump_increments(self):
        g = rasterize(P((0, 0), (2, 0), (2, 2), (0, 2)))
        cm = CostMap(g)
        i = g.require(Cell(1, 1))
        cm.bump_index(i)
        assert VISIT_COST * cm.counts[i] == 0.05
        cm.bump_index(i)
        assert VISIT_COST * cm.counts[i] == 0.05 * 2
        cm.bump_index(i)
        assert VISIT_COST * cm.counts[i] == pytest.approx(0.15)
        assert cm.entry[i] == 1.0 + VISIT_COST * 3
        assert cm.counts[g.require(Cell(0, 0))] == 0

    def test_bump_outside_raises(self):
        g = rasterize(P((0, 0), (2, 0), (2, 2), (0, 2)))
        with pytest.raises(InvalidConfig, match="is not in the grid"):
            g.require(Cell(5, 5))

    def test_path_cost_counts_entered_cells(self):
        g = rasterize(P((0, 0), (4, 0), (4, 1), (0, 1)))
        cm = CostMap(g)
        p = plan_indices(g, cm, g.require(Cell(0, 0)), g.require(Cell(3, 0)))
        assert path_cost(cm, p) == pytest.approx(3.0)
        cm.bump_index(g.require(Cell(0, 0)))  # start cell cost never charged
        assert path_cost(cm, p) == pytest.approx(3.0)
        cm.bump_index(g.require(Cell(1, 0)))
        assert path_cost(cm, p) == pytest.approx(3.05)


class TestAstar:
    def test_start_equals_goal(self):
        g = rasterize(P((0, 0), (3, 0), (3, 3), (0, 3)))
        i = g.require(Cell(1, 1))
        p = plan_indices(g, CostMap(g), i, i)
        assert p == [i]
        assert path_cost(CostMap(g), p) == 0.0

    def test_unweighted_cost_is_manhattan(self):
        g = rasterize(P((0, 0), (5, 0), (5, 5), (0, 5)))
        cm = CostMap(g)
        p = plan_indices(g, cm, g.require(Cell(0, 0)), g.require(Cell(4, 3)))
        assert path_cost(cm, p) == pytest.approx(7.0)
        assert len(p) == 8

    def test_avoids_expensive_cell(self):
        g = rasterize(P((0, 0), (3, 0), (3, 3), (0, 3)))
        cm = CostMap(g)
        for _ in range(10):
            cm.bump_index(g.require(Cell(1, 1)))
        p = plan_indices(g, cm, g.require(Cell(0, 0)), g.require(Cell(2, 2)))
        assert g.require(Cell(1, 1)) not in p
        assert path_cost(cm, p) == pytest.approx(4.0)

    def test_path_is_4_adjacent_and_in_graph(self):
        g = rasterize(P((0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)))
        p = plan_indices(g, CostMap(g), g.require(Cell(3, 1)), g.require(Cell(1, 3)))
        cells = [g.cells[i] for i in p]
        for a, b in zip(cells, cells[1:]):
            assert abs(a.col - b.col) + abs(a.row - b.row) == 1
            assert b in g.index

    def test_deterministic(self):
        g = rasterize(P((0, 0), (5, 0), (5, 5), (0, 5)))
        cm = CostMap(g)
        p1 = plan_indices(g, cm, g.require(Cell(0, 0)), g.require(Cell(4, 4)))
        p2 = plan_indices(g, cm, g.require(Cell(0, 0)), g.require(Cell(4, 4)))
        assert p1 == p2

    def test_unreachable(self):
        g = GridGraph([Cell(0, 0), Cell(2, 0)])
        with pytest.raises(Unreachable):
            plan_indices(g, CostMap(g), g.require(Cell(0, 0)), g.require(Cell(2, 0)))

    def test_matches_weighted_oracle_random(self):
        rng = random.Random(101)
        for _ in range(200):
            g = random_polygon_grid(rng)
            cm = CostMap(g)
            for _ in range(rng.randrange(0, 30)):
                cm.bump_index(rng.randrange(len(g)))
            s = rng.randrange(len(g))
            t = rng.randrange(len(g))
            p = plan_indices(g, cm, s, t)
            entry = {c: 1.0 + VISIT_COST * cm.counts[i] for i, c in enumerate(g.cells)}
            want = ref_weighted_cost(g, entry, g.cells[s], g.cells[t])
            assert path_cost(cm, p) == pytest.approx(want)

    def test_tie_break_equals_reference_astar(self):
        # Visit counts left by an rs team make equal-cost paths whose h
        # differs, so the h rank of the tie-break decides some paths here.
        rng = random.Random(29)
        for inst in preset_areas().instances:
            g = rasterize(inst.polygon)
            state = init_trial(SimConfig(strategy="rs", k=10, seed=30), g)
            for _ in range(30):
                step(state)
            for _ in range(300):
                s, t = rng.randrange(len(g)), rng.randrange(len(g))
                assert plan_indices(g, state.cost, s, t) == ref_astar_path(g, state.cost.entry, s, t)

    def test_tie_break_equals_reference_astar_on_a_crowded_cost_map(self):
        # 400 steps of 25 rs robots on area704 leave many equal float sums.
        # The team walks without an intruder, so no capture ends the walk.
        inst = preset_areas().instances[-1]
        g = rasterize(inst.polygon)
        assert len(g) == 704
        state = init_trial(SimConfig(strategy="rs", k=25, seed=31), g)
        for _ in range(400):
            _rs_plan(state)
            state.pos = [plan.pop() if plan else here for plan, here in zip(state.plans, state.pos)]
            for i in state.pos:
                state.cost.bump_index(i)
        rng = random.Random(31)
        for _ in range(200):
            s, t = rng.randrange(len(g)), rng.randrange(len(g))
            assert plan_indices(g, state.cost, s, t) == ref_astar_path(g, state.cost.entry, s, t)
        axis_tables = [key for key in g.cache if isinstance(key, tuple) and key[0] in ("col", "row")]
        assert 0 < len(axis_tables) <= len(set(g.cols)) + len(set(g.rows))


class TestDijkstra:
    def test_matches_bfs(self):
        rng = random.Random(7)
        for _ in range(100):
            g = random_polygon_grid(rng)
            s = rng.randrange(len(g))
            t = rng.randrange(len(g))
            p = shortest_indices(g, s, t)
            assert len(p) - 1 == ref_bfs_steps(g, g.cells[s], g.cells[t])
            assert list(p) == ref_fifo_bfs_path(g, s, t)

    def test_equals_fifo_bfs_path_on_area_combs(self):
        rng = random.Random(23)
        for inst in preset_areas().instances:
            g = rasterize(inst.polygon)
            goals = [rng.randrange(len(g)) for _ in range(4)]
            for t in goals:
                starts = [t] + [rng.randrange(len(g)) for _ in range(60)]  # start == goal first
                for s in starts:
                    assert list(shortest_indices(g, s, t)) == ref_fifo_bfs_path(g, s, t)

    def test_next_hops_equal_bfs_oracle_for_every_goal(self):
        grids = [rasterize(inst.polygon) for inst in preset_areas().instances] + [two_part_grid()]
        grids += [rasterize(inflate_cut(v, seed=s)) for v, s in ((8, 1), (20, 4), (40, 2), (70, 5))]
        grids.append(GridGraph([Cell(0, 0)]))  # one cell, no edges
        for g in grids:
            for t, want in enumerate(ref_next_hop_rows(g)):
                assert planning._next_hops(g, t).tolist() == want

    def test_next_hops_equal_bfs_oracle_after_weighted_searches(self):
        # costs_to_target writes its weights into the one graph that the
        # unweighted next-hop search also reads; that search ignores them.
        grids = [rasterize(preset_areas().instances[-1].polygon), two_part_grid(), rasterize(inflate_cut(40, seed=2))]
        rng = random.Random(11)
        for g in grids:
            cm = CostMap(g)
            for _ in range(3 * len(g)):
                cm.bump_index(rng.randrange(len(g)))
            costs_to_target(g, cm, [rng.randrange(len(g)) for _ in range(5)])
            graph, _ = planning._graph(g)
            assert len(set(graph.data.tolist())) > 1
            for t, want in enumerate(ref_next_hop_rows(g)):
                assert planning._next_hops(g, t).tolist() == want

    def test_unreachable(self):
        g = GridGraph([Cell(0, 0), Cell(2, 0)])
        with pytest.raises(Unreachable):
            shortest_indices(g, g.require(Cell(0, 0)), g.require(Cell(2, 0)))
        with pytest.raises(Unreachable):
            shortest_indices(g, g.require(Cell(2, 0)), g.require(Cell(0, 0)))


@pytest.mark.parametrize(
    "plan", [lambda g, s, t: plan_indices(g, CostMap(g), s, t), shortest_indices], ids=["astar", "next_hop"]
)
@pytest.mark.parametrize("end", ["start", "goal"])
@pytest.mark.parametrize("index", [-1, 4, 1.5, True], ids=["negative", "len", "float", "bool"])
def test_planners_reject_an_end_that_is_not_a_cell_index(plan, end, index):
    # -1 would otherwise plan from or to the last cell.
    g = rasterize(P((0, 0), (4, 0), (4, 1), (0, 1)))
    ends = {"start": 0, "goal": 0, end: index}
    with pytest.raises(InvalidConfig, match=re.escape(f"{end} {index!r} is not an integer in 0..3, the grid's cells")):
        plan(g, ends["start"], ends["goal"])


class TestCostsToTarget:
    def test_equals_astar_from_every_source(self):
        rng = random.Random(3)
        for _ in range(20):
            g = random_polygon_grid(rng)
            cm = CostMap(g)
            for _ in range(rng.randrange(0, 40)):
                cm.bump_index(rng.randrange(len(g)))
            targets = [rng.randrange(len(g)) for _ in range(rng.randrange(1, 6))]
            targets.append(targets[0])  # duplicates are answered row by row
            dist = costs_to_target(g, cm, targets)
            assert dist.shape == (len(targets), len(g))
            for r, t in enumerate(targets):
                for i in range(len(g)):
                    p = plan_indices(g, cm, i, t)
                    assert dist[r, i] == round(STEP_UNITS * path_cost(cm, p))

    def test_reflects_new_counts(self):
        g = rasterize(P((0, 0), (4, 0), (4, 1), (0, 1)))
        cm = CostMap(g)
        t = g.require(Cell(3, 0))
        assert costs_to_target(g, cm, [t])[0].tolist() == [60, 40, 20, 0]
        cm.bump_index(g.require(Cell(1, 0)))
        assert costs_to_target(g, cm, [t])[0].tolist() == [61, 40, 20, 0]
        # Two maps take turns on one grid; each call rewrites every weight.
        other = CostMap(g)
        for cell in (Cell(2, 0), Cell(2, 0), Cell(2, 0), Cell(3, 0)):
            other.bump_index(g.require(cell))
        for _ in range(2):
            assert costs_to_target(g, other, [t])[0].tolist() == [64, 44, 21, 0]
            assert costs_to_target(g, cm, [t])[0].tolist() == [61, 40, 20, 0]

    def test_accepts_numpy_integer_targets(self):
        g = rasterize(P((0, 0), (4, 0), (4, 1), (0, 1)))
        cm = CostMap(g)
        assert costs_to_target(g, cm, np.array([3, 0])).tolist() == costs_to_target(g, cm, [3, 0]).tolist()

    @pytest.mark.parametrize("target", [4, -1, 1.5, True], ids=["len", "negative", "float", "bool"])
    def test_rejects_a_target_that_is_not_a_cell_index(self, target):
        g = rasterize(P((0, 0), (4, 0), (4, 1), (0, 1)))
        with pytest.raises(InvalidConfig, match=re.escape(f"target {target!r} is not an integer in 0..3")):
            costs_to_target(g, CostMap(g), [0, target])


def ref_hops(g, target: int) -> list[float]:
    """Breadth-first hop count from every cell to `target`, inf where it is out of reach; oracle only."""
    hops = [float("inf")] * len(g)
    hops[target] = 0.0
    queue = [target]
    for v in queue:
        for u in g.adjacency[v]:
            if hops[u] == float("inf"):
                hops[u] = hops[v] + 1
                queue.append(u)
    return hops


class TestFreshMapRows:
    def test_equal_step_units_times_bfs_hops(self):
        rng = random.Random(5)
        grids = [random_polygon_grid(rng) for _ in range(8)] + [two_part_grid()]
        for g in grids:
            targets = [rng.randrange(len(g)) for _ in range(4)]
            targets.append(targets[0])  # a repeated target reads its row twice
            dist = costs_to_target(g, CostMap(g), targets)
            assert dist.dtype == np.float64 and dist.shape == (len(targets), len(g))
            assert dist.tolist() == [[STEP_UNITS * h for h in ref_hops(g, t)] for t in targets]

    def test_unreachable_cells_read_inf(self):
        g = two_part_grid()  # {0, 1, 3} and {2, 4, 5}
        inf = float("inf")
        dist = costs_to_target(g, CostMap(g), [0, 5])
        assert dist.tolist() == [[0, 20, inf, 20, inf, inf], [inf, inf, 40, inf, 20, 0]]

    def test_one_unweighted_search_fills_the_missing_targets(self, monkeypatch):
        g = rasterize(P((0, 0), (4, 0), (4, 2), (0, 2)))
        searches = []
        dijkstra = planning.csgraph.dijkstra

        def counted(graph, **kwargs):
            searches.append((list(kwargs["indices"]), kwargs.get("unweighted", False)))
            return dijkstra(graph, **kwargs)

        monkeypatch.setattr(planning.csgraph, "dijkstra", counted)
        cm = CostMap(g)
        for targets in ([0, 3, 0], [3, 5], [5, 0, 3]):
            assert costs_to_target(g, cm, targets).tolist() == [[STEP_UNITS * h for h in ref_hops(g, t)] for t in targets]
        assert searches == [([0, 3], True), ([5], True)]
        assert g.cache[("hops", 0)].dtype == np.float32

    def test_a_bumped_map_takes_the_weighted_search(self, monkeypatch):
        g = rasterize(P((0, 0), (4, 0), (4, 1), (0, 1)))
        cm = CostMap(g)
        cm.bump_index(1)

        def fresh_rows(*args):
            raise AssertionError("fresh rows read on a bumped map")

        monkeypatch.setattr(planning, "_hop_rows", fresh_rows)
        assert costs_to_target(g, cm, [3])[0].tolist() == [61, 40, 20, 0]


class TestDescend:
    def test_equals_astar_whenever_it_returns_a_path(self):
        rng = random.Random(11)
        descended = fell_back = 0
        for _ in range(30):
            g = random_polygon_grid(rng)
            cm = CostMap(g)
            for _ in range(rng.randrange(0, 40)):
                cm.bump_index(rng.randrange(len(g)))
            targets = [rng.randrange(len(g)) for _ in range(3)]
            for t, row in zip(targets, costs_to_target(g, cm, targets).tolist()):
                for i in range(len(g)):
                    path = descend(g, cm, row, i)
                    if path is None:
                        fell_back += 1
                    else:
                        descended += 1
                        assert path == plan_indices(g, cm, i, t)
        assert descended > 0 and fell_back > 0

    def test_a_tie_on_a_square_falls_back(self):
        g = rasterize(P((0, 0), (2, 0), (2, 2), (0, 2)))  # 0 1 / 2 3, both ways round cost 40
        cm = CostMap(g)
        row = costs_to_target(g, cm, [3])[0].tolist()
        assert descend(g, cm, row, 0) is None
        assert descend(g, cm, row, 1) == [1, 3] and descend(g, cm, row, 3) == [3]
        cm.bump_index(2)  # the tie breaks, and the other way round is the one optimum
        row = costs_to_target(g, cm, [3])[0].tolist()
        assert descend(g, cm, row, 0) == [0, 1, 3] == plan_indices(g, cm, 0, 3)

    def test_an_unreachable_start_falls_back(self):
        g = two_part_grid()
        cm = CostMap(g)
        assert descend(g, cm, costs_to_target(g, cm, [0])[0].tolist(), 5) is None

    def test_a_row_of_other_counts_falls_back(self):
        g = rasterize(P((0, 0), (4, 0), (4, 1), (0, 1)))
        cm = CostMap(g)
        row = costs_to_target(g, cm, [3])[0].tolist()  # [60, 40, 20, 0]
        cm.bump_index(1)  # entering cell 1 now costs 21, so no neighbor of cell 0 fits the row
        assert descend(g, cm, row, 0) is None
        assert descend(g, cm, costs_to_target(g, cm, [3])[0].tolist(), 0) == [0, 1, 2, 3]

    def test_crs_runs_astar_only_where_a_descent_ties(self, monkeypatch):
        # On a corridor every cheapest path is unique, so no crs round runs A*.
        def astar(*args):
            raise AssertionError("A* run for a unique path")

        monkeypatch.setattr(sim, "plan_indices", astar)
        corridor = rasterize(P((0, 0), (12, 0), (12, 1), (0, 1)))
        run_trial(SimConfig("crs", 3, "walk", max_steps=200, seed=1), corridor)
        # On a square ties are common; the fallback goes through sim's module global.
        calls = []
        monkeypatch.setattr(sim, "plan_indices", lambda *args: calls.append(args) or plan_indices(*args))
        square = rasterize(P((0, 0), (6, 0), (6, 6), (0, 6)))
        run_trial(SimConfig("crs", 3, "walk", max_steps=200, seed=1), square)
        assert calls


class TestHungarian:
    def test_singleton(self):
        assert hungarian([[0.0]]) == (0,)

    def test_two_by_two(self):
        assert hungarian([[1.0, 2.0], [2.0, 1.0]]) == (0, 1)

    def test_unique_cross_assignment(self):
        assert hungarian([[1.0, 0.0], [0.0, 1.0]]) == (1, 0)

    def test_all_ties_lexicographic(self):
        assert hungarian([[1.0, 1.0], [1.0, 1.0]]) == (0, 1)

    def test_non_square(self):
        with pytest.raises(InvalidConfig, match="is not square"):
            hungarian([[1.0, 2.0]])

    def test_negative_entry(self):
        with pytest.raises(InvalidConfig, match="must be non-negative"):
            hungarian([[1.0, -0.5], [0.0, 1.0]])

    @pytest.mark.parametrize("matrix", [[[np.inf]], [[np.nan, 1.0], [1.0, 1.0]]], ids=["inf", "nan"])
    def test_non_finite_entry(self, matrix):
        with pytest.raises(InvalidConfig, match="must be finite"):
            hungarian(matrix)

    @pytest.mark.parametrize("matrix", [[[1, 2], [3]], [["a"]], [[1j]]])
    def test_malformed_matrix(self, matrix):
        with pytest.raises(InvalidConfig, match="is not a numeric table"):
            hungarian(matrix)

    def test_matches_brute_force(self):
        rng = random.Random(42)
        for trial in range(300):
            k = rng.randrange(1, 7)
            if trial % 2:
                m = [[rng.randrange(0, 4) for _ in range(k)] for _ in range(k)]
            else:
                m = [[rng.uniform(0, 10) for _ in range(k)] for _ in range(k)]
            targets = hungarian(m)
            perm, cost = brute_hungarian(m)
            assert targets == perm
            assert sum(m[i][targets[i]] for i in range(k)) == pytest.approx(cost)

    def test_matches_re_solve_oracle_on_ties(self):
        rng = random.Random(2024)
        for trial in range(1200):
            k = rng.choice((1, 2, 3, 4, 5, 6, 8, 13, 21)) if trial % 100 else 59
            m = tie_heavy_matrix(rng, k, trial % 3)
            assert hungarian(m) == ref_lex_assignment(m), (trial, k)

    def test_one_solve_per_call(self, monkeypatch):
        calls = []

        def counting_lsa(m):
            calls.append(m.shape)
            return linear_sum_assignment(m)

        monkeypatch.setattr(planning, "linear_sum_assignment", counting_lsa)
        rng = random.Random(5)
        for k in (1, 4, 20, 59):
            calls.clear()
            hungarian(tie_heavy_matrix(rng, k, 0))
            assert calls == [(k, k)]

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda k: st.lists(
                st.lists(st.integers(0, 3), min_size=k, max_size=k), min_size=k, max_size=k
            )
        )
    )
    def test_property_equals_re_solve_oracle(self, m):
        assert hungarian(m) == ref_lex_assignment(m)


class TestSolverLoader:
    """The solver comes from scipy's _lsap extension alone, else from scipy.optimize."""

    @staticmethod
    def tie_matrices():
        rng = random.Random(11)
        for trial in range(90):
            m = np.array(tie_heavy_matrix(rng, rng.choice((1, 2, 5, 13, 21)), trial % 3))
            yield m
            yield m.astype(np.int64)

    def test_import_leaves_scipy_optimize_out(self):
        src = str(Path(planning.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", "import sys, polysearch, polysearch.cli; print('scipy.optimize' in sys.modules)"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"

    def test_loaded_solver_equals_public_one(self):
        for m in self.tie_matrices():
            rows, cols = planning.linear_sum_assignment(m)
            want_rows, want_cols = linear_sum_assignment(m)
            assert rows.tolist() == want_rows.tolist()
            assert cols.tolist() == want_cols.tolist(), m.tolist()

    @pytest.mark.parametrize("unavailable", ["no-suffixes", "spec-fails"])
    def test_fallback_when_extension_is_unavailable(self, monkeypatch, unavailable):
        if unavailable == "no-suffixes":
            monkeypatch.setattr(planning, "EXTENSION_SUFFIXES", [])
        else:
            def fail(*args, **kwargs):
                raise ImportError("no loader")

            monkeypatch.setattr(planning, "spec_from_file_location", fail)
        solve = planning._load_lsa()
        assert solve is linear_sum_assignment
        for m in self.tie_matrices():
            assert solve(m)[1].tolist() == planning.linear_sum_assignment(m)[1].tolist()


class TestMemo:
    def test_builds_once_and_drops_the_oldest(self, monkeypatch):
        g = rasterize(P((0, 0), (4, 0), (4, 1), (0, 1)))
        monkeypatch.setattr(geometry, "MAX_MEMO_CELLS", 3 * len(g))
        built = []
        for key in "abcad":
            assert g.memo(key, lambda: built.append(key) or key.upper()) == key.upper()
        assert built == ["a", "b", "c", "d"]
        assert list(g.cache) == ["b", "c", "d"]

    def test_every_grid_keeps_two_entries(self, monkeypatch):
        monkeypatch.setattr(geometry, "MAX_MEMO_CELLS", 0)
        g = rasterize(P((0, 0), (4, 0), (4, 1), (0, 1)))
        for key in "xyz":
            g.memo(key, lambda: key)
        assert list(g.cache) == ["y", "z"]

    def test_an_empty_grid_counts_as_one_cell(self, monkeypatch):
        monkeypatch.setattr(geometry, "MAX_MEMO_CELLS", 3)
        g = GridGraph([])
        for key in "abcad":
            assert g.memo(key, lambda: key.upper()) == key.upper()
        assert list(g.cache) == ["b", "c", "d"]

    def test_planning_trials_stay_within_the_bound(self, monkeypatch):
        square = P((0, 0), (150, 0), (150, 150), (0, 150))
        g = rasterize(square)
        monkeypatch.setattr(geometry, "MAX_MEMO_CELLS", 8 * len(g))
        for strategy, kind in (("baseline", "next_hop"), ("rs", "col"), ("crs", "hops")):
            for seed in range(3):
                cfg = SimConfig(strategy=strategy, k=3, intruder="walk", max_steps=40, seed=seed)
                run_trial(cfg, g)
                assert len(g.cache) <= 8
            assert len(g.cache) == 8 and any(key[0] == kind for key in g.cache)


@pytest.mark.parametrize("intruder", ["static", "random", "walk"])
@pytest.mark.parametrize("strategy", ["rs", "crs", "baseline"])
def test_planning_trace_equals_reference(strategy, intruder):
    """Every team size from 1 to 12, twice, each on a fresh inflate_cut polygon and seed."""
    rng = random.Random(f"{strategy} {intruder}")
    for k in [*range(1, 13)] * 2:
        grid = rasterize(inflate_cut(2 * rng.randrange(8, 23), rng.randrange(10**6)))
        cfg = SimConfig(strategy, k, intruder, max_steps=rng.randrange(20, 301), seed=rng.randrange(10**6))
        rows = []
        res = run_trial(cfg, grid, rows)
        ref_rows, ref_result = ref_planning_trace(cfg, grid)
        assert rows == ref_rows, cfg
        assert (res.captured, res.steps, res.via_swap) == ref_result, cfg
        # The untraced path, which sweeps take, must end the same way.
        assert run_trial(cfg, grid) == res, cfg
