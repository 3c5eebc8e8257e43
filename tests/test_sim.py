"""Simulation engine tests.

The heavyweight oracle here is an absorbing Markov chain for the
omniscient pursuer on a corridor, solved exactly with numpy and compared
against simulated capture times. Policy mechanics (patrol ping-pong, the
crs redeployment barrier, swap captures) are checked white-box.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from polysearch import sim
from polysearch.decomposition import allocate_robots
from polysearch.errors import InvalidConfig, TooFewRobots, Unreachable
from polysearch.geometry import Cell, rasterize
from polysearch.harness import preset_areas, preset_spikes4
from polysearch.planning import shortest_indices
from polysearch.polygen import comb_polygon, inflate_cut
from polysearch.sfc import gilbert_curve, segment_bounds
from polysearch.sim import (
    DEFAULT_STEP_FACTOR,
    SimConfig,
    TrialResult,
    init_trial,
    intruder_move,
    positions,
    run_trial,
    sfc_layout,
    step,
    team,
)

from conftest import P, check_trace, rect_cells, ref_sfc_curves, two_part_grid


def sfc_minimum(strategy: str, grid) -> int:
    """Smallest sfc/sfc_g team: one searcher per curve, plus the sfc_g guards."""
    layout = sfc_layout(grid)
    return len(layout.curves) + (len(layout.guards) if strategy == "sfc_g" else 0)


def corridor(n: int):
    return P((0, 0), (n, 0), (n, 1), (0, 1))


@pytest.fixture(scope="module")
def comb_grid():
    poly = comb_polygon((3, 4, 5), spike_width=1, base_height=2, spike_gap=1)
    return poly, rasterize(poly)


# ---------------------------------------------------------------- init


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        init_trial(SimConfig(strategy="teleport", k=1), rasterize(corridor(4)))


def test_unknown_intruder_rejected():
    with pytest.raises(ValueError):
        init_trial(SimConfig(strategy="rs", k=1, intruder="ghost"), rasterize(corridor(4)))


def test_zero_robots_rejected():
    with pytest.raises(TooFewRobots):
        init_trial(SimConfig(strategy="rs", k=0), rasterize(corridor(4)))


def test_sfc_rejects_fixed_positions():
    grid = rasterize(corridor(4))
    with pytest.raises(ValueError):
        SimConfig(strategy="sfc", k=1, robot_cells=(grid.require(Cell(0, 0)),))


@pytest.mark.parametrize(
    "k, robot_cells",
    [pytest.param(2, (0,), id="one-cell-for-two"), pytest.param(1, 5, id="no-length")],
)
def test_position_count_must_match_k(k, robot_cells):
    # A robot_cells without a length is a bad config, not a TypeError.
    with pytest.raises(InvalidConfig):
        SimConfig(strategy="rs", k=k, robot_cells=robot_cells)


@pytest.mark.parametrize("where", ["robot", "intruder"])
@pytest.mark.parametrize("idx", [-1, 4, 1.0, True])
def test_placed_index_must_be_in_the_grid(where, idx):
    # -1 would otherwise read as the last cell; 4 is len(grid); a float or a
    # bool would fail deep inside the first step.
    grid = rasterize(corridor(4))
    placed = {"robot_cells": (idx,)} if where == "robot" else {"intruder_cell": idx}
    with pytest.raises(InvalidConfig, match=f"cell index {idx!r} is not an integer in 0..3"):
        init_trial(SimConfig(strategy="baseline", k=1, **placed), grid)


def test_numpy_seed_runs_the_trial_of_its_int():
    # random.Random takes no numpy integer; the config keeps check_int's plain ints.
    grid = rasterize(corridor(6))
    cfg = SimConfig(strategy="rs", k=np.int64(2), seed=np.int64(3), rect_seed=np.int64(1), max_steps=np.int64(50))
    assert (type(cfg.k), type(cfg.seed), type(cfg.rect_seed), type(cfg.max_steps)) == (int, int, int, int)
    assert run_trial(cfg, grid) == run_trial(SimConfig(strategy="rs", k=2, seed=3, rect_seed=1, max_steps=50), grid)


def test_placed_index_may_be_a_numpy_integer():
    # A trace row read back through numpy holds numpy integers.
    grid = rasterize(corridor(4))
    cfg = SimConfig(strategy="baseline", k=1, robot_cells=(np.int64(0),), intruder_cell=np.int64(3))
    state = init_trial(cfg, grid)
    assert state.pos == [0] and state.intruder == 3 and type(state.intruder) is int


def test_old_placement_keywords_fail_at_construction():
    with pytest.raises(TypeError, match="robot_positions"):
        SimConfig(strategy="rs", k=1, robot_positions=(Cell(0, 0),))
    with pytest.raises(TypeError, match="polygon"):
        SimConfig(polygon=corridor(4), strategy="rs", k=1)


@pytest.mark.parametrize(
    "bad, by_replace",
    [
        pytest.param({"k": 2.5}, False, id="k-float"),
        pytest.param({"k": True}, False, id="k-bool"),
        pytest.param({"max_steps": 2.5}, False, id="max-steps-float"),
        pytest.param({"max_steps": "5"}, False, id="max-steps-string"),
        pytest.param({"seed": [1]}, False, id="seed-list"),
        pytest.param({"strategy": "sfc", "rect_seed": [1]}, False, id="rect-seed-list"),
        pytest.param({"max_steps": -1}, True, id="max-steps-negative-by-replace"),
    ],
)
def test_malformed_field_rejected(bad, by_replace):
    # Each would raise TypeError, run as one robot or step past its cap. A
    # config checks its fields when built, by its constructor or by replace.
    with pytest.raises(InvalidConfig):
        if by_replace:
            dataclasses.replace(SimConfig(strategy="rs", k=2), **bad)
        else:
            SimConfig(**{"strategy": "rs", "k": 2, **bad})


def test_colocated_start_is_an_immediate_capture():
    grid = rasterize(corridor(4))
    cfg = SimConfig(
        strategy="baseline",
        k=1,
        robot_cells=(grid.require(Cell(2, 0)),),
        intruder_cell=grid.require(Cell(2, 0)),
    )
    res = run_trial(cfg, grid)
    assert res.captured and res.steps == 0


def test_default_step_cap_scales_with_area():
    grid = rasterize(corridor(7))
    state = init_trial(SimConfig(strategy="rs", k=1), grid)
    assert state.max_steps == DEFAULT_STEP_FACTOR * len(grid.cells)


def test_uncaptured_trial_reports_the_cap():
    # one patrol robot pinned to a 1-cell segment can never reach the far cell
    grid = rasterize(corridor(6))
    cfg = SimConfig(
        strategy="rs",
        k=1,
        max_steps=0,
        robot_cells=(grid.require(Cell(0, 0)),),
        intruder_cell=grid.require(Cell(5, 0)),
    )
    res = run_trial(cfg, grid)
    assert not res.captured and res.steps == 0


def test_sfc_robots_start_at_segment_starts():
    poly = corridor(6)
    grid = rasterize(poly)
    state = init_trial(
        SimConfig(strategy="sfc", k=2, intruder_cell=grid.require(Cell(5, 0))), grid
    )
    layout = sfc_layout(grid)
    assert len(layout.curves) == 1
    curve = layout.curves[0]
    assert positions(state) == [curve[0], curve[3]]
    assert [tour[: len(tour) // 2 + 1] for tour in state.tours] == [curve[0:3], curve[3:6]]


def test_sfc_too_few_robots(comb_grid):
    poly, grid = comb_grid
    need = sfc_minimum("sfc", grid)
    assert need > 1
    with pytest.raises(TooFewRobots):
        init_trial(SimConfig(strategy="sfc", k=need - 1), grid)
    init_trial(SimConfig(strategy="sfc", k=need), grid)


def test_sfc_g_guards_sit_on_junction_doorways(comb_grid):
    poly, grid = comb_grid
    layout = sfc_layout(grid)
    k = sfc_minimum("sfc_g", grid)
    state = init_trial(SimConfig(strategy="sfc_g", k=k), grid)
    guards = positions(state)[k - len(layout.guards):]
    assert len(guards) == len(layout.rectangulation.juncs) == len(layout.guards)
    assert guards == list(layout.guards)
    assert all(len(tour) == 1 for tour in state.tours[k - len(layout.guards):])
    with pytest.raises(TooFewRobots):
        init_trial(SimConfig(strategy="sfc_g", k=k - 1), grid)


def test_segments_jointly_cover_the_grid(comb_grid):
    poly, grid = comb_grid
    for k in (4, 5, 9):
        state = init_trial(SimConfig(strategy="sfc", k=k, seed=k), grid)
        covered = set()
        for tour in state.tours:
            covered.update(tour[: len(tour) // 2 + 1])
        assert covered == set(range(len(grid.cells)))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    vertices=st.integers(2, 24).map(lambda h: 2 * h),
    poly_seed=st.integers(0, 10**6),
    rect_seed=st.integers(0, 10**6),
)
def test_property_sfc_curves_cover_their_rectangles(vertices, poly_seed, rect_seed):
    grid = rasterize(inflate_cut(vertices, poly_seed))
    layout = sfc_layout(grid, rect_seed)
    for rect, curve in zip(layout.rectangulation.rects, layout.curves):
        assert all(0 <= i < len(grid.cells) for i in curve)
        cells = [grid.cells[i] for i in curve]
        assert set(cells) == set(rect_cells(rect))
        # 4-adjacent steps only
        assert all(abs(a.col - b.col) + abs(a.row - b.row) == 1 for a, b in zip(cells, cells[1:]))
        raw = gilbert_curve(rect.width, rect.height)
        detours = sum(abs(a.col - b.col) == abs(a.row - b.row) == 1 for a, b in zip(raw, raw[1:]))
        assert len(curve) == rect.area + detours


@pytest.mark.parametrize("rect_seed", [0, 1])
def test_sfc_curves_equal_the_cell_path(rect_seed):
    # The 24 polygons of the bench's patrol_cold workload at seed 0, then
    # the spikes4 and areas combs.
    rng = random.Random(0)
    polys = [inflate_cut(rng.choice(range(48, 61, 2)), rng.randrange(2**31)) for _ in range(24)]
    polys += [inst.polygon for make in (preset_spikes4, preset_areas) for inst in make().instances]
    for poly in polys:
        grid = rasterize(poly)
        assert sfc_layout(grid, rect_seed).curves == ref_sfc_curves(grid, rect_seed)


# ---------------------------------------------------------------- determinism


def test_repeated_trials_are_identical(comb_grid):
    poly, grid = comb_grid
    for strategy in ("rs", "crs", "baseline", "sfc"):
        cfg = SimConfig(strategy=strategy, k=4, intruder="random", seed=11)
        first, second = [], []
        assert run_trial(cfg, grid, first) == run_trial(cfg, grid, second)
        assert first == second


def test_shared_grid_matches_fresh_grid(comb_grid):
    poly, grid = comb_grid
    cfg = SimConfig(strategy="crs", k=4, intruder="walk", seed=3)
    warmup = SimConfig(strategy="baseline", k=2, seed=9)
    run_trial(warmup, grid)  # populate path caches
    shared, fresh = [], []
    assert run_trial(cfg, grid, shared) == run_trial(cfg, rasterize(poly), fresh)
    assert shared == fresh


def test_different_seeds_differ(comb_grid):
    poly, grid = comb_grid
    results = {
        run_trial(
            SimConfig(strategy="rs", k=2, seed=s, intruder="random"), grid
        ).steps
        for s in range(12)
    }
    assert len(results) > 1


# ---------------------------------------------------------------- capture mechanics


def test_swap_capture_on_two_cell_corridor():
    grid = rasterize(corridor(2))
    cfg = SimConfig(
        strategy="baseline",
        k=1,
        intruder="walk",
        robot_cells=(grid.require(Cell(0, 0)),),
        intruder_cell=grid.require(Cell(1, 0)),
    )
    rows = []
    res = run_trial(cfg, grid, rows)
    assert res.captured and res.steps == 1 and res.via_swap
    # The intruder (column 0) and the robot trade cells 1 and 0.
    assert rows == [[1, 0], [0, 1]]


def test_trial_result_carries_via_swap():
    grid = rasterize(corridor(2))
    swap = SimConfig(
        strategy="baseline",
        k=1,
        intruder="walk",
        robot_cells=(grid.require(Cell(0, 0)),),
        intruder_cell=grid.require(Cell(1, 0)),
    )
    assert run_trial(swap, grid).via_swap
    grid = rasterize(corridor(3))
    met = SimConfig(
        strategy="baseline",
        k=1,
        robot_cells=(grid.require(Cell(0, 0)),),
        intruder_cell=grid.require(Cell(1, 0)),
    )
    res = run_trial(met, grid)
    assert res.captured and not res.via_swap


def test_untraced_patrol_swap_capture():
    # the lone robot's tour is (0, 1): it steps onto Cell(1, 0) as the intruder leaves it
    grid = rasterize(corridor(2))
    cfg = SimConfig(
        strategy="sfc",
        k=1,
        intruder="walk",
        intruder_cell=grid.require(Cell(1, 0)),
    )
    res = run_trial(cfg, grid)
    assert res.captured and res.steps == 1 and res.via_swap


def test_baseline_closes_distance_each_step():
    poly = comb_polygon((2, 3), spike_width=2, base_height=2, spike_gap=1)
    grid = rasterize(poly)
    cfg = SimConfig(
        strategy="baseline",
        k=1,
        robot_cells=(0,),
        intruder_cell=len(grid) - 1,
    )
    rows = []
    res = run_trial(cfg, grid, rows)
    assert res.captured
    lengths = []
    from polysearch.planning import shortest_indices

    for i, r in rows:
        lengths.append(len(shortest_indices(grid, r, i)) - 1)
    assert lengths[0] == res.steps
    assert all(a - b == 1 for a, b in zip(lengths, lengths[1:]))


def bfs_layers(grid, goal: int) -> list[int]:
    """Unweighted distance from every cell to `goal`; oracle only."""
    dist = [-1] * len(grid)
    dist[goal] = 0
    queue = [goal]
    for v in queue:
        for u in grid.adjacency[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    vertices=st.integers(6, 14).map(lambda h: 2 * h),
    poly_seed=st.integers(0, 10**6),
    k=st.integers(1, 4),
    intruder=st.sampled_from(("static", "random", "walk")),
    seed=st.integers(0, 10**6),
)
def test_property_baseline_steps_one_layer_closer(vertices, poly_seed, k, intruder, seed):
    poly = inflate_cut(vertices, poly_seed)
    grid = rasterize(poly)
    cfg = SimConfig(strategy="baseline", k=k, intruder=intruder, seed=seed)
    rows = []
    run_trial(cfg, grid, rows)
    for prev_row, row in zip(rows, rows[1:]):
        # Robots move before the intruder, so they chase its previous cell.
        dist = bfs_layers(grid, prev_row[0])
        for a, b in zip(prev_row[1:], row[1:]):
            if dist[a] == 0:
                assert b == a
            else:
                assert b in grid.adjacency[a]
                assert dist[b] == dist[a] - 1


@pytest.mark.parametrize("k", [1, 4, 10])
@pytest.mark.parametrize("intruder", ["static", "random", "walk"])
def test_baseline_plan_is_the_tail_of_a_fresh_path(monkeypatch, intruder, k):
    # A kept plan must be what asking again would give, so that baseline
    # moves are those of a fresh shortest path every step.
    refill = sim._PLANS["baseline"]
    refills = []

    def refill_and_check(state):
        refill(state)
        refills.append(state.t)
        for plan, here in zip(state.plans, state.pos):
            assert plan[::-1] == list(shortest_indices(state.grid, here, state.intruder)[1:])

    monkeypatch.setitem(sim._PLANS, "baseline", refill_and_check)
    for inst in preset_areas().instances:
        grid = rasterize(inst.polygon)
        for seed in range(3):
            run_trial(SimConfig(strategy="baseline", k=k, intruder=intruder, seed=seed), grid)
    assert len(refills) > 3 * len(preset_areas().instances)


def test_static_baseline_asks_once_per_robot(monkeypatch):
    calls = []
    monkeypatch.setattr(sim, "shortest_indices", lambda *args: calls.append(args) or shortest_indices(*args))
    grid = rasterize(preset_areas().instances[-1].polygon)
    res = run_trial(SimConfig(strategy="baseline", k=4, seed=5), grid)
    assert res.captured and res.steps > 1
    assert 0 < len(calls) <= 4


@pytest.mark.parametrize("strategy", ["rs", "crs", "baseline"])
def test_a_target_in_another_part_raises_unreachable(strategy):
    # One robot on (0, 0) and a static intruder on (3, 0), in the grid's other part.
    grid = two_part_grid()
    cfg = SimConfig(strategy=strategy, k=1, robot_cells=(0,), intruder_cell=2)
    with pytest.raises(Unreachable, match=r"^no path from \(0, 0\) to "):
        run_trial(cfg, grid)


def test_crs_names_the_first_robot_and_its_first_target_out_of_reach(monkeypatch):
    # Robot 0 on (3, 0) reaches target 0 on (3, 1) but not target 1 on (1, 0);
    # robot 1 on (0, 0) reaches target 1 but not target 0, which comes first.
    grid = two_part_grid()
    drawn = iter([grid.require(Cell(3, 1)), grid.require(Cell(1, 0))])
    monkeypatch.setattr(sim, "_draw_target", lambda state, here: next(drawn))
    cfg = SimConfig(strategy="crs", k=2, robot_cells=(2, 0), intruder_cell=5)
    with pytest.raises(Unreachable, match=r"^no path from \(3, 0\) to \(1, 0\)$"):
        step(init_trial(cfg, grid))


def test_static_corridor_capture_time_is_initial_distance():
    poly = corridor(20)
    grid = rasterize(poly)
    for seed in range(200):
        replay = random.Random(seed)
        r0 = replay.randrange(20)
        i0 = replay.randrange(20)
        res = run_trial(SimConfig(strategy="baseline", k=1, seed=seed), grid)
        assert res.captured and res.steps == abs(r0 - i0)


def _corridor_chain_expectation(n: int) -> float:
    """Exact mean capture time: 1 pursuer vs a stay-or-step intruder.

    States are (robot, intruder) pairs; the robot deterministically steps
    toward the intruder, then the intruder picks uniformly among staying
    and its neighbors. Solving the absorbing chain gives the expected time
    from a uniform random start (co-located starts count as zero).
    """
    idx = {}
    for r in range(n):
        for i in range(n):
            if r != i:
                idx[(r, i)] = len(idx)
    a = np.zeros((len(idx), len(idx)))
    b = np.ones(len(idx))
    for (r, i), row in idx.items():
        a[row, row] = 1.0
        r2 = r + 1 if i > r else r - 1
        opts = [i] + [j for j in (i - 1, i + 1) if 0 <= j < n]
        for i2 in opts:
            if i2 == r2 or (i2 == r and r2 == i):
                continue
            a[row, idx[(r2, i2)]] -= 1.0 / len(opts)
    expect = np.linalg.solve(a, b)
    return float(sum(expect)) / (n * n)


def test_pursuit_times_match_the_markov_chain():
    n, trials = 20, 2500
    poly = corridor(n)
    grid = rasterize(poly)
    exact = _corridor_chain_expectation(n)
    steps = [
        run_trial(
            SimConfig(strategy="baseline", k=1, intruder="random", seed=s), grid
        ).steps
        for s in range(trials)
    ]
    mean = sum(steps) / trials
    sem = np.std(steps, ddof=1) / trials**0.5
    assert abs(mean - exact) < 4 * sem


# ---------------------------------------------------------------- intruder models


def _draw_counts(model: str, samples: int) -> dict[Cell, int]:
    poly = P((0, 0), (3, 0), (3, 3), (0, 3))
    grid = rasterize(poly)
    center = grid.require(Cell(1, 1))
    state = init_trial(
        SimConfig(strategy="rs", k=1, intruder=model, seed=5,
                  robot_cells=(grid.require(Cell(0, 0)),), intruder_cell=center),
        grid,
    )
    counts: dict[Cell, int] = {}
    for _ in range(samples):
        state.intruder = center
        cell = grid.cells[intruder_move(state)]
        counts[cell] = counts.get(cell, 0) + 1
    return counts


def test_static_intruder_never_moves():
    counts = _draw_counts("static", 50)
    assert counts == {Cell(1, 1): 50}


def test_random_intruder_is_uniform_over_stay_and_neighbors():
    counts = _draw_counts("random", 5000)
    assert set(counts) == {Cell(1, 1), Cell(1, 2), Cell(2, 1), Cell(1, 0), Cell(0, 1)}
    assert stats.chisquare(list(counts.values())).pvalue > 0.01


def test_walking_intruder_is_uniform_over_neighbors():
    counts = _draw_counts("walk", 4000)
    assert set(counts) == {Cell(1, 2), Cell(2, 1), Cell(1, 0), Cell(0, 1)}
    assert stats.chisquare(list(counts.values())).pvalue > 0.01


# ---------------------------------------------------------------- policies


def test_patrol_ping_pong():
    poly = corridor(5)
    grid = rasterize(poly)
    state = init_trial(
        SimConfig(strategy="sfc", k=1, intruder_cell=grid.require(Cell(4, 0))), grid
    )
    seen = []
    for _ in range(12):
        state.captured = False  # keep stepping past the static intruder
        step(state)
        seen.append(grid.cells[positions(state)[0]].col)
    assert seen == [1, 2, 3, 4, 3, 2, 1, 0, 1, 2, 3, 4]


def test_single_cell_segment_stays_put():
    poly = corridor(3)
    grid = rasterize(poly)
    state = init_trial(
        SimConfig(strategy="sfc", k=3, intruder_cell=grid.require(Cell(2, 0))), grid
    )
    start = positions(state)
    for _ in range(4):
        state.captured = False  # the intruder starts on a robot's cell
        step(state)
        assert positions(state) == start
    assert all(len(tour[: len(tour) // 2 + 1]) == 1 for tour in state.tours)


def ref_patrol_trace(cfg: SimConfig, grid) -> tuple[list[list[int]], tuple[bool, int, bool]]:
    """Index rows ``[intruder, *robots]`` of an sfc/sfc_g trial and its
    (captured, steps, via_swap), from the reference patrol stepper.

    Oracle only: each searcher keeps a segment position and a direction and
    turns at the segment's ends; capture is tested over every robot for
    co-location and for a swap. Intruder draws follow `intruder_move`; a
    static intruder never moves.
    """
    layout = sfc_layout(grid, cfg.rect_seed)
    guards = list(layout.guards) if cfg.strategy == "sfc_g" else []
    segs = []
    for curve, count in zip(layout.curves, allocate_robots(layout.rectangulation, cfg.k - len(guards))):
        segs += [curve[a:b] for a, b in segment_bounds(len(curve), count)]
    seg_pos, direction = [0] * len(segs), [1] * len(segs)
    idx = [seg[0] for seg in segs] + guards
    rng = random.Random(cfg.seed)
    intruder = rng.randrange(len(grid))
    t, captured, via_swap = 0, intruder in idx, False

    rows = [[intruder, *idx]]
    while not captured and t < cfg.max_steps:
        prev = list(idx)
        for i, seg in enumerate(segs):
            if len(seg) > 1:
                nxt = seg_pos[i] + direction[i]
                if nxt < 0 or nxt >= len(seg):
                    direction[i] = -direction[i]
                    nxt = seg_pos[i] + direction[i]
                seg_pos[i] = nxt
                idx[i] = seg[nxt]
        intruder_prev = intruder
        adj = grid.adjacency[intruder]
        if cfg.intruder == "random":
            pick = rng.randrange(len(adj) + 1)
            if pick > 0:
                intruder = adj[pick - 1]
        elif cfg.intruder == "walk" and adj:
            intruder = adj[rng.randrange(len(adj))]
        co_located = any(r == intruder for r in idx)
        swapped = any(r == intruder_prev and p == intruder for r, p in zip(idx, prev))
        t += 1
        if co_located or swapped:
            captured, via_swap = True, swapped and not co_located
        rows.append([intruder, *idx])
    return rows, (captured, t, via_swap)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    vertices=st.integers(6, 20).map(lambda h: 2 * h),
    poly_seed=st.integers(0, 10**6),
    strategy=st.sampled_from(("sfc", "sfc_g")),
    intruder=st.sampled_from(("static", "random", "walk")),
    extra=st.integers(0, 12),
    seed=st.integers(0, 10**6),
    max_steps=st.integers(0, 400),
)
def test_property_patrol_trace_equals_reference(
    vertices, poly_seed, strategy, intruder, extra, seed, max_steps
):
    poly = inflate_cut(vertices, poly_seed)
    grid = rasterize(poly)
    k = min(sfc_minimum(strategy, grid) + extra, len(grid))
    cfg = SimConfig(strategy=strategy, k=k, intruder=intruder, seed=seed, max_steps=max_steps)
    rows = []
    res = run_trial(cfg, grid, rows)
    check_trace(rows, res, grid, cfg)
    ref_rows, ref_result = ref_patrol_trace(cfg, grid)
    assert rows == ref_rows
    assert (res.captured, res.steps, res.via_swap) == ref_result
    # The untraced path, which sweeps take, must end the same way.
    assert run_trial(cfg, grid) == res


def test_patrol_catches_static_intruder_within_one_sweep(comb_grid):
    poly, grid = comb_grid
    for seed in range(30):
        k = 4 + seed % 5
        cfg = SimConfig(strategy="sfc", k=k, seed=seed)
        state = init_trial(cfg, grid)
        bound = max(len(tour) // 2 + 1 for tour in state.tours) - 1
        res = run_trial(cfg, grid)
        assert res.captured and res.steps <= max(bound, 0)


def test_rs_two_cell_grid_forces_the_only_other_target():
    grid = rasterize(corridor(2))
    cfg = SimConfig(
        strategy="rs",
        k=1,
        robot_cells=(grid.require(Cell(0, 0)),),
        intruder_cell=grid.require(Cell(1, 0)),
    )
    res = run_trial(cfg, grid)
    assert res.captured and res.steps == 1


def test_rs_bumps_every_robot_every_step(comb_grid):
    poly, grid = comb_grid
    state = init_trial(SimConfig(strategy="rs", k=3, seed=2), grid)
    for _ in range(7):
        if state.captured:
            break
        step(state)
    assert sum(state.cost.counts) == 3 * state.t


def test_crs_arrivals_wait_for_the_team(comb_grid):
    poly, grid = comb_grid
    state = init_trial(
        SimConfig(strategy="crs", k=3, seed=2, intruder_cell=len(grid) - 1),
        grid,
    )
    waited = 0
    for _ in range(80):
        if state.captured:
            break
        # Every plan starts empty, so a partial arrival follows a first round.
        arrived = [not plan for plan in state.plans]
        before = state.pos
        step(state)
        if not all(arrived):
            for i, here in enumerate(state.pos):
                if arrived[i]:
                    assert here == before[i]
                    waited += 1
    assert waited > 0


def test_guards_never_move(comb_grid):
    poly, grid = comb_grid
    k = sfc_minimum("sfc_g", grid)
    cfg = SimConfig(strategy="sfc_g", k=k + 2, seed=1, intruder="walk")
    guards = sfc_layout(grid).guards
    # check_trace holds each robot to its tour; a guard's tour is its doorway cell.
    assert guards and team(cfg, grid)[0][-len(guards):] == tuple((cell,) for cell in guards)
    rows = []
    res = run_trial(cfg, grid, rows)
    assert res.steps > 0
    check_trace(rows, res, grid, cfg)


# ---------------------------------------------------------------- trace invariants


def test_trace_moves_are_legal(comb_grid):
    poly, grid = comb_grid
    for strategy in ("sfc", "rs", "crs", "baseline"):
        cfg = SimConfig(strategy=strategy, k=4, seed=8, intruder="random")
        rows = []
        res = run_trial(cfg, grid, rows)
        check_trace(rows, res, grid, cfg)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    vertices=st.integers(6, 16).map(lambda h: 2 * h),
    poly_seed=st.integers(0, 10**6),
    strategy=st.sampled_from(("rs", "crs", "baseline")),
    intruder=st.sampled_from(("static", "random", "walk")),
    k=st.integers(1, 6),
    seed=st.integers(0, 10**6),
    max_steps=st.one_of(st.none(), st.integers(0, 400)),
)
def test_property_pursuit_trace_is_legal(vertices, poly_seed, strategy, intruder, k, seed, max_steps):
    """Index rows of an rs, crs or baseline trial on an inflate_cut grid pass
    `check_trace`, and an untraced run ends the same way; rs robots never idle.
    """
    poly = inflate_cut(vertices, poly_seed)
    grid = rasterize(poly)
    cfg = SimConfig(strategy=strategy, k=k, intruder=intruder, seed=seed, max_steps=max_steps)
    rows = []
    res = run_trial(cfg, grid, rows)
    check_trace(rows, res, grid, cfg)
    assert run_trial(cfg, grid) == res
    if cfg.strategy == "rs":
        # A robot that arrives replans at once, toward a cell other than its own.
        for prev_row, row in zip(rows, rows[1:]):
            assert all(a != b for a, b in zip(prev_row[1:], row[1:]))


def _traced(cfg: SimConfig, grid) -> tuple[list[list[int]], TrialResult]:
    rows = []
    res = run_trial(cfg, grid, rows)
    check_trace(rows, res, grid, cfg)
    return rows, res


def test_check_trace_rejects_a_diagonal_move():
    grid = rasterize(P((0, 0), (4, 0), (4, 4), (0, 4)))
    cfg = SimConfig(strategy="rs", k=1, robot_cells=(grid.require(Cell(1, 1)),), intruder_cell=len(grid) - 1, seed=3)
    rows, res = _traced(cfg, grid)
    assert res.steps > 1
    rows[1][1] = grid.require(Cell(2, 2))
    with pytest.raises(AssertionError, match=r"row 1: 5 -> 10 is no stay or 4-adjacent step"):
        check_trace(rows, res, grid, cfg)


def test_check_trace_rejects_a_moved_guard(comb_grid):
    poly, grid = comb_grid
    cfg = SimConfig(strategy="sfc_g", k=sfc_minimum("sfc_g", grid) + 2, seed=1, intruder="walk")
    rows, res = _traced(cfg, grid)
    assert res.steps > 1
    rows[1][-1] = grid.adjacency[rows[1][-1]][0]
    with pytest.raises(AssertionError, match="row 1: robots on"):
        check_trace(rows, res, grid, cfg)


def test_check_trace_rejects_a_late_capture(comb_grid):
    poly, grid = comb_grid
    cfg = SimConfig(strategy="baseline", k=2, seed=4)
    rows, res = _traced(cfg, grid)
    assert res.captured and res.steps > 0
    late = dataclasses.replace(res, steps=res.steps + 1)
    with pytest.raises(AssertionError, match=f"row {res.steps}: a capture before the last row"):
        check_trace(rows + [rows[-1]], late, grid, cfg)


def test_check_trace_rejects_a_flipped_via_swap(comb_grid):
    poly, grid = comb_grid
    cfg = SimConfig(strategy="baseline", k=2, seed=4)
    rows, res = _traced(cfg, grid)
    flipped = dataclasses.replace(res, via_swap=not res.via_swap)
    with pytest.raises(AssertionError, match=f"row {res.steps}: via_swap is {flipped.via_swap}"):
        check_trace(rows, flipped, grid, cfg)


def test_step_after_capture_is_a_noop():
    grid = rasterize(corridor(3))
    cfg = SimConfig(
        strategy="baseline",
        k=1,
        robot_cells=(grid.require(Cell(0, 0)),),
        intruder_cell=grid.require(Cell(1, 0)),
    )
    state = init_trial(cfg, grid)
    step(state)
    assert state.captured and state.t == 1
    step(state)
    assert state.t == 1 and state.captured
