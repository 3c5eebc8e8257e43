"""Acceptance gate: one test per shipped guarantee.

Each test prints a single "criterion NN PASS/FAIL" line (visible with
pytest -s) and asserts the same condition, so the suite is the gate and
the printout is the human-readable ledger. Exact criteria use independent
oracles implemented here; statistical criteria use fixed seeds, so every
run evaluates the identical set of trials.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
import os
import random
import time
import warnings

import pytest
from scipy import stats

from polysearch.decomposition import rectangulate
from polysearch.geometry import Cell, rasterize
from polysearch.harness import (
    InstanceSpec,
    SweepSpec,
    preset_areas,
    preset_shapes,
    preset_spikes4,
    rows_to_csv,
    run_sweep,
)
from polysearch.planning import CostMap, hungarian, plan_indices
from polysearch.polygen import inflate_cut
from polysearch.sfc import gilbert_curve, repair_curve
from polysearch.sim import SimConfig, init_trial, run_trial, sfc_layout

from conftest import P, rect_cells
from three_partition import ThreePartitionInstance, verify_partition_schedule


def _verdict(num: int, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------- shared sweeps


@pytest.fixture(scope="module")
def spikes4_sweep():
    t0 = time.perf_counter()
    rows = run_sweep(preset_spikes4())
    return rows, time.perf_counter() - t0


#: Pool size for the sweeps that no criterion times. Rows do not depend on
#: it (criterion 11 and the CSV pins check that); spikes4_sweep stays serial
#: because criterion 11 reports its one-core wall time.
WORKERS = os.cpu_count() or 1


@pytest.fixture(scope="module")
def shapes_rows():
    return run_sweep(preset_shapes(), workers=WORKERS)


@pytest.fixture(scope="module")
def areas_rows():
    return run_sweep(preset_areas(), workers=WORKERS)


#: sha256 of rows_to_csv over each full preset sweep above.
PRESET_CSV_DIGESTS = {
    "spikes4_sweep": "6440955235edaf100980345050093be5a0c0a0d3e1c8a657dfa91abb4f2804c8",
    "shapes_rows": "65f0a334318e39e9850b509f044071d08fb31c4a298b278fbd90b07929ba205b",
    "areas_rows": "82710aa34010681154630791ea8c289290a30261f248bff0b62b4f53a42df81f",
}


@pytest.mark.parametrize("fixture", sorted(PRESET_CSV_DIGESTS))
def test_preset_csv_is_pinned(request, fixture):
    rows = request.getfixturevalue(fixture)
    if fixture == "spikes4_sweep":
        rows, _ = rows
    digest = hashlib.sha256(rows_to_csv(rows).encode()).hexdigest()
    assert digest == PRESET_CSV_DIGESTS[fixture]


def _usable(rows):
    return [r for r in rows if r.feasible and r.captures > 0 and not math.isnan(r.mean_steps)]


# ---------------------------------------------------------------- 1: curves


def test_criterion_01_curve_correctness():
    ok = True
    for w in range(1, 13):
        for h in range(1, 13):
            cells = gilbert_curve(w, h)
            ok &= sorted(cells) == sorted(Cell(c, r) for c in range(w) for r in range(h))
            ok &= all(
                max(abs(a.col - b.col), abs(a.row - b.row)) == 1
                for a, b in zip(cells, cells[1:])
            )
            grid = rasterize(P((0, 0), (w, 0), (w, h), (0, h)))
            fixed = repair_curve(cells)
            ok &= all(
                abs(a.col - b.col) + abs(a.row - b.row) == 1
                for a, b in zip(fixed, fixed[1:])
            )
            ok &= set(fixed) == set(grid.cells)
    _verdict(1, ok, "all rectangles up to 12x12")


# ---------------------------------------------------------------- 2: decomposition


def _brute_doorways(rects) -> set[tuple[Cell, Cell]]:
    """Every 4-adjacent cell pair that crosses between two rectangles."""
    owner: dict[Cell, int] = {}
    for i, rect in enumerate(rects):
        for cell in rect_cells(rect):
            owner[cell] = i
    pairs = set()
    for cell, i in owner.items():
        for d in ((1, 0), (0, 1)):
            other = Cell(cell.col + d[0], cell.row + d[1])
            j = owner.get(other)
            if j is not None and j != i:
                pairs.add((cell, other) if i < j else (other, cell))
    return pairs


def test_criterion_02_decomposition_partition():
    ok = True
    detail = ""
    for i in range(500):
        target = 4 + 2 * (i % 14)
        poly = inflate_cut(target, seed=i)
        grid = rasterize(poly)
        if len(grid.cells) > 400:
            ok, detail = False, f"instance {i} has {len(grid.cells)} cells"
            break
        r = rectangulate(grid, seed=i)
        covered: list[Cell] = []
        for rect in r.rects:
            covered.extend(rect_cells(rect))
        if sorted(covered) != sorted(grid.cells) or len(covered) != len(grid.cells):
            ok, detail = False, f"instance {i} is not a disjoint cover"
            break
        listed = {pair for j in r.juncs for pair in j.pairs}
        listed_rects = {(j.a, j.b) for j in r.juncs}
        expected = _brute_doorways(r.rects)
        expected_rects = set()
        owner = {cell: idx for idx, rect in enumerate(r.rects) for cell in rect_cells(rect)}
        for u, v in expected:
            a, b = owner[u], owner[v]
            expected_rects.add((min(a, b), max(a, b)))
        if listed != expected or listed_rects != expected_rects:
            ok, detail = False, f"instance {i} junction list incomplete"
            break
    _verdict(2, ok, detail or "500 seeded instances")


# ---------------------------------------------------------------- 3: planners


def _oracle_cheapest(grid, entry, start: int, goal: int) -> float:
    """Textbook dict-based Dijkstra over enter-costs; no shared machinery."""
    dist = {start: 0.0}
    heap = [(0.0, start)]
    seen = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in seen:
            continue
        if u == goal:
            return d
        seen.add(u)
        for v in grid.adjacency[u]:
            nd = d + entry[v]
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return math.inf


def test_criterion_03_planner_optimality():
    ok = True
    detail = ""
    rng = random.Random(31)
    for i in range(1000):
        poly = inflate_cut(4 + 2 * (i % 10), seed=1000 + i)
        grid = rasterize(poly)
        cm = CostMap(grid)
        for _ in range(rng.randrange(0, 3 * len(grid.cells))):
            cm.bump_index(rng.randrange(len(grid.cells)))
        s = rng.randrange(len(grid.cells))
        t = rng.randrange(len(grid.cells))
        path = plan_indices(grid, cm, s, t)
        got = sum(cm.entry[i] for i in path[1:])
        want = _oracle_cheapest(grid, cm.entry, s, t)
        cells = [grid.cells[i] for i in path]
        legal = path[0] == s and path[-1] == t and all(
            abs(a.col - b.col) + abs(a.row - b.row) == 1 for a, b in zip(cells, cells[1:])
        )
        if abs(got - want) > 1e-9 or not legal:
            ok, detail = False, f"astar case {i}: {got} vs {want}"
            break
    if ok:
        for i in range(1000):
            k = 1 + i % 6
            # 6 times the rationals randrange(0, 40) / (1 + i % 3), so the draws stay.
            matrix = [[rng.randrange(0, 40) * (6 // (1 + i % 3)) for _ in range(k)] for _ in range(k)]
            got = hungarian(matrix)
            best = min(
                sum(matrix[r][p[r]] for r in range(k))
                for p in itertools.permutations(range(k))
            )
            valid = sorted(got) == list(range(k))
            cost = sum(matrix[r][got[r]] for r in range(k))
            if not valid or cost != best:
                ok, detail = False, f"assignment case {i}: {cost} vs {best}"
                break
    _verdict(3, ok, detail or "1000 path + 1000 assignment cases")


# ---------------------------------------------------------------- 4: patrol capture


def test_criterion_04_patrol_capture_guarantee():
    ok = True
    detail = ""
    for trial in range(200):
        poly = inflate_cut(4 + 2 * (trial % 8), seed=2000 + trial)
        grid = rasterize(poly)
        layout = sfc_layout(grid)
        k = len(layout.curves)
        cfg = SimConfig(strategy="sfc", k=k, intruder="static", seed=trial)
        state = init_trial(cfg, grid)
        period = max(2 * (len(t) // 2) for t in state.tours)
        res = run_trial(cfg, grid)
        if not res.captured or res.steps > period:
            ok, detail = False, f"trial {trial}: steps {res.steps} vs period {period}"
            break
    _verdict(4, ok, detail or "200 trials, one robot per rectangle")


# ---------------------------------------------------------------- 5: comb schedules


def _triple_partitions(indices: tuple[int, ...]):
    if not indices:
        yield ()
        return
    first, rest = indices[0], indices[1:]
    for j in range(len(rest)):
        for l in range(j + 1, len(rest)):
            triple = (first, rest[j], rest[l])
            remaining = tuple(x for m, x in enumerate(rest) if m not in (j, l))
            for tail in _triple_partitions(remaining):
                yield (triple,) + tail


def _schedule_iff_holds(inst: ThreePartitionInstance) -> bool:
    target = inst.q * inst.T
    for partition in _triple_partitions(tuple(range(1, 3 * inst.q + 1))):
        valid = all(sum(inst.S[i - 1] for i in t) == inst.T for t in partition)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            makespan = verify_partition_schedule(inst, partition)
        if valid != (makespan == target):
            return False
    return True


def test_criterion_05_comb_schedule_iff():
    ok = _schedule_iff_holds(ThreePartitionInstance(S=(1, 2, 3, 1, 2, 3), q=2, T=6))
    rng = random.Random(5)
    count = 0
    while ok and count < 20:
        q = 1 + count % 3
        t_sum = rng.randrange(9, 21)
        values: list[int] = []
        for _ in range(q):
            a = rng.randrange(1, t_sum - 1)
            b = rng.randrange(1, t_sum - a)
            values += [a, b, t_sum - a - b]
        rng.shuffle(values)
        ok = _schedule_iff_holds(ThreePartitionInstance(S=tuple(values), q=q, T=t_sum))
        count += 1
    _verdict(5, ok, "fixed + 20 random instances, exhaustive partitions")


# ---------------------------------------------------------------- 6: k-trend


def test_criterion_06_capture_steps_fall_with_team_size(spikes4_sweep):
    rows, _ = spikes4_sweep
    usable = _usable(rows)
    ok = True
    worst = -1.0
    for strategy in ("rs", "crs", "baseline", "sfc"):
        for intruder in ("static", "random"):
            pts = sorted(
                (r.k, r.mean_steps)
                for r in usable
                if r.strategy == strategy and r.intruder == intruder
            )
            rho = stats.spearmanr([p[0] for p in pts], [p[1] for p in pts]).statistic
            worst = max(worst, rho)
            ok &= len(pts) >= 10 and rho <= -0.9
    _verdict(6, ok, f"worst Spearman {worst:+.3f}")


# ---------------------------------------------------------------- 7: baseline floor


def test_criterion_07_omniscient_pursuit_is_the_floor(spikes4_sweep):
    rows, _ = spikes4_sweep
    usable = _usable(rows)
    floor = {
        (r.intruder, r.k): r.mean_steps for r in usable if r.strategy == "baseline"
    }
    total = wins = 0
    for r in usable:
        if r.strategy == "baseline":
            continue
        b = floor.get((r.intruder, r.k))
        if b is None:
            continue
        total += 1
        wins += b < r.mean_steps
    ok = total > 100 and wins / total >= 0.9
    _verdict(7, ok, f"strictly below heuristics at {wins}/{total} cells")


# ---------------------------------------------------------------- 8: rs/crs order


def test_criterion_08_random_search_order_flips_with_intruder():
    inst = preset_spikes4().instances[0]
    static = run_sweep(
        SweepSpec((inst,), ("rs", "crs"), (13,), ("static",), trials=800, base_seed=0),
        workers=WORKERS,
    )
    rs_s = next(r for r in static if r.strategy == "rs")
    crs_s = next(r for r in static if r.strategy == "crs")
    separated = rs_s.mean_steps + rs_s.ci95 < crs_s.mean_steps - crs_s.ci95

    moving = run_sweep(
        SweepSpec((inst,), ("rs", "crs"), (44,), ("random",), trials=300, base_seed=0),
        workers=WORKERS,
    )
    rs_m = next(r for r in moving if r.strategy == "rs")
    crs_m = next(r for r in moving if r.strategy == "crs")
    flipped = crs_m.mean_steps <= rs_m.mean_steps

    ok = separated and flipped
    _verdict(
        8,
        ok,
        f"static k=13: rs {rs_s.mean_steps:.1f}+-{rs_s.ci95:.1f} vs crs "
        f"{crs_s.mean_steps:.1f}+-{crs_s.ci95:.1f}; moving k=44: crs "
        f"{crs_m.mean_steps:.1f} vs rs {rs_m.mean_steps:.1f}",
    )


# ---------------------------------------------------------------- 9: shape invariance


def test_criterion_09_equal_area_shapes_are_statistically_alike(shapes_rows):
    usable = _usable(shapes_rows)
    overlaps = total = 0
    for strategy in ("rs", "crs"):
        for intruder in ("static", "random"):
            cells = {
                r.instance: r
                for r in usable
                if r.strategy == strategy and r.intruder == intruder
            }
            for a, b in itertools.combinations(sorted(cells), 2):
                ra, rb = cells[a], cells[b]
                total += 1
                overlaps += (
                    ra.mean_steps - ra.ci95 <= rb.mean_steps + rb.ci95
                    and rb.mean_steps - rb.ci95 <= ra.mean_steps + ra.ci95
                )
    ok = total == 12 and overlaps >= 10
    _verdict(9, ok, f"{overlaps}/{total} confidence intervals overlap")


# ---------------------------------------------------------------- 10: area growth


def test_criterion_10_steps_grow_with_area(areas_rows):
    usable = _usable(areas_rows)
    order = ("area176", "area396", "area704")
    checked = []
    ok = True
    for strategy in ("sfc", "sfc_g", "rs", "crs", "baseline"):
        for intruder in ("static", "random"):
            cells = {
                r.instance: r
                for r in usable
                if r.strategy == strategy and r.intruder == intruder
            }
            if set(order) - set(cells):
                continue  # cannot field this team size on every area
            means = [cells[name].mean_steps for name in order]
            ok &= means[0] < means[1] < means[2]
            checked.append(strategy)
    ok &= set(checked) == {
        "sfc", "sfc", "rs", "rs", "crs", "crs", "baseline", "baseline",
    } and len(checked) == 8
    _verdict(10, ok, f"{len(checked)} strategy/intruder series strictly increasing")


# ---------------------------------------------------------------- 11: determinism


def test_criterion_11_determinism_and_throughput(spikes4_sweep):
    _, wall = spikes4_sweep
    inst = preset_spikes4().instances[0]
    reduced = SweepSpec(
        instances=(inst,),
        strategies=("sfc", "sfc_g", "rs", "crs", "baseline"),
        ks=(2, 8, 29),
        intruders=("static", "random"),
        trials=5,
        base_seed=7,
    )
    serial = rows_to_csv(run_sweep(reduced, workers=1))
    parallel = rows_to_csv(run_sweep(reduced, workers=2))
    ok = serial == parallel and wall < 600.0
    _verdict(11, ok, f"CSV bytes equal; full sweep took {wall:.0f}s on one core")
