"""Sweep harness and chart tests.

The load-bearing property is reproducibility: a sweep must produce the
same CSV bytes no matter how many worker processes share it, because the
per-trial seeds depend only on the sweep layout.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import importlib
import itertools
import json
import math
import multiprocessing
import os
import re
import runpy
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from polysearch import geometry, harness, sim
from polysearch.errors import EmptyInput, InvalidConfig, IoError, PolySearchError, TooFewRobots
from polysearch.harness import (
    CSV_COLUMNS,
    InstanceSpec,
    SummaryRow,
    SweepCell,
    SweepSpec,
    expand_cells,
    read_csv,
    rows_to_csv,
    run_sweep,
    summarize,
    trial_seed,
    write_csv,
    PRESETS,
    preset_areas,
    preset_shapes,
    preset_spikes4,
)
from polysearch.plots import HEIGHT, WIDTH, _ticks, bar_chart, line_plot
from polysearch.polygen import comb_polygon
from polysearch.sim import INTRUDER_MODELS, MAX_ROBOTS, STRATEGIES, SimConfig, TrialResult

from conftest import P


def _result(steps: int, captured: bool = True) -> TrialResult:
    return TrialResult(captured=captured, steps=steps)


def _cell() -> SweepCell:
    return SweepCell(0, InstanceSpec("tiny", P((0, 0), (2, 0), (2, 2), (0, 2))), "rs", "static", 2)


def tiny_spec(trials: int = 4) -> SweepSpec:
    poly = comb_polygon((2, 3), spike_width=1, base_height=2, spike_gap=1)
    return SweepSpec(
        instances=(InstanceSpec("tiny", poly),),
        strategies=("rs", "baseline", "sfc"),
        ks=(1, 4),
        intruders=("static", "walk"),
        trials=trials,
        base_seed=9,
    )


# ---------------------------------------------------------------- summarize


def test_summarize_equal_steps():
    row = summarize(_cell(), [_result(10), _result(10), _result(10)])
    assert (row.instance, row.strategy, row.intruder, row.k) == ("tiny", "rs", "static", 2)
    assert row.trials == 3 and row.captures == 3
    assert row.capture_rate == 1.0
    assert row.mean_steps == 10.0 and row.sd_steps == 0.0 and row.ci95 == 0.0


def test_summarize_two_point_spread():
    row = summarize(_cell(), [_result(8), _result(12)])
    assert row.mean_steps == 10.0
    assert row.sd_steps == pytest.approx(2.8284271, abs=1e-6)
    assert row.ci95 == pytest.approx(1.96 * 2.8284271 / math.sqrt(2), abs=1e-5)


def test_summarize_counts_failures_in_rate_only():
    row = summarize(_cell(), [_result(5), _result(7), _result(999, captured=False)])
    assert row.trials == 3 and row.captures == 2
    assert row.capture_rate == pytest.approx(2 / 3)
    assert row.mean_steps == 6.0


def test_summarize_no_captures_gives_nan_steps():
    row = summarize(_cell(), [_result(50, captured=False)])
    assert row.capture_rate == 0.0
    assert math.isnan(row.mean_steps) and math.isnan(row.sd_steps)


def test_summarize_empty_rejected():
    with pytest.raises(EmptyInput):
        summarize(_cell(), [])


# ---------------------------------------------------------------- seeds and cells


def test_trial_seeds_are_distinct_and_stable():
    seeds = {trial_seed(0, c, t) for c in range(40) for t in range(40)}
    assert len(seeds) == 1600
    assert all(0 <= s < 2**64 for s in seeds)
    assert trial_seed(0, 0, 0) == trial_seed(0, 0, 0)
    assert trial_seed(1, 0, 0) != trial_seed(0, 0, 0)


def test_cell_order_is_instance_strategy_intruder_k():
    spec = tiny_spec()
    cells = expand_cells(spec)
    assert [c.index for c in cells] == list(range(12))
    assert [(c.strategy, c.intruder, c.k) for c in cells[:4]] == [
        ("rs", "static", 1),
        ("rs", "static", 4),
        ("rs", "walk", 1),
        ("rs", "walk", 4),
    ]


def test_expand_rejects_unknown_names():
    spec = tiny_spec()
    bad = SweepSpec(spec.instances, ("warp",), (1,))
    with pytest.raises(ValueError):
        expand_cells(bad)
    with pytest.raises(EmptyInput):
        expand_cells(SweepSpec((), ("rs",), (1,)))


@pytest.mark.parametrize("name", ["instances", "strategies", "intruders", "ks"])
def test_expand_rejects_an_empty_list(name):
    with pytest.raises(EmptyInput):
        expand_cells(dataclasses.replace(tiny_spec(), **{name: ()}))


@pytest.mark.parametrize("name", ["strategies", "intruders", "ks"])
def test_expand_rejects_a_repeated_value(name):
    # Each repeat would get its own cell and seeds, so two CSV rows would
    # share one label with different numbers.
    spec = tiny_spec()
    values = getattr(spec, name)
    with pytest.raises(InvalidConfig, match=f"{name} repeats a value"):
        expand_cells(dataclasses.replace(spec, **{name: values + values[:1]}))


def test_expand_rejects_a_repeated_instance_id():
    # rect_seed is not a CSV column, so two layouts of one id would share a label.
    inst = tiny_spec().instances[0]
    spec = dataclasses.replace(tiny_spec(), instances=(inst, dataclasses.replace(inst, rect_seed=1)))
    with pytest.raises(InvalidConfig, match=f"instance id {inst.id!r} repeats"):
        expand_cells(spec)


@pytest.mark.parametrize(
    "field, value",
    [
        pytest.param("k", 2.5, id="k-float"),
        pytest.param("k", True, id="k-bool"),
        pytest.param("k", MAX_ROBOTS + 1, id="k-too-large"),
        pytest.param("max_steps", 2.5, id="max-steps-float"),
        pytest.param("max_steps", "5", id="max-steps-string"),
        pytest.param("max_steps", -1, id="max-steps-negative"),
        pytest.param("rect_seed", [1], id="rect-seed-list"),
        pytest.param("strategy", "warp", id="strategy-unknown"),
        pytest.param("intruder", "ghost", id="intruder-unknown"),
    ],
)
def test_expand_and_init_trial_reject_a_field_alike(field, value):
    # A sweep cell's trial fields pass the same check as a single trial's config.
    inst = tiny_spec().instances[0]
    trial = {"strategy": "sfc", "k": 4, "intruder": "static", "max_steps": None, "rect_seed": 0, field: value}
    spec = SweepSpec(
        (dataclasses.replace(inst, rect_seed=trial["rect_seed"]),),
        (trial["strategy"],),
        (trial["k"],),
        (trial["intruder"],),
        max_steps=trial["max_steps"],
    )
    with pytest.raises(PolySearchError) as from_spec:
        expand_cells(spec)
    with pytest.raises(PolySearchError) as from_trial:
        SimConfig(**trial)
    assert type(from_spec.value) is type(from_trial.value)
    assert str(from_spec.value) == str(from_trial.value)


# ---------------------------------------------------------------- sweeps


def test_tiny_sweep_runs_and_flags_feasibility():
    spec = tiny_spec()
    rows = run_sweep(spec)
    assert len(rows) == 12
    by = {(r.strategy, r.intruder, r.k): r for r in rows}
    # one patrol robot cannot cover a multi-rectangle comb
    assert not by[("sfc", "static", 1)].feasible
    assert by[("sfc", "static", 1)].trials == 0
    assert by[("sfc", "static", 4)].feasible
    for (strategy, intruder, k), row in by.items():
        if row.feasible:
            assert row.trials == spec.trials
            assert row.captures > 0


def test_too_large_patrol_team_is_infeasible():
    # Ten searchers cannot split a 6-cell curve, one sfc searcher cannot
    # cover the L's two rectangles, and no strategy fields zero robots;
    # the sweep goes on past every such cell.
    ell = P((0, 0), (4, 0), (4, 1), (1, 1), (1, 3), (0, 3))
    spec = SweepSpec(
        instances=(
            InstanceSpec("corridor6", P((0, 0), (6, 0), (6, 1), (0, 1))),
            InstanceSpec("ell", ell),
        ),
        strategies=("sfc", "rs"),
        ks=(0, 1, 10),
        trials=3,
    )
    rows = run_sweep(spec)
    assert all(r.trials == (3 if r.feasible else 0) for r in rows)
    assert [(r.instance, r.strategy, r.k) for r in rows if not r.feasible] == [
        ("corridor6", "sfc", 0),
        ("corridor6", "sfc", 10),
        ("corridor6", "rs", 0),
        ("ell", "sfc", 0),
        ("ell", "sfc", 1),
        ("ell", "sfc", 10),
        ("ell", "rs", 0),
    ]


def test_rs_cell_builds_one_cost_map_per_trial(monkeypatch):
    # Asking whether a cell's team can be fielded builds no trial of its own.
    built = []
    cost_map = sim.CostMap
    monkeypatch.setattr(sim, "CostMap", lambda grid: built.append(grid) or cost_map(grid))
    row = harness.run_cell(_cell(), 3, 0, None)
    assert row.feasible and row.trials == 3
    assert len(built) == 3


@pytest.mark.parametrize("strategy", ["rs", "crs", "baseline"])
def test_planning_team_has_no_tours(strategy):
    grid = harness.rasterize(_cell().instance.polygon)
    assert sim.team(SimConfig(strategy, 2), grid) == ((), ())


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_team_of_no_robots_is_too_few(strategy):
    grid = harness.rasterize(_cell().instance.polygon)
    with pytest.raises(TooFewRobots, match="at least one robot is required"):
        sim.team(SimConfig(strategy, 0), grid)


def test_worker_counts_agree_byte_for_byte():
    spec = tiny_spec(trials=3)
    serial = rows_to_csv(run_sweep(spec, workers=1))
    parallel = rows_to_csv(run_sweep(spec, workers=2))
    assert serial == parallel


@pytest.fixture
def pools(monkeypatch) -> list[int]:
    """Pool sizes run_sweep starts; each worker drains inline, starting no process."""
    sizes: list[int] = []

    class Drained:  # a worker that has sent its rows and exited
        exitcode = 0

        def join(self):
            pass

    def inline_pool(size, *shared):
        if size:
            sizes.append(size)
        for _ in range(size):
            rows_in, rows_out = multiprocessing.Pipe(duplex=False)
            harness._pool_drain(*shared, rows_out)
            yield rows_in, Drained()

    monkeypatch.setattr(harness, "_start_pool", inline_pool)
    return sizes


def test_pool_is_capped_at_cell_count(monkeypatch, pools):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
    spec = tiny_spec(trials=1)
    pooled = run_sweep(spec, workers=64)
    assert pools == [11]  # 12 processes: the caller and 11 pool workers
    assert rows_to_csv(pooled) == rows_to_csv(run_sweep(spec))
    run_sweep(SweepSpec(spec.instances, ("rs",), (1,), trials=1), workers=4)
    assert pools == [11]  # one cell runs inline, no pool


@pytest.mark.parametrize("cpus, expect", [(3, [2]), (1, []), (None, [])])
def test_pool_is_capped_at_cpu_count(monkeypatch, pools, cpus, expect):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    spec = tiny_spec(trials=1)
    assert rows_to_csv(run_sweep(spec, workers=8)) == rows_to_csv(run_sweep(spec))
    assert pools == expect  # one CPU, or an unknown count, runs inline


def test_progress_callback_sees_every_cell():
    spec = tiny_spec(trials=2)
    seen = []
    run_sweep(spec, progress=lambda done, total: seen.append((done, total)))
    assert seen == [(i + 1, 12) for i in range(12)]


def test_parallel_progress_never_decreases_and_ends_at_total(monkeypatch):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    seen = []
    run_sweep(tiny_spec(trials=2), workers=2, progress=lambda done, total: seen.append((done, total)))
    done = [d for d, _ in seen]
    assert done == sorted(done)
    assert {total for _, total in seen} == {12}
    assert seen[-1] == (12, 12)


def test_oversubscribed_pool_runs_every_cell_once(monkeypatch):
    """Six workers on any host: a lost claim or count would drop, repeat or miscount a cell."""
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 6)
    ks = tuple(range(1, 101))
    spec = SweepSpec(tiny_spec().instances, ("rs", "baseline"), ks, ("static", "walk"), trials=1, max_steps=0)
    serial = rows_to_csv(run_sweep(spec))
    for _ in range(5):  # a race shows in some rounds only
        seen = []
        rows = run_sweep(spec, workers=6, progress=lambda done, total: seen.append(done))
        assert rows_to_csv(rows) == serial
        assert seen[-1] == 400


def _await_worker_report(path: Path) -> None:
    """Block, up to 30 s, until a process other than this one has written a line to `path`."""
    deadline = time.monotonic() + 30
    while not (path.exists() and any(int(line.split()[0]) != os.getpid() for line in path.read_text().splitlines())):
        assert time.monotonic() < deadline, "no pool worker reported within 30 s"
        time.sleep(0.01)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="the patched run_cell reaches workers by fork"
)
@pytest.mark.parametrize("in_caller", [True, False], ids=["caller", "pool-worker"])
def test_worker_error_stops_the_pool(monkeypatch, tmp_path, in_caller):
    """The first cell of the caller, or of the pool worker, raises: the sweep stops with that error.

    Either way the failing process sets the claim counter past the last
    cell, so the other stops after its current cell and cells stay unrun.
    """
    runs = tmp_path / "runs"
    caller = os.getpid()
    real = harness.run_cell

    def failing(cell, *args):
        with open(runs, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {cell.index}\n")
        if (os.getpid() == caller) == in_caller:
            raise InvalidConfig(f"cell {cell.index} fails")
        if not in_caller:
            _await_worker_report(runs)  # the caller's first cell waits for the worker's
        return real(cell, *args)

    monkeypatch.setattr(harness, "run_cell", failing)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    spec = SweepSpec(tiny_spec().instances, ("rs", "baseline"), tuple(range(1, 41)), ("walk",), trials=20)
    with pytest.raises(InvalidConfig, match=r"cell \d+ fails"):
        run_sweep(spec, workers=2)
    ran = [line.split() for line in runs.read_text().splitlines()]
    assert any((int(pid) == caller) == in_caller for pid, _ in ran)
    assert len(ran) < len(expand_cells(spec))
    assert gc.get_freeze_count() == 0 and not multiprocessing.active_children()


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="the patched _cell_worker reaches workers by fork"
)
def test_dead_worker_ends_the_sweep_with_its_exit_code(monkeypatch, tmp_path):
    """A pool worker that exits before it sends its rows ends the sweep with an error, not a hang."""
    runs = tmp_path / "runs"
    real = harness.run_cell

    def dying(job):
        runs.write_text(f"{os.getpid()}\n")
        os._exit(3)

    def waiting(*args):  # the caller's first cell waits until the worker has claimed one
        _await_worker_report(runs)
        return real(*args)

    monkeypatch.setattr(harness, "_cell_worker", dying)
    monkeypatch.setattr(harness, "run_cell", waiting)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match=r"exited with code 3 ") as err:
        run_sweep(tiny_spec(trials=1), workers=2)
    assert time.monotonic() - start < 10
    assert not isinstance(err.value, PolySearchError)  # a crash is not bad input
    assert gc.get_freeze_count() == 0 and not multiprocessing.active_children()


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="the patched _cell_worker reaches workers by fork"
)
def test_caller_runs_its_cells_without_the_worker_seam(monkeypatch, tmp_path):
    """Only pool workers go through `_cell_worker`, the name a tracer swaps for its worker entry."""
    seen = tmp_path / "seen"
    real = harness._cell_worker

    def recording(job):
        with open(seen, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(job)

    monkeypatch.setattr(harness, "_cell_worker", recording)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    spec = tiny_spec(trials=2)
    serial = rows_to_csv(run_sweep(spec))
    assert rows_to_csv(run_sweep(spec, workers=2)) == serial
    pids = seen.read_text().split() if seen.exists() else []
    assert str(os.getpid()) not in pids


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="the patched _cell_worker reaches workers by fork"
)
def test_failed_sweep_reads_a_workers_rows_before_it_joins(monkeypatch, tmp_path):
    """1,000 rows overfill the pipe, so the worker's send waits for a read; an unread pipe would hang the join."""
    runs = tmp_path / "runs"
    real = harness.run_cell

    def counted(job):
        with open(runs, "a", encoding="utf-8") as fh:
            fh.write("1\n")
        return real(*job)

    def failing(*args):  # the caller's first cell fails once the worker has run 1,000
        deadline = time.monotonic() + 30
        while not (runs.exists() and len(runs.read_text().split()) >= 1000):
            assert time.monotonic() < deadline, "the pool worker ran fewer than 1,000 cells within 30 s"
            time.sleep(0.01)
        raise InvalidConfig("caller fails")

    monkeypatch.setattr(harness, "_cell_worker", counted)
    monkeypatch.setattr(harness, "run_cell", failing)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    spec = SweepSpec(tiny_spec().instances, ("rs", "baseline"), tuple(range(1, 301)), ("static", "walk"), trials=1)
    with pytest.raises(InvalidConfig, match="caller fails"):
        run_sweep(spec, workers=2)
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_unfreezes_the_heap(monkeypatch, workers):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    run_sweep(tiny_spec(trials=1), workers=workers)
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("workers, expect", [(1, []), (2, [1])])
def test_sweep_unfreezes_the_heap_after_a_cell_raises(monkeypatch, pools, workers, expect):
    frozen = []

    def failing(*args):
        frozen.append(gc.get_freeze_count())
        raise InvalidConfig("cell fails")

    monkeypatch.setattr(harness, "run_cell", failing)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    with pytest.raises(InvalidConfig, match="cell fails"):
        run_sweep(tiny_spec(trials=1), workers=workers)
    assert pools == expect and frozen[0] > 0
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_keeps_a_callers_frozen_heap(monkeypatch, workers):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    gc.freeze()
    try:
        run_sweep(tiny_spec(trials=1), workers=workers)
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="the patched run_cell reaches workers by fork"
)
def test_workers_fork_from_a_frozen_heap(monkeypatch, tmp_path):
    """A full collection in a worker then skips the parent's objects, so it copies none of their pages.

    The caller runs cells too, on the same frozen heap; its first cell waits
    for the pool worker's first report, so both processes run cells.
    """
    seen = tmp_path / "seen"
    caller = os.getpid()
    real = harness.run_cell

    def reporting(*args):
        with open(seen, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {gc.get_freeze_count()}\n")
        if os.getpid() == caller:
            _await_worker_report(seen)
        return real(*args)

    monkeypatch.setattr(harness, "run_cell", reporting)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    spec = tiny_spec(trials=1)
    run_sweep(spec, workers=2)
    reports = [line.split() for line in seen.read_text().splitlines()]
    assert len(reports) == len(expand_cells(spec))
    assert len({pid for pid, _ in reports}) == 2 and str(caller) in {pid for pid, _ in reports}
    assert all(int(count) > 0 for _, count in reports)


@pytest.mark.parametrize("workers", [0, -1, True, 2.5, "2", None])
def test_run_sweep_rejects_a_bad_worker_count(monkeypatch, workers):
    ran = []
    monkeypatch.setattr(harness, "run_cell", lambda *job: ran.append(job))
    with pytest.raises(InvalidConfig, match="worker count must be a positive integer"):
        run_sweep(tiny_spec(trials=1), workers=workers)
    assert ran == []


#: Runs a tiny sweep serially and with two workers started by the method named
#: in argv[1]; prints whether the CSVs agree.
SPAWN_SCRIPT = """
import multiprocessing
import sys
from polysearch import harness
from polysearch.polygen import comb_polygon

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    harness.os.cpu_count = lambda: 2
    poly = comb_polygon((2, 3), spike_width=1, base_height=2, spike_gap=1)
    spec = harness.SweepSpec(
        (harness.InstanceSpec("tiny", poly),), ("rs", "baseline", "sfc"), (1, 4), ("static", "walk"), 2, 9
    )
    serial = harness.rows_to_csv(harness.run_sweep(spec))
    print(serial == harness.rows_to_csv(harness.run_sweep(spec, workers=2)))
"""


def _workers_match_serial_csv(tmp_path, method: str) -> None:
    script = tmp_path / "spawn_sweep.py"
    script.write_text(SPAWN_SCRIPT, encoding="utf-8")
    src = str(Path(harness.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, str(script), method], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "True"


def test_spawned_workers_match_serial_csv(tmp_path):
    """Spawned workers get the jobs and counters through the pool's initializer."""
    _workers_match_serial_csv(tmp_path, "spawn")


def test_forkserver_workers_match_serial_csv(tmp_path):
    """forkserver, the default start method on Linux from Python 3.14, starts workers the same way."""
    _workers_match_serial_csv(tmp_path, "forkserver")


def test_presets_expand():
    for name, make in PRESETS.items():
        spec = make()
        cells = expand_cells(spec)
        assert len(cells) > 0
        assert all(c.instance.id for c in cells)


@pytest.mark.parametrize(
    "name, digest",
    [
        ("spikes4", "69707e42fb3b5f8c11dcc37197cfb9492a11401abec121df8b0cf83482a65c2d"),
        ("shapes", "6f704f7cab6d3a340a04ea2e429e750920a07e0e769e972e57313b498f60edd0"),
        ("areas", "4873e015500b331ae533561d2d44c526f987e3b027b6cae7d38599fc60fab02d"),
        ("beta", "925df98cb66373a5028e6b310bfe47c77e8f6e22c138692a7c7831f9aa5a2cda"),
    ],
)
def test_preset_spec_is_pinned(name, digest):
    # The whole spec: each instance's id, vertices and rect seed, the strategies,
    # team sizes, intruder models, trial count, base seed and step cap.
    assert hashlib.sha256(repr(PRESETS[name]()).encode()).hexdigest() == digest


def test_baseline_pursuit_cache_is_bounded():
    area704 = next(i for i in preset_areas().instances if i.id == "area704")
    spec = SweepSpec(
        instances=(area704,),
        strategies=("baseline",),
        ks=(4, 10),
        intruders=("walk",),
        trials=4,
        base_seed=3,
    )
    run_sweep(spec)
    grid = harness._instance_grid(area704.id, area704.polygon)
    n = len(grid)
    assert not [key for key in grid.cache if isinstance(key, tuple) and key[0] == "path"]
    rows = [v for key, v in grid.cache.items() if isinstance(key, tuple) and key[0] == "next_hop"]
    assert 0 < len(rows) <= n
    assert all(row.dtype == np.int32 and row.shape == (n,) for row in rows)
    assert len(grid.cache) <= max(2, geometry.MAX_MEMO_CELLS // n)


def test_sfc_caches_are_bounded(monkeypatch):
    harness._instance_grid.cache_clear()
    built = []
    real = sim.allocate_robots
    monkeypatch.setattr(sim, "allocate_robots", lambda r, k_s: built.append(k_s) or real(r, k_s))
    spikes4 = preset_spikes4().instances[0]
    specs = [
        SweepSpec(
            instances=(InstanceSpec(spikes4.id, spikes4.polygon, rect_seed),),
            strategies=("sfc", "sfc_g"),
            ks=(16, 20),
            intruders=("random", "walk"),
            trials=3,
        )
        for rect_seed in (0, 1)
    ]
    # The second sweep asks for the same (id, polygon), so it reuses the first one's grid.
    assert all(row.feasible for spec in specs for row in run_sweep(spec))
    # One team per (rect_seed, strategy, k), not per trial or per intruder model.
    assert len(built) == sum(len(expand_cells(spec)) for spec in specs) // 2 == 8
    grid = harness._instance_grid(spikes4.id, spikes4.polygon)
    assert sorted(key for key in grid.cache if key[0] == "sfc_layout") == [("sfc_layout", 0), ("sfc_layout", 1)]
    teams = sorted(key[1:] for key in grid.cache if key[0] == "sfc_team")
    assert teams == sorted(itertools.product(("sfc", "sfc_g"), (16, 20), (0, 1)))
    assert len(grid.cache) <= max(2, geometry.MAX_MEMO_CELLS // len(grid))


def test_memo_eviction_keeps_the_sweep_csv(monkeypatch):
    spikes4 = preset_spikes4().instances[0]
    spec = SweepSpec(
        instances=(spikes4,),
        strategies=STRATEGIES,
        ks=(8, 20),
        intruders=INTRUDER_MODELS,
        trials=2,
        base_seed=5,
    )
    harness._instance_grid.cache_clear()
    want = rows_to_csv(run_sweep(spec))
    grid = harness._instance_grid(spikes4.id, spikes4.polygon)
    assert len(grid.cache) > 3
    harness._instance_grid.cache_clear()
    monkeypatch.setattr(geometry, "MAX_MEMO_CELLS", 3 * len(grid))
    assert rows_to_csv(run_sweep(spec)) == want
    assert len(harness._instance_grid(spikes4.id, spikes4.polygon).cache) == 3


def test_memo_never_evicts_at_paper_scale():
    harness._instance_grid.cache_clear()
    area704 = next(i for i in preset_areas().instances if i.id == "area704")
    spec = SweepSpec(
        instances=(area704,),
        strategies=("rs", "baseline"),
        ks=(4, 20),
        intruders=INTRUDER_MODELS,
        trials=2,
        base_seed=1,
        max_steps=300,
    )
    run_sweep(spec)
    grid = harness._instance_grid(area704.id, area704.polygon)
    # All that rs and baseline derive: a next-hop row per goal, an A* list
    # per column and row, and the one graph.
    most = len(grid) + len(set(grid.cols)) + len(set(grid.rows)) + 1
    assert len(grid.cache) <= most < max(2, geometry.MAX_MEMO_CELLS // len(grid))


def _count_rasterize(monkeypatch) -> list:
    harness._instance_grid.cache_clear()
    rasterized = []
    real = harness.rasterize
    monkeypatch.setattr(harness, "rasterize", lambda poly: rasterized.append(poly) or real(poly))
    return rasterized


def test_grid_is_kept_for_the_same_instance(monkeypatch):
    rasterized = _count_rasterize(monkeypatch)
    square = P((0, 0), (2, 0), (2, 2), (0, 2))
    assert harness._instance_grid("a", square) is harness._instance_grid("a", square)
    assert len(rasterized) == 1


def test_grid_cache_keeps_one_instance(monkeypatch):
    rasterized = _count_rasterize(monkeypatch)
    square = P((0, 0), (2, 0), (2, 2), (0, 2))
    for inst_id in ("a", "b", "a"):
        harness._instance_grid(inst_id, square)
    assert len(rasterized) == 3


def test_serial_sweep_keeps_one_grid(monkeypatch):
    rasterized = _count_rasterize(monkeypatch)
    insts = [InstanceSpec(f"sq{n}", P((0, 0), (n, 0), (n, n), (0, n))) for n in (3, 4, 5)]
    run_sweep(SweepSpec(instances=tuple(insts), strategies=("sfc", "rs"), ks=(2, 3), trials=2))
    assert rasterized == [inst.polygon for inst in insts]
    assert harness._instance_grid.cache_info().currsize == 1


def test_golden_sweep_csv_hash():
    # Behaviour lock: every strategy and intruder model on the spikes4 comb
    # and the two-sided shape2 comb. Refactors must keep these bytes; a
    # deliberate change updates the pin and says why.
    shape2 = next(i for i in preset_shapes().instances if i.id == "shape2")
    spec = SweepSpec(
        instances=(preset_spikes4().instances[0], shape2),
        strategies=STRATEGIES,
        ks=(8, 20),
        intruders=INTRUDER_MODELS,
        trials=3,
        base_seed=7,
    )
    rows = run_sweep(spec)
    assert len(rows) == 60 and sum(not r.feasible for r in rows) == 6
    digest = hashlib.sha256(rows_to_csv(rows).encode()).hexdigest()
    assert digest == "c4458d31ddb475bef35d3f4131f8cc3f5c2a9a5041dd3d9622123f5f63521649"


# ---------------------------------------------------------------- CSV


def test_csv_round_trip(tmp_path):
    rows = run_sweep(tiny_spec(trials=3))
    path = str(tmp_path / "sweep.csv")
    write_csv(rows, path)
    again = read_csv(path)
    assert rows_to_csv(again) == rows_to_csv(rows)
    assert [r.k for r in again] == [r.k for r in rows]


def test_csv_rejects_foreign_files(tmp_path):
    path = str(tmp_path / "junk.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("a,b,c\n1,2,3\n")
    with pytest.raises(EmptyInput):
        read_csv(path)


@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1e999"])
def test_csv_rejects_non_finite_floats(tmp_path, text):
    # write_csv writes NaN as an empty cell and never a non-finite number.
    path = str(tmp_path / "sweep.csv")
    row = "strip,rs,static,1,4,4,1.0000,3.0000,1.0000,,true"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n" + row + "\n" + row.replace("3.0000", text) + "\n")
    with pytest.raises(IoError, match=f"{path}, line 3: '{text}' is not a finite number"):
        read_csv(path)


@pytest.mark.parametrize("column", ["capture_rate", "mean_steps", "sd_steps", "ci95"])
def test_csv_rejects_negative_floats(tmp_path, column):
    # Charts scale from 0 up, so a negative mean or ci95 would land off the canvas.
    path = str(tmp_path / "sweep.csv")
    fields = dict(zip(CSV_COLUMNS, "strip,rs,static,1,4,4,1.0000,3.0000,1.0000,0.9800,true".split(",")))
    ok = ",".join(fields.values())
    fields[column] = "-5.0000"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n" + ok + "\n" + ",".join(fields.values()) + "\n")
    with pytest.raises(IoError, match=f"{path}, line 3: '-5.0000' is negative"):
        read_csv(path)
    fields[column] = "-0.0000"  # a negative zero is still zero
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n" + ",".join(fields.values()) + "\n")
    assert getattr(read_csv(path)[0], column) == 0.0


# ---------------------------------------------------------------- charts


def _rows_for_plot() -> list[SummaryRow]:
    spec = tiny_spec(trials=4)
    return run_sweep(spec)


def _count(svg: str, tag: str, cls: str | None = None) -> int:
    root = ET.fromstring(svg)
    nodes = [n for n in root.iter() if n.tag.rpartition("}")[2] == tag]
    if cls is None:
        return len(nodes)
    return sum(1 for n in nodes if n.get("class") == cls)


def test_line_plot_structure():
    rows = _rows_for_plot()
    svg = line_plot(rows, title="tiny & small <sweep>")
    plottable = {(r.strategy, r.intruder) for r in rows if r.feasible and r.captures > 0}
    assert _count(svg, "polyline", "line") == len(plottable)
    assert _count(svg, "polygon", "band") == len(plottable)
    assert "tiny &amp; small &lt;sweep&gt;" in svg
    ET.fromstring(svg)  # well-formed


def test_bar_chart_structure():
    rows = _rows_for_plot()
    svg = bar_chart(rows, title="bars")
    plottable = [r for r in rows if r.feasible and r.captures > 0]
    assert _count(svg, "rect", "bar") == len(plottable)
    ET.fromstring(svg)


def test_chart_bytes_are_pinned():
    # Behaviour lock on the rendered SVG of a fixed sweep.
    rows = _rows_for_plot()
    line = hashlib.sha256(line_plot(rows, title="tiny sweep").encode()).hexdigest()
    bars = hashlib.sha256(bar_chart(rows, title="tiny sweep").encode()).hexdigest()
    assert line == "6ab839bb9b9c50ee566ffa967cd4c368052a19a351f87342bda42c12f8af1e91"
    assert bars == "4eb37113e1184d70691e9ad15d860c18d91b453bcb2cf2152844cf88680c0df8"


def test_chart_text_escapes_markup_only():
    text = "a&b<c>\"d'"
    svg = bar_chart([SummaryRow(text, "rs", "static", 5, 4, 4, 1.0, 5.0, 0.0, 0.0, True)], title=text)
    assert svg.count(">a&amp;b&lt;c&gt;\"d'</text>") == 2  # the title and the one category
    assert ET.fromstring(svg).find(".//{*}text").text == text


@pytest.mark.parametrize("chart", [line_plot, bar_chart])
def test_chart_text_with_control_characters_parses(chart):
    # JSON specs allow such ids; XML 1.0 allows no control character but \t, \n and \r.
    row = SummaryRow("x\x01y", "rs", "static", 5, 4, 4, 1.0, 5.0, 0.0, 0.0, True)
    svg = chart([row], title="a\x01b\x1f\ufffe")
    texts = [n.text for n in ET.fromstring(svg).iter() if n.tag.endswith("text")]
    assert texts[0] == "a\ufffdb\ufffd\ufffd"
    assert chart is line_plot or "x\ufffdy" in texts


def test_line_chart_reads_an_empty_ci95_as_zero(tmp_path):
    # One captured trial gives a mean but no ci95, which the CSV holds as an empty cell.
    path = str(tmp_path / "sweep.csv")
    row = "strip,rs,static,{k},4,1,0.2500,3.0000,,,true"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n" + row.format(k=1) + "\n" + row.format(k=2) + "\n")
    rows = read_csv(path)
    assert math.isnan(rows[0].ci95)
    svg = line_plot(rows)
    assert "nan" not in svg
    assert svg == line_plot([dataclasses.replace(r, ci95=0.0) for r in rows])


def test_text_with_no_utf8_form_leaves_no_file(tmp_path):
    path = tmp_path / "out.svg"
    with pytest.raises(IoError, match="can't encode character '\\\\udcff'"):
        geometry.write_text(str(path), "a\udcff")
    assert not path.exists()
    path.write_text("kept")
    with pytest.raises(IoError):
        geometry.write_text(str(path), "a\ud800")
    assert path.read_text() == "kept"


#: Prints the modules that importing the package adds to numpy and scipy's own.
IMPORT_SCRIPT = """
import sys
import numpy, scipy.sparse.csgraph
before = set(sys.modules)
import polysearch, polysearch.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_import_adds_no_xml_or_network_modules():
    # xml.sax.saxutils alone pulls in urllib.request, http.client and ssl, about 2 MB.
    src = str(Path(harness.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_SCRIPT],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    added = set(out.stdout.split())
    assert "polysearch.plots" in added
    # Chart text escapes through one str.translate table, so html is not needed either.
    assert not added & {"xml.sax", "urllib.request", "http.client", "ssl", "html"}
    # The sweep pool is plain processes and pipes; the executor's module is not needed.
    assert "concurrent.futures.process" not in added


def _fresh_stdout(script: str, *args: str) -> str:
    """What `script` prints in a fresh interpreter that imports this checkout's package."""
    src = str(Path(harness.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


ADDED_SCRIPT = """
import sys
before = set(sys.modules)
exec(sys.argv[1])
print(" ".join(sorted(set(sys.modules) - before)))
"""


@pytest.mark.parametrize(
    ("statement", "unloaded"),
    [
        ("import polysearch", {"numpy", "scipy"}),
        (
            "from polysearch import comb_polygon, inflate_cut, rasterize, rectangulate,"
            " gilbert_curve, repair_curve, line_plot, bar_chart",
            {"scipy"},
        ),
    ],
)
def test_import_loads_only_the_names_read(statement, unloaded):
    # Polygons, decompositions, curves and charts never plan, so they leave scipy out.
    added = _fresh_stdout(ADDED_SCRIPT, statement).split()
    assert not {name.split(".")[0] for name in added} & unloaded


#: The public names at the package's top level, under the module that defines each.
PUBLIC = {
    "decomposition": "Junction Rectangle Rectangulation allocate_robots rectangulate",
    "errors": "PolySearchError",
    "geometry": "Cell GridGraph OrthoPolygon polygon_from_cells rasterize read_polygon_file"
    " validate_polygon write_polygon_file",
    "harness": "PRESETS InstanceSpec SummaryRow SweepSpec read_csv run_sweep summarize write_csv",
    "planning": "CostMap costs_to_target hungarian",
    "plots": "bar_chart line_plot",
    "polygen": "comb_polygon inflate_cut",
    "sfc": "gilbert_curve repair_curve",
    "sim": "INTRUDER_MODELS STRATEGIES SimConfig TrialResult init_trial run_trial step",
}

NAMESPACE_SCRIPT = """
import json, sys
import polysearch
table = json.loads(sys.argv[1])
listed = dir(polysearch)
modules = [m for m in table if getattr(polysearch, m) is sys.modules["polysearch." + m]]
same = [n for m, names in table.items() for n in names.split()
        if getattr(polysearch, n) is getattr(sys.modules["polysearch." + m], n)]
try:
    polysearch.no_such_name
    missing = False
except AttributeError:
    missing = True
print(json.dumps({"all": polysearch.__all__, "dir": listed, "modules": modules, "same": same, "missing": missing}))
"""


def test_public_names_resolve_to_their_modules():
    out = json.loads(_fresh_stdout(NAMESPACE_SCRIPT, json.dumps(PUBLIC)))
    names = " ".join(PUBLIC.values()).split()
    assert len(names) == 38 and sorted(out["all"]) == sorted(names)
    assert out["same"] == names
    assert out["modules"] == list(PUBLIC)
    assert {"__all__", "__version__", *names, *PUBLIC} <= set(out["dir"])
    assert out["missing"]


@pytest.mark.parametrize(("k", "mean"), [(5, 5.0), (2**24, 5.0), (5, 0.0), (5, 125.4)])
def test_one_point_line_chart_stays_on_the_canvas(k, mean):
    # One team size (or all captures at step 0) spans no range on its axis,
    # and no tick may pass the top of the data range.
    svg = line_plot([SummaryRow("x", "rs", "static", k, 4, 4, 1.0, mean, 0.0, 0.0, True)])
    xs = [float(v) for v in re.findall(r' (?:x[12]?|cx)="([^"]+)"', svg)]
    ys = [float(v) for v in re.findall(r' (?:y[12]?|cy)="([^"]+)"', svg)]
    assert 0 <= min(xs) and max(xs) <= WIDTH and 0 <= min(ys) and max(ys) <= HEIGHT


@pytest.mark.parametrize(("lo", "hi"), [(2, 59), (0.0, 125.4 * 1.05), (0.0, 26.25), (0.1, 0.7)])
def test_ticks_stay_within_the_range(lo, hi):
    ticks = _ticks(lo, hi)
    assert len(ticks) >= 3 and lo <= ticks[0] and ticks[-1] <= hi


def test_charts_need_plottable_rows():
    rows = [
        SummaryRow("x", "sfc", "static", 1, 0, 0, 0.0, math.nan, math.nan, math.nan, False)
    ]
    with pytest.raises(EmptyInput):
        line_plot(rows)
    with pytest.raises(EmptyInput):
        bar_chart(rows)


# ---------------------------------------------------------------- bench tracer


def test_bench_tracer_names_resolve():
    # bench/spans.py patches package globals by name; a renamed one would fail
    # only the traced bench runs. run_path writes no bytecode under bench/.
    targets = runpy.run_path(str(Path(__file__).parents[1] / "bench" / "spans.py"))["TARGETS"]
    assert targets
    for module, attr, *_ in targets:
        assert hasattr(importlib.import_module(f"polysearch.{module}"), attr), (module, attr)
    assert callable(harness._cell_worker)
