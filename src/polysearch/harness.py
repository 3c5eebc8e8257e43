"""Monte-Carlo sweeps over strategies, team sizes and intruder models.

A sweep is a cross product of instances x strategies x intruder models x
team sizes; each combination runs a fixed number of independent trials.
Per-trial seeds are derived by hashing (base seed, combination index,
trial index), so results are reproducible and independent of how the work
is split across processes. Summaries go to CSV; means and spreads cover
captured trials only, while the capture rate counts everything.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gc
import hashlib
import io
import itertools
import math
import multiprocessing
import multiprocessing.connection
import os
import statistics
from dataclasses import dataclass, fields
from typing import Callable, Sequence, get_type_hints

from .errors import EmptyInput, InvalidConfig, IoError, TooFewRobots, TooManyRobots
from .geometry import GridGraph, OrthoPolygon, check_cells, check_int, rasterize, shown, write_text
from .polygen import comb_polygon
from .sim import STRATEGIES, SimConfig, TrialResult, run_trial, team


@dataclass(frozen=True)
class InstanceSpec:
    id: str
    polygon: OrthoPolygon
    rect_seed: int = 0


@dataclass(frozen=True)
class SweepSpec:
    instances: tuple[InstanceSpec, ...]
    strategies: tuple[str, ...]
    ks: tuple[int, ...]
    intruders: tuple[str, ...] = ("static",)
    trials: int = 100
    base_seed: int = 0
    max_steps: int | None = None


@dataclass(frozen=True)
class SweepCell:
    """One parameter combination of a sweep, in canonical order."""

    index: int
    instance: InstanceSpec
    strategy: str
    intruder: str
    k: int


@dataclass(frozen=True)
class SummaryRow:
    """One sweep cell's summary; the fields, in order, are the CSV columns."""

    instance: str
    strategy: str
    intruder: str
    k: int
    trials: int
    captures: int
    capture_rate: float
    mean_steps: float
    sd_steps: float
    ci95: float
    feasible: bool


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


CSV_COLUMNS = tuple(f.name for f in fields(SummaryRow))
_COLUMN_TYPES = get_type_hints(SummaryRow)
#: How a CSV cell is written and read, by field type; a NaN float is an empty cell.
_FORMAT = {
    str: str,
    int: str,
    float: lambda x: "" if math.isnan(x) else f"{x:.4f}",
    bool: lambda b: "true" if b else "false",
}


def _parse_float(text: str) -> float:
    if text and not math.isfinite(value := float(text)):
        raise ValueError(f"{text!r} is not a finite number")
    if text and value < 0:  # every float column a sweep writes is a rate, mean or spread, >= 0
        raise ValueError(f"{text!r} is negative")
    return value if text else math.nan


_PARSE = {str: str, int: int, float: _parse_float, bool: _parse_bool}


def trial_seed(base_seed: int, cell_index: int, trial_index: int) -> int:
    """Stable 64-bit seed for one trial of one sweep cell."""
    key = f"{base_seed}|{cell_index}|{trial_index}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def expand_cells(spec: SweepSpec) -> list[SweepCell]:
    """Canonical cell order: instance, then strategy, intruder, team size.

    Each cell's trial fields pass the checks of a `SimConfig` built from
    them; the checks here are the sweep's own.
    """
    for name in ("instances", "strategies", "intruders", "ks"):
        if not isinstance(getattr(spec, name), (tuple, list)):
            raise InvalidConfig(f"{name} must be a list, got {shown(getattr(spec, name), repr)}")
    if not spec.instances or not spec.strategies or not spec.intruders or not spec.ks:
        raise EmptyInput("sweep needs at least one instance, strategy, intruder model and team size")
    for inst in spec.instances:
        # Before Python 3.13 the CSV writer leaves a lone \r unquoted; a surrogate has no UTF-8 form.
        if not isinstance(inst.id, str) or any(c == "\r" or "\ud800" <= c <= "\udfff" for c in inst.id):
            raise InvalidConfig(f"instance id must be a string without \\r or surrogates, got {shown(inst.id, repr)}")
        if not isinstance(inst.polygon, OrthoPolygon):
            raise InvalidConfig(f"instance {inst.id!r} polygon is a {type(inst.polygon).__name__}, not an OrthoPolygon")
        check_cells(inst.polygon.area, "polygon")
    check_int(spec.base_seed, "base_seed")
    try:
        str(spec.base_seed)  # trial_seed hashes it as text
    except ValueError:
        raise InvalidConfig("base_seed has more digits than str() prints") from None
    check_int(spec.trials, "trials", 1)
    combos = list(itertools.product(spec.instances, spec.strategies, spec.intruders, spec.ks))
    for inst, strategy, intruder, k in combos:  # before the repeat check hashes the values
        SimConfig(strategy, k, intruder, spec.max_steps, rect_seed=inst.rect_seed)
    # A repeat would write two CSV rows under one label.
    for name in ("strategies", "intruders", "ks"):
        values = getattr(spec, name)
        if len(set(values)) < len(values):
            raise InvalidConfig(f"{name} repeats a value, got {shown(values, repr)}")
    seen: set[str] = set()
    for inst in spec.instances:
        if inst.id in seen:
            raise InvalidConfig(f"instance id {inst.id!r} repeats")
        seen.add(inst.id)
    return [SweepCell(index, *combo) for index, combo in enumerate(combos)]


def summarize(cell: SweepCell, results: Sequence[TrialResult]) -> SummaryRow:
    """Collapse one cell's trials; step statistics cover captures only."""
    if not results:
        raise EmptyInput("no trials to summarize")
    captured = [float(r.steps) for r in results if r.captured]
    n = len(captured)
    if n > 0:
        mean = statistics.fmean(captured)
        sd = statistics.stdev(captured) if n > 1 else 0.0
        ci95 = 1.96 * sd / math.sqrt(n)
    else:
        mean = sd = ci95 = math.nan
    return SummaryRow(
        cell.instance.id, cell.strategy, cell.intruder, cell.k,
        len(results), n, n / len(results), mean, sd, ci95, True,
    )


@functools.lru_cache(maxsize=1)
def _instance_grid(inst_id: str, polygon: OrthoPolygon) -> GridGraph:
    """`rasterize(polygon)`, kept for the last (id, polygon) asked for.

    Cells run instance by instance, and every process of a sweep claims them
    in index order, so no sweep asks for an earlier instance's grid again: a
    process holds one grid and its memo.
    """
    return rasterize(polygon)


def run_cell(cell: SweepCell, trials: int, base_seed: int, max_steps: int | None) -> SummaryRow:
    """Run one sweep cell in this process, the caller or a pool worker.

    A team that `sim.team` cannot field on the cell's grid gives an
    infeasible row with no trials.
    """
    grid = _instance_grid(cell.instance.id, cell.instance.polygon)

    def config(trial: int) -> SimConfig:
        seed = trial_seed(base_seed, cell.index, trial)
        return SimConfig(cell.strategy, cell.k, cell.intruder, max_steps, seed, cell.instance.rect_seed)

    try:
        team(config(0), grid)
    except (TooFewRobots, TooManyRobots):
        nan = math.nan
        return SummaryRow(cell.instance.id, cell.strategy, cell.intruder, cell.k, 0, 0, 0.0, nan, nan, nan, False)
    return summarize(cell, [run_trial(config(trial), grid) for trial in range(trials)])


def _cell_worker(args: tuple[SweepCell, int, int, int | None]) -> SummaryRow:
    return run_cell(*args)


def _pool_drain(jobs: list, claimed, finished, conn) -> None:
    """A pool worker: drain cells through `_cell_worker`, then send the caller
    its `(index, row)` pairs, or the exception that stopped the drain."""
    with conn:
        try:
            out = _drain(jobs, claimed, finished, _cell_worker)
        except Exception as exc:  # the caller raises it again
            out = exc
        conn.send(out)


def _start_pool(size: int, jobs: list, claimed, finished):
    """Start `size` pool workers; yields each one's read end and process."""
    for _ in range(size):
        rows_in, rows_out = multiprocessing.Pipe(duplex=False)
        worker = multiprocessing.Process(target=_pool_drain, args=(jobs, claimed, finished, rows_out), daemon=True)
        worker.start()
        rows_out.close()  # the worker holds the only write end, so its exit reads as end of file
        yield rows_in, worker


def _worker_rows(conn, worker) -> list[tuple[int, SummaryRow]]:
    """The rows a pool worker sent; raises what it raised, or a `RuntimeError` if it died first."""
    with conn:
        try:
            out = conn.recv()
        except EOFError:
            worker.join()
            raise RuntimeError(f"a sweep worker exited with code {worker.exitcode} before it sent its rows") from None
    if isinstance(out, Exception):
        raise out
    return out


def _drain(
    jobs: list, claimed, finished, run: Callable, progress: Callable | None = None
) -> list[tuple[int, SummaryRow]]:
    """Run cells claimed one at a time from the shared counter until none is left.

    The caller and each pool worker drain the same `(jobs, claimed, finished)`;
    a one-worker sweep starts no pool, and the caller drains them alone.
    A cell that raises sets `claimed` past the last cell before the error
    propagates, so the other processes stop after their current cell.
    `progress`, if given, sees `(finished, total)` after each of this
    process's cells.
    """
    out = []
    while True:
        with claimed.get_lock():
            index = claimed.value
            claimed.value += 1
        if index >= len(jobs):
            return out
        try:
            out.append((index, run(jobs[index])))
        except BaseException:
            claimed.value = len(jobs)
            raise
        with finished.get_lock():
            finished.value += 1
        if progress is not None:
            progress(finished.value, len(jobs))


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> list[SummaryRow]:
    """Run every cell; row order and content do not depend on `workers`.

    `workers` processes, no more than cells or CPUs, claim cells one at a
    time: the caller and a pool of the other `workers - 1`. With one, the
    caller drains the cells alone and no pool starts. The cells run on a
    frozen heap (`gc.freeze`), unless the caller froze it.
    """
    cells = expand_cells(spec)
    jobs = [(c, spec.trials, spec.base_seed, spec.max_steps) for c in cells]
    workers = min(check_int(workers, "worker count", 1), len(cells), os.cpu_count() or 1)
    claimed, finished = multiprocessing.Value("q", 0), multiprocessing.Value("q", 0)
    placed: dict[int, SummaryRow] = {}
    pool: dict = {}  # each pool worker's read end, and its process
    # A full collection scans every tracked object and writes its GC header, so
    # over the import heap it costs a serial sweep time, and in a forked worker
    # it copies each page of the parent's heap. Frozen objects are not scanned.
    freeze = not gc.get_freeze_count()
    if freeze:
        gc.freeze()
    try:
        # The pool's cells go through _cell_worker, the caller's through run_cell:
        # a tracer swaps that name for an entry that writes a worker's spans to a
        # file of its own.
        pool.update(_start_pool(workers - 1, jobs, claimed, finished))
        placed.update(_drain(jobs, claimed, finished, lambda job: run_cell(*job), progress))
        unread = list(pool)
        while unread:
            for conn in multiprocessing.connection.wait(unread, timeout=0.2):
                unread.remove(conn)
                placed.update(_worker_rows(conn, pool[conn]))
            if progress is not None:
                progress(finished.value, len(jobs))
    finally:
        claimed.value = len(jobs)  # after an error or interrupt, workers stop after their current cell
        if freeze:
            gc.unfreeze()
        for conn, worker in pool.items():
            if not conn.closed:  # a worker's send waits until its rows are read
                with conn, contextlib.suppress(EOFError):
                    conn.recv_bytes()
            worker.join()
    return [placed[i] for i in range(len(jobs))]


def rows_to_csv(rows: Sequence[SummaryRow]) -> str:
    """Fixed-format CSV so equal sweeps serialize byte-for-byte equal."""
    formats = [(name, _FORMAT[_COLUMN_TYPES[name]]) for name in CSV_COLUMNS]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([fmt(getattr(r, name)) for name, fmt in formats] for r in rows)
    return out.getvalue()


def write_csv(rows: Sequence[SummaryRow], path: str) -> None:
    write_text(path, rows_to_csv(rows))


def read_csv(path: str) -> list[SummaryRow]:
    """Parse a `write_csv` file; an unreadable file or a malformed row raises IoError."""
    parsers = [_PARSE[_COLUMN_TYPES[name]] for name in CSV_COLUMNS]
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                if tuple(next(reader, ())) != CSV_COLUMNS:
                    raise EmptyInput(f"{path} is not a sweep summary file")
                rows = []
                for rec in reader:
                    if len(rec) != len(parsers):
                        raise ValueError(f"{len(rec)} fields, expected {len(parsers)}")
                    rows.append(SummaryRow(*(parse(text) for parse, text in zip(parsers, rec))))
            except (ValueError, csv.Error) as exc:
                raise IoError(f"{path}, line {reader.line_num}: {exc}") from None
    except OSError as exc:
        raise IoError(str(exc)) from exc
    return rows


# ---------------------------------------------------------------- presets


def _paper_sweep(ks: Sequence[int], **instances: OrthoPolygon) -> SweepSpec:
    """The paper's protocol on these team sizes and instances, keyed by id: every
    strategy against static and randomly moving intruders, 100 trials a cell."""
    specs = tuple(InstanceSpec(name, poly) for name, poly in instances.items())
    return SweepSpec(specs, STRATEGIES, tuple(ks), intruders=("static", "random"), trials=100)


def preset_spikes4() -> SweepSpec:
    """Team-size sweep on one 4-tooth comb."""
    return _paper_sweep(
        range(2, 61, 3), spikes4=comb_polygon((8, 10, 12, 10), spike_width=2, base_height=4, spike_gap=2)
    )


def preset_shapes() -> SweepSpec:
    """Three equal-area combs (176 cells) with different tooth layouts."""
    return _paper_sweep(
        (13,),
        shape0=comb_polygon((8, 10, 8, 10, 8), spike_width=2, base_height=4, spike_gap=2),
        shape1=comb_polygon((4, 14, 8, 14, 4), spike_width=2, base_height=4, spike_gap=2),
        shape2=comb_polygon((10, 0, 10, 0, 10), spike_width=2, base_height=4, spike_gap=2, down=(0, 7, 0, 7, 0)),
    )


def preset_areas() -> SweepSpec:
    """The same comb at three scales (176, 396 and 704 cells), fixed team."""
    return _paper_sweep(
        (10,),
        area176=comb_polygon((8, 10, 8, 10, 8), spike_width=2, base_height=4, spike_gap=2),
        area396=comb_polygon((12, 15, 12, 15, 12), spike_width=3, base_height=6, spike_gap=3),
        area704=comb_polygon((16, 20, 16, 20, 16), spike_width=4, base_height=8, spike_gap=4),
    )


def preset_beta() -> SweepSpec:
    """Equal-area combs (160 cells) with two to six teeth, fixed team."""
    return _paper_sweep(
        (25,),
        beta2=comb_polygon((15, 15), spike_width=2, base_height=10, spike_gap=2),
        beta3=comb_polygon((12, 13, 13), spike_width=2, base_height=6, spike_gap=2),
        beta4=comb_polygon((9, 9, 9, 8), spike_width=2, base_height=5, spike_gap=2),
        beta5=comb_polygon((7, 7, 8, 7, 7), spike_width=2, base_height=4, spike_gap=2),
        beta6=comb_polygon((5, 5, 4, 4, 5, 5), spike_width=2, base_height=4, spike_gap=2),
    )


PRESETS: dict[str, Callable[[], SweepSpec]] = {
    "spikes4": preset_spikes4,
    "shapes": preset_shapes,
    "areas": preset_areas,
    "beta": preset_beta,
}
