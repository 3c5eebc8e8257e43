"""One timed repetition of a workload, in a fresh interpreter.

    PYTHONPATH=src python3 bench/rep.py --workload spikes4 --seed 0 [--spans FILE]

Run from the repository root. The package's caches (``harness._GRIDS``
and each grid's ``cache``) live for the whole process, so every
repetition gets its own interpreter, as a ``polysearch sweep`` run does.
Prints one JSON object: wall times, the host-speed probe (three runs
before and three after the sweep), the CSV digest, cells that differ
from the pinned output, the simulated step total and peak memory. With
``--spans`` the package is traced (see spans.py), the per-layer metrics
are added and the spans are written to FILE.
"""

import argparse
import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import threading
from heapq import heappop, heappush
from pathlib import Path
from time import perf_counter

import spans
import workloads

PINS = Path(__file__).with_name("pins.json")

#: Iterations of one host-speed probe, about 0.05 s on a 2-core Xeon.
PROBE_N = 40_000


def probe() -> float:
    """Seconds for a fixed mix of interpreter work: integer arithmetic,
    tuple and dict churn and heap traffic, as in the sweeps' hot loops.

    It shares no code with polysearch, so it measures the host's speed at
    the moment, not the code under test. On a shared host that speed
    drifts by a quarter or more within minutes, for every workload alike.
    """
    t = perf_counter()
    memo: dict = {}
    heap: list = []
    x = 1
    for i in range(PROBE_N):
        x = x * 48271 % 2147483647
        key = (x % 31, i % 37)
        memo[key] = (i, x, key)
        heappush(heap, (x, i))
        if len(heap) > 1024:
            heappop(heap)
    return perf_counter() - t


def child_pids() -> list[int]:
    """Processes whose parent is this one."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                    # Fields after the parenthesised command: state, ppid, ...
                    ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            if ppid == me:
                pids.append(int(entry))
    return pids


def private_kb(pid: int) -> int:
    """Memory that only process `pid` maps (Private_Clean + Private_Dirty), in KiB."""
    with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as fh:
        return sum(int(ln.split()[1]) for ln in fh if ln.startswith(("Private_Clean:", "Private_Dirty:")))


class WorkerMemory(threading.Thread):
    """Samples the private memory of this process's children every 0.1 s
    until stopped and keeps each child's largest sample.

    Forked workers share the parent's pages until they write to them;
    their private memory is what they add to the run's footprint.
    """

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.peaks: dict[int, int] = {}
        self.stop = threading.Event()

    def run(self) -> None:
        while not self.stop.wait(0.1):
            for pid in child_pids():
                try:
                    kb = private_kb(pid)
                except (OSError, ValueError):
                    continue  # the worker has just exited
                self.peaks[pid] = max(self.peaks.get(pid, 0), kb)

    def total_kb(self) -> int:
        self.stop.set()
        self.join()
        return sum(self.peaks.values())


def row_hash(line: str) -> str:
    return hashlib.blake2b(line.encode(), digest_size=4).hexdigest()


def check_rows(ps, spec, rows) -> list[str]:
    """Invariants every sweep output must meet, whatever the seed."""
    errors = []
    cells = ps.harness.expand_cells(spec)
    if len(rows) != len(cells):
        return [f"{len(rows)} rows for {len(cells)} cells"]
    for cell, r in zip(cells, rows):
        where = f"{r.instance}/{r.strategy}/{r.intruder}/k={r.k}"
        if (r.instance, r.strategy, r.intruder, r.k) != (
            cell.instance.id, cell.strategy, cell.intruder, cell.k,
        ):
            errors.append(f"{where}: out of canonical order")
        elif not r.feasible:
            if r.strategy not in ("sfc", "sfc_g") or r.trials or r.captures:
                errors.append(f"{where}: bad infeasible row")
        elif r.trials != spec.trials or not 0 <= r.captures <= r.trials:
            errors.append(f"{where}: {r.captures}/{r.trials} captures")
        elif r.captures and not 0 <= r.mean_steps <= max_steps(ps, spec, cell.instance):
            errors.append(f"{where}: mean_steps {r.mean_steps}")
        elif r.strategy == "baseline" and r.intruder == "static" and r.captures != r.trials:
            errors.append(f"{where}: omniscient chase of a static intruder missed")
    return errors


def max_steps(ps, spec, inst) -> int:
    """The step cap of a trial on `inst`; a grid has one cell per unit of area."""
    if spec.max_steps is not None:
        return spec.max_steps
    return ps.sim.DEFAULT_STEP_FACTOR * inst.polygon.area


def step_total(ps, spec, rows) -> int:
    """Simulated steps, recovered from the rows: capped trials ran to the cap."""
    by_id = {inst.id: inst for inst in spec.instances}
    total = 0
    for r in rows:
        if r.feasible:
            cap = max_steps(ps, spec, by_id[r.instance])
            if r.captures:
                total += round(r.mean_steps * r.captures)
            total += (r.trials - r.captures) * cap
    return total


def mismatched_cells(workload: str, seed: int, hashes: list[str]) -> int | None:
    """Rows that differ from the pinned output; None when the seed is not pinned."""
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    pinned = pins.get(workloads.PIN_KEY.get(workload, workload), {}).get(str(seed))
    if pinned is None:
        return None
    return sum(a != b for a, b in itertools.zip_longest(pinned["rows"], hashes))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spans", help="trace the run and write its spans here")
    args = ap.parse_args()

    t0 = perf_counter()
    import polysearch as ps

    t_import = perf_counter()
    src = Path.cwd() / "src"
    if Path(ps.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"polysearch was imported from {ps.__file__}, not from {src}")

    tracer = None
    span_dir = None
    if args.spans:
        span_dir = tempfile.mkdtemp(prefix="workers-", dir=Path(args.spans).parent)
        tracer = spans.Tracer(span_dir)
        tracer.install(ps)
    t_build = perf_counter()
    spec = workloads.build(ps, args.workload, args.seed)
    t_spec = perf_counter()

    workers = workloads.WORKERS[args.workload]
    probes = [probe() for _ in range(3)]
    sampler = WorkerMemory() if workers > 1 else None
    if sampler is not None:
        sampler.start()
    t1 = perf_counter()
    rows = ps.harness.run_sweep(spec, workers=workers)
    text = ps.harness.rows_to_csv(rows)
    t2 = perf_counter()
    worker_kb = sampler.total_kb() if sampler is not None else 0
    probes += [probe() for _ in range(3)]

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    hashes = [row_hash(line) for line in text.splitlines()[1:]]
    out = {
        "t_spec": t_spec,
        "import_s": t_import - t0,
        "instances_s": t_spec - t_build,
        "sweep_s": t2 - t1,
        "probe_s": statistics.median(probes),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "row_hashes": hashes,
        "cells": len(rows),
        "mismatched": mismatched_cells(args.workload, args.seed, hashes),
        "errors": check_rows(ps, spec, rows),
        "steps": step_total(ps, spec, rows),
        # The parent's peak plus each worker's largest private memory.
        "peak_rss_mb": (self_kb + worker_kb) / 1024,
        "worker_private_mb": worker_kb / 1024,
    }
    if tracer is not None:
        records = tracer.all_spans()
        shutil.rmtree(span_dir)
        layers = spans.summarize(records)
        layers["setup.import_s"] = out["import_s"]
        layers["setup.instances_s"] = out["instances_s"]
        out["layers"] = layers
        spans.write_spans(records, args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
