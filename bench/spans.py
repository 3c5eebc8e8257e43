"""Outside-in tracing of polysearch: spans around calls into each layer.

The package binds most callees with ``from .x import y``, so a wrapper on
the defining module would miss the calls. `install` therefore replaces the
name in the *calling* module's namespace (``sim.hungarian``,
``harness.run_trial``, ...). Each call records one span
``[name, start, end, parent, trial, extra]`` in memory: ``parent`` is the
index of the enclosing span (-1 at top level), ``trial`` the seed of the
enclosing trial, and ``extra`` a small value taken from the arguments or
the result. Spans are written out only after the timed work ends.

Worker processes of a traced ``run_sweep(workers>1)`` inherit the patched
modules by fork; `worker_entry` appends each worker's spans to a file in
``span_dir`` after every cell, and `Tracer.all_spans` merges them.
"""

from __future__ import annotations

import json
import os
import statistics
from pathlib import Path
from time import perf_counter

STRATEGIES = ("sfc", "sfc_g", "rs", "crs", "baseline")


def _trial_result(args, out):
    return [args[0].strategy, out.captured]


def _path_key(args, out):
    # Identifies the (grid, start, goal) request from its arguments alone.
    g, start, goal = args[:3]
    return [len(g.cells), list(g.bounds), start, goal]


def _rect_counts(args, out):
    return [len(out.rects), len(out.juncs)]


#: (module, attribute, span name, extra) for every traced call site.
TARGETS = (
    ("polygen", "inflate_cut", "polygen.inflate_cut", None),
    ("polygen", "polygon_from_cells", "geometry.polygon_from_cells", None),
    ("harness", "rasterize", "geometry.rasterize", None),
    ("harness", "run_cell", "harness.run_cell", None),
    ("harness", "rows_to_csv", "harness.rows_to_csv", None),
    ("harness", "run_trial", "sim.run_trial", _trial_result),
    ("sim", "init_trial", "sim.init_trial", None),
    ("sim", "step", "sim.step", None),
    ("sim", "sfc_layout", "sim.sfc_layout", None),
    ("sim", "rectangulate", "decomposition.rectangulate", _rect_counts),
    ("sim", "gilbert_curve", "sfc.gilbert_curve", None),
    ("sim", "repair_curve", "sfc.repair_curve", None),
    ("sim", "hungarian", "planning.hungarian", None),
    ("sim", "costs_to_target", "planning.costs_to_target", None),
    ("sim", "plan_indices", "planning.plan_indices", None),
    ("sim", "shortest_indices", "planning.shortest_indices", _path_key),
    ("planning", "linear_sum_assignment", "planning.linear_sum_assignment", None),
)


class Tracer:
    """Span store for one process; `install` patches the package."""

    def __init__(self, span_dir: str):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.trial: int | None = None
        self.pid = os.getpid()
        self.span_dir = span_dir
        self.flushed = 0
        self.cell_worker = None

    def wrap(self, fn, name, extra=None):
        spans, stack = self.spans, self.stack
        is_trial = name == "sim.run_trial"

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(rec)
            outer = self.trial
            if is_trial:
                self.trial = args[0].seed
            rec[4] = self.trial
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                self.trial = outer
            if extra is not None:
                rec[5] = extra(args, out)
            return out

        return traced

    def install(self, ps) -> None:
        global ACTIVE
        for module, attr, name, extra in TARGETS:
            mod = getattr(ps, module)
            setattr(mod, attr, self.wrap(getattr(mod, attr), name, extra))
        self.cell_worker = ps.harness._cell_worker
        ps.harness._cell_worker = worker_entry
        ACTIVE = self

    def flush(self) -> None:
        """Append the spans recorded since the last flush to this process's file."""
        path = Path(self.span_dir) / f"worker-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(self.spans[self.flushed :]) + "\n")
        self.flushed = len(self.spans)

    def all_spans(self) -> list[list]:
        """This process's spans followed by the workers', parents rebased."""
        merged = list(self.spans)
        for path in sorted(Path(self.span_dir).glob("worker-*.jsonl")):
            base = len(merged)
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    for rec in json.loads(line):
                        if rec[3] >= 0:
                            rec[3] += base
                        merged.append(rec)
        return merged


#: The tracer installed in this process; forked workers inherit it.
ACTIVE: Tracer | None = None


def worker_entry(args):
    """Stands in for `harness._cell_worker` inside traced worker processes."""
    tracer = ACTIVE
    if tracer.pid != os.getpid():  # first cell in a fresh fork
        tracer.pid = os.getpid()
        tracer.spans.clear()
        tracer.stack.clear()
        tracer.flushed = 0
    out = tracer.cell_worker(args)
    tracer.flush()
    return out


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and busy times; ``self_s`` excludes child spans."""
    child_s = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_s[rec[3]] += rec[2] - rec[1]
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for i, (name, start, end, _parent, _trial, _extra) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + (end - start - child_s[i])

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return total.get(name, 0.0)

    m: dict[str, float] = {}
    hung = n("planning.hungarian")
    lsa = n("planning.linear_sum_assignment")
    m["planning.hungarian.calls"] = hung
    m["planning.hungarian.s"] = s("planning.hungarian")
    m["planning.hungarian.lsa_calls"] = lsa
    m["planning.hungarian.lsa_per_call"] = lsa / hung if hung else 0.0
    for layer in ("costs_to_target", "shortest_indices", "plan_indices"):
        m[f"planning.{layer}.calls"] = n(f"planning.{layer}")
        m[f"planning.{layer}.s"] = s(f"planning.{layer}")
    keys = [json.dumps(r[5]) for r in spans if r[0] == "planning.shortest_indices"]
    m["planning.shortest_indices.repeat_ratio"] = 1 - len(set(keys)) / len(keys) if keys else 0.0
    m["polygen.inflate_cut.calls"] = n("polygen.inflate_cut")
    m["polygen.inflate_cut.s"] = s("polygen.inflate_cut")
    m["geometry.polygon_from_cells.s"] = s("geometry.polygon_from_cells")
    m["geometry.rasterize.calls"] = n("geometry.rasterize")
    m["geometry.rasterize.s"] = s("geometry.rasterize")
    m["decomposition.rectangulate.calls"] = n("decomposition.rectangulate")
    m["decomposition.rectangulate.s"] = s("decomposition.rectangulate")
    rect_counts = [r[5] for r in spans if r[0] == "decomposition.rectangulate"]
    m["decomposition.rects"] = sum(c[0] for c in rect_counts)
    m["decomposition.junctions"] = sum(c[1] for c in rect_counts)
    m["sfc.gilbert_curve.s"] = s("sfc.gilbert_curve")
    m["sfc.repair_curve.s"] = s("sfc.repair_curve")
    m["sim.sfc_layout.calls"] = n("sim.sfc_layout")
    m["sim.sfc_layout.s"] = s("sim.sfc_layout")
    trials = [r for r in spans if r[0] == "sim.run_trial"]
    m["sim.run_trial.calls"] = len(trials)
    m["sim.step.calls"] = n("sim.step")
    m["sim.step.self_s"] = self_s.get("sim.step", 0.0)
    m["sim.init_trial.s"] = s("sim.init_trial")
    for strategy in STRATEGIES:
        m[f"sim.{strategy}.s"] = sum(r[2] - r[1] for r in trials if r[5][0] == strategy)
    m["sim.capped_trials"] = sum(1 for r in trials if not r[5][1])
    cells = [r[2] - r[1] for r in spans if r[0] == "harness.run_cell"]
    m["harness.run_cell.p50_s"] = statistics.median(cells) if cells else 0.0
    m["harness.run_cell.p95_s"] = _quantile(cells, 0.95) if cells else 0.0
    m["harness.run_cell.max_s"] = max(cells, default=0.0)
    m["harness.rows_to_csv.s"] = s("harness.rows_to_csv")
    m["trace.spans"] = len(spans)
    return m


def write_spans(spans: list[list], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in spans:
            fh.write(json.dumps(rec) + "\n")
