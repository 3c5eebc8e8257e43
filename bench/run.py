"""polysearch benchmark: timed Monte-Carlo sweeps, checked against pinned output.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--trace 0|1]

Run from the repository root; the package is imported from ``src``.
Workloads are defined in workloads.py and described in README.md. Each
repetition runs in a fresh interpreter (rep.py) because the package
keeps process-wide caches. A run makes a fixed number of repetitions,
``workloads.REPS`` (or ``workloads.TRACE_PAIRS`` untraced and traced
pairs), sized to measure about 24 s; ``--seconds`` is accepted as part of
the calling convention and changes nothing, so a seed always sweeps the
same inputs. Repetition j sweeps the inputs of
``workloads.rep_seed(seed, j)`` under hash seed ``2j + 1`` (its traced
twin under ``2j + 2``), so output that depends on string hash order
shows up as cells that differ from the pins, which were made under hash
seed 0.

``--trace 0`` reports the end-to-end metrics as medians over repetitions:

* ``setup_s``      launch of a fresh interpreter to a built ``SweepSpec``
* ``sweep_s``      ``run_sweep`` plus ``rows_to_csv``, cold caches
* ``peak_rss_mb``  peak resident set size, worker processes included

Times are scaled to a reference host speed with the probe that every
repetition times next to its sweep (see ``scaled`` and README.md).

``--trace 1`` alternates traced and untraced repetitions and reports the
per-layer metrics of spans.py, plus ``sim.steps_per_s`` (simulated
steps over untraced ``sweep_s``) and ``trace.overhead`` (traced over
untraced ``sweep_s``). Every cell whose CSV row differs from the pinned
output (pins.json) or breaks an invariant counts as failed; for a seed
without a pin the digest is printed so two commits can be compared.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A results file
with the run's metadata and every repetition goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
OUT = Path(".bench_out")

#: Wall-clock budget of one run; a run must end well inside 180 s.
DEADLINE_S = 150

#: Probe time (rep.probe) that defines the reference host speed.
PROBE_REF_S = 0.05


def scaled(rep: dict, key: str) -> float:
    """A repetition's wall time in seconds of the reference host."""
    return rep[key] * PROBE_REF_S / rep["probe_s"]


def metric_units(trace: bool) -> dict[str, str]:
    """Names and units of the metrics a run reports, from BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def launch(
    workload: str, seed: int, hash_seed: int, timeout: float, spans: Path | None = None
) -> dict:
    """Run one repetition in a fresh interpreter; raises RuntimeError on failure."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t_launch = perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload} repetition exceeded {timeout:.0f} s") from None
    finally:
        try:  # stop whatever the repetition left running in its process group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError(f"{workload} repetition exited {proc.returncode}: {tail[0]}")
    rec = json.loads(out.strip().splitlines()[-1])
    rec["setup_s"] = rec.pop("t_spec") - t_launch
    rec["hash_seed"] = hash_seed
    return rec


def run_metadata() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if Path(".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "loadavg": os.getloadavg(),
        "commit": commit,
    }


def _failed_cells(rep: dict, twin: dict | None = None) -> int:
    """Cells that differ from the pin or break an invariant, or whose row
    differs from the `twin` repetition of the same inputs."""
    failed = max(rep["mismatched"] or 0, len(rep["errors"]))
    if twin is not None:
        a, b = rep["row_hashes"], twin["row_hashes"]
        failed = max(failed, sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b)))
    return failed


def run_workload(workload: str, seed: int, trace: bool) -> dict:
    """Repetition j sweeps the inputs of ``rep_seed(seed, j)``.

    Untraced, the run reports medians over its repetitions. Traced, each
    untraced repetition is followed by a traced one of the same inputs,
    which must give the same rows and step total.
    """
    count = (workloads.TRACE_PAIRS if trace else workloads.REPS)[workload]
    t_begin = perf_counter()
    reps: list[dict] = []
    traced: list[dict] = []
    problems: list[str] = []
    failed = lost = 0
    for j in range(count):
        rep_seed = workloads.rep_seed(seed, j)
        try:
            left = DEADLINE_S - (perf_counter() - t_begin)
            reps.append(launch(workload, rep_seed, 2 * j + 1, left))
            if trace:
                spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
                left = DEADLINE_S - (perf_counter() - t_begin)
                traced.append(launch(workload, rep_seed, 2 * j + 2, left, spans))
        except RuntimeError as exc:
            problems.append(str(exc))
            lost = reps[0]["cells"] if reps else 1  # all cells of the lost repetition
            failed += lost
            break
        failed += _failed_cells(reps[-1])
        if trace:
            failed += _failed_cells(traced[-1], reps[-1])
            if traced[-1]["layers"]["sim.step.calls"] != reps[-1]["steps"]:
                problems.append(f"seed {rep_seed}: traced step count differs from the untraced total")
    cells = lost + sum(r["cells"] for r in reps + traced)
    for rep in reps + traced:
        problems += rep["errors"]

    metrics: dict[str, float] = {}
    if reps and not trace:
        metrics = {
            "setup_s": statistics.median(scaled(r, "setup_s") for r in reps),
            "sweep_s": statistics.median(scaled(r, "sweep_s") for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }
    elif traced:
        layers = [r["layers"] for r in traced]
        metrics = {name: statistics.median(lay[name] for lay in layers) for name in layers[0]}
        metrics["sim.steps_per_s"] = statistics.median(r["steps"] / scaled(r, "sweep_s") for r in reps)
        metrics["sweep.wall_s"] = statistics.median(r["sweep_s"] for r in reps)
        metrics["host.probe_s"] = statistics.median(r["probe_s"] for r in reps)
        metrics["trace.overhead"] = statistics.median(
            scaled(t, "sweep_s") / scaled(r, "sweep_s") for t, r in zip(traced, reps)
        )

    units = metric_units(trace)
    missing = sorted(set(units) - set(metrics))
    if metrics and missing:
        problems.append(f"metrics not measured: {missing}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": cells,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }
    digests = [r["sha256"] for r in reps]
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "trials": workloads.TRIALS[workload],
        "workers": workloads.WORKERS[workload],
        "rep_seeds": [workloads.rep_seed(seed, j) for j in range(len(reps))],
        "sha256": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "rep_sha256": digests,
        "problems": problems,
        "reps": [{k: v for k, v in r.items() if k != "row_hashes"} for r in reps + traced],
        "result": result,
    }


def report(record: dict, meta: dict) -> None:
    result = record["result"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"repetitions={len(record['reps'])} sha256={record['sha256']}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    ratio = result["failed"] / max(1, result["attempted"])
    print(f"  {'failed_ratio':40s} {ratio:14.6g} 1  ({result['failed']}/{result['attempted']} cells)")
    for problem in record["problems"][:10]:
        print(f"  problem: {problem}")
    path = OUT / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(dict(record, meta=meta), indent=1))
    print(json.dumps(result))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *workloads.BUILDERS])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=24, help="accepted; the repetition count is fixed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Exit through `launch`'s cleanup, so a terminated run leaves no repetition behind.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not Path("src/polysearch/__init__.py").is_file():
        print("bench: run from the repository root; src/polysearch is missing", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    meta = run_metadata()
    print(json.dumps({"meta": meta}))
    names = list(workloads.BUILDERS) if args.workload == "all" else [args.workload]
    for name in names:
        report(run_workload(name, args.seed, bool(args.trace)), meta)
    return 0


if __name__ == "__main__":
    sys.exit(main())
