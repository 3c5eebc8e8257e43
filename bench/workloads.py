"""The benchmark's workloads: each one builds a `SweepSpec` from a seed.

Every builder takes the polysearch package as an argument, so this module
imports nothing from it and the caller decides when the import is timed.
The same seed always gives the same spec. The repetitions of a run with
the default seed 0 sweep seeds 0, 1, 2, ..., ``REPS[workload] - 1``;
their output is pinned in ``pins.json``.
"""

from __future__ import annotations

import dataclasses
import random

DEFAULT_SEED = 0

#: Trials per sweep cell. spikes4 and pursuit keep the preset shapes with
#: fewer trials; patrol_cold runs more because its trials are short.
TRIALS = {"spikes4": 4, "pursuit": 6, "patrol_cold": 25, "spikes4_w2": 4}

#: Worker processes handed to `run_sweep`.
WORKERS = {"spikes4": 1, "pursuit": 1, "patrol_cold": 1, "spikes4_w2": 2}

#: Untraced repetitions of one run. A repetition (interpreter, set-up,
#: probes, sweep) takes about 4, 5.5, 6.5 and 4 s on a 2-core Xeon, so a
#: run measures about 24 s.
REPS = {"spikes4": 6, "pursuit": 4, "patrol_cold": 4, "spikes4_w2": 6}

#: Untraced and traced repetition pairs of one traced run.
TRACE_PAIRS = {"spikes4": 2, "pursuit": 2, "patrol_cold": 1, "spikes4_w2": 2}


def rep_seed(seed: int, rep: int) -> int:
    """Input seed of repetition `rep` in a run with workload seed `seed`.

    Repetitions of one run sweep different inputs, so the run's median
    stands for more trials than one sweep holds: the sweep time depends
    strongly on the inputs (in spikes4, on how many assignment rounds the
    `crs` trials with 50+ robots need).
    """
    return seed * 1000 + rep


PATROL_POLYGONS = 24
PATROL_VERTICES = range(48, 61, 2)


def _spikes4(ps, seed: int):
    spec = ps.harness.preset_spikes4()
    return dataclasses.replace(spec, trials=TRIALS["spikes4"], base_seed=seed)


def _pursuit(ps, seed: int):
    areas = ps.harness.preset_areas()
    return ps.harness.SweepSpec(
        instances=areas.instances,
        strategies=("rs", "baseline"),
        ks=(4, 10, 25),
        intruders=("static", "random", "walk"),
        trials=TRIALS["pursuit"],
        base_seed=seed,
    )


def _patrol_cold(ps, seed: int):
    rng = random.Random(seed)
    instances = []
    for i in range(PATROL_POLYGONS):
        vertices = rng.choice(PATROL_VERTICES)
        poly = ps.polygen.inflate_cut(vertices, seed=rng.randrange(2**31))
        instances.append(ps.harness.InstanceSpec(f"cut{i:02d}v{vertices}", poly))
    return ps.harness.SweepSpec(
        instances=tuple(instances),
        strategies=("sfc", "sfc_g"),
        ks=(24, 32, 48, 64),
        intruders=("random", "walk"),
        trials=TRIALS["patrol_cold"],
        base_seed=seed,
    )


BUILDERS = {
    "spikes4": _spikes4,
    "pursuit": _pursuit,
    "patrol_cold": _patrol_cold,
    "spikes4_w2": _spikes4,
}

#: Workloads that run the same spec share one pinned output.
PIN_KEY = {"spikes4_w2": "spikes4"}


def build(ps, workload: str, seed: int):
    """The workload's `SweepSpec` for `seed`; `ps` is the imported package."""
    return BUILDERS[workload](ps, seed)
