"""Regenerate pins.json, the expected sweep output of every workload.

    python3 bench/pin.py

Run from the repository root. It pins exactly the repetition seeds of a
run with the default workload seed (``workloads.REPS`` of them). Each
seed's sweep runs once in a fresh interpreter, under hash seed 0, and its
CSV digest and per-row hashes are stored. Re-pin only after a change that
alters sweep output on purpose, and say why in CHANGES.md; the benchmark
counts every row that differs from a pin as a failed cell.
"""

from __future__ import annotations

import json

import rep
import run
import workloads


def main() -> None:
    pins: dict[str, dict[str, dict]] = {}
    for name in workloads.BUILDERS:
        if name in workloads.PIN_KEY:
            continue
        for j in range(workloads.REPS[name]):
            seed = workloads.rep_seed(workloads.DEFAULT_SEED, j)
            result = run.launch(name, seed, hash_seed=0, timeout=170)
            pins.setdefault(name, {})[str(seed)] = {
                "sha256": result["sha256"],
                "rows": result["row_hashes"],
            }
            print(f"{name} seed={seed} sha256={result['sha256']} sweep_s={result['sweep_s']:.2f}", flush=True)
    # One line per seed keeps the file diffable.
    blocks = []
    for name, by_seed in pins.items():
        lines = ",\n".join(f'  "{seed}": {json.dumps(pin)}' for seed, pin in by_seed.items())
        blocks.append(f' "{name}": {{\n{lines}\n }}')
    rep.PINS.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    main()
