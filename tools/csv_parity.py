"""Fingerprint the CSV outputs of six fixed runs, for refactor parity.

Each run goes the way ``vigrain run`` and ``vigrain scenario`` go:
parse_config -> build_scenario -> run_simulation -> write_trajectory
and write_diagnostics. One line per run gives the steps, the Newton
and CG totals and the sha256 of both CSVs. The runs are the impact,
walls (3000 steps) and bonded scenarios with their defaults, and the
three benchmark configurations at seed 3.

A change keeps the outputs byte-identical when two checkouts print the
same lines:

    PYTHONPATH=src python3 tools/csv_parity.py > after.txt
    PYTHONPATH=/path/to/parent/src python3 tools/csv_parity.py > before.txt
    diff before.txt after.txt

Needs only the standard library and vigrain; takes about a minute.
"""
from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

from vigrain.io import parse_config, write_diagnostics, write_trajectory
from vigrain.runner import run_simulation
from vigrain.scenarios import build_scenario

# (label, config document, steps as in `vigrain scenario --steps`, or None)
RUNS = (
    ("impact", {"scenario": "impact"}, None),
    ("walls --steps 3000", {"scenario": "walls"}, 3000),
    ("bonded", {"scenario": "bonded"}, None),
    ("box218 seed 3", {"scenario": "box", "duration": 0.4, "seed": 3}, None),
    ("box4000 seed 3", {"scenario": "box", "duration": 0.14, "n_particles": 4000,
                        "box_size": 16, "seed": 3}, None),
    ("box4000_verlet seed 3", {"scenario": "box", "duration": 0.2,
                               "n_particles": 4000, "box_size": 16,
                               "integrator": "verlet", "seed": 3}, None),
)


def fingerprint(doc: dict, steps: int | None, out: Path) -> str:
    spec = parse_config(json.dumps(doc)).spec
    if steps is not None:
        spec.duration = steps * spec.h
        spec.max_collisions = None
    result = run_simulation(build_scenario(spec), spec)
    digests = []
    for name, write, rows in (("trajectory.csv", write_trajectory, result.frames),
                              ("diagnostics.csv", write_diagnostics,
                               result.diagnostics)):
        write(rows, out / name)
        digests.append(f"{name} {hashlib.sha256((out / name).read_bytes()).hexdigest()}")
    return (f"{result.steps} steps, {result.newton_iters} Newton, "
            f"{result.cg_iters} CG, " + ", ".join(digests))


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for label, doc, steps in RUNS:
            print(f"{label}: {fingerprint(doc, steps, Path(tmp))}", flush=True)


if __name__ == "__main__":
    main()
