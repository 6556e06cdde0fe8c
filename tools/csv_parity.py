"""Fingerprint the CSV outputs of six fixed runs, for refactor parity.

Each run goes the way ``vigrain run`` and ``vigrain scenario`` go:
parse_config -> build_scenario -> run_simulation -> write_trajectory
and write_diagnostics. One line per run gives the steps, the Newton
and CG totals, the sha256 of both CSVs and a physics hash: the sha256 of
diagnostics.csv without its solver-work columns (newton_iters and
cg_iters), so a change that alters only how much the solver works
prints the same physics hash. The runs are the impact,
walls (3000 steps) and bonded scenarios with their defaults, and the
three benchmark configurations at seed 3.

A change keeps the outputs byte-identical when two checkouts print the
same lines:

    PYTHONPATH=src python3 tools/csv_parity.py > after.txt
    PYTHONPATH=/path/to/parent/src python3 tools/csv_parity.py > before.txt
    diff before.txt after.txt

When the hashes differ, the size of the difference comes from the final
states: ``--save DIR`` writes each run's final q and p as ``.npy`` files,
and ``--against DIR`` adds to each line max |dq| / d and max |dp| / max |p|
against the files a run of the other checkout saved there:

    PYTHONPATH=/path/to/parent/src python3 tools/csv_parity.py --save before
    PYTHONPATH=src python3 tools/csv_parity.py --against before

Needs only the standard library, numpy and vigrain; takes about a minute.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import re
import tempfile
from pathlib import Path

import numpy as np

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

SOLVER_WORK = ("newton_iters", "cg_iters")   # diagnostics.csv columns


def fingerprint(doc: dict, steps: int | None, out: Path):
    """The run's summary line and its final (q, p, d)."""
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
    digests.append(f"physics {physics_hash(out / 'diagnostics.csv')}")
    line = (f"{result.steps} steps, {result.newton_iters} Newton, "
            f"{result.cg_iters} CG, " + ", ".join(digests))
    state = result.final_state
    return line, state.q, state.p, float(result.final_system.d[0])


def physics_hash(path: Path) -> str:
    """sha256 of a diagnostics CSV without its solver-work columns."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    keep = [k for k, name in enumerate(header) if name not in SOLVER_WORK]
    text = "".join(",".join(cells[k] for k in keep) + "\n"
                   for cells in (line.split(",") for line in lines))
    return hashlib.sha256(text.encode()).hexdigest()


def stem(label: str) -> str:
    return re.sub(r"\W+", "_", label).strip("_")


def deltas(q, p, d: float, against: Path, label: str) -> str:
    """max |dq| / d and max |dp| / max |p| against the saved final state."""
    q0 = np.load(against / f"{stem(label)}.q.npy")
    p0 = np.load(against / f"{stem(label)}.p.npy")
    if q0.shape != q.shape:
        return f"; final state shape {q.shape} against {q0.shape}"
    dq = float(np.max(np.abs(q - q0), initial=0.0)) / d
    p_max = float(np.max(np.abs(p0), initial=0.0))
    dp = float(np.max(np.abs(p - p0), initial=0.0)) / (p_max or 1.0)
    return f"; max |dq|/d {dq:.3g}, max |dp|/max|p| {dp:.3g}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", type=Path, metavar="DIR",
                        help="write each run's final q and p as .npy files")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="compare each run's final q and p with a --save DIR")
    args = parser.parse_args()
    if args.save is not None:
        args.save.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for label, doc, steps in RUNS:
            line, q, p, d = fingerprint(doc, steps, Path(tmp))
            if args.save is not None:
                np.save(args.save / f"{stem(label)}.q.npy", q)
                np.save(args.save / f"{stem(label)}.p.npy", p)
            if args.against is not None:
                line += deltas(q, p, d, args.against, label)
            print(f"{label}: {line}", flush=True)


if __name__ == "__main__":
    main()
