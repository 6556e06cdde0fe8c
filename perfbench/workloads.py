"""The three benchmark workloads and the checks on their outputs.

Each workload is a JSON run configuration, the same document
``vigrain run --config`` reads. The benchmark seed reaches the program
only as the box ``seed`` key (the vertical jitter of the seeded
lattice). The reason for each choice is in NOTES.md. The energy check
also accepts the walls scenario, which the benchmark's own tests use
as a short VI run.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A rise of the sampled total energy larger than this many machine
# epsilons of the summed energy magnitudes is not roundoff.
ROUNDOFF_EPS = 64.0
# Criterion 3a's bound on the walls energy error.
WALLS_MAX_REL_ENERGY_ERROR = 1e-3
# step_ms_tail takes the highest of these percentiles that leaves at
# least ten steps of one repetition above it, else the median.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0)


@dataclass(frozen=True)
class Workload:
    name: str
    doc: dict
    uses_seed: bool
    why: str

    def config(self, seed: int) -> dict:
        doc = dict(self.doc)
        if self.uses_seed:
            doc["seed"] = seed % 2**32
        return doc


WORKLOADS = {w.name: w for w in (
    Workload("box218", {"scenario": "box", "duration": 0.4}, True,
             "default box N=218 from rest until every layer has landed: CG and "
             "damping Jacobian assembly dominate"),
    Workload("box4000", {"scenario": "box", "duration": 0.14,
                         "n_particles": 4000, "box_size": 16}, True,
             "N=4000 into the contact phase: O(N^2) neighbour search at set-up, "
             "memory, per-step cost at large N, an operator near L2 size"),
    Workload("box4000_verlet", {"scenario": "box", "duration": 0.2,
                                "n_particles": 4000, "box_size": 16,
                                "integrator": "verlet"}, True,
             "the N=4000 box stepped by Verlet: raw detection and force "
             "evaluation at large N, no linear solve"),
)}


def planned_steps(spec) -> int:
    """Steps run_simulation schedules for a duration-limited spec."""
    return max(1, int(round(spec.duration / spec.h)))


def tail_percentile(steps_per_rep: int) -> float:
    for p in TAIL_LADDER:
        if steps_per_rep * (1.0 - p / 100.0) >= 10.0:
            return p
    return 50.0


def check_energy(name: str, rows) -> tuple[bool, str]:
    """walls: max |E - E0| / E0 within criterion 3a's bound.

    boxes: the sampled total energy never exceeds its initial value
    beyond roundoff. A damped box under gravity cannot gain energy; a
    rise between two samples can still occur at contact onset with
    alpha = 0, whose conservative force acts at q_k, so the largest
    sampled rise is reported but not bounded (see NOTES.md).
    """
    e = np.array([r.stats.total_energy for r in rows])
    if not np.all(np.isfinite(e)):
        return False, "non-finite total energy"
    if name == "walls":
        err = float(np.max(np.abs(e - e[0])) / abs(e[0]))
        return bool(err <= WALLS_MAX_REL_ENERGY_ERROR), f"max |E-E0|/E0 = {err:.3e}"
    scale = max(abs(r.stats.kinetic_trans) + abs(r.stats.kinetic_rot)
                + abs(r.stats.potential_contact) + abs(r.stats.potential_gravity)
                for r in rows)
    tol = ROUNDOFF_EPS * np.finfo(float).eps * scale
    gain = float(np.max(e - e[0]))
    rise = float(np.max(np.diff(e), initial=-np.inf))
    return bool(gain <= tol), (f"max E-E0 {gain:.3e} (roundoff {tol:.1e}), "
                               f"max sampled rise {rise:.3e}")


def check_states(result) -> tuple[bool, str]:
    """Every sampled and final state is finite and every centre is inside the walls."""
    states = [(f.pos, f.vel, f.omega) for f in result.frames]
    states.append((result.final_system.pos, result.final_system.vel,
                   result.final_system.omega))
    for arrays in states:
        if not all(np.all(np.isfinite(a)) for a in arrays):
            return False, "non-finite state"
    if not (np.all(np.isfinite(result.final_state.q))
            and np.all(np.isfinite(result.final_state.p))):
        return False, "non-finite final (q, p)"
    worst = np.inf
    for pos, _, _ in states:
        for wall in result.final_system.walls:
            worst = min(worst, float(np.min(wall.signed_distance(pos))))
    return bool(worst >= 0.0), f"min centre-to-wall distance {worst:.4g}"


def check_round_trip(frame, read_back) -> tuple[bool, str]:
    """The last frame reads back bit-exactly from trajectory.csv."""
    same = (read_back.t == frame.t
            and all(np.array_equal(a, b) for a, b in
                    ((read_back.pos, frame.pos), (read_back.vel, frame.vel),
                     (read_back.omega, frame.omega))))
    return bool(same), "last frame bit-exact" if same else "last frame differs"
