"""Simulation driver: advances a scenario and samples output frames."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diagnostics import FrameStats, ensemble_stats
from .errors import VigrainError
from .model import (GeneralizedState, ParticleSystem, pack_state, unpack_into,
                    unpack_state)
from .scenarios import ScenarioSpec
from .vi import VIConfig, VIIntegrator
from .verlet import VerletIntegrator


@dataclass
class TrajectoryFrame:
    t: float
    pos: np.ndarray
    vel: np.ndarray
    omega: np.ndarray


@dataclass
class DiagnosticsRow:
    stats: FrameStats
    newton_iters: int
    cg_iters: int


@dataclass
class RunResult:
    frames: list[TrajectoryFrame] = field(default_factory=list)
    diagnostics: list[DiagnosticsRow] = field(default_factory=list)
    final_system: ParticleSystem | None = None
    final_state: GeneralizedState | None = None
    collisions: int = 0
    steps: int = 0
    newton_iters: int = 0   # summed over every step's report, not only samples
    cg_iters: int = 0


def _sample_frame(system: ParticleSystem, t: float) -> TrajectoryFrame:
    return TrajectoryFrame(t, system.pos.copy(), system.vel.copy(),
                           system.omega.copy())


def run_simulation(system: ParticleSystem, spec: ScenarioSpec) -> RunResult:
    """Advance a scenario to its duration or collision budget.

    Samples the trajectory and diagnostics at the cadences in the spec.
    A collision, for the wall experiments, is a maximal interval with
    any wall overlap delta > 0; the run stops once max_collisions of
    them have completed. The Newton corrections and CG iterations of
    every step's report, sampled or not, are summed into the result.
    A VigrainError raised by a step leaves with the step's 1-based
    index and start time as its step and t, and both in its message.
    """
    params = spec.contact_params()
    h = spec.h
    if spec.integrator == "vi":
        stepper = VIIntegrator(system, params, VIConfig(h=h, alpha=spec.alpha))
    else:
        stepper = VerletIntegrator(system, params, h)

    if spec.duration is not None:
        n_steps = max(1, int(round(spec.duration / h)))
    else:
        n_steps = 10_000_000  # collision budget terminates the run

    state = pack_state(system)
    result = RunResult()
    work = unpack_state(state, system)
    contacts = stepper.contacts_at(state.q)
    result.frames.append(_sample_frame(work, state.t))
    result.diagnostics.append(DiagnosticsRow(
        ensemble_stats(work, contacts, params, t=state.t), 0, 0))

    in_contact = False
    for step in range(1, n_steps + 1):
        try:
            state, report = stepper.step(state)
        except VigrainError as exc:
            exc.step, exc.t = step, state.t
            exc.args = (f"{exc} (step {step}, t = {state.t!r})", *exc.args[1:])
            raise
        result.steps = step
        result.newton_iters += report.newton_iters
        result.cg_iters += report.cg_iters

        sample_traj = step % spec.trajectory_every == 0
        sample_diag = step % spec.diagnostics_every == 0
        # from the stepper's cache: Verlet has just detected state.q, and
        # the next VI step starts from the set detected here
        contacts = (stepper.contacts_at(state.q)
                    if sample_diag or spec.max_collisions is not None else None)
        if sample_traj or sample_diag:
            unpack_into(state, work)
        if sample_traj:
            result.frames.append(_sample_frame(work, state.t))
        if sample_diag:
            result.diagnostics.append(DiagnosticsRow(
                ensemble_stats(work, contacts, params, t=state.t),
                report.newton_iters, report.cg_iters))
        if spec.max_collisions is not None:
            now = contacts.n_wall > 0
            if in_contact and not now:
                result.collisions += 1
                if result.collisions >= spec.max_collisions:
                    break
            in_contact = now

    result.final_state = state
    result.final_system = unpack_state(state, system)
    return result

