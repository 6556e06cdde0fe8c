"""Explicit velocity-Verlet reference integrator.

Runs on the same force model as the implicit stepper and is used to
cross-validate it. Kick-drift-kick; the velocity-dependent damping in
the second kick is evaluated at the half-step velocity, the common DEM
choice (the damped scheme is not uniquely defined).
"""
from __future__ import annotations

import numpy as np

from . import forces as _forces
from .contact import NeighborList, _detect_unchecked
from .errors import NonFiniteStateError
from .forces import ContactParams
from .linsolve import BLOCK
from .model import GeneralizedState, ParticleSystem, assemble_mass_matrix


class VerletIntegrator:
    """Work buffers and neighbor list for a velocity-Verlet run."""

    def __init__(self, system: ParticleSystem, params: ContactParams,
                 h: float):
        if h <= 0.0:
            raise ValueError("time step must be positive")
        self.system = system
        self.params = params
        self.h = h
        self.mass = assemble_mass_matrix(system)
        self.work = system.copy()
        self.nlist = NeighborList.build(system)
        self._damped = params.gamma_n != 0.0 or params.gamma_t != 0.0

    def _force(self, q: np.ndarray, velocity: np.ndarray) -> np.ndarray:
        n = self.work.n
        qb = q.reshape(n, BLOCK)
        vb = velocity.reshape(n, BLOCK)
        self.work.pos[:] = qb[:, :3]
        self.work.theta[:] = qb[:, 3:]
        self.work.vel[:] = vb[:, :3]
        self.work.omega[:] = vb[:, 3:]
        if not self.nlist.is_valid(self.work.pos):
            self.nlist.rebuild(self.work)
        contacts = _detect_unchecked(self.work, self.nlist)
        f = -_forces.potential_gradient(self.work, contacts, self.params)
        if self._damped:
            f = f + _forces.nonconservative_force(self.work, contacts,
                                                  velocity, self.params)
        return f

    def step(self, state: GeneralizedState) -> GeneralizedState:
        h = self.h
        v = self.mass.solve(state.p)
        v_half = v + 0.5 * h * self.mass.solve(self._force(state.q, v))
        q_new = state.q + h * v_half
        v_new = v_half + 0.5 * h * self.mass.solve(self._force(q_new, v_half))
        p_new = self.mass.matvec(v_new)
        # a NaN in the orientations never reaches the neighbour-list guard
        for name, x in (("q", q_new), ("p", p_new)):
            if not np.isfinite(x).all():
                bad = int(np.flatnonzero(~np.isfinite(x))[0]) // BLOCK
                raise NonFiniteStateError(
                    f"Verlet step {state.k} (t = {state.t:g}) gave particle "
                    f"{bad} a non-finite {name}", iterations=0)
        return GeneralizedState(q=q_new, p=p_new, t=state.t + h, k=state.k + 1)


def verlet_step(state: GeneralizedState, h: float, system: ParticleSystem,
                params: ContactParams) -> GeneralizedState:
    """One velocity-Verlet step. For long runs reuse a VerletIntegrator."""
    return VerletIntegrator(system, params, h).step(state)
