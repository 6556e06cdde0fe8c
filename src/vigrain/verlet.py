"""Explicit velocity-Verlet reference integrator.

Runs on the same force model as the implicit stepper and is used to
cross-validate it. Kick-drift-kick; the velocity-dependent damping in
the second kick is evaluated at the half-step velocity, the common DEM
choice (the damped scheme is not uniquely defined).
"""
from __future__ import annotations

import numpy as np

from . import forces as _forces
from .contact import ContactSet, NeighborList, _detect_unchecked
from .errors import NonFiniteStateError
from .forces import ContactParams
from .linsolve import BLOCK
from .model import GeneralizedState, ParticleSystem, assemble_mass_matrix


class VerletIntegrator:
    """Work buffers and neighbor list for a velocity-Verlet run.

    Keeps the contacts and -grad V of the last configuration it saw, so
    the first kick of a step reuses the last kick's detection and
    gradient; only the damping term is evaluated at both velocities.
    That is velocity Verlet's one force evaluation per step (Swope,
    Andersen, Berens & Wilson, J. Chem. Phys. 76, 637 (1982)).
    """

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
        self._q = None           # the configuration of the cached set
        self._contacts = None
        self._neg_grad = None    # -grad V at _q, once evaluated

    def contacts_at(self, q: np.ndarray) -> ContactSet:
        """Contacts with the centres at q; an equal q reuses the last set."""
        if self._q is None or not np.array_equal(q, self._q):
            self.work.pos[:] = q.reshape(self.work.n, BLOCK)[:, :3]
            if not self.nlist.is_valid(self.work.pos):
                self.nlist.rebuild(self.work)
            self._contacts = _detect_unchecked(self.work, self.nlist)
            self._q = np.array(q, dtype=float)
            self._neg_grad = None
        return self._contacts

    def _force(self, q: np.ndarray, velocity: np.ndarray) -> np.ndarray:
        contacts = self.contacts_at(q)
        if self._neg_grad is None:
            self._neg_grad = -_forces.potential_gradient(self.work, contacts,
                                                         self.params)
        f = self._neg_grad
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
