"""Explicit velocity-Verlet reference integrator.

Runs on the same force model as the implicit stepper and is used to
cross-validate it. Kick-drift-kick; the velocity-dependent damping in
the second kick is evaluated at the half-step velocity, the common DEM
choice (the damped scheme is not uniquely defined).
"""
from __future__ import annotations

import numpy as np

from . import forces as _forces
from .contact import ContactSet, NeighborList
from .contact import _detect_unchecked  # noqa: F401; a benchmark probe wraps it
from .forces import ContactParams
from .model import (GeneralizedState, ParticleSystem, assemble_mass_matrix,
                    check_finite)
from .vi import StepReport


class VerletIntegrator:
    """Mass diagonal and neighbor list for a velocity-Verlet run.

    The list keeps the contacts of the last configuration it saw, and
    the integrator the -grad V of that set, so the first kick of a step
    reuses the last kick's detection and gradient; only the damping term
    is evaluated at both velocities. That is velocity Verlet's one force
    evaluation per step (Swope, Andersen, Berens & Wilson, J. Chem. Phys.
    76, 637 (1982)).
    """

    def __init__(self, system: ParticleSystem, params: ContactParams,
                 h: float):
        if not 0.0 < h < np.inf:
            raise ValueError("time step must be finite and positive")
        self.system = system
        self.params = params
        self.h = h
        self.mass = assemble_mass_matrix(system)
        self.nlist = NeighborList.build(system)
        self._damped = params.gamma_n != 0.0 or params.gamma_t != 0.0
        self._grad_set = None    # the contact set _neg_grad was evaluated on
        self._neg_grad = None

    def contacts_at(self, q: np.ndarray) -> ContactSet:
        """Contacts with the centres at q; the same centres reuse the last set."""
        return self.nlist.contacts_at(q)

    def _force(self, q: np.ndarray, velocity: np.ndarray) -> np.ndarray:
        contacts = self.contacts_at(q)
        if contacts is not self._grad_set:
            self._neg_grad = -_forces.potential_gradient(self.system, contacts,
                                                         self.params)
            self._grad_set = contacts
        f = self._neg_grad
        if self._damped:
            f = f + _forces.nonconservative_force(self.system, contacts,
                                                  velocity, self.params)
        return f

    def step(self, state: GeneralizedState) -> tuple[GeneralizedState, StepReport]:
        """One kick-drift-kick step; the report has no Newton or CG work,
        and n_contacts is the size of the second kick's contact set."""
        check_finite(state.q, state.p,
                     f"input of Verlet step {state.k} (t = {state.t:g})")
        h = self.h
        v = state.p / self.mass
        v_half = v + 0.5 * h * (self._force(state.q, v) / self.mass)
        q_new = state.q + h * v_half
        v_new = v_half + 0.5 * h * (self._force(q_new, v_half) / self.mass)
        p_new = self.mass * v_new
        # a NaN in the orientations never reaches the neighbour-list guard
        check_finite(q_new, p_new, f"Verlet step {state.k} (t = {state.t:g}) result")
        return (GeneralizedState(q=q_new, p=p_new, t=state.t + h, k=state.k + 1),
                StepReport(0, 0.0, 0, len(self._grad_set)))
