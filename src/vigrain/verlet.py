"""Explicit velocity-Verlet reference integrator.

Runs on the same force model as the implicit stepper and is used to
cross-validate it. Kick-drift-kick; the velocity-dependent damping in
the second kick is evaluated at the half-step velocity, the common DEM
choice (the damped scheme is not uniquely defined).

A kick evaluates -grad V and Q on the bodies the contact rows couple
(forces.coupled_forces) and gives a body on no row its free fall, a
constant, with a kick over all 6N DOFs' arithmetic. The first kick of a
step reuses the last kick's contacts and gradient, and only Q is taken
at both velocities: velocity Verlet's one force evaluation per step
(Swope, Andersen, Berens & Wilson, J. Chem. Phys. 76, 637 (1982)). v
and v_{1/2} live in two work arrays; only q_{k+1} and p_{k+1} are fresh.
"""
from __future__ import annotations

import numpy as np

from . import forces as _forces
from .contact import ContactSet, NeighborList
from .contact import _detect_unchecked  # noqa: F401; a benchmark probe wraps it
from .forces import ContactParams
from .linsolve import BLOCK
from .model import (GeneralizedState, ParticleSystem, assemble_mass_matrix,
                    check_finite)
from .vi import StepReport


class VerletIntegrator:
    """Mass diagonal, neighbor list and work arrays of a velocity-Verlet run."""

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
        self._grad_set = self._neg_grad = None   # a contact set, its -grad V
        # the kick of a body on no row, zeros' signs included: -grad V is
        # -(0 + m g) on z and -0.0 elsewhere, Q is +0.0 when damped
        f = np.zeros_like(self.mass)
        f[2::BLOCK] += system.m * system.gravity
        self._free_kick = (0.5 * h) * ((-f + 0.0 if self._damped else -f) / self.mass)
        self._v = np.empty_like(self.mass), np.empty_like(self.mass)

    def contacts_at(self, q: np.ndarray) -> ContactSet:
        """Contacts with the centres at q; the same centres reuse the last set."""
        return self.nlist.contacts_at(q)

    def _kick(self, q: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = v + (h/2) M^-1 (-grad V + Q(v)), with the contacts at q."""
        contacts = self.contacts_at(q)
        fresh = contacts is not self._grad_set
        dofs, neg_grad, damping = _forces.coupled_forces(
            self.system, contacts, self.params,
            (lambda at: v[at]) if self._damped else None, gradient=fresh)
        if fresh:
            self._grad_set, self._neg_grad = contacts, neg_grad
        f = self._neg_grad if damping is None else self._neg_grad + damping
        if dofs.size == v.size:   # every body on a row: one kick on all DOFs
            return np.add(v, (0.5 * self.h) * (f / self.mass), out=out)
        np.add(v, self._free_kick, out=out)
        if dofs.size:
            out[dofs] = v[dofs] + (0.5 * self.h) * (f / self.mass[dofs])
        return out

    def step(self, state: GeneralizedState) -> tuple[GeneralizedState, StepReport]:
        """One kick-drift-kick step; the report has no Newton or CG work,
        and n_contacts is the size of the second kick's contact set."""
        check_finite(state.q, state.p,
                     f"input of Verlet step {state.k} (t = {state.t:g})")
        h = self.h
        v, v_half = self._v
        self._kick(state.q, np.divide(state.p, self.mass, out=v), v_half)
        q_new = state.q + np.multiply(h, v_half, out=v)
        p_new = self.mass * self._kick(q_new, v_half, v)
        # a NaN in the orientations never reaches the neighbour-list guard
        check_finite(q_new, p_new, f"Verlet step {state.k} (t = {state.t:g}) result")
        return (GeneralizedState(q=q_new, p=p_new, t=state.t + h, k=state.k + 1),
                StepReport(0, 0.0, 0, len(self._grad_set)))
