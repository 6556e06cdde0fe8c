"""Energies, momentum totals and ensemble statistics."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contact import ContactSet
from .forces import (ContactParams, contact_energy, gravity_energy,
                     potential_energy)
from .model import ParticleSystem


@dataclass
class FrameStats:
    """Per-frame scalars written to the diagnostics stream."""

    t: float
    kinetic_trans: float
    kinetic_rot: float
    potential_contact: float
    potential_gravity: float
    total_energy: float
    momentum: np.ndarray
    kbar: float
    dv: float


def kinetic_energy(system: ParticleSystem) -> tuple[float, float]:
    """Total translational and rotational kinetic energy."""
    k_t = 0.5 * float(np.sum(system.m * np.sum(system.vel ** 2, axis=1)))
    k_r = 0.5 * float(np.sum(system.inertia * np.sum(system.omega ** 2, axis=1)))
    return k_t, k_r


def mean_kinetic(system: ParticleSystem) -> float:
    """Mean kinetic energy per particle over all 6 degrees of freedom."""
    k_t, k_r = kinetic_energy(system)
    return (k_t + k_r) / system.n


def velocity_fluctuation(system: ParticleSystem) -> float:
    """Mean squared deviation of velocities from the ensemble mean,
    averaged over the 3 N components."""
    v_bar = np.mean(system.vel, axis=0)
    dev = system.vel - v_bar
    return float(np.sum(dev ** 2)) / (3.0 * system.n)


def total_momentum(system: ParticleSystem) -> np.ndarray:
    return (system.m[:, None] * system.vel).sum(axis=0)


def total_energy(system: ParticleSystem, contacts: ContactSet,
                 params: ContactParams) -> float:
    """Kinetic plus contact potential (plus gravity when g is nonzero)."""
    k_t, k_r = kinetic_energy(system)
    return k_t + k_r + potential_energy(system, contacts, params)


def ensemble_stats(system: ParticleSystem, contacts: ContactSet | None = None,
                   params: ContactParams | None = None,
                   t: float = 0.0) -> FrameStats:
    """All per-frame scalars at once. Potential fields are zero when no
    contact set is supplied."""
    k_t, k_r = kinetic_energy(system)
    v_grav = gravity_energy(system, system.pos[:, 2])
    v_contact = 0.0
    if contacts is not None and params is not None:
        v_contact = contact_energy(contacts, params)
    return FrameStats(
        t=t,
        kinetic_trans=k_t,
        kinetic_rot=k_r,
        potential_contact=v_contact,
        potential_gravity=v_grav,
        total_energy=k_t + k_r + v_contact + v_grav,
        momentum=total_momentum(system),
        kbar=(k_t + k_r) / system.n,
        dv=velocity_fluctuation(system),
    )
