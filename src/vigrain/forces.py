"""Potential energy, its gradient and Hessian, the damping force and its Jacobian.

Contact force law (frictionless): normal spring plus normal/tangential
dashpots,

    F_n = k_n delta n - gamma_n m_eff v_n
    F_t = -gamma_t m_eff v_t

The tangential spring is not implemented: no tangential overlap history
is tracked, which restricts the model to mu = 0. The spring parts are
conservative and live in the potential; the dashpot parts form the
generalized non-conservative force Q, which also carries the torque
-(1/2) arm x F_t onto both partners of a contact.

Each function runs once over all rows of a ContactSet: Hookean pairs,
bonds (k = the bond's own stiffness) and walls alike, and sums them per
body with ContactSet.per_body. A wall row's j-side contributions land
on the ghost body, the world at rest, and are dropped, so a wall acts on
the particle side only.

The two linear operators, dQ/dv and the potential Hessian, are applied
from the rows and never assembled (matrix-free Newton-Krylov; Knoll &
Keyes, J. Comput. Phys. 193, 357 (2004)). Q is linear in the velocity,
so dQ/dv x = Q(x) and the damping force and its Jacobian share one row
kernel. On a frozen contact set the Hessian is a fixed linear map,
k (n n^T - (delta / |r_ij|)(I - n n^T)) per row. Both return a
linsolve.BlockSparseMatrix that holds only the row action, not even a
diagonal; each contact set builds its scatter indices once.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .contact import ContactSet, cross_rows
from .linsolve import BLOCK, BlockSparseMatrix
from .model import ParticleSystem

# Stiffness over weight ratio k d / (m g) used throughout the experiments.
STIFFNESS_RATIO = 195000.0


@dataclass(frozen=True)
class ContactParams:
    """Hookean contact constants.

    gamma_n and gamma_t multiply m_eff of each contact; the tangential
    damping default is half the normal one. There is no tangential
    spring.
    """

    k_n: float
    gamma_n: float = 0.0
    gamma_t: float | None = None

    def __post_init__(self):
        if not 0.0 < self.k_n < np.inf:
            raise ValueError("normal stiffness must be finite and positive")
        if self.gamma_t is None:
            object.__setattr__(self, "gamma_t", 0.5 * self.gamma_n)
        if not (0.0 <= self.gamma_n < np.inf and 0.0 <= self.gamma_t < np.inf):
            raise ValueError("damping coefficients must be finite and >= 0")

    @classmethod
    def from_damping_ratio(cls, gamma: float, mass: float = 1.0,
                           k_n: float = STIFFNESS_RATIO) -> "ContactParams":
        """Build params from the per-pair damping ratio gamma = gamma_n / m_eff.

        The reference effective mass is the equal-mass pair value m/2.
        """
        return cls(k_n=k_n, gamma_n=gamma * mass / 2.0)


def contact_time(k_n: float, mass: float = 1.0) -> float:
    """Duration of an undamped head-on contact, pi sqrt(m / 2 k)."""
    return np.pi * np.sqrt(mass / (2.0 * k_n))


def contact_energy(contacts: ContactSet, params: ContactParams) -> float:
    """The contact springs' potential (Hookean, wall, bond), 0.5 sum k delta^2."""
    k = contacts.stiffness(params.k_n)
    return 0.5 * float(np.sum(k * contacts.delta ** 2))


def gravity_energy(system: ParticleSystem, z: np.ndarray) -> float:
    """Gravity's potential g sum m z with the centres at the heights z."""
    if system.gravity == 0.0:
        return 0.0
    return system.gravity * float(np.sum(system.m * z))


def potential_energy(system: ParticleSystem, contacts: ContactSet,
                     params: ContactParams) -> float:
    """Total potential: contact springs (Hookean, wall, bond) and gravity."""
    return contact_energy(contacts, params) + gravity_energy(system, system.pos[:, 2])


def potential_gradient(system: ParticleSystem, contacts: ContactSet,
                       params: ContactParams) -> np.ndarray:
    """Exact gradient of the potential with respect to q (rotations zero),
    on the bodies of the contact set: all of the system's, or those a
    renumbered set (ContactSet.coupled) names."""
    if len(contacts):
        k = contacts.stiffness(params.k_n)
        g = (-k * contacts.delta)[:, None] * contacts.normal
        grad = contacts.per_body(g, 0, opposite=True)
    else:
        grad = np.zeros(BLOCK * contacts.n_bodies)
    if system.gravity != 0.0:
        m = system.m if contacts.bodies is None else system.m[contacts.bodies]
        grad[2::BLOCK] += m * system.gravity
    return grad


def _dashpots(contacts: ContactSet, params: ContactParams):
    """Every row's normal and tangential dashpot coefficient, -gamma m_eff."""
    return -params.gamma_n * contacts.m_eff, -params.gamma_t * contacts.m_eff


def _damping(contacts: ContactSet, c_n: np.ndarray, c_t: np.ndarray,
             velocity: np.ndarray) -> np.ndarray:
    """The rows' dashpot forces at a 6N velocity, summed per body.

    Q is linear in the velocity, so this one kernel is both the damping
    force and the action of its velocity Jacobian.
    """
    _, v_n, v_t = contacts.split_velocity(velocity)
    f_t = c_t[:, None] * v_t
    f = c_n[:, None] * v_n + f_t
    tau = -0.5 * cross_rows(contacts.arm, f_t)
    return (contacts.per_body(f, 0, opposite=True)
            + contacts.per_body(tau, 3, opposite=False))


def nonconservative_force(system: ParticleSystem, contacts: ContactSet,
                          velocity: np.ndarray, params: ContactParams) -> np.ndarray:
    """Generalized damping force Q for a given 6N velocity vector.

    Geometry comes from the contact set; only the velocity split is
    recomputed, so the same set can be evaluated at several velocities.
    Wall contacts act on the particle side only. The velocity and the
    force cover the set's bodies (see potential_gradient).
    """
    if not len(contacts):
        return np.zeros(BLOCK * contacts.n_bodies)
    return _damping(contacts, *_dashpots(contacts, params),
                    np.asarray(velocity, dtype=float))


def coupled_forces(system: ParticleSystem, contacts: ContactSet,
                   params: ContactParams, velocity=None, gradient: bool = True):
    """(dofs, -grad V, Q) of a set's rows, both steppers' force evaluation:
    the 6-DOF indices of the bodies they couple (ContactSet.coupled) and
    both forces on those alone, Q at velocity(dofs). -grad V is None
    without gradient, Q without a velocity or a row."""
    dofs, rows = contacts.coupled()
    neg_grad = -potential_gradient(system, rows, params) if gradient else None
    damping = (nonconservative_force(system, rows, velocity(dofs), params)
               if velocity is not None and len(rows) else None)
    return dofs, neg_grad, damping


def dQ_dv(system: ParticleSystem, contacts: ContactSet,
          params: ContactParams) -> BlockSparseMatrix:
    """Jacobian of the damping force with respect to the 6N velocity vector.

    Q is linear in the velocity, so dQ/dv x = Q(x) exactly, and the
    operator applies the damping rows at x. Symmetric negative
    semidefinite.
    """
    return BlockSparseMatrix(
        contacts.n_bodies, 0.0,
        partial(_damping, contacts, *_dashpots(contacts, params)),
        contacts.i[~contacts.wall])


def _spring(contacts: ContactSet, c_nn: np.ndarray, c_eye: np.ndarray,
            x: np.ndarray) -> np.ndarray:
    """(c_nn n n^T - c_eye I)(x_i - x_j) of every row, summed per body."""
    u, _ = contacts.padded(x)
    du = u.take(contacts.i, axis=0) - u.take(contacts.j, axis=0)
    normal = contacts.normal
    w = ((c_nn * np.einsum("cd,cd->c", du, normal))[:, None] * normal
         - c_eye[:, None] * du)
    return contacts.per_body(w, 0, opposite=True)


def potential_hessian(system: ParticleSystem, contacts: ContactSet,
                      params: ContactParams) -> BlockSparseMatrix:
    """Second derivative of the potential with respect to q, row-wise.

    Row c applies k (n n^T - (delta / |r_ij|)(I - n n^T)) to x_i - x_j
    and adds it to body i, subtracts it from body j. Rotational rows are
    zero; gravity contributes nothing. The transverse term is absent on
    wall rows, because a plane's normal does not turn. Used by the
    quasi-static solver.
    """
    k = contacts.stiffness(params.k_n)
    dist = np.linalg.norm(contacts.arm, axis=1)
    lateral = np.where(contacts.wall, 0.0, contacts.delta / dist)
    c_nn, c_eye = k * (1.0 + lateral), k * lateral
    return BlockSparseMatrix(contacts.n_bodies, 0.0,
                             partial(_spring, contacts, c_nn, c_eye),
                             contacts.i[~contacts.wall])
