"""Potential energy, its gradient, and the damping force with its Jacobian.

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
bonds (k = the bond's own stiffness) and walls alike. A wall row's
j-side contributions land on its ghost body and are dropped, so a wall
acts on the particle side only.
"""
from __future__ import annotations

from dataclasses import dataclass

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
        if self.k_n <= 0.0:
            raise ValueError("normal stiffness must be positive")
        if self.gamma_t is None:
            object.__setattr__(self, "gamma_t", 0.5 * self.gamma_n)

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


def _per_body(contacts: ContactSet, vals_i: np.ndarray,
              vals_j: np.ndarray) -> np.ndarray:
    """Sum per-row contributions onto both ends, via bincount.

    Ghost rows collect the j side of wall rows and are dropped.
    """
    out = np.zeros((contacts.n_bodies + contacts.n_ghosts,) + vals_i.shape[1:])
    flat = out.reshape(out.shape[0], -1)
    width = flat.shape[1]
    for rows, vals in ((contacts.i, vals_i), (contacts.j, vals_j)):
        idx = (width * rows[:, None] + np.arange(width)).ravel()
        flat += np.bincount(idx, weights=vals.ravel(),
                            minlength=flat.size).reshape(flat.shape)
    return out[:contacts.n_bodies]


def potential_energy(system: ParticleSystem, contacts: ContactSet,
                     params: ContactParams) -> float:
    """Total potential: contact springs (Hookean, wall, bond) and gravity."""
    k = contacts.stiffness(params.k_n)
    v = 0.5 * float(np.sum(k * contacts.delta ** 2))
    if system.gravity != 0.0:
        v += system.gravity * float(np.sum(system.m * system.pos[:, 2]))
    return v


def potential_gradient(system: ParticleSystem, contacts: ContactSet,
                       params: ContactParams) -> np.ndarray:
    """Exact gradient of the potential with respect to q (rotations zero)."""
    grad = np.zeros((system.n, BLOCK))
    if len(contacts):
        k = contacts.stiffness(params.k_n)
        g = (-k * contacts.delta)[:, None] * contacts.normal
        grad[:, :3] = _per_body(contacts, g, -g)
    if system.gravity != 0.0:
        grad[:, 2] += system.m * system.gravity
    return grad.ravel()


def nonconservative_force(system: ParticleSystem, contacts: ContactSet,
                          velocity: np.ndarray, params: ContactParams) -> np.ndarray:
    """Generalized damping force Q for a given 6N velocity vector.

    Geometry comes from the contact set; only the velocity split is
    recomputed, so the same set can be evaluated at several velocities.
    Wall contacts act on the particle side only.
    """
    if not len(contacts):
        return np.zeros(BLOCK * system.n)
    _, v_n, v_t = contacts.split_velocity(np.asarray(velocity, dtype=float))
    f_t = -params.gamma_t * contacts.m_eff[:, None] * v_t
    f = -params.gamma_n * contacts.m_eff[:, None] * v_n + f_t
    tau = -0.5 * cross_rows(contacts.arm, f_t)
    return _per_body(contacts, np.hstack([f, tau]), np.hstack([-f, tau])).ravel()


def _skew(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric cross-product matrices, (m, 3) -> (m, 3, 3)."""
    m = v.shape[0]
    s = np.zeros((m, 3, 3))
    s[:, 0, 1] = -v[:, 2]; s[:, 0, 2] = v[:, 1]
    s[:, 1, 0] = v[:, 2];  s[:, 1, 2] = -v[:, 0]
    s[:, 2, 0] = -v[:, 1]; s[:, 2, 1] = v[:, 0]
    return s


def _block_operator(contacts: ContactSet, d_ii: np.ndarray, d_jj: np.ndarray,
                    d_ij: np.ndarray) -> BlockSparseMatrix:
    """Assemble per-row 6x6 blocks; wall rows have no off-diagonal block."""
    n = contacts.n_bodies
    rows = np.flatnonzero(~contacts.wall)
    keys = contacts.i[rows] * n + contacts.j[rows]
    order = np.argsort(keys)
    keys = keys[order]
    return BlockSparseMatrix(n, _per_body(contacts, d_ii, d_jj),
                             keys // n, keys % n, d_ij[rows[order]])


def dQ_dv(system: ParticleSystem, contacts: ContactSet,
          params: ContactParams) -> BlockSparseMatrix:
    """Jacobian of the damping force with respect to the 6N velocity vector.

    Symmetric negative semidefinite by construction.
    """
    m = len(contacts)
    eye = np.eye(3)
    gamma_n, gamma_t = params.gamma_n, params.gamma_t
    m_eff, arm = contacts.m_eff, contacts.arm
    nn = np.einsum("ca,cb->cab", contacts.normal, contacts.normal)
    b = ((gamma_n - gamma_t) * m_eff)[:, None, None] * nn \
        + (gamma_t * m_eff)[:, None, None] * eye
    c = 0.5 * (gamma_t * m_eff)[:, None, None] * _skew(arm)
    # S(a) S(a) = a a^T - |a|^2 I for skew matrices
    aa = np.einsum("ca,cb->cab", arm, arm)
    a2 = np.einsum("ca,ca->c", arm, arm)
    t_w = 0.25 * (gamma_t * m_eff)[:, None, None] * (aa - a2[:, None, None] * eye)
    d_ii = np.zeros((m, BLOCK, BLOCK))
    d_ii[:, :3, :3] = -b
    d_ii[:, :3, 3:] = -c
    d_ii[:, 3:, :3] = c
    d_ii[:, 3:, 3:] = t_w
    d_jj = np.zeros((m, BLOCK, BLOCK))
    d_jj[:, :3, :3] = -b
    d_jj[:, :3, 3:] = c
    d_jj[:, 3:, :3] = -c
    d_jj[:, 3:, 3:] = t_w
    d_ij = np.zeros((m, BLOCK, BLOCK))
    d_ij[:, :3, :3] = b
    d_ij[:, :3, 3:] = -c
    d_ij[:, 3:, :3] = -c
    d_ij[:, 3:, 3:] = t_w
    return _block_operator(contacts, d_ii, d_jj, d_ij)


def potential_hessian(system: ParticleSystem, contacts: ContactSet,
                      params: ContactParams) -> BlockSparseMatrix:
    """Second derivative of the potential with respect to q.

    Rotational rows are zero; gravity contributes nothing. The spring's
    transverse term -k (delta / |r_ij|) (I - n n^T) is absent on wall
    rows, because a plane's normal does not turn. Used by the
    quasi-static solver.
    """
    k = contacts.stiffness(params.k_n)
    nn = np.einsum("ca,cb->cab", contacts.normal, contacts.normal)
    dist = np.linalg.norm(contacts.arm, axis=1)
    lateral = np.where(contacts.wall, 0.0, contacts.delta / dist)
    h = np.zeros((len(contacts), BLOCK, BLOCK))
    h[:, :3, :3] = k[:, None, None] * (nn - lateral[:, None, None] * (np.eye(3) - nn))
    return _block_operator(contacts, h, h, -h)
