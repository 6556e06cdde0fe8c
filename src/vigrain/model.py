"""Particle system description, generalized coordinates and the mass matrix.

Each particle carries 6 degrees of freedom: 3 translational and 3
rotational (an accumulated rotation pseudo-vector; the frictionless
contact model never reads absolute orientation). The generalized
coordinate vector q and momentum vector p stack these particle-major,
rows 1-3 position, rows 4-6 orientation.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteStateError


@dataclass(frozen=True)
class Wall:
    """Half-space boundary: a point on the plane and the unit outward normal.

    The normal points toward the side the particles live on. Contact acts
    only on that side.
    """

    point: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float))
        object.__setattr__(self, "normal", np.asarray(self.normal, dtype=float))
        if self.point.shape != (3,) or self.normal.shape != (3,):
            raise ValueError("wall point and normal must be 3-vectors")
        if abs(np.linalg.norm(self.normal) - 1.0) > 1e-12:
            raise ValueError("wall normal must be unit length (within 1e-12)")

    def signed_distance(self, pos: np.ndarray) -> np.ndarray:
        """Distance of point(s) from the plane, positive on the normal side."""
        return (np.atleast_2d(pos) - self.point) @ self.normal


@dataclass(frozen=True)
class Bond:
    """Permanent elastic link between two particles.

    The bond potential 0.5 * k * delta^2 acts for either sign of the
    overlap, so a stretched bond pulls the pair back together.
    """

    i: int
    j: int
    k_bond: float

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("bond must join two distinct particles")
        if self.k_bond <= 0.0:
            raise ValueError("bond stiffness must be positive")
        if self.i > self.j:
            i, j = self.j, self.i
            object.__setattr__(self, "i", i)
            object.__setattr__(self, "j", j)


def sphere_inertia(m: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Moment of inertia of a solid sphere, (2/5) m (d/2)^2."""
    return 0.4 * m * (0.5 * d) ** 2


class ParticleSystem:
    """State and description of a collection of soft spheres.

    Positions, orientations, velocities and angular velocities are (N, 3)
    arrays; diameter and mass are (N,) arrays. All diameters must be
    equal. The moment of inertia is always recomputed from the sphere
    formula at construction.
    """

    def __init__(self, pos, vel=None, omega=None, theta=None,
                 d=1.0, m=1.0, walls=(), bonds=(), gravity=0.0):
        self.pos = np.array(pos, dtype=float).reshape(-1, 3)
        n = self.pos.shape[0]
        if n < 1:
            raise ValueError("a particle system needs at least one particle")
        self.vel = self._field(vel, n)
        self.omega = self._field(omega, n)
        self.theta = self._field(theta, n)
        self.d = np.broadcast_to(np.asarray(d, dtype=float), (n,)).copy()
        self.m = np.broadcast_to(np.asarray(m, dtype=float), (n,)).copy()
        if np.any(self.m <= 0.0):
            raise ValueError("particle masses must be positive")
        if np.any(self.d <= 0.0):
            raise ValueError("particle diameters must be positive")
        d_max = self.d.max()
        if d_max - self.d.min() > 1e-12 * d_max:
            raise ValueError("contacts are defined for equal spheres only; "
                             "all diameters must match")
        self.inertia = sphere_inertia(self.m, self.d)
        self.walls = list(walls)
        self.bonds = list(bonds)
        self.gravity = float(gravity)
        for b in self.bonds:
            if not (0 <= b.i < n and 0 <= b.j < n):
                raise ValueError(f"bond ({b.i},{b.j}) references a missing particle")

    @staticmethod
    def _field(value, n):
        if value is None:
            return np.zeros((n, 3))
        arr = np.array(value, dtype=float).reshape(-1, 3)
        if arr.shape[0] == 1 and n > 1:
            arr = np.repeat(arr, n, axis=0)
        if arr.shape != (n, 3):
            raise ValueError(f"expected ({n}, 3) field, got {arr.shape}")
        return arr

    @property
    def n(self) -> int:
        return self.pos.shape[0]

    def copy(self) -> "ParticleSystem":
        out = ParticleSystem(self.pos.copy(), self.vel.copy(), self.omega.copy(),
                             self.theta.copy(), self.d, self.m,
                             self.walls, self.bonds, self.gravity)
        return out


@dataclass
class GeneralizedState:
    """Stacked coordinate and momentum vectors, length 6 N each."""

    q: np.ndarray
    p: np.ndarray
    t: float = 0.0
    k: int = 0

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float).ravel()
        self.p = np.asarray(self.p, dtype=float).ravel()
        if self.q.shape != self.p.shape:
            raise ValueError("q and p must have the same length")
        if self.q.size % 6 != 0:
            raise ValueError("state length must be a multiple of 6")


class MassMatrix:
    """Diagonal 6N x 6N mass matrix, per-particle blocks diag([m m m I I I])."""

    def __init__(self, diag: np.ndarray):
        self.diag = np.asarray(diag, dtype=float).ravel()
        if np.any(self.diag <= 0.0):
            raise ValueError("mass matrix must be positive definite")

    @property
    def dim(self) -> int:
        return self.diag.size

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.diag.size:
            raise ValueError("dimension mismatch in mass matrix product")
        return self.diag * x

    def solve(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.diag.size:
            raise ValueError("dimension mismatch in mass matrix solve")
        return x / self.diag


def assemble_mass_matrix(system: ParticleSystem) -> MassMatrix:
    """Build the diagonal mass matrix for a particle system."""
    diag = np.empty((system.n, 6))
    diag[:, :3] = system.m[:, None]
    diag[:, 3:] = system.inertia[:, None]
    return MassMatrix(diag.ravel())


def pack_state(system: ParticleSystem, t: float = 0.0, k: int = 0) -> GeneralizedState:
    """Stack a system into (q, p), with p = M v."""
    n = system.n
    q = np.empty((n, 6))
    q[:, :3] = system.pos
    q[:, 3:] = system.theta
    v = np.empty((n, 6))
    v[:, :3] = system.vel
    v[:, 3:] = system.omega
    p = assemble_mass_matrix(system).matvec(v.ravel())
    return GeneralizedState(q=q.ravel(), p=p, t=t, k=k)


def unpack_into(state: GeneralizedState, system: ParticleSystem) -> None:
    """Write (q, p) into system's positions, orientations and velocities,
    with v = M^-1 p, in place."""
    n = system.n
    q, p = state.q.reshape(n, 6), state.p.reshape(n, 6)  # ValueError on a bad size
    system.pos[:], system.theta[:] = q[:, :3], q[:, 3:]
    system.vel[:] = p[:, :3] / system.m[:, None]
    system.omega[:] = p[:, 3:] / system.inertia[:, None]


def unpack_state(state: GeneralizedState, template: ParticleSystem) -> ParticleSystem:
    """Rebuild a particle system from (q, p) using template masses and geometry."""
    system = template.copy()
    unpack_into(state, system)
    return system


def check_finite(q: np.ndarray, p: np.ndarray, where: str) -> None:
    """Raise NonFiniteStateError naming the first particle with a NaN or
    infinite entry in q, or else in p; where says which state that is."""
    for name, x in (("q", q), ("p", p)):
        if not np.isfinite(x).all():
            bad = int(np.argmin(np.isfinite(x))) // 6
            raise NonFiniteStateError(
                f"{where}: particle {bad} has a non-finite {name}", iterations=0)
