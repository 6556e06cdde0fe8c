"""Contact detection: the rows of the one contact law.

A Verlet neighbor list caches candidate pairs and walls inside a skin and
stays valid until some particle has moved half the skin. It is built
from a uniform cell list (Verlet, Phys. Rev. 159, 98 (1967); Allen &
Tildesley, Computer Simulation of Liquids) in O(N) time and memory:
cells of edge at least max(d) + skin, each scanned against itself and
its 13 half-shell neighbours.

Every active contact becomes one row of a ContactSet and follows the
soft-sphere convention: overlap delta = d - |r_ij|, normal
n_ij = r_ij / |r_ij| and lever arm r_ij = r_i - r_j, with the relative
velocity split into a normal part and a tangential part that includes
the rigid-body surface term from the angular velocities.

A bond is a row with its own stiffness that stays active at any delta.
A wall is a row whose partner is a frozen ghost body: zero velocity,
infinite mass (m_eff = m_i), the wall's unit normal for n_ij and
arm = d_i n, the arm of an equal partner touching at the plane.
"""
from __future__ import annotations

import itertools

import numpy as np

from .errors import (NonFiniteStateError, SingularGeometryError,
                     StaleNeighborListError)
from .linsolve import BLOCK
from .model import Bond, ParticleSystem

DEFAULT_SKIN_FACTOR = 0.3

# cell offsets of a half shell, self first: (0, 0, 0) and the 13 that
# follow it in lexicographic order, so each neighbouring cell pair is
# visited from one side only
_HALF_SHELL = np.array([o for o in itertools.product((-1, 0, 1), repeat=3)
                        if o >= (0, 0, 0)], dtype=np.int64)


class NeighborList:
    """The contact detector of a run: its walls and bonds as arrays, and
    the candidate rows of the last build (unbonded pairs closer than
    d + skin, the bonds, (particle, wall) pairs closer than d/2 + skin),
    a superset of the contacts while no particle has moved skin/2.
    """

    def __init__(self, system: ParticleSystem, pairs: np.ndarray, skin: float):
        self.skin = float(skin)
        self.normals = np.array([w.normal for w in system.walls]).reshape(-1, 3)
        self.offsets = np.array([w.point @ w.normal for w in system.walls])
        self.bonds = np.array([(b.i, b.j) for b in system.bonds],
                              dtype=np.int64).reshape(-1, 2)
        self.k_bond = np.array([b.k_bond for b in system.bonds])
        self._q = None            # the configuration of the cached set
        self._contacts = None
        self._hold(system, pairs)

    def _hold(self, system: ParticleSystem, pairs: np.ndarray) -> None:
        """Take the candidate rows of a build at system's positions."""
        pos, n = system.pos, system.n
        if self.bonds.size:
            pairs = pairs[~np.isin(pairs[:, 0] * n + pairs[:, 1],
                                   self.bonds[:, 0] * n + self.bonds[:, 1])]
        # the pair rows, then the bond rows; with no bonds, pairs is not copied
        rows = np.concatenate([pairs, self.bonds]) if self.bonds.size else pairs
        self.pairs, self.ends = rows[:len(pairs)], rows.T
        gap = pos @ self.normals.T - self.offsets - 0.5 * system.d[:, None]
        self.wall_rows = (gap < self.skin).nonzero()   # sorted by (i, wall)
        self.ref_pos = pos.copy()

    @classmethod
    def build(cls, system: ParticleSystem, skin: float | None = None) -> "NeighborList":
        if skin is None:
            skin = DEFAULT_SKIN_FACTOR * float(np.min(system.d))
        if skin <= 0.0:
            raise ValueError("skin distance must be positive")
        return cls(system, cls._candidate_pairs(system.pos, system.d, skin), skin)

    @staticmethod
    def _candidate_pairs(pos: np.ndarray, d: np.ndarray, skin: float) -> np.ndarray:
        """Every pair i < j with |r_ij| < (d_i + d_j)/2 + skin, in (i, j) order.

        Raises NonFiniteStateError when a position is NaN or infinite.
        """
        finite = np.isfinite(pos).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise NonFiniteStateError(
                f"particle {bad} has a non-finite position {pos[bad]}",
                iterations=0)
        n = pos.shape[0]
        if n < 2:
            return np.empty((0, 2), dtype=np.int64)
        lo = pos.min(axis=0)
        span = pos.max(axis=0) - lo
        # Any edge >= max(d) + skin finds every pair. The margin covers the
        # rounding of the cell coordinates, which grows with the span, and
        # caps them at 2^40 per axis.
        edge = ((float(np.max(d)) + skin) * (1.0 + 2.0 ** -40)
                + float(np.max(span)) * 2.0 ** -40)
        while True:
            cx, cy, cz = (_gap_ranks(c) for c in np.floor((pos - lo) / edge).T)
            # one empty cell on either side, so no neighbour offset wraps
            dims = [int(c.max()) + 2 for c in (cx, cy, cz)]
            if dims[0] * dims[1] * dims[2] < 2 ** 62:   # the key fits in int64
                break
            edge *= 2.0
        key = (cx * dims[1] + cy) * dims[2] + cz
        order = np.argsort(key, kind="stable")
        cells, start, count = np.unique(key[order], return_index=True,
                                        return_counts=True)

        # occupied cell a against occupied cell b = a + offset
        target = cells + (_HALF_SHELL @ [dims[1] * dims[2], dims[2], 1])[:, None]
        slot = np.minimum(np.searchsorted(cells, target), cells.size - 1)
        off, a = np.nonzero(cells[slot] == target)
        b = slot[off, a]

        # expand each cell pair into its count[a] * count[b] particle pairs;
        # each expanded array is about 1 MB at N = 4000, so none outlives
        # its use
        size = count[a] * count[b]
        row, col = np.divmod(np.arange(size.sum())
                             - np.repeat(np.cumsum(size) - size, size),
                             np.repeat(count[b], size))
        si = np.repeat(start[a], size) + row
        del row
        sj = np.repeat(start[b], size) + col
        del col
        keep = (si < sj) | np.repeat(off > 0, size)   # a pair within a cell once
        si, sj = si[keep], sj[keep]
        # a cheap cut that keeps every pair within the edge, then the exact test
        keep = sum((c[si] - c[sj]) ** 2 for c in pos[order].T.copy()) < edge * edge
        i, j = order[si[keep]], order[sj[keep]]
        i, j = np.minimum(i, j), np.maximum(i, j)
        near = np.linalg.norm(pos[i] - pos[j], axis=1) < 0.5 * (d[i] + d[j]) + skin
        i, j = i[near], j[near]
        by_ij = np.lexsort((j, i))
        return np.stack([i[by_ij], j[by_ij]], axis=1)

    def is_valid(self, pos: np.ndarray) -> bool:
        if pos.shape != self.ref_pos.shape:
            return False
        dx, dy, dz = (pos - self.ref_pos).T
        # sqrt is monotone, so one root of the largest square decides
        moved2 = np.max(dx * dx + dy * dy + dz * dz, initial=0.0)
        return bool(np.sqrt(moved2) < 0.5 * self.skin)

    def rebuild(self, system: ParticleSystem) -> None:
        self._hold(system, self._candidate_pairs(system.pos, system.d, self.skin))

    def contacts_at(self, work: ParticleSystem, q: np.ndarray) -> "ContactSet":
        """Contacts with work's centres moved to q, rebuilding a stale list;
        an equal q returns the last set. work is this list's one system."""
        if self._q is None or not np.array_equal(q, self._q):
            work.pos[:] = q.reshape(work.n, BLOCK)[:, :3]
            if not self.is_valid(work.pos):
                self.rebuild(work)
            self._contacts = _detect_unchecked(work, self)
            self._q = np.array(q, dtype=float)
        return self._contacts


def _gap_ranks(c: np.ndarray) -> np.ndarray:
    """Integer cell coordinates along one axis with every gap closed to two.

    Adjacent cells stay adjacent and no others become so, while the
    coordinates stay below 2 N however far apart the particles are. They
    start at 1, so every neighbour of an occupied cell has one >= 0.
    """
    u, inv = np.unique(c, return_inverse=True)
    rank = np.concatenate([[1.0], 1.0 + np.cumsum(np.minimum(np.diff(u), 2.0))])
    return rank.astype(np.int64)[inv]


def create_bonds(system: ParticleSystem, threshold: float | None = None,
                 k_bond: float = 1.0) -> list[Bond]:
    """Bond every pair whose initial |overlap| is below the threshold.

    Meant to run once on the initial configuration; default threshold
    is d/100. Bonds come out in lexicographic (i, j) order.
    """
    d = float(system.d[0])
    thresh = d / 100.0 if threshold is None else threshold
    pairs = NeighborList._candidate_pairs(system.pos, system.d, thresh)
    dist = np.linalg.norm(system.pos[pairs[:, 0]] - system.pos[pairs[:, 1]], axis=1)
    return [Bond(int(i), int(j), k_bond)
            for i, j in pairs[np.abs(d - dist) < thresh]]


class ContactSet:
    """All active contacts of a configuration, one row each.

    Row c joins body i[c] to body j[c] with overlap delta, unit normal
    (pointing from j to i), lever arm, effective mass m_eff and spring
    constant k. Rows run Hookean pairs (delta > 0, bonded pairs
    excluded), then bonds (always active, any delta), then walls
    (delta > 0, ordered by particle and wall). k is 0 on Hookean rows,
    which take the contact law's k_n, and the bond's own stiffness on
    bond rows. A wall row's partner j = n_bodies + wall index is a
    frozen ghost body; per-body arrays get one ghost row per wall, which
    is dropped once contributions have been summed.
    """

    def __init__(self, n_bodies: int, n_ghosts: int, i, j, delta, normal,
                 arm, m_eff, k, n_pp: int):
        self.n_bodies = n_bodies
        self.n_ghosts = n_ghosts
        self.i, self.j = i, j
        self.delta, self.normal, self.arm = delta, normal, arm
        self.m_eff, self.k = m_eff, k
        self.n_pp = n_pp
        self._scatter = {}

    @property
    def wall(self) -> np.ndarray:
        """Row mask of wall contacts."""
        return self.j >= self.n_bodies

    @property
    def n_wall(self) -> int:
        return int(np.count_nonzero(self.wall))

    @property
    def n_bond(self) -> int:
        return len(self) - self.n_pp - self.n_wall

    def __len__(self) -> int:
        return self.i.size

    def signature(self) -> tuple:
        """Hashable identity of the active set, for cycle detection."""
        return (self.n_pp, tuple(self.i), tuple(self.j))

    def stiffness(self, k_n: float) -> np.ndarray:
        """Spring constant of every row, with k_n on the Hookean rows."""
        return np.where(self.k > 0.0, self.k, k_n)

    def padded(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The translational and the rotational part of a 6N vector, each
        one contiguous row per body and then one zero row per ghost."""
        v = np.zeros((self.n_bodies + self.n_ghosts, BLOCK))
        v[:self.n_bodies] = np.reshape(x, (self.n_bodies, BLOCK))
        return np.ascontiguousarray(v[:, :3]), np.ascontiguousarray(v[:, 3:])

    def scatter_index(self, col: int) -> tuple[np.ndarray, np.ndarray]:
        """Flat indices of columns col..col+2 of the i and j ends' 6-DOF
        blocks, ghosts included, for every row; built once per col."""
        if col not in self._scatter:
            cols = col + np.arange(3)
            self._scatter[col] = tuple((BLOCK * ends[:, None] + cols).ravel()
                                       for ends in (self.i, self.j))
        return self._scatter[col]

    def split_velocity(self, velocity: np.ndarray):
        """Relative velocity of every row at a 6N velocity vector.

        Returns (v_rel, v_n, v_t) with v_rel = v_n + v_t
        + (1/2)(omega_i + omega_j) x arm; a ghost partner is at rest.
        """
        vel, omg = self.padded(velocity)
        i, j = self.i, self.j
        v_rel = vel.take(i, axis=0) - vel.take(j, axis=0)
        vn_mag = np.einsum("cd,cd->c", v_rel, self.normal)
        v_n = vn_mag[:, None] * self.normal
        omg_sum = omg.take(i, axis=0) + omg.take(j, axis=0)
        v_t = v_rel - v_n - 0.5 * cross_rows(omg_sum, self.arm)
        return v_rel, v_n, v_t


def cross_rows(a, b):
    """Row-wise cross product, avoiding np.cross overhead for (m, 3)."""
    out = np.empty_like(a)
    out[:, 0] = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    out[:, 1] = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    out[:, 2] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return out


def detect_contacts(system: ParticleSystem, nlist: NeighborList) -> ContactSet:
    """The active contacts of a configuration, from nlist's rows; raises
    StaleNeighborListError when the displacement guard has been violated."""
    if not nlist.is_valid(system.pos):
        raise StaleNeighborListError(
            "neighbor list displacement guard violated; rebuild required")
    return _detect_unchecked(system, nlist)


def _detect_unchecked(system: ParticleSystem, nlist: NeighborList) -> ContactSet:
    """The candidate rows of nlist that touch: overlapping pairs, every
    bond, and overlapping walls, whose ghost partner is body n + wall."""
    n, pos, d, m = system.n, system.pos, system.d, system.m
    ii, jj = nlist.ends
    # 1-D gathers of the columns, summed in the order of a row sum
    x, y, z = pos.T
    dx, dy, dz = x[ii] - x[jj], y[ii] - y[jj], z[ii] - z[jj]
    dist = np.sqrt(dx * dx + dy * dy + dz * dz)
    d_i = d[ii]
    if (dist < 1e-14 * d_i).any():
        bad = int(np.argmin(dist))
        raise SingularGeometryError(
            f"particles {ii[bad]} and {jj[bad]} have coincident centers")
    keep = dist < d_i
    keep[nlist.pairs.shape[0]:] = True          # bonds act at any overlap
    ii, jj, dist = ii[keep], jj[keep], dist[keep]
    r_ij = pos[ii] - pos[jj]

    wi, widx = nlist.wall_rows
    wall_delta = 0.5 * d[wi] - (np.einsum("cd,cd->c", pos[wi], nlist.normals[widx])
                                - nlist.offsets[widx])
    touch = wall_delta > 0.0
    wi, widx, wall_delta = wi[touch], widx[touch], wall_delta[touch]
    normals = nlist.normals[widx]

    n_pp = ii.size - nlist.bonds.shape[0]
    return ContactSet(
        n, nlist.normals.shape[0],
        i=np.concatenate([ii, wi]),
        j=np.concatenate([jj, n + widx]),
        delta=np.concatenate([d[ii] - dist, wall_delta]),
        normal=np.concatenate([r_ij / dist[:, None], normals]),
        arm=np.concatenate([r_ij, d[wi, None] * normals]),
        m_eff=np.concatenate([m[ii] * m[jj] / (m[ii] + m[jj]), m[wi]]),
        k=np.concatenate([np.zeros(n_pp), nlist.k_bond, np.zeros(wi.size)]),
        n_pp=n_pp)


def detect_contacts_brute_force(system: ParticleSystem) -> ContactSet:
    """Contact detection against all O(N^2) pairs and every wall; the
    oracle for the cell list."""
    pairs = np.stack(np.triu_indices(system.n, k=1), axis=1)
    return detect_contacts(system, NeighborList(system, pairs, np.inf))
