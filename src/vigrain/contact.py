"""Contact detection: the rows of the one contact law.

A Verlet neighbor list caches candidate pairs and walls inside a skin and
stays valid until some particle has moved half the skin. It is built
from a uniform cell list (Verlet, Phys. Rev. 159, 98 (1967); Allen &
Tildesley, Computer Simulation of Liquids) in O(N) time and memory:
cells of edge at least d + skin, each scanned against itself and
its 13 half-shell neighbours. ParticleSystem admits equal spheres only,
so the list and the detection read one diameter, d = system.d[0].

Every active contact becomes one row of a ContactSet and follows the
soft-sphere convention: overlap delta = d - |r_ij|, normal
n_ij = r_ij / |r_ij| and lever arm r_ij = r_i - r_j, with the relative
velocity split into a normal part and a tangential part that includes
the rigid-body surface term from the angular velocities.

A bond is a row with its own stiffness that stays active at any delta.
A wall is a row whose partner is the ghost body n, the world at rest:
zero velocity, infinite mass (m_eff = m_i), the wall's unit normal for
n_ij and arm = d n, the arm of an equal partner touching at the plane.
"""
from __future__ import annotations

import itertools

import numpy as np

from .errors import (NonFiniteStateError, SingularGeometryError,
                     StaleNeighborListError)
from .linsolve import BLOCK
from .model import Bond, ParticleSystem

DEFAULT_SKIN_FACTOR = 0.3
_EXPANDED = 2 ** 15   # particle pairs a candidate build expands at a time

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
    It keeps the diameter and the masses it detects with, its own buffer
    of the centres it last detected at, as three contiguous columns
    (3, n), and detection's work arrays, sized at each build.
    """

    def __init__(self, system: ParticleSystem, pairs: np.ndarray, skin: float):
        self.skin = float(skin)
        self.d, self.m = float(system.d[0]), system.m
        self.cols = system.pos.T.copy()
        self.normals = np.array([w.normal for w in system.walls]).reshape(-1, 3)
        self.offsets = np.array([w.point @ w.normal for w in system.walls])
        self.bonds = np.array([(b.i, b.j) for b in system.bonds],
                              dtype=np.int64).reshape(-1, 2)
        self.k_bond = np.array([b.k_bond for b in system.bonds])
        self._spare = np.empty_like(self.cols)   # where the next centres land
        self._contacts = None     # the set detected at cols
        self._hold(system.pos, pairs)

    def _hold(self, pos: np.ndarray, pairs: np.ndarray) -> None:
        """Take the candidate rows of a build at the centres pos."""
        n = pos.shape[0]
        if self.bonds.size:
            pairs = pairs[~np.isin(pairs[:, 0] * n + pairs[:, 1],
                                   self.bonds[:, 0] * n + self.bonds[:, 1])]
        # the pair rows, then the bond rows, held as two contiguous index
        # arrays: detection gathers by them about a tenth faster than by
        # the strided columns of an (m, 2) array
        rows = np.concatenate([pairs, self.bonds]) if self.bonds.size else pairs
        self.ends = np.ascontiguousarray(rows.T)
        self.pairs = self.ends[:, :len(pairs)].T
        # detection's work arrays, one (3, m) gather per end and the
        # squared distances, so that no detection allocates them
        self.work = np.empty((2, 3, rows.shape[0])), np.empty(rows.shape[0])
        gap = pos @ self.normals.T - self.offsets - 0.5 * self.d
        # the (particle, wall) candidates, sorted by (i, wall), each with
        # its wall's normal and offset
        self.wall_i, widx = (gap < self.skin).nonzero()
        self.wall_normals, self.wall_offsets = self.normals[widx], self.offsets[widx]
        self.ref_cols = pos.T.copy()

    @classmethod
    def build(cls, system: ParticleSystem, skin: float | None = None) -> "NeighborList":
        d = float(system.d[0])
        if skin is None:
            skin = DEFAULT_SKIN_FACTOR * d
        if skin <= 0.0:
            raise ValueError("skin distance must be positive")
        return cls(system, cls._candidate_pairs(system.pos, d, skin), skin)

    @staticmethod
    def _candidate_pairs(pos: np.ndarray, d: float, skin: float) -> np.ndarray:
        """Every pair i < j with |r_ij| < d + skin, in (i, j) order.

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
        # Any edge >= d + skin finds every pair. The margin covers the
        # rounding of the cell coordinates, which grows with the span, and
        # caps them at 2^40 per axis.
        edge = ((d + skin) * (1.0 + 2.0 ** -40)
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

        # expand each cell pair into its count[a] * count[b] particle pairs,
        # the cell pairs taken in runs of about _EXPANDED pairs, so the
        # expanded arrays stay small whatever N (150k pairs at N = 4000)
        size = count[a] * count[b]
        first = np.cumsum(size) - size
        runs = [0, *(np.flatnonzero(np.diff(first // _EXPANDED)) + 1).tolist(), a.size]
        cols = pos[order].T.copy()
        found = []
        for lo, hi in zip(runs, runs[1:]):
            part = size[lo:hi]
            row, col = np.divmod(np.arange(part.sum())
                                 - np.repeat(first[lo:hi] - first[lo], part),
                                 np.repeat(count[b[lo:hi]], part))
            si = np.repeat(start[a[lo:hi]], part) + row
            sj = np.repeat(start[b[lo:hi]], part) + col
            del row, col
            keep = (si < sj) | np.repeat(off[lo:hi] > 0, part)  # a pair within a cell once
            si, sj = si[keep], sj[keep]
            # a cheap cut that keeps every pair within the edge
            keep = sum((c[si] - c[sj]) ** 2 for c in cols) < edge * edge
            found.append((si[keep], sj[keep]))
        si, sj = (np.concatenate(ends) for ends in zip(*found))
        # then the exact test
        i, j = order[si], order[sj]
        i, j = np.minimum(i, j), np.maximum(i, j)
        near = np.linalg.norm(pos[i] - pos[j], axis=1) < d + skin
        i, j = i[near], j[near]
        by_ij = np.lexsort((j, i))
        return np.stack([i[by_ij], j[by_ij]], axis=1)

    def is_valid(self, pos: np.ndarray) -> bool:
        """Whether no centre of pos, (n, 3), has moved skin/2 since the build."""
        if pos.T.shape != self.ref_cols.shape:
            return False
        moved = pos.T - self.ref_cols
        # einsum sums the squares in the order of a row sum; sqrt is
        # monotone, so one root of the largest square decides
        moved2 = np.einsum("dc,dc->c", moved, moved).max(initial=0.0)
        return bool(np.sqrt(moved2) < 0.5 * self.skin)

    def rebuild(self, pos: np.ndarray) -> None:
        """Build the candidate rows anew around the centres pos."""
        self._hold(pos, self._candidate_pairs(pos, self.d, self.skin))

    def contacts_at(self, q: np.ndarray) -> "ContactSet":
        """Contacts with the centres at q, rebuilding a stale list; the
        same centres return the last set."""
        # the centres' columns straight from q, beside the last ones
        cols = self._spare
        np.copyto(cols, q.reshape(-1, BLOCK)[:, :3].T)
        if self._contacts is None or not np.array_equal(cols, self.cols):
            pos = cols.T
            if not self.is_valid(pos):
                self.rebuild(cols.T.copy())
            self._contacts = _detect_unchecked(pos, self)
            self._spare, self.cols = self.cols, cols
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
    pairs = NeighborList._candidate_pairs(system.pos, d, thresh)
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
    bond rows. Every wall row's partner is the ghost body j = n_bodies,
    the world at rest; per-body arrays get one ghost row after the
    bodies, which is dropped once contributions have been summed.
    bodies holds the system's ids of a set renumbered onto some of its
    bodies (see coupled), and is None when body b is the system's body b.
    """

    def __init__(self, n_bodies: int, i, j, delta, normal, arm, m_eff, k,
                 n_pp: int, bodies: np.ndarray | None = None):
        self.n_bodies = n_bodies
        self.bodies = bodies
        self.i, self.j = i, j
        self.delta, self.normal, self.arm = delta, normal, arm
        self.m_eff, self.k = m_eff, k
        self.n_pp = n_pp
        self._scatter = {}
        self._coupled = None

    @property
    def wall(self) -> np.ndarray:
        """Row mask of wall contacts."""
        return self.j == self.n_bodies

    @property
    def n_wall(self) -> int:
        return int(np.count_nonzero(self.wall))

    @property
    def n_bond(self) -> int:
        return len(self) - self.n_pp - self.n_wall

    def __len__(self) -> int:
        return self.i.size

    def signature(self) -> tuple:
        """Hashable identity of the active set."""
        return (self.n_pp, tuple(self.i), tuple(self.j))

    def stiffness(self, k_n: float) -> np.ndarray:
        """Spring constant of every row, with k_n on the Hookean rows."""
        return np.where(self.k > 0.0, self.k, k_n)

    def padded(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The translational and the rotational part of a 6N vector, each
        one contiguous row per body and then the ghost's zero row."""
        v = np.zeros((self.n_bodies + 1, BLOCK))
        v[:self.n_bodies] = np.reshape(x, (self.n_bodies, BLOCK))
        return np.ascontiguousarray(v[:, :3]), np.ascontiguousarray(v[:, 3:])

    def per_body(self, vals: np.ndarray, col: int, opposite: bool) -> np.ndarray:
        """Sum (m, 3) per-row values onto columns col..col+2 of both ends'
        6-DOF blocks, via bincount: added on the i end, and on the j end
        subtracted when opposite, else added. Returns a 6 n_bodies vector;
        the ghost's block, which collects the j side of wall rows, is
        dropped.
        """
        if col not in self._scatter:
            # the flat indices of both ends, built once per col and column
            # by column: a broadcast over a last axis of 3 is about twice
            # as slow from a few hundred rows on
            flat = np.empty((2, len(self), 3), dtype=np.int64)
            np.multiply((self.i, self.j), BLOCK, out=flat[:, :, 0])
            flat[:, :, 0] += col
            np.add(flat[:, :, 0], 1, out=flat[:, :, 1])
            np.add(flat[:, :, 0], 2, out=flat[:, :, 2])
            self._scatter[col] = flat[0].ravel(), flat[1].ravel()
        idx_i, idx_j = self._scatter[col]
        size = BLOCK * (self.n_bodies + 1)
        on_i = np.bincount(idx_i, weights=vals.ravel(), minlength=size)
        on_j = np.bincount(idx_j, weights=vals.ravel(), minlength=size)
        return (on_i - on_j if opposite else on_i + on_j)[:BLOCK * self.n_bodies]

    def coupled(self) -> tuple[np.ndarray, "ContactSet"]:
        """The 6-DOF indices of the bodies on some row, and the same rows
        renumbered onto those bodies; built once. The ghost's id follows
        every body's, so it stays the ghost in the new numbering. A set
        with no row couples nothing: every such set shares one answer."""
        if self._coupled is None and not len(self):
            self._coupled = _UNCOUPLED
        if self._coupled is None:
            on_row = np.zeros(self.n_bodies + 1, dtype=bool)
            on_row[self.i] = on_row[self.j] = True
            bodies = on_row[:self.n_bodies].nonzero()[0]
            # a body's new id is its rank among the coupled bodies; the
            # ghost, above them all, gets bodies.size
            rows = ContactSet(bodies.size, np.searchsorted(bodies, self.i),
                              np.searchsorted(bodies, self.j),
                              self.delta, self.normal, self.arm, self.m_eff,
                              self.k, self.n_pp, bodies)
            self._coupled = (BLOCK * bodies[:, None] + np.arange(BLOCK)).ravel(), rows
        return self._coupled

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


_NO_IDS = np.empty(0, dtype=np.int64)
_UNCOUPLED = (_NO_IDS, ContactSet(0, _NO_IDS, _NO_IDS, np.empty(0), np.empty((0, 3)),
                                  np.empty((0, 3)), np.empty(0), np.empty(0), 0,
                                  _NO_IDS))


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
    return _detect_unchecked(system.pos, nlist)


def _detect_unchecked(pos: np.ndarray, nlist: NeighborList) -> ContactSet:
    """The candidate rows of nlist that touch at the centres pos:
    overlapping pairs, every bond, and overlapping walls, whose partner
    is the ghost body n."""
    n, d, m = pos.shape[0], nlist.d, nlist.m
    ii, jj = nlist.ends
    # gathers along the contiguous columns of the centres (a free view
    # when pos is the list's own buffer) into the list's work arrays;
    # "clip" lets take write to them unbuffered, and the ends are valid
    # ids; einsum sums x, y, z in the order of a row sum
    cols = np.ascontiguousarray(pos.T)
    (r, r_j), dist2 = nlist.work
    cols.take(ii, axis=1, mode="clip", out=r)
    cols.take(jj, axis=1, mode="clip", out=r_j)
    r -= r_j
    np.einsum("dc,dc->c", r, r, out=dist2)
    # the squares keep every row with dist < d, whatever the rounding of
    # d * d: the root and the exact tests run on those and the bonds alone
    n_bonds = nlist.bonds.shape[0]
    near = dist2 < (d * d) * (1.0 + 2.0 ** -40)
    if n_bonds:
        near[nlist.pairs.shape[0]:] = True      # bonds act at any overlap
    rows = near.nonzero()[0]
    dist = np.sqrt(dist2[rows])
    # a coincident pair is nearer than d, so it is among the rows
    if dist.min(initial=np.inf) < 1e-14 * d:
        bad = rows[np.argmin(dist)]
        raise SingularGeometryError(
            f"particles {ii[bad]} and {jj[bad]} have coincident centers")
    keep = dist < d
    if n_bonds:
        keep[rows.size - n_bonds:] = True
    rows, dist = rows[keep], dist[keep]
    ii, jj = ii[rows], jj[rows]
    r_ij = r.take(rows, axis=1).T

    wi = nlist.wall_i
    wall_delta = 0.5 * d - (np.einsum("cd,cd->c", pos[wi], nlist.wall_normals)
                            - nlist.wall_offsets)
    touch = wall_delta > 0.0
    wi, wall_delta, normals = wi[touch], wall_delta[touch], nlist.wall_normals[touch]

    n_pp = ii.size - n_bonds
    m_i, m_j = m[ii], m[jj]
    return ContactSet(
        n, i=np.concatenate([ii, wi]),
        j=np.concatenate([jj, np.full(wi.size, n)]),
        delta=np.concatenate([d - dist, wall_delta]),
        normal=np.concatenate([r_ij / dist[:, None], normals]),
        arm=np.concatenate([r_ij, d * normals]),
        m_eff=np.concatenate([m_i * m_j / (m_i + m_j), m[wi]]),
        k=np.concatenate([np.zeros(n_pp), nlist.k_bond, np.zeros(wi.size)]),
        n_pp=n_pp)


def detect_contacts_brute_force(system: ParticleSystem) -> ContactSet:
    """Contact detection against all O(N^2) pairs and every wall; the
    oracle for the cell list."""
    pairs = np.stack(np.triu_indices(system.n, k=1), axis=1)
    return detect_contacts(system, NeighborList(system, pairs, np.inf))
