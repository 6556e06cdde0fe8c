import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vigrain import (Bond, NeighborList, NonFiniteStateError, ParticleSystem,
                     SingularGeometryError, StaleNeighborListError, Wall,
                     build_box, create_bonds, detect_contacts,
                     detect_contacts_brute_force)

from conftest import random_system, stacked_velocity


def all_pairs(pos, d, skin):
    """The all-pairs search the cell list replaces, with its exact test."""
    iu, ju = np.triu_indices(pos.shape[0], k=1)
    keep = np.linalg.norm(pos[iu] - pos[ju], axis=1) < 0.5 * (d[iu] + d[ju]) + skin
    return np.stack([iu[keep], ju[keep]], axis=1)


def build_peak_bytes(system):
    """tracemalloc peak of one candidate-pair build."""
    tracemalloc.start()
    try:
        NeighborList._candidate_pairs(system.pos, system.d, 0.3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@st.composite
def clouds(draw):
    """Particle clouds: clustered or spread, below zero, flat, on cell edges."""
    n = draw(st.integers(0, 60))
    diameter = draw(st.sampled_from([0.5, 1.0, 2.0]))
    skin = draw(st.floats(1e-3, 5.0))
    unit = hnp.arrays(np.float64, (n, 3), elements=st.floats(-1.0, 1.0))
    spread = draw(st.sampled_from([0.3, 2.0, 20.0]))
    pos = draw(unit) * spread * diameter + draw(st.floats(-50.0, 50.0))
    for axis in draw(st.sets(st.integers(0, 2), max_size=2)):
        pos[:, axis] = draw(st.floats(-3.0, 3.0))         # a zero-extent axis
    if draw(st.booleans()):     # particles on the boundaries of cells of the
        edge = diameter + skin  # search's own edge, at exact cutoff distances
        pos = np.round(pos / edge) * edge
    return pos, np.full(n, diameter), skin


# a wall whose normal has no zero component, so its distance is rounded;
# it cuts off the (+, +, +) corner of random_system's cloud
TILTED = Wall(np.full(3, 0.6), -np.array([1.0, 1.0, 2.0]) / np.sqrt(6.0))
# the per-row wall distance of two detections of one configuration may
# differ by the rounding of a dot product of coordinates below 3 in size
ROUNDOFF = 16 * np.finfo(float).eps


def two_particles(gap, **kw):
    return ParticleSystem([[0, 0, 0], [gap, 0, 0]], **kw)


class TestNeighborList:
    def test_far_pair_excluded(self):
        nl = NeighborList.build(two_particles(10.0), skin=0.3)
        assert nl.pairs.shape == (0, 2)

    def test_near_pair_included(self):
        nl = NeighborList.build(two_particles(1.2), skin=0.3)
        npt.assert_array_equal(nl.pairs, [[0, 1]])

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        pos = rng.uniform(0, 4.0, (50, 3))
        system = ParticleSystem(pos)
        skin = 0.3
        nl = NeighborList.build(system, skin=skin)
        listed = {tuple(p) for p in nl.pairs}
        expected = set()
        for i in range(50):
            for j in range(i + 1, 50):
                if np.linalg.norm(pos[i] - pos[j]) < 1.0 + skin:
                    expected.add((i, j))
        assert listed == expected

    @settings(max_examples=300, deadline=None)
    @given(clouds())
    def test_cell_list_equals_all_pairs(self, cloud):
        pos, d, skin = cloud
        got = NeighborList._candidate_pairs(pos, d, skin)
        assert got.dtype == np.int64 and got.shape[1] == 2
        npt.assert_array_equal(got, all_pairs(pos, d, skin))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_far_outlier(self, sign):
        # 1e9 d away on every axis: a dense grid would need ~1e26 cells and
        # an int64 key over it would overflow. With the outlier at -1e9 the
        # cell coordinates round by ~1e-7 d, enough to put this pair, just
        # inside the cutoff, two cells apart unless the edge allows for it.
        box, _ = build_box()
        pair = [[2.2999999645255738, 50.0, 50.0], [3.5999999645255736, 50.0, 50.0]]
        s = ParticleSystem(np.vstack([box.pos, pair, np.full(3, sign * 1e9)]))
        assert build_peak_bytes(s) < 2e6
        got = NeighborList._candidate_pairs(s.pos, s.d, 0.3)
        npt.assert_array_equal(got, all_pairs(s.pos, s.d, 0.3))
        assert got.shape == (958, 2)

    def test_build_memory_is_linear(self):
        # the all-pairs search peaks near 600 MB at N = 4000
        small, _ = build_box(n_particles=4000, box_size=16)
        large, _ = build_box(n_particles=16000, box_size=32)
        peak_small, peak_large = build_peak_bytes(small), build_peak_bytes(large)
        assert peak_small < 32e6
        assert peak_large < 6 * peak_small

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_position_fails(self, bad):
        s = random_system(2, n=6)
        s.pos[3, 1] = bad
        with pytest.raises(NonFiniteStateError, match="particle 3"):
            NeighborList.build(s)

    def test_oracle_is_independent_of_the_search(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the oracle ran the neighbour search")
        monkeypatch.setattr(NeighborList, "_candidate_pairs", staticmethod(fail))
        rows = detect_contacts_brute_force(two_particles(0.9))
        assert rows.signature() == (1, (0,), (1,))

    def test_displacement_guard(self):
        system = two_particles(1.2)
        nl = NeighborList.build(system, skin=0.3)
        assert nl.is_valid(system.pos)
        moved = system.pos.copy()
        moved[0, 0] += 0.1499
        assert nl.is_valid(moved)
        moved[0, 0] += 0.002
        assert not nl.is_valid(moved)

    def test_stale_list_raises(self):
        system = two_particles(1.2)
        nl = NeighborList.build(system, skin=0.3)
        system.pos[0, 0] += 0.2
        with pytest.raises(StaleNeighborListError):
            detect_contacts(system, nl)


def bond_all_pairs(system):
    """Bond every pair, so each pair has a contact row at any separation."""
    system.bonds = [Bond(i, j, 1.0) for i in range(system.n)
                    for j in range(i + 1, system.n)]
    return system


class TestPairKinematics:
    """Pair rows of the contact set and their velocity split."""

    def test_head_on(self):
        s = ParticleSystem([[0.45, 0, 0], [-0.45, 0, 0]], [[-2, 0, 0], [2, 0, 0]])
        rows = detect_contacts_brute_force(s)
        npt.assert_array_equal(rows.normal, [[1, 0, 0]])
        v_rel, v_n, v_t = rows.split_velocity(stacked_velocity(s))
        npt.assert_array_equal(v_rel, [[-4, 0, 0]])
        npt.assert_array_equal(v_n, [[-4, 0, 0]])
        npt.assert_array_equal(v_t, 0.0)

    def test_effective_mass(self):
        s = two_particles(0.9)
        assert detect_contacts_brute_force(s).m_eff[0] == pytest.approx(0.5)

    def test_grazing(self):
        s = ParticleSystem([[0.9, 0, 0], [0, 0, 0]], [[0, 1, 0], [0, 0, 0]])
        _, v_n, v_t = detect_contacts_brute_force(s).split_velocity(stacked_velocity(s))
        npt.assert_allclose(v_n, 0.0, atol=1e-15)
        npt.assert_allclose(v_t, [[0, 1, 0]])

    def test_antisymmetry(self):
        # relabelling the two bodies of a row flips every vector of it
        s = random_system(11, n=3)
        s.bonds = [Bond(0, 1, 1.0)]
        swap = [1, 0, 2]
        t = ParticleSystem(s.pos[swap], s.vel[swap], s.omega[swap],
                           bonds=[Bond(0, 1, 1.0)])
        a, b = detect_contacts_brute_force(s), detect_contacts_brute_force(t)
        ra, rb = a.n_pp, b.n_pp  # the bond row follows the Hookean rows
        npt.assert_allclose(b.normal[rb], -a.normal[ra])
        for va, vb in zip(a.split_velocity(stacked_velocity(s)),
                          b.split_velocity(stacked_velocity(t))):
            npt.assert_allclose(vb[rb], -va[ra])
        assert b.delta[rb] == pytest.approx(a.delta[ra])

    def test_decomposition_identity(self):
        s = bond_all_pairs(random_system(23, n=5))
        rows = detect_contacts_brute_force(s)
        assert len(rows) == 10
        v_rel, v_n, v_t = rows.split_velocity(stacked_velocity(s))
        npt.assert_array_equal(v_rel, s.vel[rows.i] - s.vel[rows.j])
        recomposed = v_n + v_t + 0.5 * np.cross(
            s.omega[rows.i] + s.omega[rows.j], rows.arm)
        scale = max(1.0, np.max(np.abs(v_rel)))
        npt.assert_allclose(recomposed, v_rel, atol=1e-12 * scale)

    def test_normal_unit_length(self):
        rows = detect_contacts_brute_force(bond_all_pairs(random_system(5, n=6)))
        assert len(rows) == 15
        npt.assert_allclose(np.linalg.norm(rows.normal, axis=1), 1.0, atol=1e-12)

    def test_coincident_centers_raise(self):
        s = ParticleSystem([[0, 0, 0], [0, 0, 0]])
        with pytest.raises(SingularGeometryError):
            detect_contacts_brute_force(s)

    def test_delta_translation_invariant(self):
        s = random_system(31, n=4)
        s.bonds = [Bond(0, 1, 1.0)]
        before = detect_contacts_brute_force(s).delta
        s.pos += np.array([3.7, -1.2, 0.4])
        after = detect_contacts_brute_force(s).delta
        npt.assert_allclose(after, before, rtol=1e-12)


class TestWallKinematics:
    """Wall rows: the partner is a frozen ghost body."""

    floor = Wall(np.zeros(3), np.array([0.0, 0.0, 1.0]))

    def test_overlap(self):
        s = ParticleSystem([[0, 0, 0.45]], walls=[self.floor])
        rows = detect_contacts_brute_force(s)
        assert rows.n_wall == 1 and rows.j[0] == s.n  # the ghost of wall 0
        assert rows.delta[0] == pytest.approx(0.05)
        npt.assert_array_equal(rows.normal, [[0, 0, 1]])

    def test_separation(self):
        s = ParticleSystem([[0, 0, 0.6]], walls=[self.floor])
        assert len(detect_contacts_brute_force(s)) == 0

    def test_effective_mass_is_infinite_mass_limit(self):
        # m_eff against a wall equals the m_j -> infinity limit of the
        # two-body reduced mass; confirm with m_j = 1e6.
        s = ParticleSystem([[0, 0, 0.45]], walls=[self.floor])
        m_wall = detect_contacts_brute_force(s).m_eff[0]
        assert m_wall == pytest.approx(1.0)
        heavy = ParticleSystem([[0, 0, 0.45], [0, 0, -0.5]], m=[1.0, 1e6])
        m_pair = detect_contacts_brute_force(heavy).m_eff[0]
        assert m_pair == pytest.approx(m_wall, rel=2e-6)

    def test_velocity_is_particle_velocity(self):
        s = ParticleSystem([[0, 0, 0.45]], [[0.3, 0.2, -1.0]], walls=[self.floor])
        v_rel, _, _ = detect_contacts_brute_force(s).split_velocity(stacked_velocity(s))
        npt.assert_array_equal(v_rel, [[0.3, 0.2, -1.0]])

    def test_unit_normal_enforced(self):
        with pytest.raises(ValueError):
            Wall(np.zeros(3), np.array([0.0, 0.0, 1.5]))


class TestBonds:
    def test_touching_pair_bonded(self):
        bonds = create_bonds(two_particles(1.0), k_bond=10.0)
        assert [(b.i, b.j) for b in bonds] == [(0, 1)]

    def test_far_pair_not_bonded(self):
        assert create_bonds(two_particles(1.5), k_bond=10.0) == []

    def test_chain_of_three(self):
        s = ParticleSystem([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        bonds = create_bonds(s, k_bond=10.0)
        assert [(b.i, b.j) for b in bonds] == [(0, 1), (1, 2)]

    @pytest.mark.parametrize("threshold", [None, 0.05])
    def test_matches_brute_force_loop(self, threshold):
        # a random cloud plus pairs placed just inside and just outside
        # the threshold on both sides of contact
        rng = np.random.default_rng(3)
        thresh = 0.01 if threshold is None else threshold
        pos = list(rng.uniform(0.0, 6.0, (60, 3)))
        for k, gap in enumerate((0.99, -0.99, 1.01, -1.01)):
            base = np.array([20.0 + 3.0 * k, 0.0, 0.0])
            pos += [base, base + [1.0 + gap * thresh, 0.0, 0.0]]
        s = ParticleSystem(pos)
        want = [(i, j) for i in range(s.n) for j in range(i + 1, s.n)
                if abs(1.0 - np.linalg.norm(s.pos[i] - s.pos[j])) < thresh]
        got = create_bonds(s, threshold=threshold, k_bond=2.0)
        assert [(b.i, b.j) for b in got] == want
        assert (60, 61) in want and (62, 63) in want
        assert (64, 65) not in want and (66, 67) not in want
        assert all(b.k_bond == 2.0 for b in got)


class TestDetectContacts:
    def test_separated_unbonded_empty(self):
        s = two_particles(1.4)
        contacts = detect_contacts(s, NeighborList.build(s))
        assert len(contacts) == 0

    def test_bond_active_when_separated(self):
        s = two_particles(1.2)
        s.bonds = [Bond(0, 1, 5.0)]
        contacts = detect_contacts(s, NeighborList.build(s))
        assert contacts.n_pp == 0 and contacts.n_bond == 1
        assert contacts.delta[0] == pytest.approx(-0.2)
        assert contacts.k[0] == 5.0

    def test_wall_overlap_detected(self):
        wall = Wall(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        s = ParticleSystem([[0, 0, 0.45]], walls=[wall])
        contacts = detect_contacts(s, NeighborList.build(s))
        assert contacts.n_wall == 1
        assert contacts.delta[contacts.wall][0] == pytest.approx(0.05)

    def test_bonded_pair_excluded_from_hookean(self):
        s = two_particles(0.9)
        s.bonds = [Bond(0, 1, 5.0)]
        contacts = detect_contacts(s, NeighborList.build(s))
        assert contacts.n_pp == 0 and contacts.n_bond == 1
        assert contacts.delta[0] == pytest.approx(0.1)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force_after_drift(self, seed):
        s = random_system(seed, n=8, walls=True)
        s.walls.append(TILTED)
        nl = NeighborList.build(s)
        rng = np.random.default_rng(seed + 1000)
        # move everything by strictly less than skin/2
        s.pos += rng.uniform(-1, 1, s.pos.shape) * (0.49 * nl.skin / np.sqrt(3))
        got = detect_contacts(s, nl)
        want = detect_contacts_brute_force(s)
        assert got.signature() == want.signature()
        npt.assert_allclose(got.delta, want.delta, rtol=0, atol=ROUNDOFF)

    @pytest.mark.parametrize("wall", [Wall(np.zeros(3), np.array([0.0, 0.0, 1.0])),
                                      TILTED], ids=["axis", "tilted"])
    def test_wall_candidate_reached_within_the_guard(self, wall):
        # a particle d/2 + 0.45 skin from the wall is a candidate, not a
        # contact; 0.49 skin toward the wall it touches, and the list is valid
        s = ParticleSystem([[0.0, 0.0, 0.0]], walls=[wall])
        skin = 0.3
        s.pos[0] = wall.point + (0.5 + 0.45 * skin) * wall.normal
        nl = NeighborList.build(s, skin=skin)
        assert detect_contacts(s, nl).n_wall == 0
        s.pos[0] -= 0.49 * skin * wall.normal
        got = detect_contacts(s, nl)
        want = detect_contacts_brute_force(s)
        assert got.signature() == want.signature() == (0, (0,), (1,))
        npt.assert_allclose(got.delta, want.delta, rtol=0, atol=ROUNDOFF)
        npt.assert_allclose(got.delta, [0.04 * skin], rtol=0, atol=ROUNDOFF)
