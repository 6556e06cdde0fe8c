import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vigrain import (ContactParams, ParticleSystem, Wall, build_box,
                     detect_contacts_brute_force, ensemble_stats,
                     kinetic_energy, total_energy, total_momentum,
                     velocity_fluctuation, mean_kinetic)

from conftest import random_system

UNDAMPED = ContactParams(k_n=195000.0)


class TestParticleKinetic:
    """kinetic_energy of a single particle: (1/2 m v^2, 1/2 I w^2)."""

    def test_at_rest(self):
        s = ParticleSystem([[0, 0, 0]])
        assert kinetic_energy(s) == (0.0, 0.0)

    def test_translational(self):
        s = ParticleSystem([[0, 0, 0]], [[1, 0, 0]], m=2.0)
        k_t, k_r = kinetic_energy(s)
        assert k_t == pytest.approx(1.0) and k_r == 0.0

    def test_rotational(self):
        s = ParticleSystem([[0, 0, 0]], omega=[[0, 0, 3.0]], m=1.0, d=1.0)
        k_t, k_r = kinetic_energy(s)
        assert k_t == 0.0 and k_r == pytest.approx(0.45)


class TestEnsembleStats:
    def test_all_at_rest(self):
        s = ParticleSystem([[0, 0, 0], [2, 0, 0]])
        stats = ensemble_stats(s)
        assert stats.kbar == 0.0 and stats.dv == 0.0

    def test_uniform_motion_no_fluctuation(self):
        u = np.array([0.3, -0.4, 0.5])
        s = ParticleSystem([[0, 0, 0], [2, 0, 0], [4, 0, 0]],
                           np.tile(u, (3, 1)))
        stats = ensemble_stats(s)
        assert stats.dv == pytest.approx(0.0, abs=1e-15)
        assert stats.kbar == pytest.approx(0.5 * u @ u)

    def test_two_particle_counterflow(self):
        s = ParticleSystem([[0, 0, 0], [2, 0, 0]],
                           [[1, 0, 0], [-1, 0, 0]])
        stats = ensemble_stats(s)
        assert stats.kbar == pytest.approx(0.5)
        assert stats.dv == pytest.approx(1.0 / 3.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 5000),
           st.tuples(st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50)))
    def test_fluctuation_galilean_invariant(self, seed, boost):
        s = random_system(seed, n=5)
        before = velocity_fluctuation(s)
        s.vel += np.array(boost)
        after = velocity_fluctuation(s)
        npt.assert_allclose(after, before, rtol=1e-12, atol=1e-12 * (1 + abs(max(boost) ** 2)))

    def test_kbar_scales_quadratically(self):
        s = random_system(77, n=6)
        k1 = mean_kinetic(s)
        s.vel *= 3.0
        s.omega *= 3.0
        assert mean_kinetic(s) == pytest.approx(9.0 * k1, rel=1e-12)


class TestTotalEnergy:
    def test_free_particle(self):
        s = ParticleSystem([[0, 0, 0]], [[1, 0, 0]])
        contacts = detect_contacts_brute_force(s)
        assert total_energy(s, contacts, UNDAMPED) == pytest.approx(0.5)

    def test_wall_overlap_at_rest(self):
        wall = Wall(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        s = ParticleSystem([[0, 0, 0.46]], walls=[wall])
        contacts = detect_contacts_brute_force(s)
        delta = 0.5 - 0.46
        assert total_energy(s, contacts, UNDAMPED) == pytest.approx(
            0.5 * UNDAMPED.k_n * delta ** 2)

    def test_contact_energy_is_the_springs_sum(self):
        # a box whose layers each sink 0.0045 d more than the one below:
        # V_contact is 0.5 sum k delta^2 itself, not the potential less a
        # gravity term a hundred times larger
        system, spec = build_box(n_particles=218)
        layer = np.round((system.pos[:, 2] - 0.5) / (np.sqrt(0.5) + 0.004))
        system.pos[:, 2] -= 0.0045 * (layer + 1)
        contacts = detect_contacts_brute_force(system)
        params = spec.contact_params()
        assert contacts.n_pp > 0 and contacts.n_wall > 0
        stats = ensemble_stats(system, contacts, params)
        k = contacts.stiffness(params.k_n)
        assert stats.potential_contact == 0.5 * float(np.sum(k * contacts.delta ** 2))
        assert stats.total_energy == (stats.kinetic_trans + stats.kinetic_rot
                                      + stats.potential_contact
                                      + stats.potential_gravity)

    def test_gravity_included_when_on(self):
        s = ParticleSystem([[0, 0, 3.0]], [[1, 0, 0]], gravity=1.0)
        contacts = detect_contacts_brute_force(s)
        assert total_energy(s, contacts, UNDAMPED) == pytest.approx(0.5 + 3.0)

    def test_momentum_total(self):
        s = ParticleSystem([[0, 0, 0], [2, 0, 0]],
                           [[1, 2, 3], [4, 5, 6]], m=2.0)
        npt.assert_allclose(total_momentum(s), [10.0, 14.0, 18.0])
