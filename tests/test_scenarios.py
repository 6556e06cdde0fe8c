import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from vigrain import (ContactParams, VIConfig, VIIntegrator, build_bonded,
                     build_box, build_impact, build_walls,
                     detect_contacts_brute_force, pack_state,
                     quasi_static_solve)
from vigrain.forces import STIFFNESS_RATIO, contact_time

T_C = contact_time(STIFFNESS_RATIO)


class TestImpact:
    def test_contact_begins_at_t_a(self):
        system, spec = build_impact(0.0, 30.0, 1.0)
        t_a = 0.5  # d / 2v
        params = spec.contact_params()
        integ = VIIntegrator(system, params, VIConfig(h=spec.h, alpha=0.5))
        state = pack_state(system)
        t_first = None
        while state.t < t_a + 5 * spec.h:
            state, report = integ.step(state)
            if report.n_contacts > 0 and t_first is None:
                t_first = state.t
        assert t_first == pytest.approx(t_a, abs=2 * spec.h)

    def test_offset_configuration(self):
        system, spec = build_impact(0.1, 30.0, 1.0)
        assert system.pos[0, 1] == pytest.approx(0.05)
        assert system.pos[1, 1] == pytest.approx(-0.05)
        assert spec.gamma == 30.0

    def test_elastic_exit_speeds(self):
        system, spec = build_impact(0.0, 0.0, 1.0)
        params = spec.contact_params()
        integ = VIIntegrator(system, params, VIConfig(h=spec.h, alpha=0.5))
        state = pack_state(system)
        for _ in range(int((1.0 + 2 * T_C) / spec.h)):
            state, _ = integ.step(state)
        v = state.p.reshape(2, 6)[:, 0]
        npt.assert_allclose(np.abs(v), 1.0, rtol=2e-4)
        assert v[0] > 0 and v[1] < 0  # rebounded

    def test_rejects_negative_offset(self):
        with pytest.raises(ValueError):
            build_impact(-0.1, 30.0, 1.0)


class TestWalls:
    def test_default_geometry(self):
        system, spec = build_walls(1.01, 1.0)
        assert len(system.walls) == 2
        assert spec.max_collisions == 250
        assert spec.gamma == 0.0
        contacts = detect_contacts_brute_force(system)
        assert len(contacts) == 0  # starts centered, out of contact

    def test_flight_time_wide_gap(self):
        system, spec = build_walls(2.0, 1.0)
        # free flight from center to first wall contact covers
        # (gap - d) / 2 at speed v
        params = spec.contact_params()
        integ = VIIntegrator(system, params, VIConfig(h=spec.h, alpha=0.5))
        state = pack_state(system)
        expect = (2.0 - 1.0) / 2.0
        t_first = None
        while t_first is None:
            state, report = integ.step(state)
            if report.n_contacts:
                t_first = state.t
        assert t_first == pytest.approx(expect, abs=2 * spec.h)

    def test_rejects_closed_gap(self):
        with pytest.raises(ValueError):
            build_walls(0.99, 1.0)


class TestBonded:
    def test_bond_created_by_proximity_rule(self):
        system, spec = build_bonded(19500.0, 1.0)
        assert len(system.bonds) == 1
        assert (system.bonds[0].i, system.bonds[0].j) == (1, 2)
        assert system.bonds[0].k_bond == pytest.approx(19500.0)

    def test_free_particle_not_bonded(self):
        system, _ = build_bonded(19500.0, 1.0)
        bonded_ids = {system.bonds[0].i, system.bonds[0].j}
        assert 0 not in bonded_ids

    def test_same_initial_velocity_for_pair(self):
        system, _ = build_bonded(19500.0, 1.0)
        npt.assert_array_equal(system.vel[1], system.vel[2])
        npt.assert_array_equal(system.vel[0], [-1.0, 0, 0])


class TestBox:
    def test_paper_scale_configuration(self):
        system, spec = build_box(218, 6.0, seed=3)
        assert system.n == 218
        assert len(system.walls) == 6
        assert system.gravity == 1.0
        # no initial interpenetration
        contacts = detect_contacts_brute_force(system)
        assert contacts.n_pp == 0 and contacts.n_wall == 0

    def test_deterministic_seeding(self):
        a, _ = build_box(50, 6.0, seed=11)
        b, _ = build_box(50, 6.0, seed=11)
        npt.assert_array_equal(a.pos, b.pos)
        c, _ = build_box(50, 6.0, seed=12)
        assert np.any(c.pos != a.pos)

    def test_single_particle_settles_at_force_balance(self):
        system, spec = build_box(1, 6.0, seed=0, gamma=400.0)
        params = spec.contact_params()
        cfg = VIConfig(h=spec.h, alpha=0.0)
        integ = VIIntegrator(system, params, cfg)
        state = pack_state(system)
        for _ in range(int(6.0 / spec.h)):
            state, _ = integ.step(state)
        q_eq, _ = quasi_static_solve(state.q, system, params)
        delta = 0.5 - q_eq[2]
        assert delta == pytest.approx(1.0 / STIFFNESS_RATIO, rel=1e-6)

    def test_infeasible_packing_rejected(self):
        with pytest.raises(ValueError):
            build_box(10_000_000, 6.0, seed=0)

    @pytest.mark.parametrize("box_size", [np.inf, -np.inf, np.nan])
    def test_non_finite_box_size_rejected(self, box_size):
        with pytest.raises(ValueError, match="integer number of diameters"):
            build_box(8, box_size)


def test_parameter_conventions():
    # k d / (m g) = 195000, gamma_t = gamma_n / 2, no tangential spring
    _, spec = build_impact(0.0, 30.0, 1.0)
    params = spec.contact_params()
    assert params.k_n == pytest.approx(195000.0)
    assert params.gamma_t == pytest.approx(params.gamma_n / 2)
    assert params.gamma_n == pytest.approx(30.0 * 0.5)


@pytest.mark.parametrize("box_size", [1000.0, 1e30])
def test_box_builder_memory_follows_n_not_box_size(box_size):
    # only the placed sites are generated, not the full layers
    tracemalloc.start()
    try:
        system, _ = build_box(8, box_size, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    npt.assert_array_equal(system.pos[:, :2], [[0.5 + i, 0.5] for i in range(8)])
