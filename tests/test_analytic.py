import numpy as np
import numpy.testing as npt
import pytest

from vigrain import (ImpactParams, collision_times, contact_phase_duration,
                     contact_phase_position, contact_phase_velocity,
                     exit_speed, impact_position, impact_velocity,
                     impact_velocity_consistent)


def rk4(ode, y0, t_end, n_steps):
    """Plain fixed-step RK4; the independent integration oracle."""
    y = np.asarray(y0, dtype=float)
    h = t_end / n_steps
    t = 0.0
    for _ in range(n_steps):
        k1 = ode(t, y)
        k2 = ode(t + h / 2, y + h / 2 * k1)
        k3 = ode(t + h / 2, y + h / 2 * k2)
        k4 = ode(t + h, y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return y


class TestPublishedForms:
    def test_onset_position(self):
        p = ImpactParams(gamma=30.0)
        assert impact_position(0.0, p) == pytest.approx(0.5)

    def test_elastic_returns_to_touching(self):
        p = ImpactParams(gamma=0.0)
        t_c = np.pi * np.sqrt(p.m / (2 * p.k_n))
        assert impact_position(t_c, p) == pytest.approx(0.5, abs=1e-12)

    def test_unit_parameter_substitution(self):
        p = ImpactParams(d=1.0, m=1.0, k_n=1.0, gamma=0.0, v=1.0)
        t_c = np.pi / np.sqrt(2.0)
        x = impact_position(t_c / 2, p)
        assert x == pytest.approx(0.5 - 1.0 / np.sqrt(2.0))

    def test_onset_velocity(self):
        p = ImpactParams(gamma=30.0, v=0.7)
        assert impact_velocity(0.0, p) == pytest.approx(-0.7)

    def test_elastic_velocity_reversal(self):
        p = ImpactParams(gamma=0.0, v=1.0)
        t_c = np.pi * np.sqrt(p.m / (2 * p.k_n))
        assert impact_velocity(t_c, p) == pytest.approx(1.0, abs=1e-12)

    def test_overdamped_rejected(self):
        with pytest.raises(ValueError):
            ImpactParams(k_n=1.0, gamma=10.0)


class TestCollisionTimes:
    def test_approach_time(self):
        p = ImpactParams(d=1.0, v=0.5, k_n=100.0)
        t_a, _, _ = collision_times(p)
        assert t_a == pytest.approx(1.0)

    def test_contact_duration(self):
        p = ImpactParams(m=1.0, k_n=1.0, v=1.0)
        _, t_c, _ = collision_times(p)
        assert t_c == pytest.approx(np.pi / np.sqrt(2.0))

    def test_t_gamma_undamped(self):
        p = ImpactParams(m=1.0, k_n=1.0, gamma=0.0)
        _, _, t_g = collision_times(p)
        assert t_g == pytest.approx(1.0 / np.sqrt(2.0))

    def test_rejects_nonpositive_speed(self):
        with pytest.raises(ValueError, match="^v must"):
            ImpactParams(v=0.0)


@pytest.mark.parametrize("field, bad", [
    (field, bad) for field in ("d", "m", "k_n", "v")
    for bad in (np.nan, np.inf, -np.inf, 0.0, -1.0)] + [
    ("gamma", bad) for bad in (np.nan, np.inf, -np.inf, -5.0)])
def test_impact_params_reject_bad_field(field, bad):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        ImpactParams(**{field: bad})


class TestConsistency:
    def test_dxdt_matches_consistent_velocity(self):
        p = ImpactParams(gamma=30.0)
        t_c = np.pi * np.sqrt(p.m / (2 * p.k_n))
        eps = 1e-9
        for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
            t = frac * t_c
            fd = (impact_position(t + eps, p) - impact_position(t - eps, p)) / (2 * eps)
            v = impact_velocity_consistent(t, p)
            assert fd == pytest.approx(v, rel=1e-6)

    def test_published_velocity_prefactor_differs_when_damped(self):
        # the printed gamma^2/m coefficient is not d/dt of the printed x(t)
        p = ImpactParams(gamma=30.0)
        t = 0.4 * np.pi * np.sqrt(p.m / (2 * p.k_n))
        assert impact_velocity(t, p) != pytest.approx(
            impact_velocity_consistent(t, p), rel=1e-6)

    def test_forms_agree_undamped(self):
        p = ImpactParams(gamma=0.0)
        t_c = np.pi * np.sqrt(p.m / (2 * p.k_n))
        for frac in (0.2, 0.5, 0.8):
            assert impact_velocity(frac * t_c, p) == pytest.approx(
                impact_velocity_consistent(frac * t_c, p), rel=1e-12)

    def test_published_x_ode_oracle(self):
        # the printed x(t) solves y'' + 2(g/m) y' + (1/t_g^2 + g^2/m^2) y = 0;
        # integrate that ODE with RK4 and compare position and the
        # dx/dt-consistent velocity
        p = ImpactParams(gamma=30.0)
        t_c = np.pi * np.sqrt(p.m / (2 * p.k_n))
        om2 = 1.0 / p.t_gamma ** 2 + (p.gamma / p.m) ** 2

        def ode(t, y):
            return np.array([y[1], -2.0 * (p.gamma / p.m) * y[1] - om2 * y[0]])

        for frac in (0.25, 0.6, 1.0):
            t_end = frac * t_c
            y = rk4(ode, [0.0, -p.v], t_end, 4000)
            assert impact_position(t_end, p) == pytest.approx(0.5 + y[0], abs=1e-10)
            assert impact_velocity_consistent(t_end, p) == pytest.approx(
                y[1], abs=1e-8)


class TestModelConsistentOracle:
    def test_matches_rk4_of_pair_reduction(self):
        # m y'' = -2 k y - 2 gamma_n m_eff y'
        p = ImpactParams(gamma=30.0, v=1.0)
        c = 2.0 * p.gamma_n * p.m_eff / p.m
        w2 = 2.0 * p.k_n / p.m

        def ode(t, y):
            return np.array([y[1], -w2 * y[0] - c * y[1]])

        dur = contact_phase_duration(p)
        for frac in (0.3, 0.7, 1.0):
            t_end = frac * dur
            y = rk4(ode, [0.0, -p.v], t_end, 4000)
            assert contact_phase_position(t_end, p) == pytest.approx(
                0.5 + y[0], abs=1e-10)
            assert contact_phase_velocity(t_end, p) == pytest.approx(
                y[1], abs=1e-8)

    def test_damped_collision_loses_speed(self):
        p = ImpactParams(gamma=30.0, v=1.0)
        assert abs(contact_phase_velocity(contact_phase_duration(p), p)) < p.v
        assert exit_speed(p) < p.v

    def test_elastic_exit_speed_exact(self):
        p = ImpactParams(gamma=0.0, v=1.0)
        assert exit_speed(p) == pytest.approx(1.0, abs=1e-12)
        assert abs(abs(contact_phase_velocity(contact_phase_duration(p), p))
                   - 1.0) < 1e-12

    def test_duration_equals_published_when_undamped(self):
        p = ImpactParams(gamma=0.0)
        _, t_c, _ = collision_times(p)
        assert contact_phase_duration(p) == pytest.approx(t_c, rel=1e-14)
