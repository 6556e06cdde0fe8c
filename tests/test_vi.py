import inspect

import numpy as np
import numpy.testing as npt
import pytest

from vigrain import (ContactParams, GeneralizedState, NonFiniteStateError,
                     ParticleSystem, StepFailureError, VIConfig, VIIntegrator,
                     Wall, assemble_mass_matrix, build_box, build_impact,
                     contact, discrete_lagrangian, implicit_position_solve,
                     linsolve, momentum_update, pack_state, quasi_static_solve,
                     residual, run_simulation, stiffness, unpack_state, vi,
                     vi_step)
from vigrain.analytic import (ImpactParams, contact_phase_velocity,
                              collision_times)
from vigrain import forces
from vigrain.forces import STIFFNESS_RATIO, contact_time, nonconservative_force
from vigrain.contact import detect_contacts_brute_force

from conftest import count_calls, dense, fd_gradient, random_system

K_N = 195000.0
T_C = contact_time(K_N)
UNDAMPED = ContactParams(k_n=K_N)


def free_particle(v=(1.0, 0.0, 0.0)):
    return ParticleSystem([[0, 0, 0]], [list(v)])


class TestDiscreteLagrangian:
    def test_zero_displacement_no_potential(self):
        s = free_particle()
        cfg = VIConfig(h=0.01, alpha=0.0)
        q = pack_state(s).q
        assert discrete_lagrangian(q, q, cfg, s, UNDAMPED) == pytest.approx(0.0)

    def test_free_kinetic_term(self):
        s = free_particle()
        h = 0.01
        cfg = VIConfig(h=h, alpha=0.0)
        q = pack_state(s).q
        q1 = q.copy(); q1[0] += h
        # (1/2h) (h)^2 m = h/2 for unit discrete velocity
        assert discrete_lagrangian(q, q1, cfg, s, UNDAMPED) == pytest.approx(h / 2)

    def test_alpha_only_moves_potential_point(self):
        # constant potential (single particle under gravity, no contacts):
        # alpha = 0 and 1/2 differ only through V's evaluation point,
        # and gravity is linear so midpoint vs left endpoint differ by
        # the known offset
        s = ParticleSystem([[0, 0, 2.0]], gravity=1.0)
        h = 0.01
        q = pack_state(s).q
        q1 = q.copy(); q1[2] += 0.3
        l0 = discrete_lagrangian(q, q1, VIConfig(h=h, alpha=0.0), s, UNDAMPED)
        l_half = discrete_lagrangian(q, q1, VIConfig(h=h, alpha=0.5), s, UNDAMPED)
        assert l0 - l_half == pytest.approx(h * 0.5 * 0.3)  # h * (V_mid - V_0)


class TestResidual:
    def test_free_flight_guess_is_exact(self):
        s = free_particle()
        cfg = VIConfig(h=0.01, alpha=0.5)
        state = pack_state(s)
        mass = assemble_mass_matrix(s)
        guess = state.q + cfg.h * mass.solve(state.p)
        r = residual(state.q, guess, state.p, cfg, s, UNDAMPED)
        npt.assert_array_equal(r, 0.0)

    def test_gravity_alpha0(self):
        s = ParticleSystem([[0, 0, 5.0]], gravity=1.0)
        cfg = VIConfig(h=0.01, alpha=0.0)
        state = pack_state(s)
        mass = assemble_mass_matrix(s)
        guess = state.q + cfg.h * mass.solve(state.p)
        r = residual(state.q, guess, state.p, cfg, s, UNDAMPED)
        npt.assert_allclose(r, [0, 0, -cfg.h * 1.0, 0, 0, 0], atol=1e-15)

    def test_matches_discrete_lagrangian_derivative(self, damped_params):
        # R = p + D1 L_d + (h/2) Q(mid) + (h/2) Q(q_k, M^-1 p); get D1 L_d
        # by central differences of the discrete Lagrangian in q_k
        s = ParticleSystem([[0.48, 0.02, 0], [-0.47, 0, 0]],
                           [[-1.0, 0.1, 0], [1.0, 0, 0]])
        cfg = VIConfig(h=T_C / 60, alpha=0.5)
        state = pack_state(s)
        mass = assemble_mass_matrix(s)
        q_k = state.q
        q_k1 = q_k + cfg.h * mass.solve(state.p) * 0.9

        d1 = fd_gradient(
            lambda qk: discrete_lagrangian(qk, q_k1, cfg, s, damped_params),
            q_k, 1e-7)

        q_mid = 0.5 * (q_k + q_k1)
        work = s.copy()
        work.pos[:] = q_mid.reshape(-1, 6)[:, :3]
        s_mid = detect_contacts_brute_force(work)
        assert len(s_mid) > 0
        q_minus = nonconservative_force(work, s_mid, (q_k1 - q_k) / cfg.h,
                                        damped_params)
        work.pos[:] = q_k.reshape(-1, 6)[:, :3]
        s_k = detect_contacts_brute_force(work)
        q_plus = nonconservative_force(work, s_k, mass.solve(state.p),
                                       damped_params)
        oracle = state.p + d1 + 0.5 * cfg.h * q_minus + 0.5 * cfg.h * q_plus
        got = residual(q_k, q_k1, state.p, cfg, s, damped_params)
        scale = max(1.0, np.max(np.abs(oracle)))
        npt.assert_allclose(got, oracle, atol=1e-6 * scale)


class TestStiffness:
    def test_no_contacts_is_minus_mass_over_h(self):
        s = free_particle()
        cfg = VIConfig(h=0.02, alpha=0.5)
        q = pack_state(s).q
        k_op = stiffness(q, q, cfg, s, UNDAMPED)
        mass = assemble_mass_matrix(s)
        npt.assert_allclose(dense(k_op), -np.diag(mass.diag) / cfg.h)

    def test_normal_damped_offdiag_block(self):
        params = ContactParams(k_n=K_N, gamma_n=15.0, gamma_t=0.0)
        s = ParticleSystem([[0.45, 0, 0], [-0.45, 0, 0]])
        cfg = VIConfig(h=0.01, alpha=0.0)
        q = pack_state(s).q
        k_dense = dense(stiffness(q, q, cfg, s, params))
        proj = np.zeros((3, 3)); proj[0, 0] = 1.0
        npt.assert_allclose(k_dense[:3, 6:9], 0.5 * 15.0 * 0.5 * proj, atol=1e-12)

    def test_symmetric(self, damped_params):
        s = random_system(17, n=4, walls=True, bonds=True)
        cfg = VIConfig(h=T_C / 40, alpha=0.5)
        state = pack_state(s)
        mass = assemble_mass_matrix(s)
        guess = state.q + cfg.h * mass.solve(state.p)
        k_dense = dense(stiffness(state.q, guess, cfg, s, damped_params))
        npt.assert_allclose(k_dense, k_dense.T,
                            atol=1e-12 * (1 + np.abs(k_dense).max()))


class TestImplicitSolve:
    def test_free_flight_accepts_initial_guess(self):
        s = free_particle()
        cfg = VIConfig(h=0.01, alpha=0.5)
        state = pack_state(s)
        q1, report = implicit_position_solve(state.q, state.p, cfg, s, UNDAMPED)
        mass = assemble_mass_matrix(s)
        npt.assert_allclose(q1, state.q + cfg.h * mass.solve(state.p))
        assert report.newton_iters <= 1

    def test_gravity_alpha0_hand_solved(self):
        # linear problem: q1 = q + h M^-1 p - h^2 M^-1 grad V(q_k)
        s = ParticleSystem([[0, 0, 5.0]], [[0.3, 0, 0]], gravity=1.0)
        cfg = VIConfig(h=0.01, alpha=0.0)
        state = pack_state(s)
        mass = assemble_mass_matrix(s)
        q1, _ = implicit_position_solve(state.q, state.p, cfg, s, UNDAMPED)
        grad = np.array([0, 0, 1.0, 0, 0, 0])
        oracle = state.q + cfg.h * mass.solve(state.p) \
            - cfg.h ** 2 * mass.solve(grad)
        npt.assert_allclose(q1, oracle, atol=1e-14)

    def test_newton_failure_signal(self, damped_params, monkeypatch):
        monkeypatch.setattr(vi, "NEWTON_MAX", 0)
        system, _ = build_impact(0.0, 30.0, 1.0)
        cfg = VIConfig(h=T_C / 20, alpha=0.5)
        state = pack_state(system)
        # march into contact, then ask for a step with no Newton budget
        state.q[0] -= 0.52
        state.q[6] += 0.52
        with pytest.raises(StepFailureError):
            implicit_position_solve(state.q, state.p, cfg, system, damped_params)


class TestMomentumUpdate:
    def test_alpha0_identity(self):
        s = random_system(8, n=3)
        cfg = VIConfig(h=0.004, alpha=0.0)
        state = pack_state(s)
        rng = np.random.default_rng(0)
        q1 = state.q + 0.004 * rng.normal(size=state.q.size)
        mass = assemble_mass_matrix(s)
        p = momentum_update(state.q, q1, cfg, s, UNDAMPED)
        npt.assert_array_equal(p, mass.matvec(q1 - state.q) / cfg.h)

    def test_alpha_half_gravity_row(self):
        s = ParticleSystem([[0, 0, 5.0]], gravity=1.0)
        cfg = VIConfig(h=0.01, alpha=0.5)
        q = pack_state(s).q
        q1 = q.copy(); q1[2] -= 0.002
        p = momentum_update(q, q1, cfg, s, UNDAMPED)
        assert p[2] == pytest.approx((1 / cfg.h) * (-0.002) - 0.5 * cfg.h * 1.0)


class TestVIStep:
    def test_free_flight_trajectory_exact(self):
        s = free_particle(v=(0.7, -0.2, 0.1))
        cfg = VIConfig(h=0.01, alpha=0.5)
        integ = VIIntegrator(s, UNDAMPED, cfg)
        state = pack_state(s)
        for _ in range(100):
            state, report = integ.step(state)
        npt.assert_allclose(state.q[:3], np.array([0.7, -0.2, 0.1]) * state.t,
                            atol=1e-12)
        npt.assert_allclose(state.p[:3], [0.7, -0.2, 0.1], atol=1e-14)

    @pytest.mark.parametrize("gamma", [0.0, 30.0])
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_momentum_conserved_through_collision(self, gamma, alpha):
        system, _ = build_impact(0.0, gamma, 1.0)
        params = ContactParams.from_damping_ratio(gamma, 1.0)
        cfg = VIConfig(h=T_C / 40, alpha=alpha)
        integ = VIIntegrator(system, params, cfg)
        state = pack_state(system)
        p0 = state.p.reshape(-1, 6)[:, :3].sum(axis=0)
        n_steps = int((1.0 + 2 * T_C) / cfg.h)
        for _ in range(n_steps):
            state, _ = integ.step(state)
            p_tot = state.p.reshape(-1, 6)[:, :3].sum(axis=0)
            npt.assert_allclose(p_tot, p0, atol=1e-10)

    def test_gravity_projectile_alpha_half_exact(self):
        s = ParticleSystem([[0, 0, 10.0]], [[1.0, 0, 2.0]], gravity=1.0)
        cfg = VIConfig(h=0.02, alpha=0.5)
        integ = VIIntegrator(s, UNDAMPED, cfg)
        state = pack_state(s)
        for _ in range(200):
            state, _ = integ.step(state)
        t = state.t
        npt.assert_allclose(state.q[2], 10.0 + 2.0 * t - 0.5 * t * t, atol=1e-10)
        npt.assert_allclose(state.p[2], 2.0 - t, atol=1e-11)

    def test_accepted_step_residual_bound(self, damped_params):
        system, _ = build_impact(0.0, 30.0, 1.0)
        cfg = VIConfig(h=T_C / 40, alpha=0.5)
        integ = VIIntegrator(system, damped_params, cfg)
        state = pack_state(system)
        state.q[0] -= 0.45; state.q[6] += 0.45  # start just before contact
        for _ in range(60):
            prev = state
            state, report = integ.step(state)
            r = residual(prev.q, state.q, prev.p, cfg, system, damped_params)
            fscale = max(np.max(np.abs(prev.p)) / cfg.h, K_N * 0.01)
            assert np.max(np.abs(r)) <= 1e-8 * cfg.h * fscale

    def test_non_finite_momentum_fails_at_once(self, damped_params):
        system, _ = build_impact(0.0, 30.0, 1.0)
        integ = VIIntegrator(system, damped_params, VIConfig(h=T_C / 40))
        state = pack_state(system)
        state.p[0] = np.nan
        with pytest.raises(NonFiniteStateError) as info:
            integ.step(state)
        assert info.value.iterations == 0

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("field, index, bad, blamed", [
        ("q", 3, np.nan, "particle 0 has a non-finite q"),
        ("p", 8, np.inf, "particle 1 has a non-finite p")])
    def test_non_finite_input_is_named_at_entry(self, damped_params, alpha,
                                                field, index, bad, blamed):
        system, _ = build_impact(0.0, 30.0, 1.0)
        integ = VIIntegrator(system, damped_params, VIConfig(h=T_C / 40, alpha=alpha))
        state = pack_state(system)
        getattr(state, field)[index] = bad
        with pytest.raises(NonFiniteStateError,
                           match=rf"^input of VI step 0 \(t = 0\): {blamed}$"):
            integ.step(state)


def pressed_box():
    """A damped 18-particle box whose layers start pressed together."""
    system, spec = build_box(n_particles=18, box_size=3)
    system.pos[:, 2] -= 0.0045  # the bottom layer into the floor
    system.vel[:, 2] = -0.5
    return system, spec.contact_params(), VIConfig(h=spec.h, alpha=0.0)


def forced_correction(q_k, p_k, q_next, cfg, system, params, r=None):
    """The Newton correction a further solve would make at an accepted
    iterate, and the bound |r|_2 h / min(diag M) the stepper uses; r
    defaults to a fresh evaluation of the residual there."""
    if r is None:
        r = residual(q_k, q_next, p_k, cfg, system, params)
    neg_k = stiffness(q_k, q_next, cfg, system, params).affine(-1.0)
    dq, _, _ = linsolve.cg_solve(neg_k, r, tol=vi.CG_TOL, jacobi=True)
    bound = np.linalg.norm(r) * cfg.h / assemble_mass_matrix(system).diag.min()
    return float(np.max(np.abs(dq))), bound


class TestNewtonAcceptance:
    def test_frozen_contacts_take_one_correction(self):
        system, params, cfg = pressed_box()
        integ = VIIntegrator(system, params, cfg)
        state = pack_state(system)
        for _ in range(30):
            prev = state
            state, report = integ.step(state)
            assert report.n_contacts > 0
            assert report.newton_iters == 1
            dq, bound = forced_correction(prev.q, prev.p, state.q, cfg,
                                          system, params)
            assert dq <= bound < vi.NEWTON_TOL * float(np.min(system.d))

    def test_second_correction_when_the_bound_fails(self, monkeypatch):
        system, params, cfg = pressed_box()
        state = pack_state(system)
        solves = spy_cg(monkeypatch)
        q1, report = implicit_position_solve(state.q, state.p, cfg, system, params)
        assert report.newton_iters == 1
        # the stepper tests the residual CG handed back with the correction
        dq, bound = forced_correction(state.q, state.p, q1, cfg, system, params,
                                      r=solves[-1][2])
        assert dq < bound
        # a tolerance the bound misses but the next correction meets
        monkeypatch.setattr(vi, "NEWTON_TOL", np.sqrt(dq * bound))
        solves.clear()
        _, report = implicit_position_solve(state.q, state.p, cfg, system, params)
        assert report.newton_iters == len(solves) == 2
        assert np.max(np.abs(solves[-1][0])) < vi.NEWTON_TOL * np.min(system.d)

    def test_redetecting_pass_accepts_on_the_last_correction(self, monkeypatch):
        # alpha = 1/2 re-detects contacts at every midpoint, where -K is
        # not the Jacobian, so the residual bound must not end the loop:
        # a pass that accepts after a correction made that one small
        system, _ = build_impact(0.0, 30.0, 1.0)
        params = ContactParams.from_damping_ratio(30.0, 1.0)
        cfg = VIConfig(h=T_C / 10, alpha=0.5)
        integ = VIIntegrator(system, params, cfg)
        state = pack_state(system)
        state.q[0] -= 0.49; state.q[6] += 0.49  # 20 steps before contact
        solves = spy_cg(monkeypatch)
        newton_tol = vi.NEWTON_TOL * float(np.min(system.d))
        redetecting = 0
        for _ in range(40):
            solves.clear()
            state, report = integ.step(state)
            if 0 < report.newton_iters < vi.N_FREEZE:
                redetecting += 1
                assert np.max(np.abs(solves[-1][0])) < newton_tol
        assert redetecting > 0


def spy_cg(monkeypatch):
    """Log what every cg_solve the stepper makes returns: (x, iterations, r)."""
    solves = []

    def spy(*args, **kwargs):
        solves.append(linsolve.cg_solve(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(vi, "cg_solve", spy)
    return solves


class TestContactCache:
    def test_damped_alpha0_run_detects_once_per_step(self, monkeypatch):
        system, spec = build_box(n_particles=18, box_size=3)
        system.pos[:, 2] -= 0.0045   # pressed together, as in pressed_box
        spec.alpha, spec.duration, spec.diagnostics_every = 0.0, 20 * spec.h, 1
        detect = count_calls(monkeypatch, contact, "_detect_unchecked")
        result = run_simulation(system, spec)
        assert result.steps == 20
        # each step starts from the set the runner sampled after the last one
        assert len(detect) == result.steps + 1

    @pytest.mark.parametrize("change", ["in place", "one ulp"])
    def test_changed_q_is_detected_again(self, monkeypatch, change):
        system, params, cfg = pressed_box()
        integ = VIIntegrator(system, params, cfg)
        state, _ = integ.step(pack_state(system))
        assert len(integ.contacts_at(state.q)) > 0   # cached, as by the runner
        if change == "in place":
            state.q[2] -= 1e-3
        else:
            q = state.q.copy()
            q[2] = np.nextafter(q[2], -np.inf)
            state = GeneralizedState(q=q, p=state.p, t=state.t, k=state.k)
        detect = count_calls(monkeypatch, contact, "_detect_unchecked")
        got, _ = integ.step(state)
        assert len(detect) == 1
        want, _ = VIIntegrator(system, params, cfg).step(state)
        npt.assert_array_equal(got.q, want.q)
        npt.assert_array_equal(got.p, want.p)


class TestStepWork:
    def test_steady_alpha0_step_evaluates_each_force_once(self, monkeypatch):
        system, params, cfg = pressed_box()
        integ = VIIntegrator(system, params, cfg)
        state, _ = integ.step(pack_state(system))
        calls = {name: count_calls(monkeypatch, forces, name)
                 for name in ("potential_gradient", "nonconservative_force", "dQ_dv")}
        matvecs = count_calls(monkeypatch, linsolve.BlockSparseMatrix, "matvec")
        solves = spy_cg(monkeypatch)
        prev = state
        state, report = integ.step(prev)
        assert report.newton_iters == 1 and report.n_contacts > 0
        assert {name: len(log) for name, log in calls.items()} == dict.fromkeys(calls, 1)
        assert len(solves) == 1
        assert len(matvecs) == solves[0][1] == report.cg_iters
        # the residual CG handed back is the step residual at the accepted
        # iterate; a fresh evaluation differs by its own roundoff, mostly
        # from forming q_{k+1} - q_k and M (q_{k+1} - q_k) / h
        fresh = residual(prev.q, state.q, prev.p, cfg, system, params)
        mass = assemble_mass_matrix(system).diag
        roundoff = 16 * np.finfo(float).eps * (
            np.max(mass * np.abs(state.q)) / cfg.h + np.max(np.abs(prev.p))
            + cfg.h * np.max(system.m) * system.gravity)
        npt.assert_allclose(solves[0][2], fresh, rtol=0, atol=roundoff)


class TestLargeCoordinates:
    """The step works on the displacement, so where the system sits
    changes its result only through the roundoff of storing q."""

    def shifted_run(self, shift, duration):
        system, spec = build_box(n_particles=218)
        system.pos[:, 2] += shift
        system.walls = [Wall(w.point + [0.0, 0.0, shift], w.normal)
                        for w in system.walls]
        spec.duration = duration
        result = run_simulation(system, spec)
        return result.final_system.pos - [0.0, 0.0, shift], result

    def test_moved_box_matches_the_unmoved_run(self):
        # 0.15 s = 358 steps: free fall, then the bottom layer lands
        ref, result = self.shifted_run(0.0, 0.15)
        assert result.diagnostics[-1].stats.potential_contact > 0.0   # landed
        # 0.2 % of the static overlap m g / k_n. Storing q_k + D rounds z
        # to ulp(1000) = 1.1e-13, the momentum follows the stored q, and
        # the stiff landing amplifies that to about 3e-9 at +1000 d
        static_overlap = 1.0 / STIFFNESS_RATIO
        for shift in (40.0, 1000.0):
            got, _ = self.shifted_run(shift, 0.15)
            npt.assert_allclose(got, ref, rtol=0, atol=2e-3 * static_overlap)

    def test_tall_column_at_the_default_box_size(self):
        # N = 4000 in the default 6 x 6 box stacks the particles up to z = 93
        system, spec = build_box(n_particles=4000)
        assert np.max(system.pos[:, 2]) > 90.0
        spec.duration = 3 * spec.h
        result = run_simulation(system, spec)
        assert result.steps == 3
        # every particle is in free fall: z_n = z_0 - g h^2 n (n + 1) / 2
        drop = system.pos[:, 2] - result.final_system.pos[:, 2]
        # to the roundoff of storing z near 93, once per step and once here
        npt.assert_allclose(drop, 6.0 * spec.h ** 2 * system.gravity,
                            rtol=0, atol=4 * np.spacing(100.0))


class TestStepFailure:
    def test_run_reports_the_failing_step_and_time(self, monkeypatch):
        system, spec = build_box(n_particles=18, box_size=3)
        system.pos[:, 2] -= 0.0045   # pressed together, as in pressed_box
        spec.duration = 10 * spec.h
        step = VIIntegrator.step

        def budget_gone_at_step_3(integ, state):
            if state.k == 2:
                monkeypatch.setattr(vi, "NEWTON_MAX", 0)
            return step(integ, state)

        monkeypatch.setattr(VIIntegrator, "step", budget_gone_at_step_3)
        with pytest.raises(StepFailureError) as info:
            run_simulation(system, spec)
        t = spec.h + spec.h
        assert (info.value.step, info.value.t) == (3, t)
        assert str(info.value).endswith(f"(step 3, t = {t!r})")
        assert info.value.iterations == 0


class TestSolverPath:
    def test_only_the_stepper_preconditions_cg(self, damped_params, monkeypatch):
        jacobi = {"step": [], "static": []}
        stage = "step"

        def spy(*args, **kwargs):
            bound = inspect.signature(linsolve.cg_solve).bind(*args, **kwargs)
            jacobi[stage].append(bound.arguments.get("jacobi", False))
            return linsolve.cg_solve(*args, **kwargs)

        monkeypatch.setattr(vi, "cg_solve", spy)
        system, _ = build_impact(0.0, 30.0, 1.0)
        integ = VIIntegrator(system, damped_params, VIConfig(h=T_C / 40))
        state = pack_state(system)
        state.q[0] -= 0.499; state.q[6] += 0.499  # 8 steps before contact
        for _ in range(40):
            state, _ = integ.step(state)
        stage = "static"
        floor = Wall(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        s = ParticleSystem([[0, 0, 0.45]], walls=[floor], gravity=1.0)
        quasi_static_solve(pack_state(s).q, s, UNDAMPED)
        assert jacobi["step"] and all(jacobi["step"])
        assert jacobi["static"] and not any(jacobi["static"])


class TestConvergenceOrder:
    def test_velocity_error_slopes(self):
        gamma = 1.0
        t_c = T_C
        v = 1.0 / (8.0 * t_c)  # t_A = d/2v = 4 t_c, exactly on every grid
        oracle = ImpactParams(gamma=gamma, v=v)
        t_a, _, _ = collision_times(oracle)
        slopes = {}
        for alpha in (0.0, 0.5):
            errs, hs = [], []
            for frac in (40, 80, 160, 320):
                system, _ = build_impact(0.0, gamma, v)
                params = ContactParams.from_damping_ratio(gamma, 1.0)
                h = t_c / frac
                cfg = VIConfig(h=h, alpha=alpha)
                integ = VIIntegrator(system, params, cfg)
                state = pack_state(system)
                for _ in range(int(round((t_a + t_c / 2) / h))):
                    state, _ = integ.step(state)
                v_sim = state.p[0]
                v_ref = contact_phase_velocity(state.t - t_a, oracle)
                errs.append(abs(v_sim - v_ref))
                hs.append(h)
            slopes[alpha] = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert abs(slopes[0.0] - 1.0) <= 0.25
        assert abs(slopes[0.5] - 2.0) <= 0.25


class TestQuasiStatic:
    floor = Wall(np.zeros(3), np.array([0.0, 0.0, 1.0]))

    def test_particle_on_floor_equilibrium_overlap(self):
        s = ParticleSystem([[0, 0, 0.45]], walls=[self.floor], gravity=1.0)
        q_eq, report = quasi_static_solve(pack_state(s).q, s, UNDAMPED)
        delta = 0.5 - q_eq[2]
        assert delta == pytest.approx(1.0 / K_N, rel=1e-10)
        assert report.newton_iters < 5

    def test_stretched_bond_relaxes_to_rest_length(self):
        from vigrain import Bond
        s = ParticleSystem([[0, 0, 0], [1.0, 0, 0]])
        s.bonds = [Bond(0, 1, k_bond=K_N / 10)]
        s.pos[1, 0] = 1.2  # stretch after bonding
        q_eq, _ = quasi_static_solve(pack_state(s).q, s, UNDAMPED)
        sep = abs(q_eq[6] - q_eq[0])
        assert sep == pytest.approx(1.0, abs=1e-8)

    def test_settled_cluster_stays_fixed(self, damped_params):
        # run dynamics to rest inside a snug box (frictionless wedges keep
        # creeping without side confinement), then confirm the minimizer
        # holds the settled state
        walls = [self.floor,
                 Wall(np.zeros(3), np.array([1.0, 0.0, 0.0])),
                 Wall(np.array([2.03, 0, 0]), np.array([-1.0, 0.0, 0.0])),
                 Wall(np.zeros(3), np.array([0.0, 1.0, 0.0])),
                 Wall(np.array([0, 1.02, 0]), np.array([0.0, -1.0, 0.0]))]
        s = ParticleSystem([[0.51, 0.51, 0.51], [1.52, 0.51, 0.5],
                            [1.015, 0.51, 1.38]],
                           walls=walls, gravity=1.0)
        params = ContactParams.from_damping_ratio(400.0, 1.0)
        cfg = VIConfig(h=T_C / 16, alpha=0.0)
        integ = VIIntegrator(s, params, cfg)
        state = pack_state(s)
        for _ in range(int(4.0 / cfg.h)):
            state, _ = integ.step(state)
        speed = np.max(np.abs(state.p))
        assert speed < 1e-6
        q_eq, report = quasi_static_solve(state.q, s, params)
        assert report.newton_iters < 5
        moved = np.max(np.abs(q_eq.reshape(-1, 6)[:, :3]
                              - state.q.reshape(-1, 6)[:, :3]))
        assert moved < 1e-6
