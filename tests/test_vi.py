import inspect

import numpy as np
import numpy.testing as npt
import pytest

from vigrain import (Bond, ContactParams, GeneralizedState, IndefiniteOperatorError,
                     NonFiniteStateError, ParticleSystem, SolverFailureError,
                     StepFailureError, VerletIntegrator, VIConfig,
                     VIIntegrator, Wall, assemble_mass_matrix, build_box, build_impact,
                     contact, discrete_lagrangian, linsolve, pack_state,
                     quasi_static_solve, residual, run_simulation,
                     unpack_state, vi)
from vigrain.analytic import (ImpactParams, contact_phase_velocity,
                              collision_times)
from vigrain import forces
from vigrain.forces import STIFFNESS_RATIO, contact_time, nonconservative_force
from vigrain.contact import detect_contacts_brute_force
from vigrain.linsolve import BLOCK

from conftest import (count_calls, dense, fd_gradient, random_system,
                      sparse_contacts)

K_N = 195000.0
T_C = contact_time(K_N)
UNDAMPED = ContactParams(k_n=K_N)


def free_particle(v=(1.0, 0.0, 0.0)):
    return ParticleSystem([[0, 0, 0]], [list(v)])


def neg_stiffness(q_k, q_k1, cfg, system, params):
    """The stepper's -K on the contact set at q_k + alpha (q_k1 - q_k)."""
    integ = VIIntegrator(system, params, cfg)
    s_mid = integ.contacts_at(q_k + cfg.alpha * (q_k1 - q_k))
    return integ._neg_stiffness(s_mid, integ._m_over_h)


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
        guess = state.q + cfg.h * (state.p / mass)
        r = residual(state.q, guess, state.p, cfg, s, UNDAMPED)
        npt.assert_array_equal(r, 0.0)

    def test_gravity_alpha0(self):
        s = ParticleSystem([[0, 0, 5.0]], gravity=1.0)
        cfg = VIConfig(h=0.01, alpha=0.0)
        state = pack_state(s)
        mass = assemble_mass_matrix(s)
        guess = state.q + cfg.h * (state.p / mass)
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
        q_k1 = q_k + cfg.h * (state.p / mass) * 0.9

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
        q_plus = nonconservative_force(work, s_k, state.p / mass,
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
        neg_k = neg_stiffness(q, q, cfg, s, UNDAMPED)
        mass = assemble_mass_matrix(s)
        npt.assert_allclose(dense(neg_k), np.diag(mass) / cfg.h)

    def test_normal_damped_offdiag_block(self):
        params = ContactParams(k_n=K_N, gamma_n=15.0, gamma_t=0.0)
        s = ParticleSystem([[0.45, 0, 0], [-0.45, 0, 0]])
        cfg = VIConfig(h=0.01, alpha=0.0)
        q = pack_state(s).q
        neg_k = dense(neg_stiffness(q, q, cfg, s, params))
        proj = np.zeros((3, 3)); proj[0, 0] = 1.0
        npt.assert_allclose(neg_k[:3, 6:9], -0.5 * 15.0 * 0.5 * proj, atol=1e-12)

    def test_symmetric(self, damped_params):
        s = random_system(17, n=4, walls=True, bonds=True)
        cfg = VIConfig(h=T_C / 40, alpha=0.5)
        state = pack_state(s)
        mass = assemble_mass_matrix(s)
        guess = state.q + cfg.h * (state.p / mass)
        k_dense = dense(neg_stiffness(state.q, guess, cfg, s, damped_params))
        npt.assert_allclose(k_dense, k_dense.T,
                            atol=1e-12 * (1 + np.abs(k_dense).max()))


class TestImplicitSolve:
    def test_free_flight_accepts_initial_guess(self):
        s = free_particle()
        cfg = VIConfig(h=0.01, alpha=0.5)
        state = pack_state(s)
        q1, _, report = VIIntegrator(s, UNDAMPED, cfg).solve_position(state.q, state.p)
        mass = assemble_mass_matrix(s)
        npt.assert_allclose(q1, state.q + cfg.h * (state.p / mass))
        assert report.newton_iters <= 1

    def test_gravity_alpha0_hand_solved(self):
        # linear problem: q1 = q + h M^-1 p - h^2 M^-1 grad V(q_k)
        s = ParticleSystem([[0, 0, 5.0]], [[0.3, 0, 0]], gravity=1.0)
        cfg = VIConfig(h=0.01, alpha=0.0)
        state = pack_state(s)
        mass = assemble_mass_matrix(s)
        q1, _, _ = VIIntegrator(s, UNDAMPED, cfg).solve_position(state.q, state.p)
        grad = np.array([0, 0, 1.0, 0, 0, 0])
        oracle = state.q + cfg.h * (state.p / mass) - cfg.h ** 2 * (grad / mass)
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
            VIIntegrator(system, damped_params, cfg).solve_position(state.q, state.p)


class TestMomentumUpdate:
    """The p_{k+1} that solve_position returns with its q_{k+1}."""

    def test_alpha0_identity(self):
        s = random_system(8, n=3, walls=True, bonds=True)
        s.vel[:] = np.random.default_rng(0).normal(size=s.vel.shape)
        cfg = VIConfig(h=0.004, alpha=0.0)
        state = pack_state(s)
        q1, p, report = VIIntegrator(s, UNDAMPED, cfg).solve_position(state.q, state.p)
        assert report.n_contacts > 0
        mass = assemble_mass_matrix(s)
        npt.assert_array_equal(p, mass * (q1 - state.q) / cfg.h)

    def test_alpha_half_gravity_row(self):
        # from rest, D = -(h^2/2) g and p_1 = M D / h - (h/2) g = -h g
        s = ParticleSystem([[0, 0, 5.0]], gravity=1.0)
        cfg = VIConfig(h=0.01, alpha=0.5)
        q = pack_state(s).q
        q1, p, _ = VIIntegrator(s, UNDAMPED, cfg).solve_position(q, np.zeros_like(q))
        assert q1[2] - q[2] == pytest.approx(-0.5 * cfg.h ** 2)
        assert p[2] == pytest.approx((1 / cfg.h) * (q1[2] - q[2]) - 0.5 * cfg.h * 1.0)
        assert p[2] == pytest.approx(-cfg.h * 1.0)


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
    neg_k = neg_stiffness(q_k, q_next, cfg, system, params)
    mass = assemble_mass_matrix(system)
    dq, _, _ = linsolve.cg_solve(neg_k, r, tol=vi.CG_TOL, precond=cfg.h / mass)
    bound = np.linalg.norm(r) * cfg.h / mass.min()
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
        corrections = spy_corrections(monkeypatch)
        q1, _, report = VIIntegrator(system, params, cfg).solve_position(state.q, state.p)
        assert report.newton_iters == 1
        # the stepper tests the residual its correction left on all 6N DOFs
        dq, bound = forced_correction(state.q, state.p, q1, cfg, system, params,
                                      r=left_on_all_dofs(corrections[-1]))
        assert dq < bound
        # a tolerance the bound misses but the next correction meets
        monkeypatch.setattr(vi, "NEWTON_TOL", np.sqrt(dq * bound))
        corrections.clear()
        _, _, report = VIIntegrator(system, params, cfg).solve_position(state.q, state.p)
        assert report.newton_iters == len(corrections) == 2
        assert np.max(np.abs(corrections[-1][0])) < vi.NEWTON_TOL * np.min(system.d)

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
        corrections = spy_corrections(monkeypatch)
        newton_tol = vi.NEWTON_TOL * float(np.min(system.d))
        redetecting = 0
        for _ in range(40):
            corrections.clear()
            state, report = integ.step(state)
            if 0 < report.newton_iters < vi.N_FREEZE:
                redetecting += 1
                assert np.max(np.abs(corrections[-1][0])) < newton_tol
        assert redetecting > 0


def spy_cg(monkeypatch):
    """Log what every cg_solve the stepper makes returns: (x, iterations, r)
    on the DOFs of the bodies a contact row couples."""
    solves = []

    def spy(*args, **kwargs):
        solves.append(linsolve.cg_solve(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(vi, "cg_solve", spy)
    return solves


def spy_corrections(monkeypatch):
    """Log every Newton correction the stepper makes: what it returns,
    (dD, CG iterations, the residual r - (-K) dD on the DOFs of the
    bodies a row couples), and the contact set -K was built from."""
    corrections = []
    newton_solver = VIIntegrator._newton_solver

    def spy(integ, s_mid):
        solve = newton_solver(integ, s_mid)

        def logged(*args):
            out = solve(*args)
            corrections.append((*out, s_mid))
            return out
        return logged

    monkeypatch.setattr(VIIntegrator, "_newton_solver", spy)
    return corrections


def left_on_all_dofs(correction):
    """The residual a logged correction left, on all 6N DOFs: CG's on the
    coupled DOFs, and zero on the others, where the solve is exact."""
    _, _, r_c, s_mid = correction
    dofs, _ = s_mid.coupled()
    assert r_c.shape == dofs.shape
    r = np.zeros(BLOCK * s_mid.n_bodies)
    r[dofs] = r_c
    return r


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
        corrections = spy_corrections(monkeypatch)
        prev = state
        state, report = integ.step(prev)
        assert report.newton_iters == 1 and report.n_contacts > 0
        assert {name: len(log) for name, log in calls.items()} == dict.fromkeys(calls, 1)
        assert len(solves) == len(corrections) == 1
        assert len(matvecs) == solves[0][1] == report.cg_iters
        # the residual the correction left, CG's on the coupled DOFs and
        # zero elsewhere, is the step residual at the accepted
        # iterate; a fresh evaluation differs by its own roundoff, mostly
        # from forming q_{k+1} - q_k and M (q_{k+1} - q_k) / h
        fresh = residual(prev.q, state.q, prev.p, cfg, system, params)
        npt.assert_allclose(left_on_all_dofs(corrections[0]), fresh, rtol=0,
                            atol=step_roundoff(prev, state, cfg, system))


def step_roundoff(prev, state, cfg, system):
    """The roundoff of a fresh evaluation of the step residual."""
    mass = assemble_mass_matrix(system)
    return 16 * np.finfo(float).eps * (
        np.max(mass * np.abs(state.q)) / cfg.h + np.max(np.abs(prev.p))
        + cfg.h * np.max(system.m) * system.gravity)


class TestFrozenPasses:
    def test_alpha_half_frozen_residual_is_the_cg_residual(self, monkeypatch):
        # after N_FREEZE corrections the midpoint set is frozen, and the
        # residual a correction leaves is CG's on the coupled DOFs: the
        # step residual on that set at the new iterate, zero elsewhere
        monkeypatch.setattr(vi, "N_FREEZE", 1)
        system, params, cfg = pressed_box()
        cfg = VIConfig(h=cfg.h, alpha=0.5)
        integ = VIIntegrator(system, params, cfg)
        corrections = spy_corrections(monkeypatch)
        state = pack_state(system)
        for _ in range(10):
            corrections.clear()
            prev = state
            state, report = integ.step(prev)
            assert report.newton_iters == len(corrections) >= 1
            s_frozen = corrections[-1][3]
            assert all(c[3] is s_frozen for c in corrections)
            assert len(s_frozen) > 0 and s_frozen.n_wall > 0
            _, explicit = integ._explicit_damping(prev.q, prev.p)
            fresh = integ._residual(prev.p, state.q - prev.q, explicit, s_frozen,
                                    np.arange(prev.q.size))[0]
            npt.assert_allclose(left_on_all_dofs(corrections[-1]), fresh, rtol=0,
                                atol=step_roundoff(prev, state, cfg, system))


def with_free_bodies(system, seed):
    """system plus three bodies of other masses that touch nothing."""
    far = [[5.0, 0.0, 0.0], [7.0, 0.0, 0.0], [9.0, 0.0, 0.0]]
    rng = np.random.default_rng(seed)
    return ParticleSystem(np.vstack([system.pos, far]),
                          np.vstack([system.vel, rng.normal(size=(3, 3))]),
                          np.vstack([system.omega, rng.normal(size=(3, 3))]),
                          m=np.append(system.m, [0.5, 2.0, 3.0]),
                          walls=system.walls, bonds=system.bonds,
                          gravity=system.gravity)


class TestCoupledSplit:
    """CG solves each correction on the bodies a contact row couples; the
    others' DOFs are solved as (M/h)^-1 r."""

    def split(self, seed, params):
        system = with_free_bodies(random_system(seed, walls=True, bonds=True), seed)
        cfg = VIConfig(h=0.1, alpha=0.0)   # -1/2 dQ/dv is not small next to M/h
        integ = VIIntegrator(system, params, cfg)
        s = integ.contacts_at(pack_state(system).q)
        r = np.random.default_rng(seed).normal(size=6 * system.n)
        return integ, s, r

    @pytest.mark.parametrize("seed", range(5))
    def test_correction_matches_the_full_operator_solve(self, seed, damped_params):
        integ, s, r = self.split(seed, damped_params)
        dofs, _ = s.coupled()
        assert s.n_bond > 0 and s.n_wall > 0
        assert 0 < dofs.size < r.size
        d_delta, _, r_c = integ._newton_solver(s)(r, np.arange(r.size))
        neg_k = integ._neg_stiffness(s, integ._m_over_h)
        want, _, _ = linsolve.cg_solve(neg_k, r, tol=vi.CG_TOL, precond=integ._precond)
        # each meets |r - (-K) x| <= CG_TOL |r|, and |(-K)^-1| <= h / min(diag M)
        err = 2 * vi.CG_TOL * np.linalg.norm(r) * integ._inv_k_bound
        npt.assert_allclose(d_delta, want, rtol=0, atol=err)
        true_r = r - neg_k.matvec(d_delta)
        assert np.linalg.norm(true_r) <= 1.01 * vi.CG_TOL * np.linalg.norm(r)
        free = np.setdiff1d(np.arange(r.size), dofs)
        atol = 1e-3 * vi.CG_TOL * np.linalg.norm(r)
        npt.assert_allclose(r_c, true_r[dofs], rtol=0, atol=atol)
        npt.assert_allclose(true_r[free], 0.0, rtol=0, atol=atol)

    @pytest.mark.parametrize("seed", range(3))
    def test_correction_from_a_coupled_residual(self, seed, damped_params):
        # a residual zero off the coupled DOFs is handed over on them
        # alone, and the correction comes back on them alone
        integ, s, r = self.split(seed, damped_params)
        dofs, _ = s.coupled()
        r_full = np.zeros_like(r)
        r_full[dofs] = r[dofs]
        d_c, it_c, r_c = integ._newton_solver(s)(r[dofs], dofs)
        d_full, it_full, r_c_full = integ._newton_solver(s)(r_full, np.arange(r.size))
        assert d_c.shape == r_c.shape == dofs.shape
        assert it_c == it_full
        npt.assert_array_equal(d_full[dofs], d_c)
        npt.assert_array_equal(d_full[np.setdiff1d(np.arange(r.size), dofs)], 0.0)
        npt.assert_array_equal(r_c_full, r_c)

    @pytest.mark.parametrize("seed", range(5))
    def test_bodies_on_no_row_are_solved_by_the_inertia(self, seed, damped_params):
        integ, s, r = self.split(seed, damped_params)
        free = np.ones(r.size, dtype=bool)
        free[s.coupled()[0]] = False
        assert free[-18:].all()
        d_delta, _, r_c = integ._newton_solver(s)(r, np.arange(r.size))
        inv_inertia = integ._precond     # (M/h)^-1, CG's preconditioner
        npt.assert_allclose(inv_inertia, integ.cfg.h / integ.mass, rtol=1e-15)
        npt.assert_array_equal(d_delta[free], r[free] * inv_inertia[free])
        # the residual left is CG's, and it covers exactly the coupled DOFs
        assert r_c.shape == (np.count_nonzero(~free),)

    @pytest.mark.parametrize("seed", range(3))
    def test_renumbered_rows_act_as_the_full_rows(self, seed, damped_params):
        integ, s, x = self.split(seed, damped_params)
        dofs, rows = s.coupled()
        full = integ._neg_stiffness(s, integ._m_over_h).matvec(x)
        coupled = integ._neg_stiffness(rows, integ._m_over_h[dofs]).matvec(x[dofs])
        npt.assert_array_equal(full[dofs], coupled)
        # and on the other bodies -K is M/h
        free = np.setdiff1d(np.arange(x.size), dofs)
        npt.assert_array_equal(full[free], integ._m_over_h[free] * x[free])

    def test_contact_free_correction_runs_no_cg_iteration(self, monkeypatch):
        # free fall: the initial guess is each body's exact step, so the
        # step is accepted with no correction; dyadic h, m, v and g make
        # h v_k - h^2 (1-a) g e_z exact in any order of operations
        system = ParticleSystem([[0, 0, 0], [3, 0, 0]], [[1, 0, 0], [0, 1, 0.5]],
                                m=[1.0, 2.0], gravity=1.0)
        for alpha in (0.0, 0.5):
            cfg = VIConfig(h=2.0 ** -7, alpha=alpha)
            integ = VIIntegrator(system, UNDAMPED, cfg)
            solves = spy_cg(monkeypatch)
            matvecs = count_calls(monkeypatch, linsolve.BlockSparseMatrix, "matvec")
            prev = pack_state(system)
            state, report = integ.step(prev)
            monkeypatch.undo()
            assert (report.newton_iters, report.cg_iters, report.n_contacts) == (0, 0, 0)
            assert not solves and not matvecs
            npt.assert_array_equal(state.q - prev.q, free_fall(prev, cfg, system))


def passes_acceptance(prev, state, cfg, system, params):
    """Whether the step residual of vi.residual at the accepted iterate
    passes the stepper's test on every DOF, |r| <= RESIDUAL_SCALE_TOL h
    max(forces, |p_k| / h, m_max |g|, |M D| / h^2), up to the roundoff
    of a fresh evaluation."""
    h, mass = cfg.h, assemble_mass_matrix(system)
    r = residual(prev.q, state.q, prev.p, cfg, system, params)
    work = unpack_state(prev, system)
    s_k = detect_contacts_brute_force(work)
    q_plus = nonconservative_force(work, s_k, prev.p / mass, params)
    work.pos[:] = (prev.q + cfg.alpha * (state.q - prev.q)).reshape(-1, 6)[:, :3]
    s_mid = detect_contacts_brute_force(work)
    q_minus = nonconservative_force(work, s_mid, (state.q - prev.q) / h, params)
    grad = forces.potential_gradient(work, s_mid, params)
    scale = max(np.max(np.abs(grad)), np.max(np.abs(q_minus)), np.max(np.abs(q_plus)),
                np.max(np.abs(prev.p)) / h, np.max(system.m) * abs(system.gravity),
                np.max(np.abs(mass * (state.q - prev.q))) / h ** 2)
    bound = vi.RESIDUAL_SCALE_TOL * h * scale + step_roundoff(prev, state, cfg, system)
    return np.max(np.abs(r)) <= bound


def free_fall(prev, cfg, system):
    """h v_k - h^2 (1-a) g e_z, the step of a body no contact row touches."""
    d = cfg.h * (prev.p / assemble_mass_matrix(system))
    d[2::BLOCK] -= cfg.h ** 2 * (1.0 - cfg.alpha) * system.gravity
    return d


class TestClosedForm:
    """A body on no row of the step's sets falls freely in closed form;
    the residual is formed only where a row acts, or has acted."""

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("gravity", [0.0, 1.0])
    @pytest.mark.parametrize("damped", [False, True])
    def test_free_bodies_fall_and_the_step_passes(self, alpha, gravity, damped,
                                                  damped_params):
        params = damped_params if damped else UNDAMPED
        cfg = VIConfig(h=T_C / 40, alpha=alpha)
        for seed in range(4):
            system = with_free_bodies(
                random_system(seed, walls=True, bonds=seed % 2 == 1,
                              gravity=gravity), seed)
            integ = VIIntegrator(system, params, cfg)
            state = pack_state(system)
            for _ in range(3):
                prev = state
                state, report = integ.step(prev)
                assert report.n_contacts > 0
                assert passes_acceptance(prev, state, cfg, system, params)
                # the three far bodies touch nothing
                far = slice(-3 * BLOCK, None)
                got = (state.q - prev.q)[far]
                want = free_fall(prev, cfg, system)[far]
                npt.assert_allclose(got, want, rtol=0,
                                    atol=8 * np.finfo(float).eps
                                    * np.max(np.abs(state.q[far])))

    @pytest.mark.parametrize("damped", [False, True])
    def test_contact_that_opens_between_passes(self, damped, damped_params,
                                               monkeypatch):
        # body 0 closes on body 1, which a stretched bond pulls away: the
        # free-fall midpoint overlaps them by eps, less than the bond moves
        # body 1's midpoint in the first correction, so the next pass finds
        # the pair on no row; body 0's residual still holds the spring
        # impulse of the first correction
        params = damped_params if damped else UNDAMPED
        cfg = VIConfig(h=T_C / 40, alpha=0.5)
        h, u, eps, stretch = cfg.h, 0.01, 1e-7, 5e-4
        gap = 0.5 * h * u - eps
        system = ParticleSystem([[0.0, 0.0, 0.0], [1.0 + gap, 0.0, 0.0],
                                 [2.0 + gap + stretch, 0.0, 0.0]],
                                [[u, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                                bonds=[Bond(1, 2, k_bond=K_N)], gravity=1.0)
        corrections = spy_corrections(monkeypatch)
        prev = pack_state(system)
        state, report = VIIntegrator(system, params, cfg).step(prev)
        sets = [c[3] for c in corrections]
        assert report.newton_iters >= 2
        assert (sets[0].n_pp, sets[0].n_bond) == (1, 1)
        assert (sets[1].n_pp, sets[1].n_bond) == (0, 1)
        assert passes_acceptance(prev, state, cfg, system, params)
        npt.assert_allclose((state.q - prev.q)[:BLOCK],
                            free_fall(prev, cfg, system)[:BLOCK],
                            rtol=0, atol=1e-15)

    def test_detection_uses_the_free_fall_midpoint(self, monkeypatch):
        # a body at rest h^2 g / 8 above a floor: the midpoint of h v_k
        # leaves it there, the free fall's midpoint h^2 g / 8 into it
        cfg = VIConfig(h=T_C / 40, alpha=0.5)
        floor = Wall(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        system = ParticleSystem([[0.0, 0.0, 0.5 + cfg.h ** 2 / 8]],
                                walls=[floor], gravity=1.0)
        sets = []
        evaluate = VIIntegrator._residual

        def spy(integ, p_k, delta, explicit, s_mid, *args):
            sets.append(s_mid)
            return evaluate(integ, p_k, delta, explicit, s_mid, *args)

        monkeypatch.setattr(VIIntegrator, "_residual", spy)
        prev = pack_state(system)
        state, report = VIIntegrator(system, UNDAMPED, cfg).step(prev)
        assert sets[0].n_wall == 1 and report.n_contacts == 1
        assert passes_acceptance(prev, state, cfg, system, UNDAMPED)


class TestContactsOnly:
    def test_step_makes_no_reduction_over_all_dofs(self, monkeypatch,
                                                   damped_params):
        # 600 bodies, one touching pair and one on the floor: no norm and
        # no per-body sum in the step is as long as the 6N DOFs
        system = sparse_contacts()
        n_dofs = BLOCK * system.n
        for alpha in (0.0, 0.5):
            integ = VIIntegrator(system, damped_params, VIConfig(h=T_C / 40, alpha=alpha))
            state = pack_state(system)
            norms = count_calls(monkeypatch, np.linalg, "norm")
            bincounts = []
            bincount = np.bincount

            def spy(x, weights=None, minlength=0):
                bincounts.append(minlength)
                return bincount(x, weights=weights, minlength=minlength)

            monkeypatch.setattr(np, "bincount", spy)
            _, report = integ.step(state)
            monkeypatch.undo()
            assert report.n_contacts == 2 and report.newton_iters >= 1
            assert norms and bincounts
            assert max(np.size(args[0]) for args in norms) < n_dofs
            assert max(bincounts) < n_dofs


class TestRunTotals:
    @pytest.mark.parametrize("integrator", ["vi", "verlet"])
    def test_totals_sum_every_step(self, integrator, monkeypatch):
        system, spec = build_box(n_particles=18, box_size=3)
        system.pos[:, 2] -= 0.0045   # pressed together, as in pressed_box
        spec.integrator, spec.duration = integrator, 25 * spec.h
        reports = []
        stepper = VIIntegrator if integrator == "vi" else VerletIntegrator
        step = stepper.step

        def spy(integ, state):
            out = step(integ, state)
            reports.append(out[1])
            return out

        monkeypatch.setattr(stepper, "step", spy)
        result = run_simulation(system, spec)
        assert len(reports) == result.steps == 25
        assert spec.diagnostics_every > 1   # the samples hold only some steps
        assert result.newton_iters == sum(r.newton_iters for r in reports)
        assert result.cg_iters == sum(r.cg_iters for r in reports)
        if integrator == "vi":
            assert result.newton_iters > 0 and result.cg_iters > 0


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
        assert type(info.value.t) is float
        assert str(info.value).endswith(f"(step 3, t = {float(t)!r})")
        assert info.value.iterations == 0


class TestSolverPath:
    def test_only_the_stepper_preconditions_cg(self, damped_params, monkeypatch):
        precond = {"step": [], "static": []}
        stage = "step"

        def spy(*args, **kwargs):
            bound = inspect.signature(linsolve.cg_solve).bind(*args, **kwargs)
            precond[stage].append(bound.arguments.get("precond"))
            return linsolve.cg_solve(*args, **kwargs)

        monkeypatch.setattr(vi, "cg_solve", spy)
        system, _ = build_impact(0.0, 30.0, 1.0)
        cfg = VIConfig(h=T_C / 40)
        integ = VIIntegrator(system, damped_params, cfg)
        state = pack_state(system)
        state.q[0] -= 0.499; state.q[6] += 0.499  # 8 steps before contact
        for _ in range(40):
            state, _ = integ.step(state)
        stage = "static"
        floor = Wall(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        s = ParticleSystem([[0, 0, 0.45]], walls=[floor], gravity=1.0)
        quasi_static_solve(pack_state(s).q, s, UNDAMPED)
        # the stepper's is the inverse of -K's inertial part, M/h
        inertia = assemble_mass_matrix(system) / cfg.h
        assert precond["step"]
        for p in precond["step"]:
            npt.assert_allclose(p, 1.0 / inertia, rtol=1e-15)
        assert precond["static"] and all(p is None for p in precond["static"])


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

    def floor_particle(self, z):
        s = ParticleSystem([[0, 0, z]], walls=[self.floor], gravity=1.0)
        return s, pack_state(s).q

    def energy_heights(self, monkeypatch):
        """Log the height each potential energy is evaluated at."""
        heights, energy = [], forces.gravity_energy

        def spy(system, z):
            heights.append(float(z[0]))
            return energy(system, z)

        monkeypatch.setattr(forces, "gravity_energy", spy)
        return heights

    def test_reported_energy_is_the_potential_at_the_result(self):
        s, q0 = self.floor_particle(0.3)   # 0.2 d deep
        q_eq, report = quasi_static_solve(q0, s, UNDAMPED)
        at = unpack_state(GeneralizedState(q_eq, np.zeros_like(q_eq)), s)
        want = forces.potential_energy(at, detect_contacts_brute_force(at), UNDAMPED)
        assert report.newton_iters > 1 and report.energy == want

    def test_deep_start_is_clamped_then_capped(self, monkeypatch):
        # the Newton step from 0.2 d deep is 0.2 d; it is cut to 0.1 d, so
        # one pass cannot reach equilibrium and the iteration cap fails
        monkeypatch.setattr(vi, "STATIC_MAX_ITER", 1)
        heights = self.energy_heights(monkeypatch)
        s, q0 = self.floor_particle(0.3)
        with pytest.raises(SolverFailureError,
                           match="did not reach tolerance") as info:
            quasi_static_solve(q0, s, UNDAMPED)
        assert info.value.iterations == 1
        assert heights == pytest.approx([0.3, 0.4], rel=1e-12)

    def test_singular_hessian_is_regularised_and_overshoot_halved(self, monkeypatch):
        # 0.05 d above the floor there is no contact, so the Hessian is
        # zero and CG is retried on a regularised one; its step is clamped
        # to 0.1 d, lands 0.05 d deep, raises the energy and is halved
        heights = self.energy_heights(monkeypatch)
        solves = count_calls(monkeypatch, vi, "cg_solve")
        s, q0 = self.floor_particle(0.55)
        q_eq, report = quasi_static_solve(q0, s, UNDAMPED)
        assert heights[:3] == pytest.approx([0.55, 0.45, 0.5], rel=1e-12)
        assert len(solves) > report.newton_iters
        assert 0.5 - q_eq[2] == pytest.approx(1.0 / K_N, rel=1e-10)

    def test_ascent_direction_stalls_the_line_search(self, monkeypatch):
        # a solve that returns the gradient itself raises V at every trial
        monkeypatch.setattr(vi, "cg_solve", lambda op, b, **kw: (-b, 0, b))
        s, q0 = self.floor_particle(0.3)
        with pytest.raises(SolverFailureError, match="line search stalled"):
            quasi_static_solve(q0, s, UNDAMPED)

    def test_hessian_solve_fails_after_every_regularisation(self, monkeypatch):
        shifts = []

        def indefinite(op, b, **kw):
            shifts.append(op.shift)
            raise IndefiniteOperatorError("non-positive curvature")

        monkeypatch.setattr(vi, "cg_solve", indefinite)
        s, q0 = self.floor_particle(0.3)
        with pytest.raises(SolverFailureError, match="Hessian solve failed"):
            quasi_static_solve(q0, s, UNDAMPED)
        # unregularised, then 1e-8 k_n growing tenfold: eight tries
        npt.assert_allclose(shifts, [0.0] + [1e-8 * K_N * 10 ** i for i in range(7)],
                            rtol=1e-12)


@pytest.mark.parametrize("kwargs, message", [
    ({"h": 0.0}, "time step"), ({"h": -1e-3}, "time step"),
    ({"h": np.nan}, "time step"), ({"h": np.inf}, "time step"),
    ({"h": 1e-3, "alpha": 0.3}, "alpha")],
    ids=["h 0", "h negative", "h nan", "h inf", "alpha 0.3"])
def test_config_guard(kwargs, message):
    with pytest.raises(ValueError, match=message):
        VIConfig(**kwargs)
