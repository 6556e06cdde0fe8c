"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line into the terminal summary via
record_criterion. Tolerances are pinned here, not configurable.
"""
import numpy as np
import numpy.testing as npt
import pytest

from vigrain import (ContactParams, ImpactParams, NeighborList,
                     ParticleSystem, VIConfig, VIIntegrator, VerletIntegrator,
                     assemble_mass_matrix, build_bonded, build_box,
                     build_impact, build_walls, collision_times,
                     contact_phase_velocity, detect_contacts,
                     detect_contacts_brute_force, dQ_dv, impact_position,
                     mean_kinetic, nonconservative_force, pack_state,
                     potential_energy, potential_gradient, quasi_static_solve,
                     residual, total_energy, unpack_state,
                     velocity_fluctuation)
from vigrain.forces import STIFFNESS_RATIO, contact_time

from conftest import dense, fd_gradient, random_system, record_criterion

K_N = STIFFNESS_RATIO
T_C = contact_time(K_N)


def run_impact_pair(gamma, v, h, alpha, t_end, verlet=False):
    """March the standard two-particle impact; returns (t, x_r, p_r, n_contacts)."""
    system, spec = build_impact(0.0, gamma, v)
    params = ContactParams.from_damping_ratio(gamma, 1.0)
    if verlet:
        stepper = VerletIntegrator(system, params, h)
    else:
        stepper = VIIntegrator(system, params, VIConfig(h=h, alpha=alpha))
    state = pack_state(system)
    rows = []
    for _ in range(int(round(t_end / h))):
        if verlet:
            state, _ = stepper.step(state)
            ncont = len(detect_contacts_brute_force(unpack_state(state, system)))
        else:
            state, report = stepper.step(state)
            ncont = report.n_contacts
        rows.append((state.t, state.q[0], state.p[0], ncont))
    return np.array(rows)


def test_criterion_1_analytic_impact_oracle():
    """Head-on collision vs the published damped-oscillator position."""
    gamma, v, h = 30.0, 1.0, T_C / 160
    oracle = ImpactParams(gamma=gamma, v=v)
    t_a, t_c, _ = collision_times(oracle)
    arr = run_impact_pair(gamma, v, h, alpha=0.5, t_end=t_a + 1.3 * T_C)
    t, x, _, ncont = arr.T

    on = np.nonzero(ncont > 0)[0]
    duration = t[on[-1]] - t[on[0]] + h
    duration_ok = abs(duration - t_c) <= h

    mask = (t >= t_a) & (t <= t_a + t_c)
    x_ref = np.array([impact_position(tt - t_a, oracle) for tt in t[mask]])
    rel = np.max(np.abs(x[mask] - x_ref) / np.abs(x_ref))
    pos_ok = rel < 5e-3

    record_criterion(
        "1", pos_ok and duration_ok,
        f"impact vs analytic: max rel pos err {rel:.2e} (< 5e-3), "
        f"duration off by {abs(duration - t_c):.1e} (<= h = {h:.1e})")
    assert pos_ok and duration_ok


def test_criterion_2_convergence_order():
    """Fitted error slopes 1 +- 0.25 (alpha=0) and 2 +- 0.25 (alpha=1/2)."""
    gamma = 1.0
    v = 1.0 / (8.0 * T_C)  # contact onset lands on every step grid
    oracle = ImpactParams(gamma=gamma, v=v)
    t_a, _, _ = collision_times(oracle)
    slopes = {}
    for alpha in (0.0, 0.5):
        errs, hs = [], []
        for frac in (40, 80, 160, 320):
            h = T_C / frac
            arr = run_impact_pair(gamma, v, h, alpha, t_a + T_C / 2)
            v_ref = contact_phase_velocity(arr[-1, 0] - t_a, oracle)
            errs.append(abs(arr[-1, 2] - v_ref))
            hs.append(h)
        slopes[alpha] = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    ok = abs(slopes[0.0] - 1.0) <= 0.25 and abs(slopes[0.5] - 2.0) <= 0.25
    record_criterion(
        "2", ok,
        f"convergence slopes alpha=0: {slopes[0.0]:.2f} (1 +- 0.25), "
        f"alpha=1/2: {slopes[0.5]:.2f} (2 +- 0.25)")
    assert ok


def _walls_energy_run(frac, verlet=False, n_collisions=250):
    system, _ = build_walls(1.01, 1.0)
    params = ContactParams(k_n=K_N)
    h = T_C / frac
    stepper = (VerletIntegrator(system, params, h) if verlet
               else VIIntegrator(system, params, VIConfig(h=h, alpha=0.5)))
    state = pack_state(system)
    energies = []
    collisions, in_contact = 0, False
    while collisions < n_collisions:
        state, _ = stepper.step(state)
        work = unpack_state(state, system)
        contacts = stepper.contacts_at(state.q)
        energies.append(total_energy(work, contacts, params))
        now = contacts.n_wall > 0
        if in_contact and not now:
            collisions += 1
        in_contact = now
    return np.array(energies)


def test_criterion_3a_walls_energy_fine_step():
    energies = _walls_energy_run(160)
    drift = np.max(np.abs(energies - 0.5)) / 0.5
    ok = drift <= 1e-3
    record_criterion("3a", ok,
                     f"walls 250 collisions, alpha=1/2, h=t_c/160: "
                     f"max |E-E0|/E0 = {drift:.2e} (<= 1e-3)")
    assert ok


def test_criterion_3b_walls_energy_coarse_step():
    energies = _walls_energy_run(32)
    drift = np.max(np.abs(energies - 0.5)) / 0.5
    ok = drift <= 5e-3
    record_criterion("3b", ok,
                     f"walls 250 collisions, alpha=1/2, h=t_c/32: "
                     f"max |E-E0|/E0 = {drift:.2e} (<= 5e-3)")
    assert ok


def test_criterion_3c_walls_verlet_bounded_fluctuation():
    energies = _walls_energy_run(160, verlet=True)
    drift = np.max(np.abs(energies - 0.5)) / 0.5
    coarse = energies[::50]
    d = np.diff(coarse)
    sign_changes = int(np.sum(np.sign(d[1:]) * np.sign(d[:-1]) < 0))
    late = np.max(np.abs(energies[-len(energies) // 10:] - 0.5)) / 0.5
    ok = drift < 5e-3 and sign_changes > 20 and late < 3e-3
    record_criterion("3c", ok,
                     f"walls velocity-Verlet reference: band {drift:.2e}, "
                     f"{sign_changes} fluctuation sign changes, no drift")
    assert ok


def test_criterion_4_integrator_cross_check():
    """VI and velocity-Verlet kinetic energy traces within 1% of peak."""
    gamma, v, h = 30.0, 1.0, T_C / 160
    t_end = 0.5 + 1.3 * T_C
    vi = run_impact_pair(gamma, v, h, alpha=0.5, t_end=t_end)
    vv = run_impact_pair(gamma, v, h, alpha=0.5, t_end=t_end, verlet=True)
    kt_vi = 0.5 * vi[:, 2] ** 2
    kt_vv = 0.5 * vv[:, 2] ** 2
    dev = np.max(np.abs(kt_vi - kt_vv)) / np.max(kt_vi)
    ok = dev < 1e-2
    record_criterion("4", ok,
                     f"VI vs velocity-Verlet K_T traces: max dev "
                     f"{dev:.2e} of peak (< 1e-2)")
    assert ok


@pytest.mark.parametrize("verlet", [False, True], ids=["vi", "verlet"])
@pytest.mark.parametrize("gamma", [0.0, 30.0], ids=["undamped", "damped"])
def test_criterion_5_momentum_conservation(gamma, verlet):
    system, _ = build_impact(0.0, gamma, 1.0)
    params = ContactParams.from_damping_ratio(gamma, 1.0)
    h = T_C / 40
    stepper = (VerletIntegrator(system, params, h) if verlet
               else VIIntegrator(system, params, VIConfig(h=h, alpha=0.5)))
    state = pack_state(system)
    p_prev = state.p.reshape(-1, 6)[:, :3].sum(axis=0)
    scale = max(1.0, float(np.max(np.abs(state.p))))
    worst = 0.0
    for _ in range(int(round((1.0 + 2 * T_C) / h))):
        state, _ = stepper.step(state)
        p_tot = state.p.reshape(-1, 6)[:, :3].sum(axis=0)
        worst = max(worst, float(np.max(np.abs(p_tot - p_prev))))
        p_prev = p_tot
    ok = worst <= 1e-8 * scale
    name = "verlet" if verlet else "vi"
    record_criterion("5", ok,
                     f"momentum per step [{name}, gamma={gamma:g}]: "
                     f"max |d sum p| = {worst:.1e} (<= 1e-8)")
    assert ok


def test_criterion_6_bonded_pair():
    k_b = K_N / 10
    system, spec = build_bonded(k_b, 1.0, gamma=30.0)
    params = spec.contact_params()
    integ = VIIntegrator(system, params, VIConfig(h=spec.h, alpha=0.5))
    state = pack_state(system)
    times, seps = [], []
    for _ in range(int(spec.duration / spec.h)):
        state, _ = integ.step(state)
        q = state.q.reshape(3, 6)
        times.append(state.t)
        seps.append(float(np.linalg.norm(q[1, :3] - q[2, :3])))
    times = np.array(times)
    seps = np.array(seps)

    post = times > 0.5 + 3 * T_C  # after the three-body collision
    holds = bool(np.all((seps[post] > 0.5) & (seps[post] < 1.5)))

    # oscillation period from upward zero crossings of the bond stretch
    x = seps[post] - 1.0
    t = times[post]
    sign = np.sign(x)
    up = np.nonzero((sign[:-1] < 0) & (sign[1:] >= 0))[0]
    t_cross = t[up] + (t[up + 1] - t[up]) * (-x[up]) / (x[up + 1] - x[up])
    period = float(np.mean(np.diff(t_cross)))
    oracle = 2 * np.pi / np.sqrt(2 * k_b / 1.0)
    period_err = abs(period - oracle) / oracle
    ok = holds and period_err < 0.02
    record_criterion("6", ok,
                     f"bond holds (sep in [{seps[post].min():.3f}, "
                     f"{seps[post].max():.3f}]), period err {period_err:.2%} (< 2%)")
    assert ok


def test_criterion_7_box_filling():
    system, spec = build_box(218, 6.0, seed=0, gamma=400.0)
    params = spec.contact_params()
    cfg = VIConfig(h=spec.h, alpha=0.0)
    integ = VIIntegrator(system, params, cfg)
    state = pack_state(system)
    series = []
    for s in range(int(spec.duration / spec.h)):
        state, _ = integ.step(state)
        if s % 20 == 0:
            work = unpack_state(state, system)
            series.append((state.t, mean_kinetic(work),
                           velocity_fluctuation(work)))
    arr = np.array(series)

    final_ok = arr[-1, 1] < 1e-6 and arr[-1, 2] < 1e-6

    # monotone decay of the coarse-grained envelope after the settling
    # transient peaks; values at the numerical floor are clamped
    i_peak = int(np.argmax(arr[:, 1]))
    floor = 1e-12
    decays = []
    for col in (1, 2):
        tail = np.maximum(arr[i_peak:, col], floor)
        edges = np.linspace(0, len(tail), 9, dtype=int)
        wmax = np.array([tail[a:b].max() for a, b in zip(edges[:-1], edges[1:])])
        decays.append(bool(np.all(wmax[1:] <= wmax[:-1] * 1.02)))
    monotone_ok = all(decays)

    q_eq, report = quasi_static_solve(state.q, system, params)
    qs_ok = report.newton_iters < 5

    ok = final_ok and monotone_ok and qs_ok
    record_criterion(
        "7", ok,
        f"box: final Kbar {arr[-1, 1]:.1e}, dv {arr[-1, 2]:.1e} (< 1e-6), "
        f"monotone decay {monotone_ok}, quasi-static iters "
        f"{report.newton_iters} (< 5)")
    assert ok


def test_criterion_8_quasi_static_floor():
    from vigrain import Wall
    floor = Wall(np.zeros(3), np.array([0.0, 0.0, 1.0]))
    system = ParticleSystem([[0, 0, 0.45]], walls=[floor], gravity=1.0)
    params = ContactParams(k_n=K_N)
    q_eq, _ = quasi_static_solve(pack_state(system).q, system, params)
    delta = 0.5 - q_eq[2]
    rel = abs(delta - 1.0 / K_N) * K_N
    ok = rel <= 1e-10
    record_criterion("8", ok,
                     f"quasi-static overlap mg/k_n to {rel:.1e} relative "
                     f"(<= 1e-10)")
    assert ok


def test_criterion_9_property_suites():
    """FD oracles, list equivalence, round trips, invariances: 100 seeds."""
    params = ContactParams.from_damping_ratio(30.0, 1.0)
    failures = []
    for seed in range(100):
        system = random_system(seed, walls=(seed % 2 == 0),
                               bonds=(seed % 3 == 0),
                               gravity=1.0 if seed % 4 == 0 else 0.0)
        n = system.n
        contacts = detect_contacts_brute_force(system)

        # gradient vs central differences
        def energy_at(flat):
            work = system.copy()
            work.pos[:] = flat.reshape(-1, 3)
            return potential_energy(work, detect_contacts_brute_force(work),
                                    params)
        grad = potential_gradient(system, contacts, params)
        oracle = fd_gradient(energy_at, system.pos.ravel(), 1e-6)
        got = grad.reshape(-1, 6)[:, :3].ravel()
        scale = max(1.0, np.max(np.abs(oracle)))
        if np.max(np.abs(got - oracle)) > 1e-6 * scale:
            failures.append((seed, "gradient"))

        # damping Jacobian vs directional finite differences
        jac = dense(dQ_dv(system, contacts, params))
        rng = np.random.default_rng(seed)
        v0 = rng.normal(size=6 * n)
        for _ in range(2):
            e = rng.normal(size=6 * n)
            hi = nonconservative_force(system, contacts, v0 + 1e-6 * e, params)
            lo = nonconservative_force(system, contacts, v0 - 1e-6 * e, params)
            fd = (hi - lo) / 2e-6
            jej = jac @ e
            if np.max(np.abs(jej - fd)) > 1e-6 * max(1.0, np.max(np.abs(fd))):
                failures.append((seed, "dQdv"))
                break

        # neighbor list equivalence after a sub-guard drift
        nlist = NeighborList.build(system)
        system.pos += rng.uniform(-1, 1, system.pos.shape) * (
            0.49 * nlist.skin / np.sqrt(3))
        got_set = detect_contacts(system, nlist).signature()
        want_set = detect_contacts_brute_force(system).signature()
        if got_set != want_set:
            failures.append((seed, "neighbor-list"))

        # pack/unpack round trip
        state = pack_state(system)
        back = pack_state(unpack_state(state, system))
        if not (np.array_equal(back.q, state.q)
                and np.allclose(back.p, state.p, rtol=4e-16, atol=0.0)):
            failures.append((seed, "pack-unpack"))

        # velocity fluctuation is Galilean invariant
        dv0 = velocity_fluctuation(system)
        boosted = system.copy()
        boosted.vel += rng.normal(size=3) * 10.0
        if abs(velocity_fluctuation(boosted) - dv0) > 1e-12 * max(1.0, dv0) * 100:
            failures.append((seed, "galilean"))

        # alpha = 0 momentum identity and accepted-step residual bound
        h = T_C / 200
        cfg = VIConfig(h=h, alpha=0.0)
        integ = VIIntegrator(system, params, cfg)
        state = pack_state(system)
        mass = assemble_mass_matrix(system)
        for _ in range(2):
            prev = state
            state, report = integ.step(state)
            ident = mass * (state.q - prev.q) / h
            if not np.array_equal(ident, state.p):
                failures.append((seed, "alpha0-momentum"))
                break
            r = residual(prev.q, state.q, prev.p, cfg, system, params)
            fscale = max(np.max(np.abs(prev.p)) / h,
                         np.max(np.abs(mass * (state.q - prev.q))) / h ** 2)
            if np.max(np.abs(r)) > 1e-8 * h * fscale * (1 + 1e-9):
                failures.append((seed, "residual-bound"))
                break

    ok = not failures
    record_criterion("9", ok,
                     f"property suites over 100 seeds: "
                     f"{'all passed' if ok else f'failures: {failures[:5]}'}")
    assert ok, failures
