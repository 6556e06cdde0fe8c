import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from vigrain import (Bond, ContactParams, GeneralizedState, NeighborList,
                     NonFiniteStateError, ParticleSystem, VIConfig, VIIntegrator,
                     VerletIntegrator, Wall, assemble_mass_matrix, build_impact,
                     build_walls, contact, detect_contacts,
                     detect_contacts_brute_force, forces, pack_state,
                     total_energy, unpack_state)
from vigrain.forces import contact_time
from vigrain.linsolve import BLOCK

from conftest import count_calls, sparse_contacts

K_N = 195000.0
T_C = contact_time(K_N)
UNDAMPED = ContactParams(k_n=K_N)


def test_free_flight_exact():
    s = ParticleSystem([[0, 0, 0]], [[0.4, 0.1, -0.2]])
    state = pack_state(s)
    integ = VerletIntegrator(s, UNDAMPED, h=0.01)
    for _ in range(50):
        state, _ = integ.step(state)
    npt.assert_allclose(state.q[:3], np.array([0.4, 0.1, -0.2]) * state.t,
                        atol=1e-13)


def test_single_step_function_matches_integrator():
    # one step of a fresh integrator is kick-drift-kick on -grad V + Q,
    # written out here from the force functions and brute-force contacts
    system, params = touching_pair()
    h = 0.001
    state = pack_state(system)
    mass = assemble_mass_matrix(system)

    def force(q, v):
        work = unpack_state(GeneralizedState(q=q, p=state.p), system)
        contacts = detect_contacts_brute_force(work)
        return (-forces.potential_gradient(work, contacts, params)
                + forces.nonconservative_force(work, contacts, v, params))

    v = state.p / mass
    v_half = v + 0.5 * h * (force(state.q, v) / mass)
    q_new = state.q + h * v_half
    v_new = v_half + 0.5 * h * (force(q_new, v_half) / mass)
    got, _ = VerletIntegrator(system, params, h).step(state)
    npt.assert_array_equal(got.q, q_new)
    npt.assert_array_equal(got.p, mass * v_new)


def test_step_report():
    # no Newton or CG work, and the contacts of the second kick, which
    # are those at the new state
    system, params = touching_pair()
    integ = VerletIntegrator(system, params, T_C / 40)
    state = pack_state(system)
    counts = []
    for _ in range(60):
        state, report = integ.step(state)
        assert (report.newton_iters, report.cg_iters) == (0, 0)
        want = len(detect_contacts_brute_force(unpack_state(state, system)))
        assert report.n_contacts == want
        counts.append(want)
    assert 0 in counts and 1 in counts   # the pair touches, then separates


def test_non_finite_momentum_fails_at_once():
    system, _ = build_impact(0.0, 30.0, 1.0)
    params = ContactParams.from_damping_ratio(30.0, 1.0)
    state = pack_state(system)
    state.p[0] = np.nan
    with pytest.raises(NonFiniteStateError, match="particle 0"):
        VerletIntegrator(system, params, T_C / 40).step(state)


def test_non_finite_rotation_fails_at_once():
    # a NaN spin never moves a centre, so the neighbour list cannot see it
    system, _ = build_impact(0.0, 30.0, 1.0)
    params = ContactParams.from_damping_ratio(30.0, 1.0)
    state = pack_state(system)
    state.p[3] = np.nan
    with pytest.raises(NonFiniteStateError, match="particle 0 has a non-finite p"):
        VerletIntegrator(system, params, T_C / 40).step(state)


@pytest.mark.parametrize("field, index, bad, blamed", [
    ("q", 3, np.nan, "particle 0 has a non-finite q"),
    ("p", 8, np.inf, "particle 1 has a non-finite p")])
def test_non_finite_input_is_named_at_entry(field, index, bad, blamed):
    system, _ = build_impact(0.0, 30.0, 1.0)
    params = ContactParams.from_damping_ratio(30.0, 1.0)
    state = pack_state(system)
    getattr(state, field)[index] = bad
    with pytest.raises(NonFiniteStateError,
                       match=rf"^input of Verlet step 0 \(t = 0\): {blamed}$"):
        VerletIntegrator(system, params, T_C / 40).step(state)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_result_is_blamed_on_the_step(monkeypatch):
    # an infinite torque turns an orientation non-finite, which the
    # neighbour-list guard never sees
    def infinite_torque(system, contacts, params):
        grad = np.zeros(6 * system.n)
        grad[3] = np.inf
        return grad

    system, params = touching_pair()
    monkeypatch.setattr(forces, "potential_gradient", infinite_torque)
    with pytest.raises(NonFiniteStateError,
                       match=r"^Verlet step 0 \(t = 0\) result: particle 0 "
                             r"has a non-finite q$"):
        VerletIntegrator(system, params, T_C / 40).step(pack_state(system))


def touching_pair():
    """The damped impact pair, placed overlapping by d/100 while closing."""
    system, _ = build_impact(0.0, 30.0, 1.0)
    system.pos[:, 0] = [0.495, -0.495]
    return system, ContactParams.from_damping_ratio(30.0, 1.0)


def test_steady_state_step_detects_once(monkeypatch):
    system, params = touching_pair()
    integ = VerletIntegrator(system, params, T_C / 40)
    state, _ = integ.step(pack_state(system))
    detect = count_calls(monkeypatch, contact, "_detect_unchecked")
    gradient = count_calls(monkeypatch, forces, "potential_gradient")
    damping = count_calls(monkeypatch, forces, "nonconservative_force")
    state, _ = integ.step(state)
    # the first kick reuses the last kick's contacts and gradient; only
    # the damping is evaluated at both velocities
    assert (len(detect), len(gradient), len(damping)) == (1, 1, 2)
    # the runner's sample at the end of the step is a cache hit
    assert len(integ.contacts_at(state.q)) == 1 and len(detect) == 1


@pytest.mark.parametrize("change", ["in place", "one ulp"])
def test_changed_q_is_detected_again(monkeypatch, change):
    system, params = touching_pair()
    integ = VerletIntegrator(system, params, T_C / 40)
    state, _ = integ.step(pack_state(system))   # contacts at state.q are cached
    if change == "in place":
        state.q[0] -= 1e-3
    else:
        q = state.q.copy()
        q[0] = np.nextafter(q[0], np.inf)
        state = GeneralizedState(q=q, p=state.p, t=state.t, k=state.k)
    detect = count_calls(monkeypatch, contact, "_detect_unchecked")
    got, _ = integ.step(state)
    assert len(detect) == 2
    want, _ = VerletIntegrator(system, params, T_C / 40).step(state)
    npt.assert_array_equal(got.q, want.q)
    npt.assert_array_equal(got.p, want.p)


def test_undamped_energy_bounded_many_steps():
    # gamma = 0, no external force: energy stays in a band with no
    # monotone drift over >= 1e5 steps
    system, spec = build_walls(1.01, 1.0)
    h = T_C / 160
    integ = VerletIntegrator(system, UNDAMPED, h)
    state = pack_state(system)
    energies = []
    for step in range(100_000):
        state, _ = integ.step(state)
        if step % 50 == 0:
            work = unpack_state(state, system)
            if not integ.nlist.is_valid(work.pos):
                integ.nlist.rebuild(work.pos)
            contacts = detect_contacts(work, integ.nlist)
            energies.append(total_energy(work, contacts, UNDAMPED))
    energies = np.array(energies)
    e0 = 0.5
    assert np.max(np.abs(energies - e0)) / e0 < 5e-3
    # no secular drift: the last tenth is no worse than the band seen early
    early = np.max(np.abs(energies[: len(energies) // 10] - e0))
    late = np.max(np.abs(energies[-len(energies) // 10:] - e0))
    assert late <= max(early * 3.0, 2e-4 * e0)


def test_vi_and_verlet_converge_to_each_other():
    # difference of final velocities after one collision shrinks ~ O(h)
    gamma = 30.0
    params = ContactParams.from_damping_ratio(gamma, 1.0)
    diffs = []
    for frac in (40, 80, 160):
        system, _ = build_impact(0.0, gamma, 1.0)
        h = T_C / frac
        state_vi = pack_state(system)
        state_vv = pack_state(system)
        vi = VIIntegrator(system, params, VIConfig(h=h, alpha=0.5))
        vv = VerletIntegrator(system, params, h)
        n = int(round((1.0 + 2.0 * T_C) / h))
        for _ in range(n):
            state_vi, _ = vi.step(state_vi)
            state_vv, _ = vv.step(state_vv)
        diffs.append(abs(state_vi.p[0] - state_vv.p[0]))
    assert diffs[2] < diffs[0]
    slope = np.polyfit(np.log([T_C / 40, T_C / 80, T_C / 160]), np.log(diffs), 1)[0]
    assert slope > 0.8


@pytest.mark.parametrize("h", [0.0, -1e-3, np.nan, np.inf])
def test_time_step_guard(h):
    with pytest.raises(ValueError, match="time step"):
        VerletIntegrator(ParticleSystem([[0, 0, 0]]), UNDAMPED, h)


def every_row_kind(gravity):
    """Seven unequal bodies with spin: a Hookean pair (0, 1) whose body 1
    also rests on the floor, a stretched bond (2, 3), body 4 on the
    floor, and bodies 5 and 6 on no row, body 6 with -0.0 in its x and y
    velocity and in its x and z spin."""
    pos = [[0.0, 0.0, 0.49], [0.99, 0.0, 0.495], [4.0, 0.0, 2.0],
           [5.02, 0.0, 2.0], [8.0, 0.0, 0.497], [0.0, 5.0, 3.0],
           [4.0, 5.0, 3.0]]
    rng = np.random.default_rng(7)
    vel, omega = 0.3 * rng.normal(size=(7, 3)), rng.normal(size=(7, 3))
    vel[6], omega[6] = [-0.0, -0.0, 0.4], [-0.0, 0.0, -0.0]
    floor = Wall(np.zeros(3), np.array([0.0, 0.0, 1.0]))
    return ParticleSystem(pos, vel, omega, m=rng.uniform(0.5, 2.0, 7),
                          walls=[floor], bonds=[Bond(2, 3, 5e4)],
                          gravity=gravity)


@pytest.mark.parametrize("gravity", [0.0, 1.0])
@pytest.mark.parametrize("damped", [False, True])
def test_step_is_the_kick_over_all_dofs_bit_for_bit(damped, gravity):
    # the kicks work on the coupled rows and give free bodies their free
    # fall; kick-drift-kick over all 6N DOFs on the whole set, as written
    # here, must give the same bits, signs of zeros included
    system = every_row_kind(gravity)
    params = (ContactParams.from_damping_ratio(30.0, 1.0) if damped
              else UNDAMPED)
    h = T_C / 40
    mass = assemble_mass_matrix(system)
    nlist = NeighborList.build(system)

    def force(q, v):
        contacts = nlist.contacts_at(q)
        f = -forces.potential_gradient(system, contacts, params)
        if damped:
            f = f + forces.nonconservative_force(system, contacts, v, params)
        return f

    integ = VerletIntegrator(system, params, h)
    state = want = pack_state(system)
    rows = nlist.contacts_at(state.q)
    assert (rows.n_pp, rows.n_bond, rows.n_wall) == (1, 1, 3)
    for _ in range(4):   # later steps reuse the last kick's gradient
        v = want.p / mass
        v_half = v + 0.5 * h * (force(want.q, v) / mass)
        q_new = want.q + h * v_half
        v_new = v_half + 0.5 * h * (force(q_new, v_half) / mass)
        want = GeneralizedState(q=q_new, p=mass * v_new, t=0.0)
        state, _ = integ.step(state)
        assert state.q.tobytes() == want.q.tobytes()
        assert state.p.tobytes() == want.p.tobytes()
    # the signed zeros kept: the full kick adds -grad V = -0.0 to a free
    # body's x, y and spin, and Q = +0.0 when damped, so -0.0 stays -0.0
    # undamped and turns +0.0 damped
    free = state.p[6 * BLOCK:]
    assert np.signbit(free[[0, 1, 3, 5]]).tolist() == [not damped] * 4
    assert free[[0, 1, 3, 4, 5]].tolist() == [0.0] * 5


class TestContactsOnly:
    def test_step_does_no_whole_system_work(self, monkeypatch):
        # 600 bodies, one touching pair and one on the floor: no per-body
        # sum is as long as the 6N DOFs, and beside its two fresh 6N
        # outputs the step holds less than one more 6N vector (28.8 kB):
        # detection's displacement check, 3N floats, and row-sized arrays
        bound = 24 * 1024
        system = sparse_contacts()
        params = ContactParams.from_damping_ratio(30.0, 1.0)
        n_dofs = BLOCK * system.n
        integ = VerletIntegrator(system, params, T_C / 40)
        state, _ = integ.step(pack_state(system))   # contacts at state.q held
        bincounts = []
        bincount = np.bincount

        def spy(x, weights=None, minlength=0):
            bincounts.append(minlength)
            return bincount(x, weights=weights, minlength=minlength)

        monkeypatch.setattr(np, "bincount", spy)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            state, report = integ.step(state)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        monkeypatch.undo()
        assert report.n_contacts == 2 and bincounts
        assert max(bincounts) < n_dofs
        outputs = state.q.nbytes + state.p.nbytes
        assert peak <= outputs + bound, (peak, outputs)
