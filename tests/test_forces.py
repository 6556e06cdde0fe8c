import numpy as np
import numpy.testing as npt
import pytest

from vigrain import (Bond, ContactParams, NeighborList, ParticleSystem, Wall,
                     detect_contacts, detect_contacts_brute_force, dQ_dv,
                     nonconservative_force, potential_energy,
                     potential_gradient, potential_hessian)
from vigrain.forces import contact_time

from conftest import dense, fd_gradient, random_system, stacked_velocity

UNDAMPED = ContactParams(k_n=195000.0)


def energy_of_positions(system, params):
    """V as a function of the stacked position block, for FD oracles."""
    def f(flat):
        work = system.copy()
        work.pos[:] = flat.reshape(-1, 3)
        contacts = detect_contacts_brute_force(work)
        return potential_energy(work, contacts, params)
    return f


class TestPotentialEnergy:
    def test_empty(self):
        s = ParticleSystem([[0, 0, 0], [5, 0, 0]])
        contacts = detect_contacts_brute_force(s)
        assert potential_energy(s, contacts, UNDAMPED) == 0.0

    def test_single_pair_overlap(self):
        s = ParticleSystem([[0, 0, 0], [0.9, 0, 0]])
        contacts = detect_contacts_brute_force(s)
        params = ContactParams(k_n=200.0)
        assert potential_energy(s, contacts, params) == pytest.approx(1.0)

    def test_gravity_term(self):
        s = ParticleSystem([[0, 0, 2.0]], gravity=1.0)
        contacts = detect_contacts_brute_force(s)
        assert potential_energy(s, contacts, UNDAMPED) == pytest.approx(2.0)

    def test_continuous_at_onset(self):
        # V -> 0 from above as the overlap closes; compare against the
        # actual representable overlap of each configuration
        previous = np.inf
        for delta in (1e-4, 1e-6, 1e-8):
            s = ParticleSystem([[0, 0, 0], [1.0 - delta, 0, 0]])
            actual = 1.0 - (1.0 - delta)
            contacts = detect_contacts_brute_force(s)
            v = potential_energy(s, contacts, UNDAMPED)
            assert v == pytest.approx(0.5 * UNDAMPED.k_n * actual ** 2, rel=1e-12)
            assert 0 < v < previous
            previous = v


class TestPotentialGradient:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_finite_differences(self, seed):
        s = random_system(seed, walls=(seed % 2 == 0), bonds=(seed % 3 == 0),
                          gravity=1.0 if seed % 2 else 0.0)
        params = UNDAMPED
        grad = potential_gradient(s, detect_contacts_brute_force(s), params)
        grad_pos = grad.reshape(-1, 6)[:, :3].ravel()
        oracle = fd_gradient(energy_of_positions(s, params), s.pos.ravel(), 1e-6)
        scale = max(1.0, np.max(np.abs(oracle)))
        npt.assert_allclose(grad_pos, oracle, atol=1e-6 * scale)

    def test_rotational_rows_zero(self):
        s = random_system(2, walls=True, bonds=True, gravity=1.0)
        grad = potential_gradient(s, detect_contacts_brute_force(s), UNDAMPED)
        npt.assert_array_equal(grad.reshape(-1, 6)[:, 3:], 0.0)

    def test_isolated_particle_gravity(self):
        s = ParticleSystem([[0, 0, 5.0]], gravity=1.0)
        grad = potential_gradient(s, detect_contacts_brute_force(s), UNDAMPED)
        npt.assert_allclose(grad, [0, 0, 1.0, 0, 0, 0])

    def test_symmetric_pair_equal_opposite(self):
        s = ParticleSystem([[0.45, 0, 0], [-0.45, 0, 0]])
        grad = potential_gradient(s, detect_contacts_brute_force(s), UNDAMPED)
        g = grad.reshape(2, 6)
        npt.assert_allclose(g[0], -g[1])

    @pytest.mark.parametrize("seed", range(5))
    def test_third_law_gradient(self, seed):
        s = random_system(seed + 50, bonds=True)
        grad = potential_gradient(s, detect_contacts_brute_force(s), UNDAMPED)
        total = grad.reshape(-1, 6)[:, :3].sum(axis=0)
        scale = np.max(np.abs(grad)) + 1e-300
        npt.assert_allclose(total, 0.0, atol=1e-12 * scale)


class TestNonconservativeForce:
    def test_zero_velocity(self, damped_params):
        s = random_system(1, walls=True, bonds=True)
        contacts = detect_contacts_brute_force(s)
        q = nonconservative_force(s, contacts, np.zeros(6 * s.n), damped_params)
        npt.assert_array_equal(q, 0.0)

    def test_head_on_damping_value(self, damped_params):
        # m_eff = 0.5, v_n = (-4,0,0) on i, gamma_n = 15:
        # damping force on i is -gamma_n m_eff v_n = (30, 0, 0)
        s = ParticleSystem([[0.45, 0, 0], [-0.45, 0, 0]],
                           [[-2, 0, 0], [2, 0, 0]])
        contacts = detect_contacts_brute_force(s)
        assert damped_params.gamma_n == pytest.approx(15.0)
        q = nonconservative_force(s, contacts, stacked_velocity(s), damped_params)
        qb = q.reshape(2, 6)
        npt.assert_allclose(qb[0, :3], [30.0, 0, 0])
        npt.assert_allclose(qb[1, :3], [-30.0, 0, 0])

    def test_grazing_tangential_torque(self, damped_params):
        # pure tangential sliding: force perpendicular to n, torque rows
        # equal-signed on both partners and matching the cross product
        s = ParticleSystem([[0.45, 0, 0], [-0.45, 0, 0]],
                           [[0, 1.0, 0], [0, 0, 0]])
        contacts = detect_contacts_brute_force(s)
        q = nonconservative_force(s, contacts, stacked_velocity(s), damped_params)
        qb = q.reshape(2, 6)
        assert abs(qb[0, :3] @ np.array([1.0, 0, 0])) < 1e-12
        f_t = -damped_params.gamma_t * 0.5 * np.array([0, 1.0, 0])
        tau = -0.5 * np.cross([0.9, 0, 0], f_t)
        npt.assert_allclose(qb[0, 3:], tau)
        npt.assert_allclose(qb[1, 3:], tau)
        assert np.linalg.norm(tau) > 0

    def test_wall_contact_particle_side_only(self, damped_params):
        wall = Wall(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        s = ParticleSystem([[0, 0, 0.45]], [[0, 0, -1.0]], walls=[wall])
        contacts = detect_contacts_brute_force(s)
        q = nonconservative_force(s, contacts, stacked_velocity(s), damped_params)
        # normal damping opposes approach
        assert q.reshape(1, 6)[0, 2] > 0

    @pytest.mark.parametrize("seed", range(8))
    def test_linear_in_velocity(self, seed, damped_params):
        s = random_system(seed + 90, walls=True, bonds=True)
        contacts = detect_contacts_brute_force(s)
        rng = np.random.default_rng(seed)
        v1 = rng.normal(size=6 * s.n)
        v2 = rng.normal(size=6 * s.n)
        a, b = rng.normal(), rng.normal()
        q1 = nonconservative_force(s, contacts, v1, damped_params)
        q2 = nonconservative_force(s, contacts, v2, damped_params)
        q12 = nonconservative_force(s, contacts, a * v1 + b * v2, damped_params)
        npt.assert_allclose(q12, a * q1 + b * q2, atol=1e-10 * (1 + np.abs(q12).max()))

    @pytest.mark.parametrize("seed", range(5))
    def test_third_law_translational(self, seed, damped_params):
        s = random_system(seed + 20, bonds=True)
        contacts = detect_contacts_brute_force(s)
        q = nonconservative_force(s, contacts, stacked_velocity(s), damped_params)
        total = q.reshape(-1, 6)[:, :3].sum(axis=0)
        scale = np.max(np.abs(q)) + 1e-300
        npt.assert_allclose(total, 0.0, atol=1e-12 * scale)


class TestWallLeverArm:
    """A wall acts like an equal, infinitely heavy partner mirrored in it."""

    def systems(self):
        # a d = 2 sphere spinning on a floor with overlap 1e-3, and the
        # same sphere touching a resting partner of mass 1e9 at the plane
        z = 1.0 - 1e-3
        floor = Wall(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        on_wall = ParticleSystem([[0, 0, z]], omega=[[0, 1.0, 0]], d=2.0,
                                 walls=[floor])
        on_pair = ParticleSystem([[0, 0, z], [0, 0, -z]],
                                 omega=[[0, 1.0, 0], [0, 0, 0]], d=2.0,
                                 m=[1.0, 1e9])
        return on_wall, on_pair

    params = ContactParams(k_n=1.0, gamma_n=0.0, gamma_t=2.0)

    def test_damping_force_matches_heavy_partner(self):
        on_wall, on_pair = self.systems()
        q_wall = nonconservative_force(on_wall, detect_contacts_brute_force(on_wall),
                                       stacked_velocity(on_wall), self.params)
        q_pair = nonconservative_force(on_pair, detect_contacts_brute_force(on_pair),
                                       stacked_velocity(on_pair), self.params)
        assert q_pair[0] == pytest.approx(2.0, rel=1e-2)
        npt.assert_allclose(q_wall, q_pair[:6], rtol=1e-2, atol=1e-12)

    def test_damping_jacobian_matches_heavy_partner(self):
        on_wall, on_pair = self.systems()
        d_wall = dense(dQ_dv(on_wall, detect_contacts_brute_force(on_wall),
                             self.params))
        d_pair = dense(dQ_dv(on_pair, detect_contacts_brute_force(on_pair),
                             self.params))
        npt.assert_allclose(d_wall, d_pair[:6, :6], rtol=1e-2, atol=1e-12)


class TestCorner:
    """Body 1 sits in the corner of the floor and a side wall, bodies 2
    and 3 overlap away from both, body 0 touches nothing. Both wall rows
    of body 1 have the one ghost body as partner."""

    floor = Wall(np.zeros(3), np.array([0.0, 0.0, 1.0]))
    side = Wall(np.zeros(3), np.array([1.0, 0.0, 0.0]))

    def system(self, walls):
        rng = np.random.default_rng(4)
        return ParticleSystem([[10, 10, 5], [0.46, 0, 0.45], [3, 0, 2], [3.9, 0, 2]],
                              rng.normal(size=(4, 3)), rng.normal(size=(4, 3)),
                              walls=walls)

    def test_two_wall_rows_on_the_ghost(self):
        s = self.system([self.floor, self.side])
        got = detect_contacts(s, NeighborList.build(s))
        want = detect_contacts_brute_force(s)
        assert (got.n_pp, got.n_bond, got.n_wall) == (1, 0, 2)
        npt.assert_array_equal(got.i[got.wall], [1, 1])
        npt.assert_array_equal(got.j[got.wall], [s.n, s.n])
        npt.assert_allclose(got.delta[got.wall], [0.05, 0.04], rtol=1e-12)
        assert got.signature() == want.signature()
        for name in ("delta", "normal", "arm", "m_eff", "k"):
            npt.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_forces_add_over_the_walls(self, damped_params):
        # the corner's terms are those of the floor alone plus those of
        # the side wall alone, less the wall-free ones the pair adds twice
        velocity = stacked_velocity(self.system([]))

        def terms(walls):
            s = self.system(walls)
            contacts = detect_contacts_brute_force(s)
            return (potential_gradient(s, contacts, damped_params),
                    nonconservative_force(s, contacts, velocity, damped_params),
                    dense(dQ_dv(s, contacts, damped_params)))

        parts = [terms(w) for w in ([self.floor, self.side], [self.floor],
                                    [self.side], [])]
        for corner, floor, side, neither in zip(*parts):
            assert np.any(corner[6:12] != neither[6:12])
            npt.assert_allclose(corner, floor + side - neither, rtol=0,
                                atol=1e-12 * np.abs(corner).max())

    def test_coupled_renumbers_the_ghost(self):
        contacts = detect_contacts_brute_force(self.system([self.floor, self.side]))
        dofs, rows = contacts.coupled()
        npt.assert_array_equal(dofs, np.arange(6, 24))
        assert rows.n_bodies == 3
        npt.assert_array_equal(rows.i, contacts.i - 1)
        npt.assert_array_equal(rows.j, [2, 3, 3])
        npt.assert_array_equal(rows.wall, [False, True, True])


class TestDQDV:
    def test_no_contacts_zero(self, damped_params):
        s = ParticleSystem([[0, 0, 0], [5, 0, 0]])
        contacts = detect_contacts_brute_force(s)
        op = dQ_dv(s, contacts, damped_params)
        assert np.all(dense(op) == 0.0)

    def test_normal_only_projector_block(self):
        params = ContactParams(k_n=1.0, gamma_n=12.0, gamma_t=0.0)
        s = ParticleSystem([[0.45, 0, 0], [-0.45, 0, 0]])
        contacts = detect_contacts_brute_force(s)
        jac = dense(dQ_dv(s, contacts, params))
        proj = np.zeros((3, 3)); proj[0, 0] = 1.0
        npt.assert_allclose(jac[:3, :3], -params.gamma_n * 0.5 * proj, atol=1e-14)
        npt.assert_allclose(jac[:3, 6:9], +params.gamma_n * 0.5 * proj, atol=1e-14)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_finite_differences(self, seed, damped_params):
        s = random_system(seed + 40, walls=(seed % 2 == 0), bonds=True)
        contacts = detect_contacts_brute_force(s)
        jac = dense(dQ_dv(s, contacts, damped_params))
        rng = np.random.default_rng(seed)
        v0 = rng.normal(size=6 * s.n)
        eps = 1e-6
        for _ in range(4):
            e = rng.normal(size=6 * s.n)
            q_hi = nonconservative_force(s, contacts, v0 + eps * e, damped_params)
            q_lo = nonconservative_force(s, contacts, v0 - eps * e, damped_params)
            oracle = (q_hi - q_lo) / (2 * eps)
            got = jac @ e
            scale = max(1.0, np.max(np.abs(oracle)))
            npt.assert_allclose(got, oracle, atol=1e-6 * scale)

    @pytest.mark.parametrize("seed", range(6))
    def test_symmetric_negative_semidefinite(self, seed, damped_params):
        s = random_system(seed + 70, walls=True, bonds=True)
        contacts = detect_contacts_brute_force(s)
        jac = dense(dQ_dv(s, contacts, damped_params))
        npt.assert_allclose(jac, jac.T, atol=1e-13 * (1 + np.abs(jac).max()))
        eigs = np.linalg.eigvalsh(jac)
        assert np.max(eigs) < 1e-10 * max(1.0, -eigs.min())


class TestPotentialHessian:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_fd_of_gradient(self, seed):
        s = random_system(seed + 300, walls=(seed % 2 == 0), bonds=(seed % 2 == 1),
                          gravity=1.0)
        params = UNDAMPED
        hess = dense(potential_hessian(s, detect_contacts_brute_force(s), params))

        def grad_of(flat):
            work = s.copy()
            work.pos[:] = flat.reshape(-1, 3)
            c = detect_contacts_brute_force(work)
            return potential_gradient(work, c, params)

        rng = np.random.default_rng(seed)
        x0 = s.pos.ravel().copy()
        eps = 1e-7
        full = np.zeros((6 * s.n, 6 * s.n))
        for col in range(x0.size):
            hi = x0.copy(); hi[col] += eps
            lo = x0.copy(); lo[col] -= eps
            body, coord = divmod(col, 3)
            full[:, 6 * body + coord] = (grad_of(hi) - grad_of(lo)) / (2 * eps)
        scale = max(1.0, np.abs(full).max())
        npt.assert_allclose(hess, full, atol=2e-4 * scale)


class TestRowOperators:
    """The operators are applied from the contact rows and hold nothing
    else: no assembled block and no diagonal."""

    @pytest.mark.parametrize("seed", range(4))
    def test_damping_jacobian_action_is_damping_force(self, seed, damped_params):
        s = random_system(seed + 90, walls=True, bonds=True)
        contacts = detect_contacts_brute_force(s)
        x = np.random.default_rng(seed).normal(size=6 * s.n)
        force = nonconservative_force(s, contacts, x, damped_params)
        npt.assert_allclose(dQ_dv(s, contacts, damped_params).matvec(x), force,
                            rtol=0, atol=1e-15 * np.abs(force).max())


def test_contact_time_value():
    assert contact_time(195000.0) == pytest.approx(np.pi / np.sqrt(390000.0))


@pytest.mark.parametrize("kwargs, message", [
    ({"k_n": 0.0}, "normal stiffness"),
    ({"k_n": np.nan}, "normal stiffness"),
    ({"k_n": np.inf}, "normal stiffness"),
    ({"k_n": 1.0, "gamma_n": -5.0}, "damping"),
    ({"k_n": 1.0, "gamma_n": np.nan}, "damping"),
    ({"k_n": 1.0, "gamma_n": np.inf}, "damping"),
    ({"k_n": 1.0, "gamma_t": -1.0}, "damping"),
], ids=["k_n 0", "k_n nan", "k_n inf", "gamma_n -5", "gamma_n nan",
        "gamma_n inf", "gamma_t -1"])
def test_contact_params_guard(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ContactParams(**kwargs)
