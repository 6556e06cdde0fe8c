import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vigrain import (Bond, GeneralizedState, ParticleSystem, Wall,
                     assemble_mass_matrix, pack_state, sphere_inertia,
                     unpack_state)

from conftest import random_system


def test_pack_single_particle():
    s = ParticleSystem([[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]], m=2.0)
    state = pack_state(s)
    npt.assert_array_equal(state.q, np.zeros(6))
    npt.assert_array_equal(state.p, [2.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def test_pack_dimensions():
    s = ParticleSystem([[0, 0, 0], [2, 0, 0]])
    state = pack_state(s)
    assert state.q.size == 12 and state.p.size == 12


def test_pack_angular_momentum():
    s = ParticleSystem([[0, 0, 0]], omega=[[0.0, 0.0, 3.0]], m=1.0, d=1.0)
    assert s.inertia[0] == pytest.approx(0.1, abs=0)
    state = pack_state(s)
    npt.assert_allclose(state.p[3:], [0.0, 0.0, 0.3])


def test_unpack_velocity_from_momentum():
    s = ParticleSystem([[0, 0, 0]], m=2.0)
    state = GeneralizedState(q=np.zeros(6), p=np.array([2.0, 0, 0, 0, 0, 0]))
    out = unpack_state(state, s)
    npt.assert_array_equal(out.vel[0], [1.0, 0.0, 0.0])


def test_unpack_zero_momentum():
    s = ParticleSystem([[0, 0, 0], [2, 0, 0]], vel=[[1, 2, 3], [4, 5, 6]])
    out = unpack_state(GeneralizedState(np.zeros(12), np.zeros(12)), s)
    npt.assert_array_equal(out.vel, 0.0)
    npt.assert_array_equal(out.omega, 0.0)


def test_unpack_dimension_mismatch():
    s = ParticleSystem([[0, 0, 0]])
    with pytest.raises(ValueError):
        unpack_state(GeneralizedState(np.zeros(12), np.zeros(12)), s)


def test_mass_matrix_block():
    s = ParticleSystem([[0, 0, 0]], m=1.0, d=1.0)
    mass = assemble_mass_matrix(s)
    npt.assert_allclose(mass, [1, 1, 1, 0.1, 0.1, 0.1])


def test_mass_matrix_three_particles():
    s = ParticleSystem(np.zeros((3, 3)) + np.arange(3)[:, None] * 2.0)
    assert assemble_mass_matrix(s).shape == (18,)


def test_mass_matrix_rejects_nonpositive_mass():
    with pytest.raises(ValueError):
        ParticleSystem([[0, 0, 0]], m=0.0)


def test_mass_matrix_ones_product_returns_diagonal():
    # pack_state's p = M v at unit velocities is the diagonal itself
    s = random_system(3, n=4)
    s.vel[:], s.omega[:] = 1.0, 1.0
    mass = assemble_mass_matrix(s)
    npt.assert_array_equal(pack_state(s).p, mass)
    assert np.all(mass > 0)


def test_inertia_formula():
    assert sphere_inertia(np.array([1.0]), np.array([1.0]))[0] == pytest.approx(0.1, abs=1e-15)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_pack_unpack_round_trip(seed):
    # Coordinates round-trip bit-exactly. Velocities go through p = M v
    # and back; with I = 0.1 that division is exact only to the last ulp.
    s = random_system(seed)
    state = pack_state(s)
    back = unpack_state(state, s)
    npt.assert_array_equal(back.pos, s.pos)
    npt.assert_array_equal(back.theta, s.theta)
    npt.assert_array_equal(back.vel, s.vel)  # m = 1: exact
    npt.assert_allclose(back.omega, s.omega, rtol=4e-16, atol=0)
    again = pack_state(back)
    npt.assert_array_equal(again.q, state.q)
    npt.assert_allclose(again.p, state.p, rtol=4e-16, atol=0)


def test_bond_references_validated():
    from vigrain import Bond
    with pytest.raises(ValueError):
        ParticleSystem([[0, 0, 0], [2, 0, 0]], bonds=[Bond(0, 5, 1.0)])
    with pytest.raises(ValueError):
        Bond(1, 1, 1.0)


def test_unequal_diameters_rejected():
    with pytest.raises(ValueError, match="equal spheres"):
        ParticleSystem([[0, 0, 0], [2, 0, 0]], d=[1.0, 1.5])


@pytest.mark.parametrize("make, message", [
    (lambda: Bond(0, 1, 0.0), "bond stiffness"),
    (lambda: Bond(0, 1, np.nan), "bond stiffness"),
    (lambda: Bond(0, 1, np.inf), "bond stiffness"),
    (lambda: Wall([0.0, 0.0], [0.0, 0.0, 1.0]), "3-vectors"),
    (lambda: Wall([0.0, 0.0, 0.0], [np.nan, 0.0, 1.0]), "finite"),
    (lambda: Wall([np.inf, 0.0, 0.0], [0.0, 0.0, 1.0]), "finite"),
    (lambda: ParticleSystem(np.empty((0, 3))), "at least one particle"),
    (lambda: ParticleSystem([[0, 0, 0]], m=np.nan), "masses"),
    (lambda: ParticleSystem([[0, 0, 0]], d=0.0), "diameters"),
    (lambda: ParticleSystem([[0, 0, 0]], d=np.inf), "diameters"),
    (lambda: ParticleSystem([[0, 0, 0]], gravity=np.nan), "gravity"),
    (lambda: ParticleSystem([[0, 0, 0], [2, 0, 0]], vel=np.zeros((3, 3))),
     r"expected \(2, 3\) field"),
    (lambda: GeneralizedState(np.zeros(6), np.zeros(12)), "same length"),
    (lambda: GeneralizedState(np.zeros(5), np.zeros(5)), "multiple of 6"),
], ids=["bond k 0", "bond k nan", "bond k inf", "wall 2-vector",
        "wall nan normal", "wall inf point", "no particles", "mass nan",
        "diameter 0", "diameter inf", "gravity nan", "field shape",
        "state lengths", "state size"])
def test_guard_rejects(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_bond_ends_are_ordered():
    b = Bond(3, 1, 1.0)
    assert (b.i, b.j) == (1, 3)


def test_one_row_field_is_broadcast():
    s = ParticleSystem([[0, 0, 0], [2, 0, 0]], vel=[[1.0, 2.0, 3.0]])
    npt.assert_array_equal(s.vel, [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])


def test_copy_owns_its_arrays_and_lists():
    s = random_system(4, walls=True, bonds=True, gravity=1.0)
    s.theta[:] = 0.25
    before = {k: (v.copy() if isinstance(v, (np.ndarray, list)) else v)
              for k, v in vars(s).items()}
    c = s.copy()
    for name in ("pos", "vel", "omega", "theta", "d", "m", "inertia"):
        npt.assert_array_equal(getattr(c, name), before[name])
        getattr(c, name)[:] = -7.0
    c.walls.append(c.walls[0])
    c.bonds.clear()
    c.gravity = 0.0
    for name, value in before.items():
        if isinstance(value, np.ndarray):
            npt.assert_array_equal(getattr(s, name), value)
        else:
            assert getattr(s, name) == value
    assert s.bonds and len(s.walls) == 1
