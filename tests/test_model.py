import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vigrain import (GeneralizedState, ParticleSystem, assemble_mass_matrix,
                     pack_state, sphere_inertia, unpack_state)

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
    npt.assert_allclose(mass.diag, [1, 1, 1, 0.1, 0.1, 0.1])


def test_mass_matrix_three_particles():
    s = ParticleSystem(np.zeros((3, 3)) + np.arange(3)[:, None] * 2.0)
    assert assemble_mass_matrix(s).diag.size == 18


def test_mass_matrix_rejects_nonpositive_mass():
    with pytest.raises(ValueError):
        ParticleSystem([[0, 0, 0]], m=0.0)


def test_mass_matrix_ones_product_returns_diagonal():
    s = random_system(3, n=4)
    mass = assemble_mass_matrix(s)
    npt.assert_array_equal(mass.matvec(np.ones(mass.dim)), mass.diag)
    assert np.all(mass.diag > 0)


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
