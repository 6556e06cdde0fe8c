import numpy as np
import numpy.testing as npt
import pytest

from vigrain import BlockSparseMatrix, SolverFailureError, cg_solve
from vigrain.errors import IndefiniteOperatorError, NonFiniteStateError


def random_block_matrix(rng, n_bodies, density=0.6):
    diag = rng.normal(size=(n_bodies, 6, 6))
    pi, pj, blocks = [], [], []
    for i in range(n_bodies):
        for j in range(i + 1, n_bodies):
            if rng.uniform() < density:
                pi.append(i); pj.append(j)
                blocks.append(rng.normal(size=(6, 6)))
    if pi:
        return BlockSparseMatrix(n_bodies, diag, np.array(pi), np.array(pj),
                                 np.array(blocks))
    return BlockSparseMatrix(n_bodies, diag)


def block_sparse_from_dense(a, tol=0.0):
    """Slice a dense symmetric matrix into the block-sparse layout."""
    n = a.shape[0] // 6
    blocks = a.reshape(n, 6, n, 6).transpose(0, 2, 1, 3)
    pi, pj = np.triu_indices(n, k=1)
    keep = np.abs(blocks[pi, pj]).max(axis=(1, 2)) > tol
    return BlockSparseMatrix(n, blocks[np.arange(n), np.arange(n)],
                             pi[keep], pj[keep], blocks[pi[keep], pj[keep]])


def random_spd_dense(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eigs = rng.uniform(0.5, 50.0, dim)
    return (q * eigs) @ q.T


class TestBlockSparseMatrix:
    def test_identity_matvec(self):
        a = BlockSparseMatrix(2)
        idx = np.arange(6)
        a.diag[:, idx, idx] = 1.0
        x = np.arange(12.0)
        npt.assert_array_equal(a.matvec(x), x)

    def test_scaled_diagonal(self):
        a = BlockSparseMatrix(1)
        idx = np.arange(6)
        a.diag[:, idx, idx] = 2.0
        x = np.arange(6.0)
        npt.assert_array_equal(a.matvec(x), 2 * x)

    @pytest.mark.parametrize("seed", range(8))
    def test_matvec_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = random_block_matrix(rng, n_bodies=int(rng.integers(2, 11)))
        dense = a.to_dense()
        x = rng.normal(size=a.dim)
        npt.assert_allclose(a.matvec(x), dense @ x, atol=1e-13 * np.abs(dense).max())

    def test_pattern_requires_lower_first(self):
        with pytest.raises(ValueError):
            BlockSparseMatrix(2, np.zeros((2, 6, 6)), np.array([1]),
                              np.array([0]), np.zeros((1, 6, 6)))

    def test_dense_round_trip_preserves_symmetry(self):
        rng = np.random.default_rng(3)
        dense = random_spd_dense(rng, 18)
        a = block_sparse_from_dense(dense)
        npt.assert_allclose(a.to_dense(), dense, atol=1e-14)


class TestCG:
    def test_diagonal_solve(self):
        a = BlockSparseMatrix(1)
        idx = np.arange(6)
        a.diag[:, idx, idx] = 2.0
        b = np.array([2.0, 4.0, 0, 0, 0, 0])
        x, iters = cg_solve(a, b)
        npt.assert_allclose(x, b / 2.0)
        assert iters >= 1

    def test_zero_rhs_zero_iterations(self):
        a = BlockSparseMatrix(1)
        idx = np.arange(6)
        a.diag[:, idx, idx] = 3.0
        x, iters = cg_solve(a, np.zeros(6))
        npt.assert_array_equal(x, 0.0)
        assert iters == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_factorization_oracle(self, seed):
        rng = np.random.default_rng(seed)
        dense = random_spd_dense(rng, 30)
        a = block_sparse_from_dense(dense)
        b = rng.normal(size=30)
        x, _ = cg_solve(a, b, tol=1e-12)
        x_star = np.linalg.solve(dense, b)
        assert np.linalg.norm(x - x_star) / np.linalg.norm(x_star) < 1e-8

    def test_k_distinct_eigenvalues_k_iterations(self):
        a = BlockSparseMatrix(2)
        idx = np.arange(6)
        a.diag[0, idx, idx] = [1, 1, 2, 2, 3, 3]
        a.diag[1, idx, idx] = [1, 2, 3, 1, 2, 3]
        rng = np.random.default_rng(0)
        _, iters = cg_solve(a, rng.normal(size=12), tol=1e-9)
        assert iters <= 3

    def test_energy_norm_monotone_decrease(self):
        rng = np.random.default_rng(9)
        dense = random_spd_dense(rng, 24)
        a = block_sparse_from_dense(dense)
        b = rng.normal(size=24)
        x_star = np.linalg.solve(dense, b)
        errs = []

        def watch(x):
            e = x - x_star
            errs.append(float(e @ dense @ e))

        cg_solve(a, b, tol=1e-12, callback=watch)
        assert all(e2 <= e1 * (1 + 1e-9) for e1, e2 in zip(errs, errs[1:]))

    def test_indefinite_detected(self):
        a = BlockSparseMatrix(1)
        idx = np.arange(6)
        a.diag[:, idx, idx] = -1.0
        with pytest.raises(IndefiniteOperatorError):
            cg_solve(a, np.ones(6))

    def test_nonconvergence_reports_residual(self):
        rng = np.random.default_rng(2)
        dense = random_spd_dense(rng, 30)
        a = block_sparse_from_dense(dense)
        with pytest.raises(SolverFailureError) as info:
            cg_solve(a, rng.normal(size=30), tol=1e-14, max_iter=2)
        assert info.value.residual is not None and info.value.residual > 0

    def test_non_finite_rhs_fails_at_once(self):
        b = np.ones(6)
        b[2] = np.nan
        with pytest.raises(NonFiniteStateError) as info:
            cg_solve(BlockSparseMatrix(1, np.eye(6)[None]), b)
        assert info.value.iterations == 0

    def test_non_finite_curvature_fails_at_once(self):
        diag = np.eye(6)[None].copy()
        diag[0, 3, 3] = np.inf
        with pytest.raises(NonFiniteStateError) as info:
            cg_solve(BlockSparseMatrix(1, diag), np.ones(6))
        assert info.value.iterations == 1

    def test_jacobi_inverse_computed_once_per_operator(self):
        a = block_sparse_from_dense(random_spd_dense(np.random.default_rng(5), 18))
        inv = a.inverse_diagonal()
        assert a.inverse_diagonal() is inv
        npt.assert_array_equal(inv, 1.0 / np.diag(a.to_dense()))

    def test_jacobi_rejects_non_positive_diagonal(self):
        diag = np.eye(6)[None].copy()
        diag[0, 2, 2] = 0.0
        for _ in range(2):
            with pytest.raises(IndefiniteOperatorError):
                cg_solve(BlockSparseMatrix(1, diag), np.ones(6), jacobi=True)

    def test_jacobi_preconditioning(self):
        rng = np.random.default_rng(4)
        dense = random_spd_dense(rng, 18)
        a = block_sparse_from_dense(dense)
        b = rng.normal(size=18)
        x, _ = cg_solve(a, b, tol=1e-12, jacobi=True)
        npt.assert_allclose(a.matvec(x), b, atol=1e-10 * np.linalg.norm(b))
