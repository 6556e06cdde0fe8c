import numpy as np
import numpy.testing as npt
import pytest

from vigrain import BlockSparseMatrix, SolverFailureError, cg_solve
from vigrain.errors import IndefiniteOperatorError, NonFiniteStateError


class DenseOperator:
    """A dense symmetric matrix behind the operator interface CG reads."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)
        self.dim = self.a.shape[0]

    def matvec(self, x):
        return self.a @ x


def random_symmetric(rng, dim):
    a = rng.normal(size=(dim, dim))
    return a + a.T


def random_spd_dense(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eigs = rng.uniform(0.5, 50.0, dim)
    return (q * eigs) @ q.T


def row_operator(a, shift=0.0):
    """diag(shift) + a, with a dense matrix standing in for the rows."""
    return BlockSparseMatrix(a.shape[0] // 6, shift, a.__matmul__)


class TestBlockSparseMatrix:
    def test_identity_matvec(self):
        x = np.arange(12.0)
        npt.assert_array_equal(BlockSparseMatrix(2, 1.0).matvec(x), x)

    def test_scaled_diagonal(self):
        x = np.arange(6.0)
        npt.assert_array_equal(BlockSparseMatrix(1, 2.0).matvec(x), 2 * x)

    @pytest.mark.parametrize("seed", range(8))
    def test_matvec_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        dim = 6 * int(rng.integers(2, 11))
        a = random_symmetric(rng, dim)
        shift, c, t = rng.normal(size=dim), rng.normal(), rng.normal(size=dim)
        op = row_operator(a, shift).affine(c, t)
        oracle = c * (np.diag(shift) + a) + np.diag(t)
        x = rng.normal(size=dim)
        npt.assert_allclose(op.matvec(x), oracle @ x,
                            atol=1e-13 * np.abs(oracle).max() * np.abs(x).sum())


class TestCG:
    def test_diagonal_solve(self):
        b = np.array([2.0, 4.0, 0, 0, 0, 0])
        x, iters, _ = cg_solve(BlockSparseMatrix(1, 2.0), b)
        npt.assert_allclose(x, b / 2.0)
        assert iters >= 1

    def test_zero_rhs_zero_iterations(self):
        x, iters, r = cg_solve(BlockSparseMatrix(1, 3.0), np.zeros(6))
        npt.assert_array_equal(x, 0.0)
        npt.assert_array_equal(r, 0.0)
        assert iters == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_factorization_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = random_spd_dense(rng, 30)
        b = rng.normal(size=30)
        x, _, r = cg_solve(DenseOperator(a), b, tol=1e-12)
        x_star = np.linalg.solve(a, b)
        assert np.linalg.norm(x - x_star) / np.linalg.norm(x_star) < 1e-8
        # the recurrence residual is the true residual up to roundoff
        assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(b)
        npt.assert_allclose(r, b - a @ x, rtol=0,
                            atol=1e-12 * np.abs(a).max() * np.abs(x).sum())

    def test_k_distinct_eigenvalues_k_iterations(self):
        shift = np.array([1, 1, 2, 2, 3, 3, 1, 2, 3, 1, 2, 3.0])
        a = BlockSparseMatrix(2, shift)
        b = np.random.default_rng(0).normal(size=12)
        _, iters, _ = cg_solve(a, b, tol=1e-9)
        assert iters <= 3
        # the exact diagonal preconditioner leaves one distinct eigenvalue
        x, iters, _ = cg_solve(a, b, tol=1e-9, precond=1.0 / shift)
        assert iters == 1
        npt.assert_allclose(x, b / shift, rtol=1e-15)

    def test_energy_norm_monotone_decrease(self):
        rng = np.random.default_rng(9)
        a = random_spd_dense(rng, 24)
        b = rng.normal(size=24)
        x_star = np.linalg.solve(a, b)
        errs = []

        def watch(x):
            e = x - x_star
            errs.append(float(e @ a @ e))

        cg_solve(DenseOperator(a), b, tol=1e-12, callback=watch)
        assert all(e2 <= e1 * (1 + 1e-9) for e1, e2 in zip(errs, errs[1:]))

    def test_indefinite_detected(self):
        with pytest.raises(IndefiniteOperatorError):
            cg_solve(DenseOperator(-np.eye(6)), np.ones(6))

    def test_nonconvergence_reports_residual(self):
        rng = np.random.default_rng(2)
        a = DenseOperator(random_spd_dense(rng, 30))
        with pytest.raises(SolverFailureError) as info:
            cg_solve(a, rng.normal(size=30), tol=1e-14, max_iter=2)
        assert info.value.residual is not None and info.value.residual > 0

    def test_non_finite_rhs_fails_at_once(self):
        b = np.ones(6)
        b[2] = np.nan
        with pytest.raises(NonFiniteStateError) as info:
            cg_solve(DenseOperator(np.eye(6)), b)
        assert info.value.iterations == 0

    def test_non_finite_curvature_fails_at_once(self):
        a = np.eye(6)
        a[3, 3] = np.inf
        with pytest.raises(NonFiniteStateError) as info:
            cg_solve(DenseOperator(a), np.ones(6))
        assert info.value.iterations == 1

    def test_jacobi_preconditioning(self):
        rng = np.random.default_rng(4)
        a = random_spd_dense(rng, 18)
        b = rng.normal(size=18)
        x, _, _ = cg_solve(row_operator(a), b, tol=1e-12, precond=1.0 / np.diag(a))
        npt.assert_allclose(a @ x, b, atol=1e-10 * np.linalg.norm(b))


@pytest.mark.parametrize("call, message", [
    (lambda op: op.matvec(np.ones(5)), "operand has length 5"),
    (lambda op: cg_solve(op, np.ones(5)), "right-hand side"),
], ids=["operand", "right-hand side"])
def test_length_guard(call, message):
    with pytest.raises(ValueError, match=message):
        call(BlockSparseMatrix(1, 1.0))
