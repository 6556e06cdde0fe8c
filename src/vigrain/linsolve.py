"""Symmetric 6x6-block sparse operator and a conjugate-gradient solver.

The stiffness of a contact configuration couples at most pairs of
bodies, so the operator is stored as per-body diagonal blocks plus one
6x6 block per interacting (i, j) pair with i < j; the (j, i) block is
the transpose.
"""
from __future__ import annotations

import numpy as np

from .errors import (IndefiniteOperatorError, NonFiniteStateError,
                     SolverFailureError)

BLOCK = 6


class BlockSparseMatrix:
    """Symmetric block-sparse matrix over n bodies with 6 DOF each."""

    def __init__(self, n_bodies: int, diag: np.ndarray | None = None,
                 pair_i: np.ndarray | None = None,
                 pair_j: np.ndarray | None = None,
                 pair_blocks: np.ndarray | None = None):
        self.n_bodies = int(n_bodies)
        self.diag = (np.zeros((n_bodies, BLOCK, BLOCK)) if diag is None
                     else np.asarray(diag, dtype=float))
        if self.diag.shape != (n_bodies, BLOCK, BLOCK):
            raise ValueError("diagonal block array has wrong shape")
        if pair_i is None:
            pair_i = np.empty(0, dtype=np.int64)
            pair_j = np.empty(0, dtype=np.int64)
            pair_blocks = np.empty((0, BLOCK, BLOCK))
        self.pair_i = np.asarray(pair_i, dtype=np.int64)
        self.pair_j = np.asarray(pair_j, dtype=np.int64)
        self.pair_blocks = np.asarray(pair_blocks, dtype=float)
        if np.any(self.pair_i >= self.pair_j):
            raise ValueError("pair blocks must be stored with i < j")
        self._scatter = None
        self._inv_diag = None

    @property
    def dim(self) -> int:
        return BLOCK * self.n_bodies

    def _scatter_indices(self):
        # flat row indices for bincount accumulation of the pair products
        if self._scatter is None:
            rows = np.arange(BLOCK)
            flat_i = (BLOCK * self.pair_i[:, None] + rows).ravel()
            flat_j = (BLOCK * self.pair_j[:, None] + rows).ravel()
            self._scatter = np.concatenate([flat_i, flat_j])
        return self._scatter

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.dim:
            raise ValueError(f"operand has length {x.size}, operator dim {self.dim}")
        xb = x.reshape(self.n_bodies, BLOCK)
        y = np.einsum("nab,nb->na", self.diag, xb).ravel()
        if self.pair_i.size:
            into_i = np.einsum("mab,mb->ma", self.pair_blocks, xb[self.pair_j])
            into_j = np.einsum("mab,ma->mb", self.pair_blocks, xb[self.pair_i])
            contrib = np.concatenate([into_i.ravel(), into_j.ravel()])
            y += np.bincount(self._scatter_indices(), weights=contrib,
                             minlength=y.size)
        return y

    def inverse_diagonal(self) -> np.ndarray:
        """1 / the scalar diagonal, length 6 N; computed once per operator.

        Raises IndefiniteOperatorError when a diagonal entry is not positive.
        """
        if self._inv_diag is None:
            diag = np.einsum("naa->na", self.diag).ravel()
            if np.any(diag <= 0.0):
                raise IndefiniteOperatorError("operator diagonal is not positive")
            self._inv_diag = 1.0 / diag
        return self._inv_diag

    def scaled(self, c: float) -> "BlockSparseMatrix":
        return BlockSparseMatrix(self.n_bodies, c * self.diag,
                                 self.pair_i, self.pair_j, c * self.pair_blocks)

    def add_scalar_diagonal(self, c: float) -> "BlockSparseMatrix":
        diag = self.diag.copy()
        idx = np.arange(BLOCK)
        diag[:, idx, idx] += c
        return BlockSparseMatrix(self.n_bodies, diag,
                                 self.pair_i, self.pair_j, self.pair_blocks)

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.dim, self.dim))
        for b in range(self.n_bodies):
            s = slice(BLOCK * b, BLOCK * (b + 1))
            a[s, s] = self.diag[b]
        for m in range(self.pair_i.size):
            i, j = int(self.pair_i[m]), int(self.pair_j[m])
            si = slice(BLOCK * i, BLOCK * (i + 1))
            sj = slice(BLOCK * j, BLOCK * (j + 1))
            a[si, sj] += self.pair_blocks[m]
            a[sj, si] += self.pair_blocks[m].T
        return a


def cg_solve(a, b: np.ndarray, tol: float = 1e-10,
             max_iter: int | None = None,
             jacobi: bool = False, callback=None) -> tuple[np.ndarray, int]:
    """Conjugate gradients for a symmetric positive definite operator.

    Parameters
    ----------
    a : operator with .matvec and .dim (and .inverse_diagonal() when jacobi=True)
    b : right-hand side
    tol : relative residual target, ||A x - b|| <= tol ||b||
    max_iter : iteration cap, default 10 * dim
    jacobi : precondition with the operator diagonal
    callback : optional, called with the current iterate after each update

    Returns (x, iterations). Raises NonFiniteStateError when b or a
    curvature p^T A p is not finite, IndefiniteOperatorError on detected
    negative curvature and SolverFailureError on non-convergence.
    """
    b = np.asarray(b, dtype=float).ravel()
    if b.size != a.dim:
        raise ValueError("right-hand side does not match operator dimension")
    if max_iter is None:
        max_iter = 10 * a.dim
    bnorm = np.linalg.norm(b)
    if not np.isfinite(bnorm):
        raise NonFiniteStateError("CG right-hand side is not finite",
                                  residual=float(bnorm), iterations=0)
    if bnorm == 0.0:
        return np.zeros_like(b), 0
    inv_diag = a.inverse_diagonal() if jacobi else None
    x = np.zeros_like(b)
    r = b.copy()
    z = r * inv_diag if inv_diag is not None else r
    p = z.copy()
    rz = r @ z
    for it in range(1, max_iter + 1):
        ap = a.matvec(p)
        pap = p @ ap
        if not np.isfinite(pap):
            raise NonFiniteStateError(
                "non-finite curvature encountered in CG",
                residual=float(np.linalg.norm(r)), iterations=it)
        if pap <= 0.0:
            raise IndefiniteOperatorError(
                "non-positive curvature encountered in CG",
                residual=float(np.linalg.norm(r)), iterations=it)
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        if callback is not None:
            callback(x.copy())
        if np.linalg.norm(r) <= tol * bnorm:
            return x, it
        z = r * inv_diag if inv_diag is not None else r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverFailureError(
        f"CG did not converge in {max_iter} iterations",
        residual=float(np.linalg.norm(r)), iterations=max_iter)
