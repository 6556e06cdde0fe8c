"""Row-wise symmetric operator and a conjugate-gradient solver.

The operators CG sees are diag(shift) + scale A, where A is the
action of a set of contact rows: each row couples at most two bodies,
so A x is a gather from both ends, a per-row kernel and a scatter
back, and nothing is assembled, not even the diagonal: a caller that
preconditions CG hands it a diagonal it already knows.
"""
from __future__ import annotations

import copy

import numpy as np

from .errors import (IndefiniteOperatorError, NonFiniteStateError,
                     SolverFailureError)

BLOCK = 6


class BlockSparseMatrix:
    """Symmetric operator diag(shift) + scale A over n bodies with 6 DOF each.

    rows(x) applies A; without rows the operator is diagonal. pair_i
    holds the i end of every particle-particle or bond row of A (wall
    rows excluded), for work accounting.
    """

    def __init__(self, n_bodies: int, shift, rows=None,
                 pair_i: np.ndarray | None = None):
        self.n_bodies = int(n_bodies)
        self.shift = shift
        self.scale = 1.0
        self.rows = rows
        self.pair_i = np.empty(0, dtype=np.int64) if pair_i is None else pair_i

    @property
    def dim(self) -> int:
        return BLOCK * self.n_bodies

    def affine(self, c: float, shift=0.0) -> "BlockSparseMatrix":
        """c * self + diag(shift), sharing the row action."""
        op = copy.copy(self)
        op.shift = c * self.shift + shift
        op.scale = c * self.scale
        return op

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.dim:
            raise ValueError(f"operand has length {x.size}, operator dim {self.dim}")
        y = self.shift * x
        if self.rows is not None:
            y += self.scale * self.rows(x)
        return y


def cg_solve(a, b: np.ndarray, tol: float = 1e-10,
             max_iter: int | None = None,
             precond: np.ndarray | None = None, callback=None
             ) -> tuple[np.ndarray, int, np.ndarray]:
    """Conjugate gradients for a symmetric positive definite operator.

    Parameters
    ----------
    a : operator with .matvec and .dim
    b : right-hand side
    tol : relative residual target, ||A x - b|| <= tol ||b||
    max_iter : iteration cap, default 10 * dim
    precond : the elementwise inverse of a positive diagonal preconditioner
    callback : optional, called with the current iterate after each update

    Returns (x, iterations, r), where r = b - A x is CG's own recurrence
    residual, so a caller solving an affine equation need not apply A
    again. Raises NonFiniteStateError when b or a curvature p^T A p is
    not finite, IndefiniteOperatorError on detected negative curvature
    and SolverFailureError on non-convergence.
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
        return np.zeros_like(b), 0, np.zeros_like(b)
    x = np.zeros_like(b)
    r = b.copy()
    z = r * precond if precond is not None else r
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
            return x, it, r
        z = r * precond if precond is not None else r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverFailureError(
        f"CG did not converge in {max_iter} iterations",
        residual=float(np.linalg.norm(r)), iterations=max_iter)
