"""Implicit variational time stepper and the quasi-static solver.

One step solves the nonlinear update equation for the displacement
D = q_{k+1} - q_k,

    r(D) = p_k - (1/h) M D
           - h (1-a) grad V(q_k + a D)
           + (h/2) Q(q_k + a D, D/h)
           + (h/2) Q(q_k, M^-1 p_k)          = 0

by Newton iteration from D_0 = h M^-1 p_k with a conjugate-gradient
inner solve, where a is 0 (first order) or 1/2 (second order). The
iterate is D, not q_{k+1}, so M D / h does not cancel however far the
system sits from the origin: q_k + a D is formed only to detect the
midpoint contacts, and q_{k+1} = q_k + D once, for the accepted D.
p_{k+1} = (1/h) M [q_{k+1} - q_k] - h a grad V(q_k + a D) reuses the last
residual's gradient; the stored positions' difference is exact.

The stiffness keeps only the dominant terms, K = -(1/h) M plus
half the velocity Jacobian of Q; the converged solution is unchanged
because acceptance is residual-based. -K = M/h - (1/2) dQ/dv is SPD
with a positive diagonal (-dQ/dv is positive semidefinite), so CG
always runs Jacobi-preconditioned. -K is never assembled: Q is linear
in the velocity, so each CG product is -K x = M x / h - (1/2) Q(q_{k+a}, x)
evaluated from the contact rows, and only the scalar diagonal of -K,
the preconditioner, is computed beside it.

On a fixed contact set (alpha = 0, or any pass after N_FREEZE) r is
affine in D and K is its exact Jacobian, so the residual after a
correction dD is r - (-K) dD: the residual CG hands back. No force is
evaluated again. At alpha = 0 the first residual also reuses Q(q_k,
v_k), because D_0 / h = v_k, so a step makes one detection, one
gradient, one damping force, one dQ/dv and one CG solve.

After a correction, an iterate is accepted when the residual passes
its test and the next Newton correction is known to be below
NEWTON_TOL d_min: either the last correction was that small, or the
residual was evaluated on the contact set -K was built from and
|r|_2 h / min(diag M) is below the tolerance. On a fixed contact set
the next correction is (-K)^-1 r, and -K >= M/h bounds its size by
|r|_2 h / min(diag M) without a further solve. On passes that
re-detect contacts (alpha = 1/2 before N_FREEZE) -K leaves out the
potential Hessian and the bound does not hold, so they rely on the
size of the last correction. (Stopping on a bound for the next step is
the usual inexact-Newton test; Kelley, Iterative Methods for Linear
and Nonlinear Equations, SIAM 1995.)

Dropping the inertial term and the momentum turns the same machinery
into an energy minimizer, which is what quasi_static_solve does; its
Hessian has zero rotational rows, so that CG runs unpreconditioned.

A step has one correct answer, so the solver tolerances and budgets
are constants of the method, below; VIConfig holds only h and alpha.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import contact as _contact
from . import forces as _forces
from .contact import ContactSet, NeighborList
from .errors import IndefiniteOperatorError, SolverFailureError, StepFailureError
from .forces import ContactParams
from .linsolve import BLOCK, BlockSparseMatrix, cg_solve
from .model import (GeneralizedState, ParticleSystem, assemble_mass_matrix,
                    check_finite)

RESIDUAL_SCALE_TOL = 1e-8
NEWTON_TOL = 1e-10       # last correction, in units of the smallest diameter
NEWTON_MAX = 50          # corrections per step
N_FREEZE = 10            # corrections after which the geometry is frozen
CG_TOL = 1e-10           # relative residual of each linear solve
CG_MAX_ITER = None       # None: cg_solve's 10 * dim
STATIC_TOL = 1e-8        # quasi-static gradient, in units of k_n d
STATIC_MAX_ITER = 100    # quasi-static Newton steps


@dataclass
class VIConfig:
    """The run configuration of the implicit stepper: the time step h
    and the quadrature parameter alpha (0 or 1/2)."""

    h: float
    alpha: float = 0.5

    def __post_init__(self):
        if self.h <= 0.0:
            raise ValueError("time step must be positive")
        if self.alpha not in (0.0, 0.5):
            raise ValueError("alpha must be 0 or 1/2")


@dataclass
class StepReport:
    """What one implicit step cost.

    newton_iters counts correction solves; a step accepted at the
    initial guess reports zero. On a frozen contact set one correction
    usually suffices: the residual then bounds the next correction (see
    the module docstring), so no second solve is made to measure it.
    """

    newton_iters: int
    residual_norm: float
    cg_iters: int
    n_contacts: int


@dataclass
class QuasiStaticReport:
    newton_iters: int
    gradient_norm: float
    energy: float


class VIIntegrator:
    """Owns the work buffers, mass matrix and neighbor list for a run.

    The list keeps the contacts of the last configuration it detected, so
    a step that starts where the caller last asked for contacts
    (contacts_at) detects it once.
    """

    def __init__(self, system: ParticleSystem, params: ContactParams,
                 cfg: VIConfig):
        self.system = system
        self.params = params
        self.cfg = cfg
        self.mass = assemble_mass_matrix(system)
        self.work = system.copy()
        self.nlist = NeighborList.build(system)
        self.d_min = float(np.min(system.d))
        # |(-K)^-1|_2 <= h / min(diag M), because -K >= M/h
        self._inv_k_bound = cfg.h / float(np.min(self.mass.diag))
        self._m_over_h = (1.0 / cfg.h) * self.mass.diag
        self._damped = params.gamma_n != 0.0 or params.gamma_t != 0.0

    # -- contact evaluation ------------------------------------------------

    def contacts_at(self, q: np.ndarray) -> ContactSet:
        """Contacts with the centres at q; an equal q reuses the last set."""
        return self.nlist.contacts_at(self.work, q)

    def _explicit_damping(self, q_k: np.ndarray, vel_k: np.ndarray):
        """Contacts at q_k (when a caller needs them) and Q(q_k, v_k)."""
        if not (self._damped or self.cfg.alpha == 0.0):
            return None, np.zeros_like(q_k)  # undamped midpoint rule never reads them
        s_k = self.contacts_at(q_k)
        q_plus = (_forces.nonconservative_force(self.work, s_k, vel_k, self.params)
                  if self._damped else np.zeros_like(q_k))
        return s_k, q_plus

    def _residual(self, p_k, delta, q_plus, s_mid: ContactSet, q_minus=None):
        """Step residual at the displacement delta on the midpoint set s_mid,
        with q_minus = Q(s_mid, delta / h) when the caller already has it.
        Returns (r, grad V(q_mid), Q(s_mid, delta / h), M delta)."""
        h, alpha = self.cfg.h, self.cfg.alpha
        grad_mid = _forces.potential_gradient(self.work, s_mid, self.params)
        if q_minus is None:
            q_minus = (_forces.nonconservative_force(self.work, s_mid, delta / h,
                                                     self.params)
                       if self._damped else np.zeros_like(delta))
        m_delta = self.mass.matvec(delta)
        r = (p_k - m_delta / h
             - h * (1.0 - alpha) * grad_mid
             + 0.5 * h * q_minus + 0.5 * h * q_plus)
        return r, grad_mid, q_minus, m_delta

    # -- one implicit step ---------------------------------------------------

    def solve_position(self, q_k: np.ndarray, p_k: np.ndarray):
        """Newton loop on the displacement; returns (q_{k+1}, p_{k+1}, report)."""
        h, alpha = self.cfg.h, self.cfg.alpha
        vel_k = self.mass.solve(p_k)
        s_k, q_plus = self._explicit_damping(q_k, vel_k)

        delta = h * vel_k
        frozen = (alpha == 0.0)
        s_mid = s_k if frozen else self.contacts_at(q_k + alpha * delta)
        # at alpha = 0, Q(s_k, delta_0 / h) is Q(s_k, v_k) = q_plus
        r, grad_mid, q_minus, m_delta = self._residual(
            p_k, delta, q_plus, s_mid, q_plus if frozen else None)
        k_set = None     # the contact set -K was built from
        last_dq = np.inf
        cg_total = corrections = 0
        newton_tol = NEWTON_TOL * self.d_min
        # force scales that do not change over the Newton passes
        fixed_scale = max(float(np.max(np.abs(q_plus), initial=0.0)),
                          float(np.max(np.abs(p_k), initial=0.0)) / h,
                          np.max(self.system.m) * abs(self.system.gravity),
                          1e-300)

        while True:
            r_norm = float(np.max(np.abs(r), initial=0.0))
            fscale = max(float(np.max(np.abs(grad_mid), initial=0.0)),
                         float(np.max(np.abs(q_minus), initial=0.0)),
                         float(np.max(np.abs(m_delta), initial=0.0)) / h ** 2,
                         fixed_scale)
            tol_r = RESIDUAL_SCALE_TOL * h * fscale
            if r_norm <= tol_r and (
                    corrections == 0 or last_dq < newton_tol
                    or (s_mid is k_set and float(np.linalg.norm(r))
                        * self._inv_k_bound < newton_tol)):
                report = StepReport(corrections, r_norm, cg_total, len(s_mid))
                q_next = q_k + delta
                p_next = self.mass.matvec(q_next - q_k) / h - h * alpha * grad_mid
                return q_next, p_next, report
            if corrections >= NEWTON_MAX:
                raise StepFailureError(
                    f"Newton did not converge in {NEWTON_MAX} iterations",
                    residual=r_norm, iterations=corrections)
            if s_mid is not k_set:
                a_op = self._neg_stiffness(s_mid)
                k_set = s_mid
            d_delta, it, r_lin = cg_solve(a_op, r, tol=CG_TOL,
                                          max_iter=CG_MAX_ITER, jacobi=True)
            delta = delta + d_delta
            last_dq = float(np.max(np.abs(d_delta), initial=0.0))
            cg_total += it
            corrections += 1
            frozen = frozen or corrections >= N_FREEZE
            if frozen:
                # affine residual: Q(s_mid, delta / h) is not formed, and
                # leaving it out of fscale only tightens the test
                r, q_minus, m_delta = r_lin, 0.0, self.mass.matvec(delta)
            else:
                s_mid = self.contacts_at(q_k + alpha * delta)
                r, grad_mid, q_minus, m_delta = self._residual(
                    p_k, delta, q_plus, s_mid)

    def _neg_stiffness(self, s_mid: ContactSet) -> BlockSparseMatrix:
        """-K = M/h - (1/2) dQ/dv, the SPD operator handed to CG: M/h on
        the diagonal, -1/2 times the damping rows."""
        if self._damped and len(s_mid):
            return _forces.dQ_dv(self.work, s_mid, self.params).affine(
                -0.5, self._m_over_h)
        return BlockSparseMatrix(self.system.n, self._m_over_h)

    def step(self, state: GeneralizedState) -> tuple[GeneralizedState, StepReport]:
        check_finite(state.q, state.p,
                     f"input of VI step {state.k} (t = {state.t:g})")
        q_next, p_next, report = self.solve_position(state.q, state.p)
        new_state = GeneralizedState(q=q_next, p=p_next,
                                     t=state.t + self.cfg.h, k=state.k + 1)
        return new_state, report


# -- module-level contract functions --------------------------------------


def discrete_lagrangian(q_k: np.ndarray, q_k1: np.ndarray, cfg: VIConfig,
                        system: ParticleSystem, params: ContactParams) -> float:
    """Quadrature of the action over one step:
    (1/2h) dq^T M dq - h V(q_{k+a})."""
    q_k = np.asarray(q_k, dtype=float).ravel()
    q_k1 = np.asarray(q_k1, dtype=float).ravel()
    mass = assemble_mass_matrix(system)
    dq = q_k1 - q_k
    kinetic = 0.5 * float(dq @ mass.matvec(dq)) / cfg.h
    q_mid = (1.0 - cfg.alpha) * q_k + cfg.alpha * q_k1
    work = system.copy()
    work.pos[:] = q_mid.reshape(-1, BLOCK)[:, :3]
    contacts = _contact.detect_contacts_brute_force(work)
    return kinetic - cfg.h * _forces.potential_energy(work, contacts, params)


def _at_midpoint(q_k, q_k1, cfg: VIConfig, system: ParticleSystem,
                 params: ContactParams):
    """(integrator, q_k, q_k1 - q_k, contacts at q_k + alpha (q_k1 - q_k))."""
    integ = VIIntegrator(system, params, cfg)
    q_k = np.asarray(q_k, dtype=float).ravel()
    delta = np.asarray(q_k1, dtype=float).ravel() - q_k
    return integ, q_k, delta, integ.contacts_at(q_k + cfg.alpha * delta)


def residual(q_k, q_k1_guess, p_k, cfg: VIConfig, system: ParticleSystem,
             params: ContactParams) -> np.ndarray:
    """The nonlinear step equation evaluated at a trial q_{k+1}."""
    p_k = np.asarray(p_k, dtype=float).ravel()
    integ, q_k, delta, s_mid = _at_midpoint(q_k, q_k1_guess, cfg, system, params)
    _, q_plus = integ._explicit_damping(q_k, integ.mass.solve(p_k))
    return integ._residual(p_k, delta, q_plus, s_mid)[0]


def stiffness(q_k, q_k1_guess, cfg: VIConfig, system: ParticleSystem,
              params: ContactParams) -> BlockSparseMatrix:
    """Linearization K of the residual in q_{k+1} (negative definite)."""
    integ, _, _, s_mid = _at_midpoint(q_k, q_k1_guess, cfg, system, params)
    return integ._neg_stiffness(s_mid).affine(-1.0)


def implicit_position_solve(q_k, p_k, cfg: VIConfig, system: ParticleSystem,
                            params: ContactParams):
    """Newton solve for q_{k+1} from (q_k, p_k); returns (q_{k+1}, StepReport)."""
    integ = VIIntegrator(system, params, cfg)
    q, _, report = integ.solve_position(np.asarray(q_k, dtype=float).ravel(),
                                        np.asarray(p_k, dtype=float).ravel())
    return q, report


def momentum_update(q_k, q_k1, cfg: VIConfig, system: ParticleSystem,
                    params: ContactParams) -> np.ndarray:
    """Explicit momentum update for an accepted position step."""
    integ, _, delta, s_mid = _at_midpoint(q_k, q_k1, cfg, system, params)
    grad = _forces.potential_gradient(integ.work, s_mid, params)
    return integ.mass.matvec(delta) / cfg.h - cfg.h * cfg.alpha * grad


def vi_step(state: GeneralizedState, cfg: VIConfig, system: ParticleSystem,
            params: ContactParams) -> tuple[GeneralizedState, StepReport]:
    """One full implicit step. For long runs reuse a VIIntegrator."""
    return VIIntegrator(system, params, cfg).step(state)


def quasi_static_solve(q_init, system: ParticleSystem, params: ContactParams):
    """Newton descent on grad V(q) = 0, the inertia-free limit of the stepper.

    Works on the translational coordinates (the potential never reads
    orientations). The contact-aware Hessian is regularized only when CG
    reports trouble, and steps are clamped and backtracked so the energy
    never increases. Returns (q_equilibrium, QuasiStaticReport).
    """
    work = system.copy()
    nlist = NeighborList.build(system)
    q = np.asarray(q_init, dtype=float).ravel().copy()
    d_min = float(np.min(system.d))
    tol = STATIC_TOL * params.k_n * d_min
    max_step = 0.1 * d_min

    contacts = nlist.contacts_at(work, q)
    for it in range(STATIC_MAX_ITER + 1):
        grad = _forces.potential_gradient(work, contacts, params)
        g_norm = float(np.max(np.abs(grad), initial=0.0))
        if g_norm < tol:
            energy = _forces.potential_energy(work, contacts, params)
            return q, QuasiStaticReport(it, g_norm, energy)
        if it == STATIC_MAX_ITER:
            break
        hess = _forces.potential_hessian(work, contacts, params)
        lam = 0.0
        for _ in range(8):
            try:
                op = hess.affine(1.0, lam)
                dq, _, _ = cg_solve(op, -grad, tol=CG_TOL, max_iter=CG_MAX_ITER)
                break
            except (IndefiniteOperatorError, SolverFailureError):
                lam = max(10.0 * lam, 1e-8 * params.k_n)
        else:
            raise SolverFailureError("quasi-static Hessian solve failed",
                                     residual=g_norm, iterations=it)
        step_inf = float(np.max(np.abs(dq), initial=0.0))
        if step_inf > max_step:
            dq *= max_step / step_inf
        v_old = _forces.potential_energy(work, contacts, params)
        for _ in range(40):
            trial = q + dq
            contacts_trial = nlist.contacts_at(work, trial)
            v_new = _forces.potential_energy(work, contacts_trial, params)
            if v_new <= v_old + 1e-12 * (abs(v_old) + 1.0):
                q = trial
                contacts = contacts_trial
                break
            dq *= 0.5
        else:
            raise SolverFailureError("quasi-static line search stalled",
                                     residual=g_norm, iterations=it)
    raise SolverFailureError(
        f"quasi-static solve did not reach tolerance {tol:g}",
        residual=g_norm, iterations=STATIC_MAX_ITER)
