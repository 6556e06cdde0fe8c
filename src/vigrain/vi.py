"""Implicit variational time stepper and the quasi-static solver.

One step solves the nonlinear update equation for the displacement
D = q_{k+1} - q_k,

    r(D) = p_k - (1/h) M D
           - h (1-a) grad V(q_k + a D)
           + (h/2) Q(q_k + a D, D/h)
           + (h/2) Q(q_k, M^-1 p_k)          = 0

by Newton iteration from D_0 (below) with a conjugate-gradient
inner solve, where a is 0 (first order) or 1/2 (second order). The
iterate is D, not q_{k+1}, so M D / h does not cancel however far the
system sits from the origin: q_k + a D is formed only to detect the
midpoint contacts, and q_{k+1} = q_k + D once, for the accepted D.
p_{k+1} = (1/h) M [q_{k+1} - q_k] - h a grad V(q_k + a D) reuses the last
residual's gradient; the stored positions' difference is exact.

The stiffness keeps only the dominant terms, K = -(1/h) M plus
half the velocity Jacobian of Q; the converged solution is unchanged
because acceptance is residual-based. -K = M/h - (1/2) dQ/dv is SPD
(-dQ/dv is positive semidefinite) and dominated by its inertial part,
so CG is preconditioned by (M/h)^-1, computed once per integrator
(diagonal preconditioning; Saad, Iterative Methods for Sparse Linear
Systems, 2nd ed., SIAM 2003, sec. 10.2). -K is never assembled: Q is
linear in the velocity, so each CG product is
-K x = M x / h - (1/2) Q(q_{k+a}, x) evaluated from the contact rows.
On a body that no contact row touches, -K is exactly its inertial
block M/h, so each correction splits in two (block elimination with a
diagonal block, Saad, as above): those DOFs are solved as
dD = (M/h)^-1 r, and CG runs only on the DOFs of the bodies the rows
couple, with the rows renumbered onto them, stopping when the whole
residual is below CG_TOL times |r|. A correction with no coupled body
takes no CG iteration.

On a fixed contact set (alpha = 0, or any pass after N_FREEZE) r is
affine in D and K is its exact Jacobian, so the residual after a
correction dD is r - (-K) dD: the residual CG hands back on the
coupled DOFs, and zero on the others, where the solve is exact. No
force is evaluated again. At alpha = 0 the first residual also reuses
Q(q_k, v_k), because D_0 / h = v_k on the bodies of the rows, so a step
with contacts makes one detection, one gradient, one damping force, one
dQ/dv and one CG solve.

The initial guess and the active DOFs. A body on no contact row has
the linear residual p_k - M D / h - h (1-a) m g e_z, solved exactly by
its free fall D = h v_k - h^2 (1-a) g e_z, whose z term is one per-body
constant, (M/h)^-1 times gravity's. D_0 is that free fall on every body
but those on a row of the set at q_k, which start from h v_k; the
undamped midpoint rule never detects that set, and starts every body
falling. The residual is formed only on the active DOFs: those the
step's sets couple, and at alpha = 1/2 those a set of an earlier pass
coupled, since a body a correction moved while coupled keeps a
residual after its contact opens. Off them D_0 is exact and r is zero,
so a contact-free step is accepted at its initial guess. The gradient
and the damping force are evaluated on the rows renumbered onto the
coupled bodies (forces.coupled_forces), and after a correction on a fixed
set r is kept on the coupled DOFs only. Only D, q, p and the initial
guess span all 6N DOFs; the dot products and norms of CG, of its
tolerance and of the acceptance test run on the active DOFs.

An iterate passes the residual test when |r| <= RESIDUAL_SCALE_TOL h
times the force scale: the largest |grad V| and |Q| over the coupled
DOFs, with |p_k| / h, |Q(q_k, M^-1 p_k)| and m_max |g|, which bounds
|grad V| on every other body, and after a correction |M D| / h^2, formed
only when the rest does not already pass r. The initial guess is
accepted when it passes. After a correction, an iterate is accepted
when it passes and the next Newton correction is known to be below
NEWTON_TOL d: either the last correction was that small, or the
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
STATIC_TOL = 1e-8        # quasi-static gradient, in units of k_n d
STATIC_MAX_ITER = 100    # quasi-static Newton steps


@dataclass
class VIConfig:
    """The run configuration of the implicit stepper: the time step h
    and the quadrature parameter alpha (0 or 1/2)."""

    h: float
    alpha: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.h < np.inf:
            raise ValueError("time step must be finite and positive")
        if self.alpha not in (0.0, 0.5):
            raise ValueError("alpha must be 0 or 1/2")


@dataclass
class StepReport:
    """What one step of either stepper cost.

    newton_iters counts correction solves; a step accepted at the
    initial guess reports zero, as does every contact-free step (its
    initial guess is the free fall) and every Verlet step. On a
    frozen contact set one correction usually suffices: the residual
    then bounds the next correction (see the module docstring), so no
    second solve is made to measure it. cg_iters sums the CG iterations
    of the corrections; CG runs only on the bodies a contact row
    couples, so a correction with no such body takes 0 iterations.
    n_contacts is the size of the set the step's last force evaluation
    used.
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
    """Owns the mass diagonal and neighbor list for a run.

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
        self.nlist = NeighborList.build(system)
        # |(-K)^-1|_2 <= h / min(diag M), because -K >= M/h
        self._inv_k_bound = cfg.h / float(np.min(self.mass))
        self._m_over_h = (1.0 / cfg.h) * self.mass
        self._precond = 1.0 / self._m_over_h   # CG's, the same for every -K
        self._damped = params.gamma_n != 0.0 or params.gamma_t != 0.0
        # on a body no contact row touches, grad V is m g on z: the
        # residual's h (1-a) m g there, the initial guess's free fall
        # (M/h)^-1 times that, and the momentum's h a m g; m.max() |g|
        # bounds |grad V| on such a body
        g, h, alpha = system.gravity, cfg.h, cfg.alpha
        self._weight = system.m.max() * abs(g)
        self._gravity_term = self._free_fall = self._mid_gravity = None
        if g != 0.0:
            self._gravity_term = (h * (1.0 - alpha)) * (system.m * g)
            self._free_fall = self._precond[2::BLOCK] * self._gravity_term
            self._mid_gravity = (h * alpha) * (system.m * g)

    # -- contact evaluation ------------------------------------------------

    def contacts_at(self, q: np.ndarray) -> ContactSet:
        """Contacts with the centres at q; the same centres reuse the last set."""
        return self.nlist.contacts_at(q)

    def _explicit_damping(self, q_k: np.ndarray, p_k: np.ndarray):
        """(s_k, explicit): the contacts at q_k (when a caller needs them)
        and Q(q_k, v_k) as (dofs, values) on the DOFs of the bodies they
        couple, off which it is zero; explicit is None when undamped, and
        when no row touches a body."""
        if not self._damped:
            # the undamped midpoint rule never reads the contacts at q_k
            return (self.contacts_at(q_k) if self.cfg.alpha == 0.0 else None,
                    None)
        s_k = self.contacts_at(q_k)
        dofs, _, damping = _forces.coupled_forces(
            self.system, s_k, self.params, lambda at: p_k[at] / self.mass[at],
            gradient=False)
        return s_k, None if damping is None else (dofs, damping)

    def _residual(self, p_k, delta, explicit, s_mid: ContactSet, act, q_minus=None):
        """Step residual at the displacement delta on the midpoint set s_mid,
        on the DOFs act, a sorted superset of the DOFs s_mid couples,
        with explicit = Q(q_k, v_k) on DOFs within act (see
        _explicit_damping) and q_minus = Q(s_mid, delta / h) on the
        coupled DOFs when the caller already has it.

        On a body no row of s_mid touches the residual is
        p_k - M delta / h less gravity's h (1-a) m g; the rows' terms are
        evaluated on the renumbered rows of s_mid.coupled(). Returns
        (r on act, -grad V(q_mid) on the coupled DOFs, max |grad V| and
        max |Q(s_mid, delta / h)| there)."""
        h = self.cfg.h
        if not act.size:   # no row: the residual has no active DOF
            return act, act, (0.0, 0.0)
        dofs, neg_grad, damping = _forces.coupled_forces(
            self.system, s_mid, self.params,
            None if q_minus is not None or not self._damped
            else lambda at: delta[at] / h)
        q_minus = damping if q_minus is None else q_minus
        r_c = (p_k[dofs] - self.mass[dofs] * delta[dofs] / h
               + (h * (1.0 - self.cfg.alpha)) * neg_grad)
        q_scale = 0.0
        if q_minus is not None:
            r_c += (0.5 * h) * q_minus
            q_scale = float(np.abs(q_minus).max(initial=0.0))
        if act.size == dofs.size:   # act holds dofs, so they are the same
            r = r_c
        else:
            r = p_k[act] - self.mass[act] * delta[act] / h
            if self._gravity_term is not None:
                r[2::BLOCK] -= self._gravity_term[act[2::BLOCK] // BLOCK]
            r[np.searchsorted(act, dofs)] = r_c
        if explicit is not None:
            at = (slice(None) if explicit[0].size == act.size
                  else np.searchsorted(act, explicit[0]))
            r[at] += (0.5 * h) * explicit[1]
        return r, neg_grad, (float(np.abs(neg_grad).max(initial=0.0)), q_scale)

    # -- one implicit step ---------------------------------------------------

    def solve_position(self, q_k: np.ndarray, p_k: np.ndarray):
        """Newton loop on the displacement; returns (q_{k+1}, p_{k+1}, report)."""
        h, alpha = self.cfg.h, self.cfg.alpha
        s_k, explicit = self._explicit_damping(q_k, p_k)

        # D_0: a body on no row of s_k falls freely, h v_k - h^2 (1-a) g e_z,
        # the exact step while no row touches it; a body on one keeps h v_k
        delta = p_k / self.mass
        delta *= h
        if self._free_fall is not None:
            held = (np.empty(0, dtype=np.intp) if s_k is None
                    else s_k.coupled()[0][2::BLOCK])
            d_held = delta[held]
            delta[2::BLOCK] -= self._free_fall
            delta[held] = d_held
        frozen = (alpha == 0.0)
        s_mid = s_k if frozen else self.contacts_at(q_k + alpha * delta)
        # the active DOFs: those a row of the step's sets couples; off them
        # D_0 is exact and r is zero
        act = s_mid.coupled()[0]
        if explicit is not None:
            act = _union(explicit[0], act)
        # at alpha = 0, Q(s_k, delta_0 / h) is Q(s_k, v_k)
        r, neg_grad, (g_scale, q_scale) = self._residual(
            p_k, delta, explicit, s_mid, act,
            explicit[1] if frozen and explicit is not None else None)
        k_set = None     # the contact set -K was built from
        d_act = None     # the last correction, on act
        cg_total = corrections = 0
        newton_tol = NEWTON_TOL * self.nlist.d
        r_tol = RESIDUAL_SCALE_TOL * h
        # force scales that do not change over the Newton passes
        fixed_scale = max(0.0 if explicit is None
                          else float(np.abs(explicit[1]).max(initial=0.0)),
                          max(p_k.max(initial=0.0), -p_k.min(initial=0.0)) / h,
                          self._weight, 1e-300)
        scale = max(g_scale, q_scale, fixed_scale)

        while True:
            # the test is |r| <= r_tol max(scale, |M D| / h^2); M D is
            # formed only after a correction, and only when the forces'
            # scale does not pass r: leaving |M D_0| / h^2 out of pass 0's
            # scale only tightens its test
            r_norm = float(np.abs(r).max(initial=0.0))
            small = r_norm <= r_tol * scale
            if not small and corrections:
                small = r_norm <= r_tol * (float(np.abs(self.mass * delta).max())
                                           / h ** 2)
            if small and (
                    corrections == 0
                    or (s_mid is k_set and float(np.linalg.norm(r))
                        * self._inv_k_bound < newton_tol)
                    or float(np.abs(d_act).max(initial=0.0)) < newton_tol):
                report = StepReport(corrections, r_norm, cg_total, len(s_mid))
                q_next = q_k + delta
                # M (q_{k+1} - q_k) / h, in delta's buffer
                p_next = np.subtract(q_next, q_k, out=delta)
                p_next *= self.mass
                p_next /= h
                if alpha != 0.0:
                    dofs = s_mid.coupled()[0]
                    p_c = p_next[dofs] + h * alpha * neg_grad
                    if self._mid_gravity is not None:
                        p_next[2::BLOCK] -= self._mid_gravity
                    p_next[dofs] = p_c
                return q_next, p_next, report
            if corrections >= NEWTON_MAX:
                raise StepFailureError(
                    f"Newton did not converge in {NEWTON_MAX} iterations",
                    residual=r_norm, iterations=corrections)
            if s_mid is not k_set:
                k_set, newton_solve = s_mid, self._newton_solver(s_mid)
            d_act, it, r_c = newton_solve(r, act)
            delta[act] += d_act
            cg_total += it
            corrections += 1
            frozen = frozen or corrections >= N_FREEZE
            if frozen:
                # affine residual: CG's on the coupled DOFs, zero elsewhere;
                # Q(s_mid, delta / h) is not formed, and leaving it out of
                # the scale only tightens the test
                r, act = r_c, s_mid.coupled()[0]
                scale = max(g_scale, fixed_scale)
            else:
                s_mid = self.contacts_at(q_k + alpha * delta)
                act = _union(act, s_mid.coupled()[0])
                r, neg_grad, (g_scale, q_scale) = self._residual(
                    p_k, delta, explicit, s_mid, act)
                scale = max(g_scale, q_scale, fixed_scale)

    def _newton_solver(self, s_mid: ContactSet):
        """The Newton correction on the set s_mid as a function
        solve(r, act) of the residual r on the DOFs act, a sorted superset
        of the DOFs of the bodies a row of s_mid couples, r being zero off
        act. Returns (dD on act, CG iterations, r - (-K) dD on the coupled
        DOFs).

        On a body no row touches, -K is its inertial block M/h, so
        dD = (M/h)^-1 r there and r - (-K) dD is zero; CG solves only the
        coupled bodies' block, to CG_TOL relative to the whole of r."""
        dofs, rows = s_mid.coupled()
        a_op = self._neg_stiffness(rows, self._m_over_h[dofs])
        precond = self._precond[dofs]

        def solve(r, act):
            at = None if act.size == dofs.size else np.searchsorted(act, dofs)
            r_c = r if at is None else r[at]
            tol = CG_TOL
            if at is not None:
                r_c_norm = np.linalg.norm(r_c)
                if r_c_norm:
                    tol = CG_TOL * np.linalg.norm(r) / r_c_norm
            x, it, r_c = cg_solve(a_op, r_c, tol=tol, precond=precond)
            if at is None:
                return x, it, r_c
            d_delta = r * self._precond[act]
            d_delta[at] = x
            return d_delta, it, r_c
        return solve

    def _neg_stiffness(self, s: ContactSet, m_over_h) -> BlockSparseMatrix:
        """-K = M/h - (1/2) dQ/dv over the bodies of s, the SPD operator
        handed to CG: m_over_h, their M/h, on the diagonal, -1/2 times
        the damping rows."""
        if self._damped and len(s):
            return _forces.dQ_dv(self.system, s, self.params).affine(-0.5, m_over_h)
        return BlockSparseMatrix(s.n_bodies, m_over_h)

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
    kinetic = 0.5 * float(dq @ (mass * dq)) / cfg.h
    q_mid = (1.0 - cfg.alpha) * q_k + cfg.alpha * q_k1
    contacts = NeighborList.build(system).contacts_at(q_mid)
    return kinetic - cfg.h * _potential(q_mid, contacts, system, params)


def residual(q_k, q_k1_guess, p_k, cfg: VIConfig, system: ParticleSystem,
             params: ContactParams) -> np.ndarray:
    """The nonlinear step equation evaluated at a trial q_{k+1}."""
    integ = VIIntegrator(system, params, cfg)
    q_k = np.asarray(q_k, dtype=float).ravel()
    delta = np.asarray(q_k1_guess, dtype=float).ravel() - q_k
    p_k = np.asarray(p_k, dtype=float).ravel()
    s_mid = integ.contacts_at(q_k + cfg.alpha * delta)
    _, explicit = integ._explicit_damping(q_k, p_k)
    return integ._residual(p_k, delta, explicit, s_mid, np.arange(delta.size))[0]


def _potential(q: np.ndarray, contacts: ContactSet, system: ParticleSystem,
               params: ContactParams) -> float:
    """V with the centres at q: the contact springs, then gravity."""
    return (_forces.contact_energy(contacts, params)
            + _forces.gravity_energy(system, q[2::BLOCK]))


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sorted union of two sorted index arrays; b itself when a adds
    nothing to it."""
    if a is b or a.size == 0 or (a.size == b.size and (a == b).all()):
        return b
    return a if b.size == 0 else np.union1d(a, b)


def quasi_static_solve(q_init, system: ParticleSystem, params: ContactParams):
    """Newton descent on grad V(q) = 0, the inertia-free limit of the stepper.

    Works on the translational coordinates (the potential never reads
    orientations). The contact-aware Hessian is regularized only when CG
    reports trouble, and steps are clamped and backtracked so the energy
    never increases. Returns (q_equilibrium, QuasiStaticReport).
    """
    nlist = NeighborList.build(system)
    q = np.asarray(q_init, dtype=float).ravel().copy()
    tol = STATIC_TOL * params.k_n * nlist.d
    max_step = 0.1 * nlist.d

    contacts = nlist.contacts_at(q)
    energy = _potential(q, contacts, system, params)
    for it in range(STATIC_MAX_ITER + 1):
        grad = _forces.potential_gradient(system, contacts, params)
        g_norm = float(np.max(np.abs(grad), initial=0.0))
        if g_norm < tol:
            return q, QuasiStaticReport(it, g_norm, energy)
        if it == STATIC_MAX_ITER:
            break
        hess = _forces.potential_hessian(system, contacts, params)
        lam = 0.0
        for _ in range(8):
            try:
                op = hess.affine(1.0, lam)
                dq, _, _ = cg_solve(op, -grad, tol=CG_TOL)
                break
            except (IndefiniteOperatorError, SolverFailureError):
                lam = max(10.0 * lam, 1e-8 * params.k_n)
        else:
            raise SolverFailureError("quasi-static Hessian solve failed",
                                     residual=g_norm, iterations=it)
        step_inf = float(np.max(np.abs(dq), initial=0.0))
        if step_inf > max_step:
            dq *= max_step / step_inf
        for _ in range(40):
            trial = q + dq
            contacts_trial = nlist.contacts_at(trial)
            v_new = _potential(trial, contacts_trial, system, params)
            if v_new <= energy + 1e-12 * (abs(energy) + 1.0):
                q, contacts, energy = trial, contacts_trial, v_new
                break
            dq *= 0.5
        else:
            raise SolverFailureError("quasi-static line search stalled",
                                     residual=g_norm, iterations=it)
    raise SolverFailureError(
        f"quasi-static solve did not reach tolerance {tol:g}",
        residual=g_norm, iterations=STATIC_MAX_ITER)
