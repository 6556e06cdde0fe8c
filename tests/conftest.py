"""Shared fixtures and oracle helpers."""
import numpy as np
import pytest

from vigrain import ContactParams, ParticleSystem, Wall, Bond

ACCEPTANCE_LINES = []


def record_criterion(label: str, ok: bool, detail: str) -> None:
    """Collect one pass/fail line per acceptance criterion."""
    status = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(f"criterion {label}: {status} - {detail}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def fd_gradient(f, x, eps):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        hi = x.copy(); hi[i] += eps
        lo = x.copy(); lo[i] -= eps
        g[i] = (f(hi) - f(lo)) / (2.0 * eps)
    return g


def fd_jacobian(f, x, eps):
    """Central-difference Jacobian of a vector function."""
    x = np.asarray(x, dtype=float)
    f0 = f(x)
    jac = np.zeros((f0.size, x.size))
    for i in range(x.size):
        hi = x.copy(); hi[i] += eps
        lo = x.copy(); lo[i] -= eps
        jac[:, i] = (f(hi) - f(lo)) / (2.0 * eps)
    return jac


def dense(op):
    """The dense matrix of a linear operator, one matvec per unit vector."""
    return np.column_stack([op.matvec(e) for e in np.eye(op.dim)])


def count_calls(monkeypatch, owner, name):
    """Replace owner.name with a pass-through that logs each call; returns the log."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def stacked_velocity(system):
    """The 6N velocity vector (v, omega per particle) of a system."""
    v = np.zeros((system.n, 6))
    v[:, :3] = system.vel
    v[:, 3:] = system.omega
    return v.ravel()


def random_system(seed, n=None, walls=False, bonds=False, gravity=0.0,
                  kink_margin=1e-4):
    """Small random configuration with several overlaps.

    Keeps every pair and wall overlap away from delta = 0 by kink_margin
    so finite differences of the piecewise potential stay meaningful.
    """
    rng = np.random.default_rng(seed)
    n = n if n is not None else int(rng.integers(2, 9))
    for _ in range(400):
        pos = rng.uniform(-1.2, 1.2, (n, 3))
        iu, ju = np.triu_indices(n, k=1)
        dist = np.linalg.norm(pos[iu] - pos[ju], axis=1)
        if np.min(dist) < 0.3:
            continue
        if np.any(np.abs(1.0 - dist) < kink_margin):
            continue
        wall_list = []
        if walls:
            wall_list = [Wall(np.array([0.0, 0.0, -1.4]), np.array([0.0, 0.0, 1.0]))]
            wdelta = 0.5 - (pos[:, 2] + 1.4)
            if np.any(np.abs(wdelta) < kink_margin):
                continue
        break
    else:
        raise RuntimeError("could not draw a kink-free configuration")
    vel = rng.normal(0.0, 1.0, (n, 3))
    omega = rng.normal(0.0, 1.0, (n, 3))
    system = ParticleSystem(pos, vel, omega, d=1.0, m=1.0,
                            walls=wall_list, gravity=gravity)
    if bonds:
        close = np.argsort(dist)
        chosen = []
        for idx in close[: max(1, n // 3)]:
            chosen.append(Bond(int(iu[idx]), int(ju[idx]), k_bond=500.0))
        system.bonds = chosen
    return system


def sparse_contacts() -> ParticleSystem:
    """600 bodies in a loose grid under gravity, with two contact rows:
    body 0 on the floor and body 2 touching body 1; random velocities."""
    grid = np.stack(np.meshgrid(*[np.arange(k) * 2.0 for k in (10, 10, 6)],
                                indexing="ij"), axis=-1).reshape(-1, 3)
    pos = grid + [0.0, 0.0, 5.0]
    pos[0] = [0.0, 0.0, 0.45]             # on the floor
    pos[2] = pos[1] + [0.0, 0.0, 0.95]    # touching body 1
    floor = Wall(np.zeros(3), np.array([0.0, 0.0, 1.0]))
    vel = np.random.default_rng(0).normal(size=pos.shape)
    return ParticleSystem(pos, vel, walls=[floor], gravity=1.0)


@pytest.fixture
def damped_params():
    """gamma = 30 with unit mass: gamma_n = 15, gamma_t = 7.5."""
    return ContactParams.from_damping_ratio(30.0, 1.0)
