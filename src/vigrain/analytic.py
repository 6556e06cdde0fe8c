"""Closed-form solutions for the head-on two-particle collision.

Two flavors are provided on purpose. impact_position and
impact_velocity reproduce the published damped-oscillator expressions
verbatim, including their quirks (the velocity prefactor gamma^2/m is
dimensionally off against dx/dt of the position expression, and the
printed decay rate does not follow from the stated contact force).
impact_velocity_consistent is the exact time derivative of
impact_position. contact_phase_position / contact_phase_velocity solve
the pair's actual equations of motion,

    m y'' = -2 k y - 2 gamma_n m_eff y'   (y = x - d/2, equal masses)

and are the reference the simulation is expected to track.
t = 0 is contact onset throughout; scenario code shifts by t_A when
comparing full trajectories.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ImpactParams:
    """Head-on impact description: equal spheres approaching at speed v each.

    gamma is the per-pair damping ratio gamma_n / m_eff.
    """

    d: float = 1.0
    m: float = 1.0
    k_n: float = 195000.0
    gamma: float = 0.0
    v: float = 1.0

    def __post_init__(self):
        for name in ("d", "m", "k_n", "v"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not 0.0 <= self.gamma < np.inf:
            raise ValueError("gamma must be finite and non-negative")
        if 2.0 * self.k_n / self.m <= (self.gamma / self.m) ** 2:
            raise ValueError("overdamped parameters: t_gamma is not real")

    @property
    def t_gamma(self) -> float:
        return 1.0 / np.sqrt(2.0 * self.k_n / self.m - (self.gamma / self.m) ** 2)

    @property
    def m_eff(self) -> float:
        return 0.5 * self.m

    @property
    def gamma_n(self) -> float:
        return self.gamma * self.m_eff


def impact_position(t: float, p: ImpactParams) -> float:
    """Published x(t) of the right particle, t measured from contact onset."""
    tg = p.t_gamma
    return p.d / 2.0 - p.v * tg * np.exp(-p.gamma * t / p.m) * np.sin(t / tg)


def impact_velocity(t: float, p: ImpactParams) -> float:
    """Published v(t), implemented exactly as printed.

    Note the gamma^2/m prefactor; see impact_velocity_consistent for the
    dx/dt-consistent form.
    """
    tg = p.t_gamma
    return p.v * np.exp(-p.gamma * t / p.m) * (
        (p.gamma ** 2 / p.m) * np.sin(t / tg) - np.cos(t / tg))


def impact_velocity_consistent(t: float, p: ImpactParams) -> float:
    """Exact time derivative of impact_position."""
    tg = p.t_gamma
    decay = np.exp(-p.gamma * t / p.m)
    return p.v * decay * ((p.gamma * tg / p.m) * np.sin(t / tg) - np.cos(t / tg))


def collision_times(p: ImpactParams):
    """(t_A, t_C, t_gamma): free-flight time to contact from the standard
    initial placement at x = +-d, the contact duration, and the damped
    oscillator time scale."""
    t_a = p.d / (2.0 * p.v)
    t_c = np.pi * np.sqrt(p.m / (2.0 * p.k_n))
    return t_a, t_c, p.t_gamma


def _reduced_coefficients(p: ImpactParams):
    """Decay rate and damped frequency of the pair's actual contact dynamics."""
    beta = p.gamma_n * p.m_eff / p.m
    w0sq = 2.0 * p.k_n / p.m
    if w0sq <= beta ** 2:
        raise ValueError("overdamped contact: no oscillatory solution")
    return beta, np.sqrt(w0sq - beta ** 2)


def contact_phase_position(t, p: ImpactParams):
    """Right-particle position during contact for the simulated force law."""
    beta, wd = _reduced_coefficients(p)
    t = np.asarray(t, dtype=float)
    return p.d / 2.0 - (p.v / wd) * np.exp(-beta * t) * np.sin(wd * t)


def contact_phase_velocity(t, p: ImpactParams):
    """Right-particle velocity during contact for the simulated force law."""
    beta, wd = _reduced_coefficients(p)
    t = np.asarray(t, dtype=float)
    decay = np.exp(-beta * t)
    return -p.v * decay * (np.cos(wd * t) - (beta / wd) * np.sin(wd * t))


def contact_phase_duration(p: ImpactParams) -> float:
    """Time from onset until the overlap returns to zero."""
    _, wd = _reduced_coefficients(p)
    return np.pi / wd


def exit_speed(p: ImpactParams) -> float:
    """Speed of either particle when the contact releases."""
    beta, wd = _reduced_coefficients(p)
    return p.v * np.exp(-beta * np.pi / wd)
