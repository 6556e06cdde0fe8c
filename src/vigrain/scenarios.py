"""Builders for the four benchmark experiments.

All builders use reduced units d = 1, m = 1 (and g = 1 where gravity
acts), with the contact stiffness fixed by k d / (m g) = 195000. The
damping ratio gamma = gamma_n / m_eff is a per-scenario knob; tangential
damping is gamma_n / 2 and friction is zero throughout.
"""
from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from .contact import create_bonds
from .forces import STIFFNESS_RATIO, ContactParams, contact_time
from .model import ParticleSystem, Wall


@dataclass
class ScenarioSpec:
    """A named experiment with its physical and run parameters.

    h is expressed as a fraction of the pair contact time t_c; duration
    counts simulated time units except for the walls experiment, which
    stops after max_collisions completed wall contacts.
    """

    name: str
    gamma: float = 0.0
    v: float = 1.0
    dy: float = 0.0
    gap: float = 1.01
    bond_stiffness: float = STIFFNESS_RATIO / 10.0
    n_particles: int = 218
    box_size: float = 6.0
    seed: int = 0
    integrator: str = "vi"
    alpha: float = 0.5
    h_fraction: float = 160.0
    duration: float | None = None
    max_collisions: int | None = None
    trajectory_every: int = 1
    diagnostics_every: int = 1

    @property
    def t_contact(self) -> float:
        return contact_time(STIFFNESS_RATIO)

    @property
    def h(self) -> float:
        return self.t_contact / self.h_fraction

    def contact_params(self) -> ContactParams:
        return ContactParams.from_damping_ratio(self.gamma)


def build_impact(dy: float = 0.0, gamma: float = 30.0,
                 v: float = 1.0) -> tuple[ParticleSystem, ScenarioSpec]:
    """Two particles closing head-on (offset dy between their y rows).

    Placed at x = +-d with opposite velocities -+v, so the surfaces start
    a gap d apart and first touch at t_A = d / 2v for dy = 0.
    """
    if dy < 0.0:
        raise ValueError("offset dy must be non-negative")
    if v <= 0.0:
        raise ValueError("approach speed must be positive")
    d = 1.0
    pos = [[d, +dy / 2.0, 0.0], [-d, -dy / 2.0, 0.0]]
    vel = [[-v, 0.0, 0.0], [+v, 0.0, 0.0]]
    system = ParticleSystem(pos, vel, d=d, m=1.0)
    spec = ScenarioSpec(name="impact", gamma=gamma, v=v, dy=dy,
                        duration=2.0 * d / v + 4.0 * contact_time(STIFFNESS_RATIO))
    return system, spec


def build_walls(gap: float = 1.01, v: float = 1.0) -> tuple[ParticleSystem, ScenarioSpec]:
    """One particle bouncing between two parallel walls, undamped.

    The walls are gap apart (must exceed d), the particle starts centered
    with its velocity perpendicular to them.
    """
    d = 1.0
    if gap <= d:
        raise ValueError("wall gap must exceed the particle diameter")
    walls = [
        Wall(point=np.array([+gap / 2.0, 0.0, 0.0]), normal=np.array([-1.0, 0.0, 0.0])),
        Wall(point=np.array([-gap / 2.0, 0.0, 0.0]), normal=np.array([+1.0, 0.0, 0.0])),
    ]
    system = ParticleSystem([[0.0, 0.0, 0.0]], [[v, 0.0, 0.0]],
                            d=d, m=1.0, walls=walls)
    spec = ScenarioSpec(name="walls", gamma=0.0, v=v, gap=gap,
                        max_collisions=250)
    return system, spec


def build_bonded(bond_stiffness: float = STIFFNESS_RATIO / 10.0, v: float = 1.0,
                 gamma: float = 30.0) -> tuple[ParticleSystem, ScenarioSpec]:
    """A bonded pair and a free particle on a head-on collision course.

    The pair sits at x = -d and -2d touching each other (bonded by the
    d/100 proximity rule), both moving +v; the free particle at x = +d
    moves -v, mirroring the impact setup.
    """
    if bond_stiffness <= 0.0:
        raise ValueError("bond stiffness must be positive")
    d = 1.0
    pos = [[+d, 0.0, 0.0], [-d, 0.0, 0.0], [-2.0 * d, 0.0, 0.0]]
    vel = [[-v, 0.0, 0.0], [+v, 0.0, 0.0], [+v, 0.0, 0.0]]
    system = ParticleSystem(pos, vel, d=d, m=1.0)
    system.bonds = create_bonds(system, k_bond=bond_stiffness)
    duration = d / v + 15.0 * 2.0 * np.pi / np.sqrt(2.0 * bond_stiffness)
    spec = ScenarioSpec(name="bonded", gamma=gamma, v=v,
                        bond_stiffness=bond_stiffness, h_fraction=32.0,
                        duration=duration)
    return system, spec


def build_box(n_particles: int = 218, box_size: float = 6.0,
              seed: int = 0, gamma: float = 400.0) -> tuple[ParticleSystem, ScenarioSpec]:
    """Particles settling under gravity in an L x L x 20L box.

    Seeding uses an interlocked lattice dropped from small heights:
    full layers at unit pitch flush against the walls alternate with
    offset layers seated in their pockets, with growing vertical gaps
    and a vertical-only jitter. That gives zero initial overlap, a
    deterministic configuration per seed, and no long frictionless
    pile-spreading transient (a flush base layer cannot creep sideways).
    """
    d = 1.0
    box = box_size * d
    full_side = int(round(box / d))
    if abs(full_side * d - box) > 1e-9 * d or full_side < 1:
        raise ValueError("box size must be an integer number of diameters")

    rng = np.random.default_rng(seed)
    layer_dz = d / np.sqrt(2.0)  # pocket seating height for unit pitch
    gap_z = 0.004 * d
    jitter_z = 0.0005 * d

    layers, placed, layer = [], 0, 0
    while placed < n_particles:
        z = 0.5 * d + layer * layer_dz + (layer + 1) * gap_z
        if z + 0.5 * d > 20.0 * box:
            raise ValueError(f"cannot place {n_particles} particles in the box")
        offset = layer % 2 == 1
        coords = d * ((1.0 if offset else 0.5) + np.arange(full_side - offset))
        y, x = np.meshgrid(coords, coords, indexing="ij")   # x runs fastest
        layers.append(np.stack([x.ravel(), y.ravel(), np.full(x.size, z)], axis=1))
        placed += x.size
        layer += 1
    pos = np.concatenate(layers)[:n_particles]
    pos[:, 2] += jitter_z * rng.uniform(-1.0, 1.0, size=n_particles)

    walls = [
        Wall(np.array([0.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])),
        Wall(np.array([0.0, 0.0, 20.0 * box]), np.array([0.0, 0.0, -1.0])),
        Wall(np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])),
        Wall(np.array([box, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0])),
        Wall(np.array([0.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])),
        Wall(np.array([0.0, box, 0.0]), np.array([0.0, -1.0, 0.0])),
    ]
    system = ParticleSystem(pos, d=d, m=1.0, walls=walls, gravity=1.0)
    spec = ScenarioSpec(name="box", gamma=gamma, n_particles=n_particles,
                        box_size=box_size, seed=seed, alpha=0.0,
                        h_fraction=12.0, duration=6.0,
                        trajectory_every=50, diagnostics_every=10)
    return system, spec


SCENARIO_BUILDERS = {"impact": build_impact, "walls": build_walls,
                     "bonded": build_bonded, "box": build_box}


def build_named(name: str, values: dict) -> tuple[ParticleSystem, ScenarioSpec]:
    """Call a scenario's builder with the entries of values it takes.

    The builder's own keyword defaults fill in everything else, so the
    builder signatures are the one table of scenario defaults.
    """
    builder = SCENARIO_BUILDERS.get(name)
    if builder is None:
        raise ValueError(f"unknown scenario {name!r}")
    params = inspect.signature(builder).parameters
    return builder(**{k: v for k, v in values.items() if k in params})


def build_scenario(spec: ScenarioSpec) -> ParticleSystem:
    """Realize a ScenarioSpec into its initial particle system."""
    return build_named(spec.name, vars(spec))[0]
