"""Soft-sphere DEM engine built around an implicit variational integrator.

Frictionless Hookean contacts between equal spheres, half-space walls,
simple elastic bonds. Time stepping either by the implicit variational
scheme (first or second order, Newton + conjugate gradients) or by an
explicit velocity-Verlet reference over the same force model.
"""

from .analytic import (ImpactParams, collision_times, contact_phase_duration,
                       contact_phase_position, contact_phase_velocity,
                       exit_speed, impact_position, impact_velocity,
                       impact_velocity_consistent)
from .contact import (ContactSet, NeighborList, create_bonds, detect_contacts,
                      detect_contacts_brute_force)
from .diagnostics import (FrameStats, ensemble_stats, kinetic_energy,
                          mean_kinetic, total_energy, total_momentum,
                          velocity_fluctuation)
from .errors import (ConfigError, IndefiniteOperatorError,
                     NonFiniteStateError, SingularGeometryError,
                     SolverFailureError, StaleNeighborListError,
                     StepFailureError, VigrainError)
from .forces import (STIFFNESS_RATIO, ContactParams, contact_time, dQ_dv,
                     nonconservative_force, potential_energy,
                     potential_gradient, potential_hessian)
from .io import (RunConfig, parse_config, read_trajectory, render_config,
                 write_diagnostics, write_trajectory)
from .linsolve import BlockSparseMatrix, cg_solve
from .model import (Bond, GeneralizedState, ParticleSystem, Wall,
                    assemble_mass_matrix, pack_state, sphere_inertia,
                    unpack_state)
from .runner import RunResult, run_simulation
from .scenarios import (ScenarioSpec, build_bonded, build_box, build_impact,
                        build_scenario, build_walls)
from .verlet import VerletIntegrator
from .vi import (QuasiStaticReport, StepReport, VIConfig, VIIntegrator,
                 discrete_lagrangian, quasi_static_solve, residual)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
