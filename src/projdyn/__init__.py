"""Projection-operator modeling, simulation and control of constrained
mechanical systems in dependent coordinates."""

from .battery import pdot_fd_check
from .control import (RegulationGains, SetpointRegulator, control_force,
                      fallback_direction, velocity_direction,
                      lyapunov_value)
from .engine import (GeneralizedState, Scenario, SimulationTrace,
                     project_to_constraints, run, step)
from .errors import (AdmissibilityError, DivergenceError,
                     InconsistentStateError, InvalidTargetError,
                     NonFiniteInputError, ProjdynError)
from .forces import (ForceDecomposition, acceleration, acceleration_nonminimal,
                     constraint_force, decompose, force_split_for_control,
                     kkt_oracle)
from .kernel import (RANK_TOL, ConstraintJacobian, ProjectorBundle, build_projectors,
                     pseudo_inverse)
from .loader import load_system
from .model import (ConstrainedModel, PlantMatrices, assemble, kinetic_energy,
                    nonzero_pmp_eigenvalues, optimal_mu)
from .systems import (MechanicalSystem, catalog, double_pendulum, get_system,
                      pendulum, redundant_pendulum, self_test,
                      singular_configuration, slider_crank, switching_particle)

__version__ = "0.1.0"
