"""Projection-operator modeling, simulation and control of constrained
mechanical systems in dependent coordinates."""

from .battery import self_test
from .control import (RegulationGains, SetpointRegulator, control_force,
                      lyapunov_value)
from .engine import (GeneralizedState, Scenario, SimulationTrace,
                     project_to_constraints, run, step)
from .errors import (AdmissibilityError, DivergenceError,
                     InconsistentStateError, InvalidTargetError,
                     NonFiniteInputError, ProjdynError)
from .forces import (acceleration, acceleration_nonminimal, constraint_force,
                     force_split_for_control, kkt_oracle)
from .kernel import (RANK_TOL, ConstraintJacobian, ProjectorBundle, build_projectors,
                     pseudo_inverse)
from .loader import load_scenario, load_system
from .model import (ConstrainedModel, PlantMatrices, assemble, kinetic_energy,
                    optimal_mu)
from .systems import (MechanicalSystem, catalog, double_pendulum, get_system,
                      pendulum, redundant_pendulum, slider_crank, switching_particle)

__version__ = "0.1.0"
