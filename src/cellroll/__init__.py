"""Adhesion-driven cell crawling: delayed dynamics and their macroscopic limit.

The model couples the velocity of a crawling cell to the stretch history of
its adhesion bonds. Three solvers cover the regimes of interest: explicit
time stepping for smooth potentials (`solve_smooth`), minimizing movements
for kinked ones (`solve_mm`), and direct integration of the memory-free
limit law (`integrate_limit`). Closed-form profiles in `oracles` back the
parameter studies in `experiments`.
"""
from .errors import (BreakpointCollisionError, CellrollError, ConfigError,
                     NumericalError)
from .experiments import (StudyReport, convergence_study, longtime_study,
                          velocity_force_sweep)
from .history import (ConstantPast, LinearPast, PastData, TabulatedPast,
                      Trajectory, initial_stretch, write_trajectory_csv)
from .kernels import Exponential, Kernel, Tabulated, TruncatedExponential
from .oracles import (PlasticProfile, gamma_abs, kinematic_trajectory,
                      kinematic_velocity, plastic_trajectory,
                      quadratic_final_position)
from .potentials import (AbsoluteValue, Mollified, PiecewiseLinear, Potential,
                         Quadratic, Tether, mollify)
from .solver_limit import integrate_limit, limit_velocity
from .solver_mm import StepEnergy, minimize_step, solve_mm, step_energy
from .solver_smooth import SolverConfig, solve_smooth

__version__ = "0.1.0"

__all__ = [
    "AbsoluteValue", "BreakpointCollisionError", "CellrollError",
    "ConfigError", "ConstantPast", "Exponential", "Kernel", "LinearPast",
    "Mollified", "NumericalError", "PastData", "PiecewiseLinear",
    "PlasticProfile", "Potential", "Quadratic", "SolverConfig", "StepEnergy",
    "StudyReport", "Tabulated", "TabulatedPast", "Tether",
    "TruncatedExponential", "Trajectory", "convergence_study", "gamma_abs",
    "initial_stretch", "integrate_limit", "kinematic_trajectory",
    "kinematic_velocity", "limit_velocity", "longtime_study",
    "minimize_step", "mollify", "plastic_trajectory",
    "quadratic_final_position", "solve_mm", "solve_smooth", "step_energy",
    "velocity_force_sweep", "write_trajectory_csv",
]
