"""Adhesion-driven cell crawling: delayed dynamics and their macroscopic limit.

The model couples the velocity of a crawling cell to the stretch history of
its adhesion bonds. Three solvers cover the regimes of interest: explicit
time stepping for smooth potentials (`solve_smooth`), minimizing movements
for kinked ones (`solve_mm`), and direct integration of the memory-free
limit law (`integrate_limit`). In `oracles`, `AbsProfile` is the closed
form of the constant-force case for psi = |u|, the referee of the solvers,
and its velocity law `gamma_abs` backs the velocity-force study in
`experiments`.
"""
from .errors import (BreakpointCollisionError, CellrollError, ConfigError,
                     NumericalError)
from .experiments import (StudyReport, convergence_study, longtime_study,
                          velocity_force_sweep)
from .history import (ConstantPast, LinearPast, PastData, TabulatedPast,
                      Trajectory, write_trajectory_csv)
from .kernels import Exponential, Kernel, Tabulated, TruncatedExponential
from .oracles import AbsProfile, gamma_abs, quadratic_final_position
from .potentials import (AbsoluteValue, Mollified, PiecewiseLinear, Potential,
                         Quadratic, Tether, mollify)
from .solver_limit import integrate_limit, limit_velocity
from .solver_mm import StepEnergy, minimize_step, solve_mm, step_energy
from .solver_smooth import SolverConfig, solve_smooth

__version__ = "0.1.0"

__all__ = [
    "AbsProfile", "AbsoluteValue", "BreakpointCollisionError",
    "CellrollError", "ConfigError", "ConstantPast", "Exponential", "Kernel",
    "LinearPast", "Mollified", "NumericalError", "PastData",
    "PiecewiseLinear", "Potential", "Quadratic", "SolverConfig",
    "StepEnergy", "StudyReport", "Tabulated", "TabulatedPast", "Tether",
    "TruncatedExponential", "Trajectory", "convergence_study", "gamma_abs",
    "integrate_limit", "limit_velocity", "longtime_study", "minimize_step",
    "mollify", "quadratic_final_position", "solve_mm", "solve_smooth",
    "step_energy", "velocity_force_sweep", "write_trajectory_csv",
]
