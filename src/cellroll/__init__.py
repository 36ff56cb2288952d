"""Adhesion-driven cell crawling: delayed dynamics and their macroscopic limit.

The model couples the velocity of a crawling cell to the stretch history of
its adhesion bonds. Three solvers cover the regimes of interest: explicit
time stepping for smooth potentials (`solve_smooth`), minimizing movements
for kinked ones (`solve_mm`), and direct integration of the memory-free
limit law (`integrate_limit`). In `oracles`, `AbsProfile` is the closed
form of the constant-force case for psi = |u|, the referee of the solvers,
and its velocity law `gamma_abs` backs the velocity-force study in
`experiments`.

The package loads lazily (PEP 562): ``import cellroll`` imports no
submodule and no numpy. A name of ``__all__``, or a submodule such as
``cellroll.kernels``, is imported on first access and is then the same
object a direct import gives.
"""
import importlib

__version__ = "0.1.0"

# each public name -> the submodule that defines it
_EXPORTS = {
    "BreakpointCollisionError": "errors", "CellrollError": "errors",
    "ConfigError": "errors", "NumericalError": "errors",
    "StudyReport": "experiments", "convergence_study": "experiments",
    "longtime_study": "experiments", "velocity_force_sweep": "experiments",
    "ConstantPast": "history", "LinearPast": "history",
    "PastData": "history", "TabulatedPast": "history",
    "Trajectory": "history", "write_trajectory_csv": "history",
    "Exponential": "kernels", "Kernel": "kernels", "Tabulated": "kernels",
    "TruncatedExponential": "kernels",
    "AbsProfile": "oracles", "gamma_abs": "oracles",
    "quadratic_final_position": "oracles",
    "AbsoluteValue": "potentials", "Mollified": "potentials",
    "PiecewiseLinear": "potentials", "Potential": "potentials",
    "Quadratic": "potentials", "Tether": "potentials", "mollify": "potentials",
    "integrate_limit": "solver_limit", "limit_velocity": "solver_limit",
    "StepEnergy": "solver_mm", "minimize_step": "solver_mm",
    "solve_mm": "solver_mm", "step_energy": "solver_mm",
    "SolverConfig": "solver_smooth", "solve_smooth": "solver_smooth",
}

# every submodule but __main__, whose import would run the CLI
_SUBMODULES = ("cli", "config", "errors", "experiments", "history", "kernels",
               "memory", "oracles", "potentials", "solver_limit", "solver_mm",
               "solver_smooth")

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__),
                        name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
