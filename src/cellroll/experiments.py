"""Verification studies: convergence rates, long-time drift, velocity-force law.

Each study returns a :class:`StudyReport` whose pass/fail rule is spelled out
in the ``criterion`` string, so every threshold travels with the emitted
report instead of hiding in test code. Reports are deterministic functions of
their inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .history import PastData, _write_csv
from .kernels import Kernel
from .memory import as_drive
from .oracles import gamma_abs
from .potentials import AbsoluteValue, Potential
from .solver_limit import integrate_limit, limit_velocity
from .solver_mm import solve_mm
from .solver_smooth import SolverConfig, solve_smooth

__all__ = ["StudyReport", "convergence_study", "longtime_study",
           "velocity_force_sweep"]


@dataclass
class StudyReport:
    """Tabular study outcome with its own acceptance rule.

    rows are sorted by the first entry (the swept parameter); ``criterion``
    states the complete pass/fail rule including numeric thresholds;
    ``fit`` optionally carries (model, constant, rms residual).
    """

    name: str
    columns: tuple
    rows: list
    criterion: str
    passed: bool
    fit: tuple | None = None

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        tail = ""
        if self.fit is not None:
            model, c, resid = self.fit
            tail = f" [fit {model}: c={c:.6g}, rms={resid:.3g}]"
        return f"{verdict} {self.name}: {self.criterion}{tail}"

    def to_csv(self, path, precision: int = 17):
        # one row per entry of ``rows``, each as wide as ``columns``
        table = np.asarray(self.rows).reshape(len(self.rows), len(self.columns))
        _write_csv(path, self.columns, table.T, precision)


def _dispatch_solver(psi: Potential):
    return solve_mm if len(psi.breakpoints) > 0 else solve_smooth


def _check_eps_list(eps_list, dt):
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    if eps_list and dt >= min(eps_list):
        raise ValueError("dt must be well below the smallest eps")


def convergence_study(psi: Potential, kernel: Kernel, v, past: PastData,
                      eps_list, T: float, dt: float,
                      final_bound: float | None = None) -> StudyReport:
    """Errors sup_[0,T] |z_eps - z_0| against the macroscopic limit.

    Smooth potentials are expected to converge at rate eps (errors strictly
    decreasing down the list); kinked potentials at rate eps|ln eps|, checked
    as "last ratio <= 1.2 * first ratio" on e(eps)/(eps|ln eps|). A given
    ``final_bound`` also caps the error at the smallest eps, in every case.
    """
    eps_list = [float(e) for e in eps_list]
    _check_eps_list(eps_list, dt)
    kinked = len(psi.breakpoints) > 0
    z0 = float(past.eval(0.0))
    reference = integrate_limit(psi, kernel, v, z0, T, dt).values
    solver = _dispatch_solver(psi)

    def point(eps):
        traj = solver(psi, kernel, v, past, SolverConfig(eps=eps, T=T, dt=dt))
        return float(np.max(np.abs(traj.values - reference)))

    errors = [point(eps) for eps in eps_list]

    model_name = "eps*|ln eps|" if kinked else "eps"
    model = np.array([e * abs(math.log(e)) if kinked else e for e in eps_list])
    errs = np.array(errors)
    fit = None
    if len(eps_list) >= 2:
        c = float(np.dot(errs, model) / np.dot(model, model))
        resid = float(np.sqrt(np.mean((errs - c * model) ** 2)))
        fit = (model_name, c, resid)
        fitted = c * model
    else:
        fitted = errs
    rows = [(e, err, f) for e, err, f in zip(eps_list, errs, fitted)]

    if len(eps_list) < 2:
        criterion = "single point: vacuously true"
        passed = True
    elif kinked:
        ratios = errs / model
        criterion = ("ratio e(eps)/(eps|ln eps|) shows no increasing trend: "
                     "last <= 1.2 * first")
        passed = bool(ratios[-1] <= 1.2 * ratios[0])
    else:
        criterion = "errors strictly decreasing along decreasing eps"
        passed = bool(np.all(np.diff(errs) < 0))
    if final_bound is not None:
        criterion += f"; final error <= {final_bound:g}"
        passed = passed and bool(errs[-1] <= final_bound)
    return StudyReport("convergence", ("param", "metric", "fit"), rows,
                       criterion, passed, fit)


def longtime_study(psi: Potential, kernel: Kernel, v, past: PastData,
                   T_list, dt: float = 1e-2,
                   v_inf: float | None = None) -> StudyReport:
    """Long-time drift metrics |z(T)/T - gamma| and windowed offset sups.

    gamma is the stationary limit velocity at the asymptotic drive ``v_inf``,
    which defaults to ``v`` when the drive is a number; a callable drive needs
    it given explicitly. One solve runs to max(T_list); the offset column is
    sup_{[T/2, T]} |z(t) - gamma t - c| with c anchored at the final node,
    checked for monotone non-increase up to 10% slack as T doubles.
    """
    T_list = sorted(float(T) for T in T_list)
    if not T_list:
        raise ValueError("T_list must be nonempty")
    if v_inf is None:
        if callable(v):
            raise ValueError("longtime_study needs v_inf, the asymptotic "
                             "drive, when v is a callable")
        v_inf = v
    drive = as_drive(v)
    gamma = limit_velocity(psi, kernel, float(v_inf), math.inf)
    solver = _dispatch_solver(psi)
    T_max = T_list[-1]
    traj = solver(psi, kernel, drive, past, SolverConfig(eps=1.0, T=T_max, dt=dt))
    t, z = traj.times, traj.values
    c = float(z[-1] - gamma * T_max)

    rows = []
    for T in T_list:
        i_hi = int(round(T / dt))
        i_lo = int(round(0.5 * T / dt))
        drift = abs(z[i_hi] / T - gamma)
        window = z[i_lo: i_hi + 1] - gamma * t[i_lo: i_hi + 1] - c
        rows.append((T, float(drift), float(np.max(np.abs(window)))))

    drifts = [r[1] for r in rows]
    offsets = [r[2] for r in rows]
    tol = 1e-12
    drift_ok = all(b <= a + tol for a, b in zip(drifts, drifts[1:]))
    offset_ok = all(b <= 1.1 * a + tol for a, b in zip(offsets, offsets[1:]))
    criterion = ("|z(T)/T - gamma| non-increasing across T; window offset "
                 "sup|z - gamma t - c| non-increasing up to 10% slack")
    return StudyReport("longtime", ("param", "metric", "offset"), rows,
                       criterion, bool(drift_ok and offset_ok))


def velocity_force_sweep(kernel: Kernel, v_grid) -> StudyReport:
    """Asymptotic velocity for psi = |u| against the closed-form law."""
    v_grid = sorted(float(v) for v in v_grid)
    psi = AbsoluteValue()
    mu_inf = kernel.mu_total()

    def point(v):
        g = limit_velocity(psi, kernel, v, math.inf)
        g_ref = gamma_abs(v, mu_inf)
        return (v, g, g_ref, abs(g - g_ref))

    rows = [point(v) for v in v_grid]
    worst = max((r[3] for r in rows), default=0.0)
    criterion = "max |gamma - gamma_abs| <= 1e-06 across the v grid"
    return StudyReport("velocity_force", ("param", "gamma", "gamma_abs", "diff"),
                       rows, criterion, bool(worst <= 1e-6))
