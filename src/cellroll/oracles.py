"""Closed-form reference solutions used as ground truth in tests and studies.

Everything here is independent of the time-stepping solvers: exponential-kernel
integrals are evaluated analytically and the remaining quadratures use dense
trapezoid sums, so these functions can arbitrate solver output.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .history import ConstantPast, LinearPast, PastData, TabulatedPast
from .kernels import Exponential, Kernel

__all__ = [
    "PlasticProfile",
    "quadratic_final_position",
    "plastic_trajectory",
    "kinematic_trajectory",
    "kinematic_velocity",
    "gamma_abs",
]


def gamma_abs(v_inf: float, mu_inf: float) -> float:
    """Asymptotic velocity for psi = |u|: zero inside the band [-mu, mu]."""
    if mu_inf < 0:
        raise ValueError("mu_inf must be nonnegative")
    if abs(v_inf) <= mu_inf:
        return 0.0
    return v_inf - math.copysign(mu_inf, v_inf)


def _weighted_past_integral(zeta: float, past: PastData) -> float:
    """int_{-inf}^0 e^{zeta tau} z_p(tau) dtau, exact per past kind."""
    if isinstance(past, ConstantPast):
        return past.c / zeta
    if isinstance(past, LinearPast):
        return past.intercept / zeta - past.slope / zeta**2
    if isinstance(past, TabulatedPast):
        tau, v = past.tau_grid, past.values
        alpha = np.diff(v) / np.diff(tau)
        c0 = v[:-1] - alpha * tau[:-1]

        def prim(edge, a, c):
            return np.exp(zeta * edge) * ((a * edge + c) / zeta - a / zeta**2)

        segs = prim(tau[1:], alpha, c0) - prim(tau[:-1], alpha, c0)
        tail = v[0] * math.exp(zeta * tau[0]) / zeta
        return float(segs.sum() + tail)
    # fallback: dense quadrature over the numerically relevant window
    tau = np.linspace(-60.0 / zeta, 0.0, 200001)
    return float(np.trapezoid(np.exp(zeta * tau) * past.eval(tau), tau))


def quadratic_final_position(beta: float, zeta: float, past: PastData) -> float:
    """Final position for the quadratic potential and rho = beta e^{-zeta a}.

    lim z(t) = (zeta^2 z_p(0) + beta zeta int e^{zeta tau} z_p(tau) dtau)
               / (zeta^2 + beta).
    """
    if beta < 0 or not zeta > 0:
        raise ValueError("need beta >= 0 and zeta > 0")
    zp0 = float(past.eval(0.0))
    integral = _weighted_past_integral(zeta, past)
    return (zeta**2 * zp0 + beta * zeta * integral) / (zeta**2 + beta)


@dataclass
class PlasticProfile:
    """Trajectory closure for the stuck regime |v_inf| <= mu_inf.

    The cell creeps while the accumulated bond mass is below the drive and
    stops at t1, the first time with mu_inf(t1) = |v_inf|. The mass stops
    growing at ``a_max``, so t1 <= a_max.
    """

    v_inf: float
    kernel: Kernel
    z0: float
    t1: float = field(init=False)

    def __post_init__(self):
        v = abs(self.v_inf)
        if v > self.kernel.mu_total():
            raise ValueError(
                "plastic profile requires |v_inf| <= mu_inf; use kinematic_trajectory"
            )
        self.t1 = _invert_mu(self.kernel, v) if v > 0.0 else 0.0

    def zdot(self, t):
        t = np.asarray(t, dtype=float)
        rate = np.maximum(abs(self.v_inf) - self.kernel.cummass(t, math.inf), 0.0)
        return math.copysign(1.0, self.v_inf) * rate if self.v_inf != 0 else 0.0 * rate

    def z(self, t):
        t_eff = np.minimum(np.asarray(t, dtype=float), self.t1)
        return self.z0 + math.copysign(1.0, self.v_inf) * _creep_integral(
            self.kernel, abs(self.v_inf), t_eff
        ) if self.v_inf != 0 else self.z0 + 0.0 * np.asarray(t, dtype=float)

    @property
    def z_final(self) -> float:
        return float(self.z(self.t1))


def _invert_mu(kernel: Kernel, target: float, tol: float = 1e-12) -> float:
    hi = 1.0
    while float(kernel.cummass(hi, math.inf)) < target:
        hi *= 2.0
        if hi > 1e12:
            raise ValueError("cumulative mass never reaches |v_inf|")
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if float(kernel.cummass(mid, math.inf)) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _mu_integral(kernel: Kernel, t):
    """int_0^t mu(tau) dtau; mu stays at mu_total() past a_max."""
    t = np.asarray(t, dtype=float)
    if isinstance(kernel, Exponential):
        b, z = kernel.beta, kernel.zeta
        s = np.minimum(t, kernel.a_max)
        # (b/z) s - (b/z^2)(1 - e^{-z s}) + mu_total (t - s), summed in place:
        # a long time grid then holds no more arrays than the formula needs
        cum = (b / z**2) * np.expm1(-z * s)
        cum += (b / z) * s
        cum += kernel.mu_total() * (t - s)
        return cum
    tmax = float(np.max(t)) if t.size else 0.0
    grid = np.linspace(0.0, max(tmax, 1e-12), 100001)
    mu = kernel.cummass(grid, math.inf)
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (grid[1] - grid[0]) * (mu[1:] + mu[:-1]))))
    return np.interp(t, grid, cum)


def _creep_integral(kernel: Kernel, v: float, t):
    """int_0^t (v - mu(tau)) dtau."""
    return v * np.asarray(t, dtype=float) - _mu_integral(kernel, t)


def plastic_trajectory(v_inf: float, kernel: Kernel, z0: float) -> PlasticProfile:
    """Closed-form stuck-regime trajectory; rejects |v_inf| > mu_inf."""
    return PlasticProfile(float(v_inf), kernel, float(z0))


def kinematic_velocity(v_inf: float, kernel: Kernel, t):
    """zdot(t) = v_inf - sgn(v_inf) mu_inf(t) in the rolling regime."""
    return v_inf - math.copysign(1.0, v_inf) * kernel.cummass(t, math.inf)


def kinematic_trajectory(v_inf: float, kernel: Kernel, z0: float, t):
    """z(t) = z0 + int_0^t (v_inf - sgn(v_inf) mu_inf(tau)) dtau for |v_inf| > mu_inf."""
    if abs(v_inf) <= kernel.mu_total():
        raise ValueError(
            "kinematic trajectory requires |v_inf| > mu_inf; use plastic_trajectory"
        )
    t = np.asarray(t, dtype=float)
    cum_mu = _mu_integral(kernel, t)
    out = z0 + v_inf * t - math.copysign(1.0, v_inf) * cum_mu
    return float(out) if out.ndim == 0 else out
