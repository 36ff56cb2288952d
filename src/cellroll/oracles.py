"""Closed-form reference solutions used as ground truth in tests and studies.

``AbsProfile`` is the paper's explicit solution of the constant-force case
(psi = |u|, no bond older than t): one law, zdot = gamma_abs(v, mu(t)),
for a drive that stops inside the band |v| <= mu_inf and for one that rolls
outside it. ``quadratic_final_position`` is the quadratic potential's rest.
Everything here is independent of the time-stepping solvers: exponential-kernel
integrals are evaluated analytically and the remaining quadratures use dense
trapezoid sums, so these functions can arbitrate solver output.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .history import ConstantPast, LinearPast, PastData, TabulatedPast
from .kernels import Exponential, Kernel

__all__ = ["AbsProfile", "quadratic_final_position", "gamma_abs"]


def gamma_abs(v_inf: float, mu_inf):
    """Velocity for psi = |u| against the bond mass mu_inf: zero inside the
    band [-mu, mu], v_inf - sgn(v_inf) mu_inf outside it.

    ``mu_inf`` may be an array of masses, such as mu(t) on a time grid; a
    scalar gives a float. A drive at rest has velocity +0.0 either side.
    """
    mu = np.asarray(mu_inf)
    if mu.min(initial=0.0) < 0:  # initial=0.0 lets an empty array pass
        raise ValueError("mu_inf must be nonnegative")
    if v_inf >= 0:
        gamma = np.maximum(v_inf - mu, 0.0)
    else:
        gamma = np.minimum(v_inf + mu, 0.0)
    return float(gamma) if gamma.ndim == 0 else gamma


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
class AbsProfile:
    """Closed-form trajectory for psi = |u| under a constant drive v_inf.

    No bond is older than t, so the bond mass mu(t) = ``cummass(t, inf)``
    grows to mu_inf and the cell moves at zdot = gamma_abs(v_inf, mu(t)).
    Inside the band |v_inf| <= mu_inf it stops at t1, the first time with
    mu(t1) = |v_inf| (0 for v_inf = 0); the mass stops growing at
    ``a_max``, so t1 <= a_max. Outside the band it never stops: t1 = inf.
    """

    v_inf: float
    kernel: Kernel
    z0: float
    t1: float = field(init=False)

    def __post_init__(self):
        if gamma_abs(self.v_inf, self.kernel.mu_total()) != 0.0:
            self.t1 = math.inf
        else:
            self.t1 = _invert_mu(self.kernel, abs(self.v_inf)) if self.v_inf else 0.0

    def zdot(self, t):
        return gamma_abs(self.v_inf, self.kernel.cummass(t, math.inf))

    def z(self, t):
        """z0 + v_inf s - sgn(v_inf) int_0^s mu with s = min(t, t1), the
        integral of zdot."""
        s = np.minimum(np.asarray(t, dtype=float), self.t1)
        out = (self.z0 + self.v_inf * s
               - math.copysign(1.0, self.v_inf) * _mu_integral(self.kernel, s))
        return float(out) if out.ndim == 0 else out


def _invert_mu(kernel: Kernel, target: float, tol: float = 1e-12) -> float:
    """The first t with mu(t) >= target, to tol or to adjacent floats."""
    hi = 1.0
    while float(kernel.cummass(hi, math.inf)) < target:
        if hi >= kernel.a_max:  # the mass stops growing at a_max
            raise ValueError("cumulative mass never reaches |v_inf|")
        hi *= 2.0
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            # lo and hi are adjacent floats: tol is below their spacing
            return hi
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
    grid, cum = _mu_table(kernel)
    return (np.interp(t, grid, cum)
            + kernel.mu_total() * np.maximum(t - kernel.a_max, 0.0))


@functools.lru_cache(maxsize=1)
def _mu_table(kernel: Kernel):
    """int_0^a mu on a fixed grid over [0, a_max], built once per kernel.

    The grid is fixed, so that no time's value depends on the others asked
    for; past a_max, mu is constant and its integral closed form. The memo
    holds one entry and keys on the kernel itself, as ``solver_limit``'s
    do, so it treats the kernel as an immutable value.
    """
    grid = np.linspace(0.0, kernel.a_max, 100001)
    mu = kernel.cummass(grid, math.inf)
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (grid[1] - grid[0]) * (mu[1:] + mu[:-1]))))
    return grid, cum
