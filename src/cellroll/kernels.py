"""Linkage-age densities rho(a, t), their moments, and cumulative bond mass.

All built-in kinds integrate (1 + a^2) rho over ages with a finite truncation
horizon ``a_max`` chosen so the neglected tail mass is below 1e-10; evaluation
returns 0 beyond that horizon.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Kernel",
    "Exponential",
    "TruncatedExponential",
    "Tabulated",
    "eval_kernel",
    "moment",
    "mu_of_t",
]


class Kernel:
    """Base class for age densities.

    ``time_dependent`` is True when rho(a, t) genuinely varies with t (the
    age-truncation indicator of ``TruncatedExponential`` counts); kinds with a
    static underlying profile rho_inf still expose ``profile`` and ``mu``.
    """

    a_max: float
    time_dependent: bool = False

    def eval(self, a, t):
        raise NotImplementedError

    def profile(self, a):
        """rho_inf(a), the time-independent profile."""
        raise NotImplementedError

    def moment(self, t, p):
        raise NotImplementedError

    def mu(self, t):
        """Cumulative profile mass int_0^t rho_inf(a) da."""
        raise NotImplementedError

    def mu_total(self) -> float:
        return float(self.moment(math.inf, 0))

    def cummass(self, x, t):
        """int_0^x rho(a, t) da, honoring the truncation horizon."""
        return self.mu(np.clip(x, 0.0, self.a_max))

    def support(self, t) -> float:
        """Upper age limit of rho(., t); quadratures stop here."""
        return self.a_max

    def transport_dissipative(self) -> bool:
        """Whether (d_t + d_a) rho <= 0, decidable for built-in kinds only."""
        raise NotImplementedError


class Exponential(Kernel):
    """rho(a, t) = beta * exp(-zeta * a), independent of time."""

    def __init__(self, beta: float, zeta: float, a_max: float | None = None):
        if beta < 0:
            raise ValueError("beta must be nonnegative")
        if not zeta > 0:
            raise ValueError("zeta must be positive")
        self.beta = float(beta)
        self.zeta = float(zeta)
        self.a_max = float(a_max) if a_max is not None else 40.0 / self.zeta

    def profile(self, a):
        a = np.asarray(a, dtype=float)
        return self.beta * np.exp(-self.zeta * a)

    def eval(self, a, t):
        a = np.asarray(a, dtype=float)
        return np.where(a <= self.a_max, self.profile(a), 0.0)

    def moment(self, t, p):
        b, z = self.beta, self.zeta
        if p == 0:
            return b / z
        if p == 1:
            return b / z**2
        if p == 2:
            return 2.0 * b / z**3
        raise ValueError("moment order p must be 0, 1, or 2")

    def mu(self, t):
        t = np.maximum(np.asarray(t, dtype=float), 0.0)
        return (self.beta / self.zeta) * -np.expm1(-self.zeta * t)

    def transport_dissipative(self) -> bool:
        return True

    def __repr__(self):
        return f"Exponential(beta={self.beta}, zeta={self.zeta})"


class TruncatedExponential(Exponential):
    """rho(a, t) = beta * exp(-zeta * a) for a <= t, zero for older bonds.

    Models linkages that only start forming at t = 0: at time t no bond can be
    older than the process itself.
    """

    time_dependent = True

    def eval(self, a, t):
        a = np.asarray(a, dtype=float)
        alive = (a <= t) & (a <= self.a_max)
        return np.where(alive, self.beta * np.exp(-self.zeta * a), 0.0)

    def moment(self, t, p):
        # closed forms for int_0^t a^p beta e^{-zeta a} da
        b, z = self.beta, self.zeta
        t = max(float(t), 0.0) if np.isscalar(t) else np.maximum(t, 0.0)
        x = np.minimum(z * t, 745.0)  # exp(-745) underflows; beyond it the tail is zero
        if p == 0:
            return (b / z) * -np.expm1(-x)
        if p == 1:
            return (b / z**2) * (1.0 - np.exp(-x) * (1.0 + x))
        if p == 2:
            return (2.0 * b / z**3) * (1.0 - np.exp(-x) * (1.0 + x + 0.5 * x * x))
        raise ValueError("moment order p must be 0, 1, or 2")

    def cummass(self, x, t):
        return self.mu(np.clip(x, 0.0, min(float(t), self.a_max) if np.isfinite(t) else self.a_max))

    def support(self, t) -> float:
        return min(float(t), self.a_max) if np.isfinite(t) else self.a_max

    def __repr__(self):
        return f"TruncatedExponential(beta={self.beta}, zeta={self.zeta})"


class Tabulated(Kernel):
    """Age profile given on a grid, optionally modulated in time.

    Parameters
    ----------
    a_grid, values:
        Nonnegative ascending ages and nonnegative densities; linear
        interpolation between nodes, zero outside the grid.
    modulation:
        Optional callable m(t) >= 0 multiplying the profile. A modulated
        kernel has no static profile, so ``profile``/``mu`` reject it.
    """

    def __init__(self, a_grid, values, modulation=None, a_max: float | None = None):
        a = np.asarray(a_grid, dtype=float)
        v = np.asarray(values, dtype=float)
        if a.ndim != 1 or a.size < 2 or v.shape != a.shape:
            raise ValueError("a_grid and values must be 1-d arrays of equal length >= 2")
        if a[0] < 0 or np.any(np.diff(a) <= 0):
            raise ValueError("a_grid must be nonnegative and strictly increasing")
        if np.any(v < 0):
            raise ValueError("kernel values must be nonnegative")
        self.a_grid = a
        self.values = v
        self.modulation = modulation
        self.time_dependent = modulation is not None
        self.a_max = float(a_max) if a_max is not None else float(a[-1])
        self._cum = np.concatenate(([0.0], np.cumsum(0.5 * (v[:-1] + v[1:]) * np.diff(a))))

    def profile(self, a):
        if self.modulation is not None:
            raise ValueError("time-modulated kernel has no static profile")
        a = np.asarray(a, dtype=float)
        inside = (a >= self.a_grid[0]) & (a <= min(self.a_grid[-1], self.a_max))
        return np.where(inside, np.interp(a, self.a_grid, self.values), 0.0)

    def eval(self, a, t):
        a = np.asarray(a, dtype=float)
        inside = (a >= self.a_grid[0]) & (a <= min(self.a_grid[-1], self.a_max))
        out = np.where(inside, np.interp(a, self.a_grid, self.values), 0.0)
        if self.modulation is not None:
            out = out * self.modulation(t)
        return out

    def moment(self, t, p):
        if p not in (0, 1, 2):
            raise ValueError("moment order p must be 0, 1, or 2")
        a, v = self.a_grid, self.values
        if self.a_max < a[-1]:
            keep = a < self.a_max
            a = np.append(a[keep], self.a_max)
            v = np.append(v[keep], np.interp(self.a_max, self.a_grid, self.values))
        m = np.trapezoid(a**p * v, a)
        if self.modulation is not None:
            m = m * self.modulation(t)
        return float(m)

    def mu(self, t):
        if self.modulation is not None:
            raise ValueError("time-modulated kernel has no static profile")
        t = np.minimum(np.asarray(t, dtype=float), self.a_max)
        return np.interp(t, self.a_grid, self._cum)

    def cummass(self, x, t):
        c = np.interp(np.clip(x, 0.0, self.a_max), self.a_grid, self._cum)
        if self.modulation is not None:
            c = c * self.modulation(t)
        return c

    def transport_dissipative(self) -> bool:
        raise NotImplementedError(
            "transport dissipativity is not decidable for tabulated kernels"
        )

    def __repr__(self):
        return f"Tabulated(n={self.a_grid.size}, a_max={self.a_max})"


def eval_kernel(k: Kernel, a: float, t: float) -> float:
    """rho(a, t); ages are nonnegative by definition."""
    if a < 0:
        raise ValueError("age a must be nonnegative")
    return float(k.eval(a, t))


def moment(k: Kernel, t: float, p: int) -> float:
    """int_0^inf a^p rho(a, t) da for p in {0, 1, 2}."""
    return float(k.moment(t, p))


def mu_of_t(k: Kernel, t: float) -> float:
    """Cumulative bond mass mu_inf(t) = int_0^t rho_inf(a) da."""
    return float(k.mu(t))
