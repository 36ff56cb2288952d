"""Linkage-age densities rho(a, t) and their cumulative bond mass.

A kernel gives rho (``eval``), its mass on [0, x] (``cummass``) and the
total mass mu_inf (``mu_total``); the static profile and its mass mu(t) are
``eval(a, inf)`` and ``cummass(t, inf)``. All stop at the truncation horizon
``a_max``, so they see the same bonds. The exponential kinds default to an
``a_max`` at which the neglected tail of (1 + a^2) rho is below 1e-10; a
tabulated kernel defaults to the end of its grid. ``TruncatedExponential``
also cuts ages older than t.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["Kernel", "Exponential", "TruncatedExponential", "Tabulated"]


class Kernel:
    """Base class for age densities.

    A kind supplies its profile ``_rho`` and the profile's mass ``_mass(x)``
    on [0, x] for x <= ``a_max``. This class cuts them at ``support(t)``,
    the oldest age carrying bonds at time t, and applies the optional time
    ``modulation``: below the support, rho(a, t) = modulation(t) *
    ``profile(a)``. ``Memory`` reads ``profile`` once per run and applies
    the support cut and the modulation to its windows itself.

    ``time_dependent`` is True when rho(a, t) genuinely varies with t: a
    modulated kernel, or a kind whose ``support(t)`` cuts ages (the
    age-truncation indicator of ``TruncatedExponential``). A modulated
    kernel has no value at t = inf, so every quantity there raises ValueError.
    """

    a_max: float
    modulation = None

    @property
    def time_dependent(self) -> bool:
        return self.modulation is not None

    def support(self, t) -> float:
        """Upper age limit of rho(., t); quadratures stop here.

        It never decreases in t, so a run to time T reads no age beyond
        ``support(T)``: ``Memory`` stores the ages below it and no more.
        """
        return self.a_max

    def eval(self, a, t):
        """rho(a, t)."""
        a = np.asarray(a, dtype=float)
        return self._modulated(np.where(a <= self.support(t), self._rho(a), 0.0), t)

    def profile(self, a):
        """rho(a, inf) without the modulation: ``_rho`` cut at ``a_max``."""
        a = np.asarray(a, dtype=float)
        return np.where(a <= self.a_max, self._rho(a), 0.0)

    def cummass(self, x, t):
        """int_0^x rho(a, t) da."""
        return self._modulated(self._mass(self._cap(x, t)), t)

    def mu_total(self) -> float:
        """Total bond mass int_0^a_max rho(a, inf) da."""
        return float(self._modulated(self._mass(self.a_max), math.inf))

    def _cap(self, x, t):
        """x clipped to [0, support(t)]."""
        return np.maximum(np.minimum(x, self.support(t)), 0.0)

    def _modulated(self, value, t):
        if self.modulation is None:
            return value
        if math.isinf(t):
            # the modulation need not settle, so rho(., inf) and the total
            # mass are undefined
            raise ValueError("time-modulated kernel has no value at t = inf")
        return value * self.modulation(t)


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
        if not math.isfinite(self.a_max):
            raise ValueError("a_max is not finite (the default 40/zeta "
                             "overflows for a subnormal zeta)")
        if not math.isfinite(self.beta / self.zeta):  # the scale of every mass
            raise ValueError("beta/zeta overflows; zeta is too small for beta")

    def _rho(self, a):
        return self.beta * np.exp(-self.zeta * a)

    def _mass(self, x):
        return (self.beta / self.zeta) * -np.expm1(-self.zeta * x)

    def __repr__(self):
        return f"Exponential(beta={self.beta}, zeta={self.zeta})"


class TruncatedExponential(Exponential):
    """rho(a, t) = beta * exp(-zeta * a) for a <= t, zero for older bonds.

    Models linkages that only start forming at t = 0: at time t no bond can be
    older than the process itself.
    """

    time_dependent = True

    def support(self, t) -> float:
        return min(float(t), self.a_max)

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
        kernel has no value at t = inf.
    a_max:
        Truncation horizon; defaults to the last grid age.
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
        self.a_max = float(a_max) if a_max is not None else float(a[-1])
        self._cum = np.concatenate(([0.0], np.cumsum(0.5 * (v[:-1] + v[1:]) * np.diff(a))))

    def _rho(self, a):
        inside = (a >= self.a_grid[0]) & (a <= self.a_grid[-1])
        return np.where(inside, np.interp(a, self.a_grid, self.values), 0.0)

    def _mass(self, x):
        # the mass up to the node below x plus the exact trapezoid from it to x
        a, v = self.a_grid, self.values
        x = np.clip(x, a[0], a[-1])
        i = np.clip(np.searchsorted(a, x, side="right") - 1, 0, a.size - 2)
        return self._cum[i] + 0.5 * (v[i] + np.interp(x, a, v)) * (x - a[i])

    def __repr__(self):
        return f"Tabulated(n={self.a_grid.size}, a_max={self.a_max})"
