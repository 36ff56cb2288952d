"""Elastic linkage energies and their smoothed surrogates.

Every potential in the catalog satisfies one contract: psi is even, convex,
nonnegative, and psi(0) = 0. Forces enter the solvers through the
subdifferential, which collapses to psi' wherever psi is differentiable.
The nonsmooth members are ``PiecewiseLinear`` profiles (``AbsoluteValue`` is
the one-slope profile, with no code of its own); each exposes its kink set
as ``breakpoints`` and its kink table as ``kinks`` and ``jumps``. ``mollify``
replaces them by a smooth convex surrogate with the same global Lipschitz
constant.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .errors import BreakpointCollisionError

__all__ = [
    "Potential",
    "Quadratic",
    "Tether",
    "AbsoluteValue",
    "PiecewiseLinear",
    "Mollified",
    "mollify",
]


class Potential:
    """Base class; subclasses provide vectorized value/slope evaluations.

    Attributes
    ----------
    breakpoints:
        Sorted tuple of points where the subdifferential jumps; empty for
        continuously differentiable potentials.
    lipschitz_L:
        Global Lipschitz constant of psi (``math.inf`` when psi' is unbounded).
    lipschitz_Lprime:
        Lipschitz constant of psi' off breakpoints (``math.inf`` if none).
    """

    breakpoints: tuple = ()
    lipschitz_L: float = math.inf
    lipschitz_Lprime: float = math.inf

    def value(self, u):
        raise NotImplementedError

    def subdiff_lo(self, u):
        raise NotImplementedError

    def subdiff_hi(self, u):
        raise NotImplementedError

    def derivative(self, u):
        """psi'(u) where single-valued; raises on exact breakpoint hits."""
        lo = self.subdiff_lo(u)
        if not self.breakpoints:
            return lo
        hi = self.subdiff_hi(u)
        if np.any(lo != hi):
            raise BreakpointCollisionError(
                "evaluation point sits exactly on a breakpoint of psi'; "
                "mollify the potential or use the minimizing-movements solver"
            )
        return lo


class Quadratic(Potential):
    """psi(u) = u^2 / 2, the linear-spring energy."""

    lipschitz_L = math.inf
    lipschitz_Lprime = 1.0

    def value(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * u * u

    def subdiff_lo(self, u):
        return np.asarray(u, dtype=float)

    subdiff_hi = subdiff_lo

    def __repr__(self):
        return "Quadratic()"


class Tether(Potential):
    """psi(u) = ell(u)^2 / 2 with tether length ell(u) = sqrt(u^2 + r^2) - r.

    Flat to fourth order at the origin: short linkages exert almost no force
    until stretched beyond the rest radius r.
    """

    lipschitz_L = math.inf
    lipschitz_Lprime = 1.0

    def __init__(self, r: float):
        if not r > 0:
            raise ValueError("tether radius r must be positive")
        self.r = float(r)

    def value(self, u):
        u = np.asarray(u, dtype=float)
        ell = np.sqrt(u * u + self.r * self.r) - self.r
        return 0.5 * ell * ell

    def subdiff_lo(self, u):
        u = np.asarray(u, dtype=float)
        return u * (1.0 - self.r / np.sqrt(u * u + self.r * self.r))

    subdiff_hi = subdiff_lo

    def __repr__(self):
        return f"Tether(r={self.r})"


class PiecewiseLinear(Potential):
    """Even convex piecewise-linear psi given by its right-half profile.

    Parameters
    ----------
    breaks:
        Strictly increasing positive finite kink positions b_1 < ... < b_N.
    slopes:
        N + 1 finite slopes, nondecreasing with slopes[0] >= 0; slopes[i]
        applies on (b_i, b_{i+1}) with b_0 = 0. The left half follows by
        evenness, which adds a kink at 0 whenever slopes[0] > 0.

    ``breaks`` and ``slopes`` keep copies of this input, and the full-line
    kink table is ``kinks`` k with slope jumps ``jumps`` ds > 0, so
    psi'(u) = -L + sum_k ds_k H(u - k). The lookups read ``_knots``
    -b_N .. b_N, the values ``_kvals`` of psi there, and ``_slopes[i]`` on
    (``_knots[i-1]``, ``_knots[i]``); the slope lookups give NaN at NaN.
    """

    lipschitz_Lprime = 0.0

    def __init__(self, breaks, slopes):
        hb = self.breaks = np.array(breaks, dtype=float)
        hs = self.slopes = np.array(slopes, dtype=float)
        if hb.ndim != 1 or hs.ndim != 1 or hs.size != hb.size + 1:
            raise ValueError("need len(slopes) == len(breaks) + 1")
        if not (np.all(np.isfinite(hb)) and np.all(np.isfinite(hs))):
            raise ValueError("breaks and slopes must be finite")
        if hb.size and (np.any(hb <= 0) or np.any(np.diff(hb) <= 0)):
            raise ValueError("breaks must be strictly increasing and positive")
        if hs[0] < 0 or np.any(np.diff(hs) < 0):
            raise ValueError("slopes must be nondecreasing with slopes[0] >= 0")
        kvals = np.concatenate(([0.0], np.cumsum(hs[:-1] * np.diff(hb, prepend=0.0))))
        self._knots = np.concatenate((-hb[::-1], [0.0], hb))
        self._kvals = np.concatenate((kvals[:0:-1], kvals))
        self._slopes = np.concatenate((-hs[::-1], hs))
        # searchsorted orders NaN after +inf: one key past the knots (+inf
        # searching left, NaN searching right) sends every u up to +inf to
        # its slope as before, and NaN alone one index further, to NaN
        self._lo_keys = np.append(self._knots, np.inf)
        self._hi_keys = np.append(self._knots, np.nan)
        self._nan_slopes = np.append(self._slopes, np.nan)
        self.lipschitz_L = float(hs[-1])
        jumps = np.diff(self._slopes)
        self.kinks, self.jumps = self._knots[jumps > 0], jumps[jumps > 0]
        self.breakpoints = tuple(self.kinks.tolist())

    def value(self, u):
        x = np.abs(np.asarray(u, dtype=float))
        if not self.lipschitz_L:
            # psi = 0, where the profile would read 0 * inf at |u| = inf
            return np.where(np.isnan(x), np.nan, 0.0)
        i = np.searchsorted(self._knots, x, side="right") - 1
        return self._kvals[i] + self._slopes[i + 1] * (x - self._knots[i])

    def subdiff_lo(self, u):
        return self._nan_slopes[np.searchsorted(self._lo_keys, u, side="left")]

    def subdiff_hi(self, u):
        return self._nan_slopes[np.searchsorted(self._hi_keys, u, side="right")]

    def __repr__(self):
        return (f"PiecewiseLinear(breaks={tuple(self.breaks)}, "
                f"slopes={tuple(self.slopes)})")


class AbsoluteValue(PiecewiseLinear):
    """psi(u) = |u|: constant force away from rest, set-valued at 0."""

    def __init__(self):
        super().__init__((), (1.0,))

    def __repr__(self):
        return "AbsoluteValue()"


def _bump_raw(y):
    """Unnormalized bump exp(-1/(1-y^2)) on (-1, 1), zero outside."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    inside = np.abs(y) < 1.0
    t = y[inside]
    out[inside] = np.exp(-1.0 / (1.0 - t * t))
    return out


class _BumpTables:
    """Tabulated CDF (and its running integral) of the normalized bump omega_1.

    The CDF table is symmetrized so that Omega(-y) = 1 - Omega(y) holds
    exactly, which makes mollified potentials even to machine precision.
    """

    def __init__(self, n: int = 65537):
        y = np.linspace(-1.0, 1.0, n)
        h = y[1] - y[0]
        f = _bump_raw(y)
        fm = _bump_raw(0.5 * (y[:-1] + y[1:]))
        panels = (h / 6.0) * (f[:-1] + 4.0 * fm + f[1:])
        self.norm = 1.0 / panels.sum()
        inc = np.maximum(panels * self.norm, 0.0)
        cdf = np.concatenate(([0.0], np.cumsum(inc)))
        cdf[-1] = 1.0
        cdf = 0.5 * (cdf + 1.0 - cdf[::-1])
        icdf = np.concatenate(([0.0], np.cumsum(0.5 * (cdf[:-1] + cdf[1:]) * h)))
        self.y = y
        self.h = h
        self.cdf = cdf
        self.icdf = icdf
        self.omega0 = self.norm * math.exp(-1.0)

    def cdf_eval(self, t):
        return np.interp(t, self.y, self.cdf)

    def icdf_eval(self, t):
        """Exact integral of the interpolated CDF from -1 to t."""
        t = np.asarray(t, dtype=float)
        tc = np.clip(t, -1.0, 1.0)
        # a NaN takes row 0, where dy = NaN makes the result NaN
        i = np.clip(np.nan_to_num((tc + 1.0) / self.h).astype(int), 0, self.y.size - 2)
        dy = tc - self.y[i]
        slope = (self.cdf[i + 1] - self.cdf[i]) / self.h
        out = self.icdf[i] + self.cdf[i] * dy + 0.5 * slope * dy * dy
        # beyond the support the CDF is identically 1
        return out + np.where(t > 1.0, t - 1.0, 0.0)


@functools.cache
def _tables() -> _BumpTables:
    return _BumpTables()


class Mollified(Potential):
    """psi_delta = omega_delta * psi - (omega_delta * psi)(0) for kinked psi.

    For piecewise-linear psi the convolution is evaluated in closed form from
    the bump's tabulated CDF: psi_delta'(u) = -L + sum_j ds_j Omega((u-k_j)/delta)
    over the full-line kinks k_j with slope jumps ds_j >= 0, and psi_delta is
    its exact antiderivative. The representation is convex by construction,
    even to machine precision (evaluation at |u|), coincides with the shifted
    psi outside delta-neighborhoods of the kinks, and keeps the Lipschitz
    constant of psi.
    """

    def __init__(self, base: Potential, delta: float):
        self.base = base
        self.delta = float(delta)
        self._tb = tb = _tables()
        self._iconsts = tb.icdf_eval(-base.kinks / self.delta)
        self.lipschitz_L = base.lipschitz_L
        self.lipschitz_Lprime = self.lipschitz_L * 2.0 * tb.omega0 / self.delta
        self.breakpoints = ()

    def value(self, u):
        u = np.asarray(u, dtype=float)
        x = np.abs(u)
        t = (x[..., None] - self.base.kinks) / self.delta
        parts = self.base.jumps * self.delta * (self._tb.icdf_eval(t) - self._iconsts)
        # at |u| = inf the sum reads -inf + inf; psi grows without bound there
        with np.errstate(invalid="ignore"):
            out = np.maximum(-self.lipschitz_L * x + parts.sum(axis=-1), 0.0)
        return np.where(x == np.inf, np.inf, out)

    def subdiff_lo(self, u):
        u = np.asarray(u, dtype=float)
        x = np.abs(u)
        t = (x[..., None] - self.base.kinks) / self.delta
        d = (self.base.jumps * self._tb.cdf_eval(t)).sum(axis=-1) - self.lipschitz_L
        return np.sign(u) * d

    subdiff_hi = subdiff_lo

    def __repr__(self):
        return f"Mollified({self.base!r}, delta={self.delta})"


def mollify(psi: Potential, delta: float) -> Potential:
    """Smooth surrogate psi_delta with psi_delta(0) = 0 and the same L.

    Potentials without breakpoints already have a Lipschitz derivative and are
    returned unchanged (the even mollifier would shift them by a constant that
    the normalization subtracts again).
    """
    if not delta > 0:
        raise ValueError("mollify: delta must be positive")
    if not psi.breakpoints:
        return psi
    if math.isinf(psi.lipschitz_L):
        raise ValueError("mollify requires a globally Lipschitz potential")
    return Mollified(psi, float(delta))
