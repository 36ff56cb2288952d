"""The macroscopic limit equation, solved pointwise in time.

At each t the limit velocity w solves w + int psi'(a w) rho(a, t) da = v(t).
The left side is a strictly increasing (set-valued at kinks) map of w, so a
subgradient bisection locates the unique root. The tests cross-check it
against a derivative-free minimization of the equivalent convex objective.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError
from .history import Trajectory
from .kernels import Kernel
from .memory import as_drive, step_count
from .potentials import Potential

__all__ = ["limit_velocity", "integrate_limit"]

_SIMPSON_NODES = 2049  # age-quadrature resolution for smooth potentials


def _force_selections(psi, kernel, w, t):
    """(min, max) of the set {int z(a) rho(a,t) da : z(a) in d psi(a w)}."""
    if hasattr(psi, "_half_line_form"):
        hk, hs = psi._half_line_form()
        total = float(kernel.cummass(kernel.a_max, t))
        if w == 0.0:
            return -hs[0] * total, hs[0] * total
        edges = hk / abs(w)
        masses = np.diff(np.concatenate((kernel.cummass(edges, t), [total])))
        f = float(np.dot(hs, np.maximum(masses, 0.0)))
        f = math.copysign(f, w)
        return f, f
    upper = kernel.support(t)
    if upper <= 0.0:
        return 0.0, 0.0
    a = np.linspace(0.0, upper, _SIMPSON_NODES)
    wts = _simpson_weights(a) * kernel.eval(a, t)
    f = float(np.dot(wts, psi.derivative(a * w)))
    return f, f


def _simpson_weights(a):
    n = a.size
    h = a[1] - a[0]
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def limit_velocity(psi: Potential, kernel: Kernel, v_t: float, t: float = math.inf,
                   tol: float = 1e-12) -> float:
    """The unique w with v(t) - w in int d psi(a w) rho(a, t) da.

    Bisection on [-|v|-1, |v|+1] with the minimal/maximal subgradient
    selections; returns early when 0 lies in the subdifferential at the
    midpoint, which resolves the flat branch of nonsmooth potentials exactly.
    """
    v_t = float(v_t)
    lo, hi = -abs(v_t) - 1.0, abs(v_t) + 1.0

    def g(w):
        flo, fhi = _force_selections(psi, kernel, w, t)
        return w + flo - v_t, w + fhi - v_t

    if g(lo)[1] > 0.0 or g(hi)[0] < 0.0:
        raise NumericalError("limit velocity bracket lost; kernel moments may be non-finite")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        glo, ghi = g(mid)
        if glo > 0.0:
            hi = mid
        elif ghi < 0.0:
            lo = mid
        else:
            return mid
    return 0.5 * (lo + hi)


def integrate_limit(psi: Potential, kernel: Kernel, v, z0: float, T: float, dt: float) -> Trajectory:
    """z_0(t) = z0 + cumulative trapezoid of the pointwise limit velocity."""
    n = step_count(T, dt)
    drive = as_drive(v)
    w = np.empty(n + 1)
    for i in range(n + 1):
        w[i] = limit_velocity(psi, kernel, float(drive(i * dt)), i * dt)
    z = np.empty(n + 1)
    z[0] = float(z0)
    z[1:] = z0 + np.cumsum(0.5 * dt * (w[1:] + w[:-1]))
    return Trajectory(dt, z, eps=1.0)
