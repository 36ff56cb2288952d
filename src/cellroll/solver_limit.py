"""The macroscopic limit equation, solved pointwise in time.

At each t the limit velocity w solves w + int psi'(a w) rho(a, t) da = v(t).
The left side is a strictly increasing map of w, set-valued only at w = 0
for kinked psi. Each equation builds its age quadrature once (the kernel's
bond masses between psi's kinks, or a Simpson grid weighted by rho), so a
probe costs one dot product. A probe at w = 0 resolves the flat branch of
kinked potentials exactly; as the map's slope is at least 1, its value also
brackets the root, and an ITP root find (shared with ``solver_mm``) closes
that bracket. The tests cross-check it against bisection and against a
derivative-free minimization of the equivalent convex objective.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError
from .history import Trajectory
from .kernels import Kernel
from .memory import as_drive, step_count
from .potentials import PiecewiseLinear, Potential

__all__ = ["limit_velocity", "integrate_limit"]

_SIMPSON_NODES = 2049  # age-quadrature resolution for smooth potentials


def _force_selections(psi, kernel, t):
    """The map w -> (min, max) of {int z(a) rho(a,t) da : z(a) in d psi(a w)}.

    Everything that does not depend on w is computed here, once per equation.
    """
    if isinstance(psi, PiecewiseLinear):
        # the right half of the even profile: knots 0 .. b_N, their slopes
        hk, hs = np.concatenate(([0.0], psi.breaks)), psi.slopes
        total = float(kernel.cummass(kernel.a_max, t))
        band = float(hs[0]) * total

        def kinked(w):
            if w == 0.0:
                return -band, band
            # for denormal |w| the edges overflow to inf; cummass clips them
            with np.errstate(over="ignore"):
                edges = hk / abs(w)
            masses = np.diff(np.concatenate((kernel.cummass(edges, t), [total])))
            f = math.copysign(float(np.dot(hs, np.maximum(masses, 0.0))), w)
            return f, f
        return kinked
    upper = kernel.support(t)
    if upper <= 0.0:
        return lambda w: (0.0, 0.0)
    a = np.linspace(0.0, upper, _SIMPSON_NODES)
    wts = _simpson_weights(a) * kernel.eval(a, t)

    def smooth(w):
        f = float(np.dot(wts, psi.derivative(a * w)))
        return f, f
    return smooth


def _simpson_weights(a):
    n = a.size
    h = a[1] - a[0]
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def limit_velocity(psi: Potential, kernel: Kernel, v_t: float, t: float = math.inf) -> float:
    """The unique w with v(t) - w in int d psi(a w) rho(a, t) da.

    The map w + F(w) - v has slope at least 1, so ``_increasing_root``
    brackets the root from its value at the centre w = 0, which it returns
    exactly when 0 lies in the subdifferential there (the flat branch of
    kinked potentials), and closes the bracket to 1e-12 or to adjacent
    floats.
    """
    v_t = float(v_t)
    force = _force_selections(psi, kernel, t)

    def g(w):
        flo, fhi = force(w)
        return w + flo - v_t, w + fhi - v_t

    return _increasing_root(g, 0.0, 1.0, 1e-12)


def _increasing_root(g, centre, scale, tol):
    """Root of an increasing set-valued map g whose slope is at least 1/scale.

    ``g(w)`` returns the minimal and maximal selections. The first probe is
    ``centre``, returned exactly when 0 lies in g(centre). Otherwise the slope
    bound puts the root within scale*|g(centre)| of the centre, on the side
    where g changes sign. The far end is probed at twice that distance, so
    that rounding cannot lose the sign there, and ``_itp`` closes the
    bracket to ``tol`` or to adjacent floats.
    """
    glo, ghi = g(centre)
    if glo <= 0.0 <= ghi:
        return centre
    y = glo if glo > 0.0 else ghi
    far = centre - 2.0 * scale * y
    if not math.isfinite(far):
        raise NumericalError(f"root map is not finite at {centre:.6g}")
    flo, fhi = g(far)
    if y > 0.0:
        lo, hi, y_lo, y_hi = far, centre, fhi, glo
    else:
        lo, hi, y_lo, y_hi = centre, far, ghi, flo
    if y_lo < 0.0 < y_hi:
        return _itp(g, lo, hi, y_lo, y_hi, tol)
    if not (math.isfinite(flo) and math.isfinite(fhi)):
        raise NumericalError(f"root map is not finite at {far:.6g}")
    # exactly, g(far) has the sign opposite to g(centre); here rounding hid
    # it, so g(centre) is rounding noise (far may even round to centre)
    return centre


def _itp(g, lo, hi, y_lo, y_hi, tol):
    """Root of the increasing set-valued g in [lo, hi], with y_lo < 0 < y_hi
    the upper selection of g at lo and the lower one at hi.

    ITP (interpolate, truncate, project; Oliveira & Takahashi, ACM TOMS
    47(1), 2020) with k1 = 0.2/(hi - lo), k2 = 2, n0 = 1, epsilon = tol/2: each
    probe is the regula-falsi point, nudged toward the midpoint by
    k1*width^2 and projected to within r of it, where r shrinks so that the
    bracket is at most tol wide after n0 probes more than bisection needs.
    """
    k1 = 0.2 / (hi - lo)
    n_max = math.ceil(math.log2((hi - lo) / tol)) + 1
    # r aims a few ulps inside tol/2, so that rounding the probes cannot leave
    # the bracket just wider than tol after n_max of them. Where an ulp is
    # near tol itself no margin can promise that; the cap keeps the budget
    # for interpolation steps there.
    half = 0.5 * tol - min(2.0 * math.ulp(max(abs(lo), abs(hi))), 0.125 * tol)
    j = 0
    while hi - lo > tol:
        width = hi - lo
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            # lo and hi are adjacent floats: tol is below their spacing
            break
        x_f = (lo * y_hi - hi * y_lo) / (y_hi - y_lo)
        sigma = math.copysign(1.0, mid - x_f)
        delta = k1 * width * width
        x = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
        r = half * 2.0 ** (n_max - j) - 0.5 * width
        if not abs(x - mid) <= r:
            x = mid - sigma * max(r, 0.0)
        if not lo < x < hi:
            x = mid
        glo, ghi = g(x)
        if glo > 0.0:
            hi, y_hi = x, glo
        elif ghi < 0.0:
            lo, y_lo = x, ghi
        else:
            return x
        j += 1
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
