"""The macroscopic limit equation, solved pointwise in time.

At each t the limit velocity w solves w + int psi'(a w) rho(a, t) da = v(t).
The left side is a strictly increasing map of w, set-valued only at w = 0
for kinked psi. The age quadrature (the kernel's bond masses between psi's
kinks, or a Simpson grid weighted by rho) is built once per (psi, kernel)
for a static kernel and once per t for a time-dependent one, so a probe
costs one dot product; and an equation equal to the last one solved (a
constant drive on a static kernel) returns the last root. Both memos hold
one entry and key on the potential and the kernel themselves, so they treat
them as immutable values: to change one after a solve, build a new object.
A probe at w = 0 resolves the flat branch of kinked potentials exactly; as
the map's slope is at least 1, its value also brackets the root, and an
ITP root find (shared with ``solver_mm``) that opens on the interpolation
point closes that bracket. Quadratic psi needs no probe: psi' is the
identity, so the equation is w (1 + m) = v with m the Simpson grid's first
moment, taken once with its weights, and one division solves it. Over 333
drives in [-4, 4] on two exponential kernels an equation took 3 or 4 force
evaluations off the flat branch of ``abs``, and a median of 11 or 12 for
tethers, mollified ``abs`` and other piecewise-linear psi, where bisection
takes 45. Mollified ``abs`` can still take ITP's whole budget for some
drives inside the band |v| < mu of plain ``abs``, where its map is nearly a
step. The tests cross-check the root against bisection and against a
derivative-free minimization of the equivalent convex objective.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NumericalError
from .history import Trajectory
from .kernels import Kernel
from .memory import as_drive, step_count
from .potentials import PiecewiseLinear, Potential, Quadratic

__all__ = ["limit_velocity", "integrate_limit"]

_SIMPSON_NODES = 2049  # age-quadrature resolution for smooth potentials


def _force_selections(psi, kernel, t):
    """The map w -> (min, max) of {int z(a) rho(a,t) da : z(a) in d psi(a w)}.

    Everything that does not depend on w is computed here; ``_shared_force``
    keeps the last map built. The Simpson map carries the grid's first
    moment as ``moment``, which is all ``_limit_root`` needs for quadratic psi.
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
    if upper > 0.0:
        a = np.linspace(0.0, upper, _SIMPSON_NODES)
        wts = _simpson_weights(a) * kernel.eval(a, t)
    else:  # no bond has formed yet: an empty quadrature, F = 0
        a = wts = np.zeros(0)

    def smooth(w):
        f = float(np.dot(wts, psi.derivative(a * w)))
        return f, f
    # the first moment m: F(w) = m w on this quadrature for quadratic psi
    smooth.moment = float(np.dot(wts, a))
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

    For quadratic psi (the exact type; a subclass may change psi') the
    map is linear, F(w) = m w on the quadrature, and the root v / (1 + m)
    costs one division and no force evaluation. Otherwise the map
    w + F(w) - v has slope at least 1, so ``_increasing_root`` brackets the
    root from its value at the centre w = 0, which it returns exactly when
    0 lies in the subdifferential there (the flat branch of kinked
    potentials), and ``_itp``, opening on the regula-falsi point, closes the
    bracket to 1e-12 or to adjacent floats. A static kernel's t does not
    enter the equation, so every t shares one quadrature, and a call that
    repeats the last equation returns the last root without a probe. A
    drive that is not finite raises ``NumericalError``.
    """
    t = float(t) if kernel.time_dependent else math.inf
    return _limit_root(psi, kernel, float(v_t), t)


@functools.lru_cache(maxsize=1)
def _shared_force(psi, kernel, t):
    return _force_selections(psi, kernel, t)


@functools.lru_cache(maxsize=1)
def _limit_root(psi, kernel, v_t, t):
    # errors are not cached: a NaN drive or a modulated kernel at t = inf
    # raises again on every call
    force = _shared_force(psi, kernel, t)
    if type(psi) is Quadratic:
        # the equation is w (1 + m) = v; + 0.0 makes a zero drive's root
        # +0.0 for either sign, which the memo keys as one entry
        w = v_t / (1.0 + force.moment) + 0.0
        if not math.isfinite(w):
            raise NumericalError(f"limit velocity is not finite for drive {v_t:.6g}")
        return w

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
    bracket to ``tol`` or to adjacent floats. It raises ``NumericalError``
    where the far end lies past half the float range, so that a midpoint
    would overflow, or where g is not finite there: a map that overflows
    inside the bracket has no root in it that can be certified.
    """
    glo, ghi = g(centre)
    if glo <= 0.0 <= ghi:
        return centre
    y = glo if glo > 0.0 else ghi
    far = centre - 2.0 * scale * y
    # the sum of two points of the bracket, and so its width, must be finite
    if not (math.isfinite(2.0 * far) and math.isfinite(2.0 * centre)):
        raise NumericalError(f"no finite root bracket at {centre:.6g}, where "
                             f"the root map is {y:.6g}")
    flo, fhi = g(far)
    if not (math.isfinite(flo) and math.isfinite(fhi)):
        # the map overflows inside the bracket: no root in it can be certified
        raise NumericalError(f"root map is not finite at {far:.6g}")
    if y > 0.0:
        lo, hi, y_lo, y_hi = far, centre, fhi, glo
    else:
        lo, hi, y_lo, y_hi = centre, far, ghi, flo
    if y_lo < 0.0 < y_hi:
        return _itp(g, lo, hi, y_lo, y_hi, tol)
    # exactly, g(far) has the sign opposite to g(centre); here rounding hid
    # it, so g(centre) is rounding noise (far may even round to centre)
    return centre


def _secant(lo, hi, y_lo, y_hi):
    """The regula-falsi point of [lo, hi], where y_lo < 0 < y_hi; its
    divisor is at least 1, so it cannot overflow on a finite bracket."""
    return lo + (hi - lo) / (1.0 - y_hi / y_lo)


def _itp(g, lo, hi, y_lo, y_hi, tol):
    """Root of the increasing set-valued g in [lo, hi], with y_lo < 0 < y_hi
    the upper selection of g at lo and the lower one at hi.

    ITP (interpolate, truncate, project; Oliveira & Takahashi, ACM TOMS
    47(1), 2020) with k2 = 2, n0 = 1, epsilon = tol/2: each probe is the
    regula-falsi point, nudged toward the midpoint by k1*width^2 and
    projected to within r of it, where r shrinks so that the bracket is at
    most tol wide after n0 probes more than bisection needs.

    It opens on the plain regula-falsi point. When the secant of the bracket
    that probe leaves puts the root within tol/2 of it, as it does where g
    is affine, the next probe is tol/2 past it toward the other end, which
    closes the bracket if the root lies that close. ITP then takes
    k1 = 0.2/width of the bracket the opening leaves, and counts the opening
    probes against its budget. A tol/2 probe that misses can cost one probe
    more than that budget.
    """
    # in logs: (hi - lo) / tol overflows once the bracket is wider than 1e296
    n_max = math.ceil(math.log2(hi - lo) - math.log2(tol)) + 1
    j = 0  # probes made
    x = _secant(lo, hi, y_lo, y_hi)
    for _ in range(2):
        if not (hi - lo > tol and lo < x < hi):
            break
        glo, ghi = g(x)
        j += 1
        if glo > 0.0:
            hi, y_hi = x, glo
        elif ghi < 0.0:
            lo, y_lo = x, ghi
        else:
            return x
        if abs(_secant(lo, hi, y_lo, y_hi) - x) > 0.5 * tol:
            break
        x += 0.5 * tol if x == lo else -0.5 * tol
    k1 = 0.2 / (hi - lo)
    # r aims a few ulps inside tol/2, so that rounding the probes cannot leave
    # the bracket just wider than tol after n_max of them. Where an ulp is
    # near tol itself no margin can promise that; the cap keeps the budget
    # for interpolation steps there.
    half = 0.5 * tol - min(2.0 * math.ulp(max(abs(lo), abs(hi))), 0.125 * tol)
    while hi - lo > tol:
        width = hi - lo
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            # lo and hi are adjacent floats: tol is below their spacing
            break
        x_f = _secant(lo, hi, y_lo, y_hi)
        sigma = math.copysign(1.0, mid - x_f)
        delta = k1 * width * width
        x = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
        try:
            r = math.ldexp(half, n_max - j) - 0.5 * width
        except OverflowError:  # r is then wider than any bracket
            r = math.inf
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
