"""Limit law gamma + int dpsi(a gamma) rho da = v: root, minimizer, trajectory."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cellroll.errors import NumericalError
from cellroll.history import ConstantPast
from cellroll.kernels import Exponential, Tabulated, TruncatedExponential
from cellroll.oracles import gamma_abs
from cellroll.potentials import (AbsoluteValue, Mollified, PiecewiseLinear,
                                 Quadratic, Tether, mollify)
from cellroll.solver_limit import (_force_selections, integrate_limit,
                                   limit_velocity)

TOL = 1e-12  # limit_velocity's tolerance


def residual(psi, kernel, w, v, t=math.inf):
    """w + int psi'(a w) rho(a, t) da - v by quadrature, off kinks."""
    upper = min(kernel.a_max, t) if math.isfinite(t) else kernel.a_max
    force = quad(lambda a: float(psi.subdiff_lo(a * w)) * float(
        kernel.eval(a, t)), 0.0, upper, limit=400)[0]
    return w + force - v


def limit_velocity_bisect(psi, kernel, v_t, t=math.inf, tol=TOL):
    """Bisection reference for ``limit_velocity`` on the same force map.

    Halves [-|v|-1, |v|+1] on the minimal/maximal subgradient selections
    until it is at most tol wide, returning early when 0 lies in the
    subdifferential at the midpoint.
    """
    v_t = float(v_t)
    force = _force_selections(psi, kernel, t)
    lo, hi = -abs(v_t) - 1.0, abs(v_t) + 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        flo, fhi = force(mid)
        if mid + flo - v_t > 0.0:
            hi = mid
        elif mid + fhi - v_t < 0.0:
            lo = mid
        else:
            return mid
    return 0.5 * (lo + hi)


def assert_certified(psi, kernel, v, t, w, h):
    """0 lies in w + F(w) - v within h of w, on limit_velocity's force map."""
    force = _force_selections(psi, kernel, t)
    assert (w - h) + force(w - h)[0] - v <= 0.0 <= (w + h) + force(w + h)[1] - v


def limit_velocity_minimize(psi, kernel, v_t, t=math.inf, tol=1e-11):
    """Golden-section minimizer of J_t(w) = w^2/2 - v w + int psi(a w)/a rho da.

    A derivative-free cross-check of ``limit_velocity``: it shares neither the
    root finder nor the force quadrature. The integrand at a = 0 is taken by
    its limit |w| * psi'(0+), which vanishes for smooth potentials.
    """
    v_t = float(v_t)
    a = np.linspace(0.0, kernel.a_max, 2049)
    simpson = np.full(a.size, 2.0)
    simpson[1::2] = 4.0
    simpson[0] = simpson[-1] = 1.0
    wts = simpson * (a[1] - a[0]) / 3.0 * kernel.eval(a, t)
    slope0 = float(psi.subdiff_hi(0.0))
    inv_a = np.concatenate(([0.0], 1.0 / a[1:]))

    def objective(w):
        vals = psi.value(a * w) * inv_a
        vals[0] = abs(w) * slope0
        return 0.5 * w * w - v_t * w + float(np.dot(wts, vals))

    lo, hi = -abs(v_t) - 1.0, abs(v_t) + 1.0
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = objective(x2)
    w0 = 0.5 * (lo + hi)
    # golden section stalls near sqrt(machine eps); a quadratic-fit polish
    # recovers the vertex to ~1e-10 when J is smooth at the minimizer
    w = w0
    h = 1e-5 * max(1.0, abs(w))
    for _ in range(2):
        fm, f0, fp = objective(w - h), objective(w), objective(w + h)
        curv = fp - 2.0 * f0 + fm
        if curv <= 0.0:
            break
        step = -0.5 * h * (fp - fm) / curv
        w += min(max(step, -h), h)
    # a kink minimizer (nonsmooth psi) rejects the polish: J rises there
    f_old, f_new = objective(w0), objective(w)
    if f_new > f_old + 1e-13 * (1.0 + abs(f_old)):
        return w0
    return w


class TestLimitVelocity:
    def test_quadratic_closed_form(self):
        # w (1 + m_1) = v with m_1 = 1 for beta = zeta = 1
        w = limit_velocity(Quadratic(), Exponential(1.0, 1.0), 1.0)
        assert w == pytest.approx(0.5, abs=1e-8)

    def test_quadratic_at_finite_time(self):
        k = TruncatedExponential(1.0, 1.0)
        w = limit_velocity(Quadratic(), k, 1.0, t=2.0)
        m1 = 1.0 - 3.0 * math.exp(-2.0)  # int_0^2 a e^{-a} da
        assert w == pytest.approx(1.0 / (1.0 + m1), rel=1e-9)

    def test_abs_band_is_exact_zero(self):
        k = Exponential(1.0, 1.0)
        for v in (-1.0, -0.3, 0.0, 0.99, 1.0):
            assert limit_velocity(AbsoluteValue(), k, v) == 0.0

    def test_abs_sliding_matches_law(self):
        k = Exponential(1.0, 1.0)
        for v in (-2.5, 1.2, 4.0):
            got = limit_velocity(AbsoluteValue(), k, v)
            assert got == pytest.approx(gamma_abs(v, 1.0), abs=1e-9)

    def test_residual_vanishes_across_catalog(self):
        rng = np.random.default_rng(21)
        catalog = [Quadratic(), Tether(0.8), mollify(AbsoluteValue(), 0.2),
                   PiecewiseLinear([1.0], [0.2, 2.0])]
        for psi in catalog:
            for _ in range(5):
                beta, zeta = rng.uniform(0.3, 2.0, size=2)
                v = rng.uniform(-3.0, 3.0)
                k = Exponential(beta, zeta)
                w = limit_velocity(psi, k, v)
                if w != 0.0 and not any(
                        abs(a * w - b) < 1e-8 for b in psi.breakpoints
                        for a in np.linspace(0, k.a_max, 5)):
                    assert abs(residual(psi, k, w, v)) < 1e-7

    @pytest.mark.parametrize("psi", [AbsoluteValue(), Quadratic()])
    def test_nan_drive_raises(self, psi):
        with pytest.raises(NumericalError):
            limit_velocity(psi, Exponential(1.0, 1.0), math.nan)

    def test_piecewise_linear_flat_band(self):
        # slopes start at 0: no stall band, w + F(w) strictly increasing
        psi = PiecewiseLinear([0.5], [0.0, 2.0])
        k = Exponential(1.0, 1.0)
        w = limit_velocity(psi, k, 1.5)
        assert abs(residual(psi, k, w, 1.5)) < 1e-7
        assert 0.0 < w < 1.5


@st.composite
def potentials(draw):
    kind = draw(st.sampled_from(["quadratic", "tether", "mollified", "abs",
                                 "piecewise"]))
    if kind == "quadratic":
        return Quadratic()
    if kind == "tether":
        return Tether(draw(st.floats(0.1, 2.0)))
    if kind == "mollified":
        return mollify(AbsoluteValue(), draw(st.floats(0.05, 0.5)))
    if kind == "abs":
        return AbsoluteValue()
    breaks = sorted(draw(st.sets(st.floats(0.05, 2.0), max_size=3)))
    # slopes[0] = 0 drops the kink at the origin, and with it the flat branch
    steps = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
                          min_size=len(breaks) + 1, max_size=len(breaks) + 1))
    slopes = np.cumsum(steps)
    if slopes[-1] == 0.0:
        slopes[-1] = 1.0
    return PiecewiseLinear(breaks, slopes)


@st.composite
def kernels_at_t(draw):
    """(kernel, t): a static kernel at t = inf or a truncated one at finite t."""
    kind = draw(st.sampled_from(["exponential", "truncated", "tabulated"]))
    if kind == "tabulated":
        n = draw(st.integers(2, 6))
        ages = np.cumsum(draw(st.lists(st.floats(0.2, 2.0), min_size=n,
                                       max_size=n)))
        values = draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n))
        return Tabulated(np.concatenate(([0.0], ages)), [1.0] + values), math.inf
    beta, zeta = draw(st.floats(0.2, 2.0)), draw(st.floats(0.3, 2.0))
    if kind == "exponential":
        return Exponential(beta, zeta), math.inf
    return TruncatedExponential(beta, zeta), draw(st.floats(0.0, 5.0))


class TestAgainstBisection:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(potentials(), kernels_at_t(), st.floats(-4.0, 4.0))
    def test_matches_bisection_with_certificate(self, psi, kt, v):
        kernel, t = kt
        w = limit_velocity(psi, kernel, v, t)
        assert abs(w - limit_velocity_bisect(psi, kernel, v, t)) <= 1e-11
        assert_certified(psi, kernel, v, t, w, TOL)
        if isinstance(psi, PiecewiseLinear):
            band = float(psi.subdiff_hi(0.0)) * float(
                kernel.cummass(kernel.a_max, t))
            if abs(v) <= band:
                assert w == 0.0


class CountingExponential(Exponential):
    """Exponential kernel counting its eval and cummass calls."""

    evals = cummasses = 0

    def eval(self, a, t):
        self.evals += 1
        return super().eval(a, t)

    def cummass(self, x, t):
        self.cummasses += 1
        return super().cummass(x, t)


class CountingDerivative:
    """Mixin counting psi.derivative calls: one per force evaluation on the
    Simpson path."""

    calls = 0

    def derivative(self, u):
        self.calls += 1
        return super().derivative(u)


class CountingQuadratic(CountingDerivative, Quadratic):
    pass


class CountingTether(CountingDerivative, Tether):
    pass


class CountingMollified(CountingDerivative, Mollified):
    pass


def force_evaluations(psi, kernel):
    """Force evaluations so far: psi.derivative calls on the Simpson path; on
    the kinked path every probe off w = 0 takes one cummass call, the probe
    at w = 0 none, and one more call gives the total mass."""
    if isinstance(psi, PiecewiseLinear):
        return kernel.cummasses
    return psi.calls


class TestWork:
    def test_simpson_grid_built_once_per_equation(self):
        k = CountingExponential(1.0, 1.0)
        limit_velocity(Quadratic(), k, 1.3)
        assert k.evals == 1
        integrate_limit(Tether(0.8), k, lambda t: 1.0 + t, 0.0, 0.1, 0.01)
        assert k.evals == 1 + 11

    @pytest.mark.parametrize("make_psi", [
        CountingQuadratic, lambda: CountingTether(0.8),
        lambda: CountingMollified(AbsoluteValue(), 0.2), AbsoluteValue,
        lambda: PiecewiseLinear([1.0], [0.3, 2.0]),
        lambda: PiecewiseLinear([0.5, 1.2], [0.0, 1.0, 2.5])])
    def test_evaluations_within_one_of_bisection(self, make_psi):
        # at 0.6696... and -1.0161... the mollified root needs the full ITP
        # budget, which rounding overruns by one probe unless the ITP radius
        # keeps a margin of a few ulps
        drives = list(np.linspace(-4.0, 4.0, 33)) + [0.6696156487442364,
                                                     -1.0161777886233097]
        for v in drives:
            psi, k = make_psi(), CountingExponential(1.0, 1.0)
            limit_velocity(psi, k, v)
            bound = math.ceil(math.log2((2.0 * abs(v) + 2.0) / TOL)) + 3
            assert force_evaluations(psi, k) <= bound, v

    @pytest.mark.parametrize("make_psi", [CountingQuadratic,
                                          lambda: CountingTether(0.8)])
    def test_smooth_maps_converge_superlinearly(self, make_psi):
        # bisection takes 45 to 55 evaluations on these equations; at
        # |v| >= 1e4 an ulp of the root is no longer small against tol
        for v in list(np.linspace(-4.0, 4.0, 33)) + [1e4, -1e5]:
            psi, k = make_psi(), CountingExponential(1.0, 1.0)
            limit_velocity(psi, k, v)
            assert force_evaluations(psi, k) <= 20, v

    def test_flat_branch_costs_only_the_centre_probe(self):
        # stall band |v| <= beta/zeta, up to its edge at beta = 3: the probe
        # at w = 0 settles it, and the one cummass call is the total mass
        for beta, v in ((1.0, -0.9), (1.0, 0.0), (1.0, 0.99), (3.0, 2.9),
                        (3.0, -2.99)):
            k = CountingExponential(beta, 1.0)
            assert limit_velocity(AbsoluteValue(), k, v) == 0.0
            assert force_evaluations(AbsoluteValue(), k) == 1

    @pytest.mark.parametrize("psi", [Quadratic(), Tether(0.8), AbsoluteValue()])
    @pytest.mark.parametrize("v", [1e7, -1e7 - 0.1, 1e7 + 0.4])
    def test_terminates_where_tol_is_below_float_spacing(self, psi, v):
        # spacing(5e6) = 9.3e-10 > tol. The quadratic at -1e7 - 0.1 and the
        # tether at 1e7 + 0.4 stop at adjacent floats; the other runs end on
        # a probe where g rounds to exactly 0.
        k = Exponential(1.0, 1.0)
        w = limit_velocity(psi, k, v)
        assert 0.0 < w / v < 1.0
        assert_certified(psi, k, v, math.inf, w, 4.0 * np.spacing(abs(w)))


class TestMinimizer:
    def test_agrees_with_root_on_smooth_instances(self):
        rng = np.random.default_rng(7)
        shapes = [Quadratic(), Tether(1.0), mollify(AbsoluteValue(), 0.3)]
        for _ in range(30):
            psi = shapes[int(rng.integers(len(shapes)))]
            beta, zeta = rng.uniform(0.2, 3.0, size=2)
            v = rng.uniform(-3.0, 3.0)
            k = Exponential(beta, zeta)
            w_root = limit_velocity(psi, k, v)
            w_min = limit_velocity_minimize(psi, k, v)
            assert w_min == pytest.approx(w_root, abs=1e-8)

    def test_band_minimizer_sits_at_kink(self):
        w = limit_velocity_minimize(AbsoluteValue(), Exponential(1.0, 1.0), 0.6)
        assert w == pytest.approx(0.0, abs=1e-9)

    def test_sliding_minimizer_matches_law(self):
        w = limit_velocity_minimize(AbsoluteValue(), Exponential(1.0, 1.0), 1.5)
        assert w == pytest.approx(0.5, abs=1e-8)


class TestIntegrateLimit:
    def test_constant_drive_gives_linear_motion(self):
        traj = integrate_limit(Quadratic(), Exponential(1.0, 1.0), 1.0,
                               0.25, 2.0, 0.01)
        w = limit_velocity(Quadratic(), Exponential(1.0, 1.0), 1.0)
        np.testing.assert_allclose(traj.values, 0.25 + w * traj.times,
                                   atol=1e-10)

    def test_varying_drive_matches_quadrature(self):
        k = Exponential(1.0, 1.0)
        v = lambda t: 1.0 + 0.5 * math.sin(t)
        traj = integrate_limit(Quadratic(), k, v, 0.0, 3.0, 1e-3)
        ref = quad(lambda s: limit_velocity(Quadratic(), k, v(s)), 0.0, 3.0,
                   limit=200)[0]
        assert traj.values[-1] == pytest.approx(ref, abs=1e-6)

    def test_truncated_kernel_starts_at_full_speed(self):
        # no bonds at t = 0: the limit velocity there equals the drive
        k = TruncatedExponential(1.0, 1.0)
        traj = integrate_limit(Quadratic(), k, 1.0, 0.0, 1.0, 1e-3)
        assert traj.zdot()[0] == pytest.approx(1.0, abs=1e-2)
        w_end = 1.0 / (1.0 + 1.0 - 2.0 * math.exp(-1.0))  # m_1 at t = 1
        assert traj.zdot()[-1] == pytest.approx(w_end, abs=1e-2)

    def test_grid_tie_rejected(self):
        with pytest.raises(ValueError):
            integrate_limit(Quadratic(), Exponential(1.0, 1.0), 1.0,
                            0.0, 1.0, 0.3)


class TestAsymptoticVelocity:
    def test_limit_velocity_at_infinity(self):
        got = limit_velocity(AbsoluteValue(), Exponential(1.0, 1.0), 1.5,
                             math.inf)
        assert got == pytest.approx(0.5, abs=1e-9)

    def test_stationary_tabulated_kernel(self):
        a = np.linspace(0.0, 8.0, 2001)
        k = Tabulated(a, np.exp(-a))
        mu_inf = float(k.cummass(k.a_max, math.inf))
        assert limit_velocity(AbsoluteValue(), k, 2.0, math.inf) == pytest.approx(
            gamma_abs(2.0, mu_inf), abs=1e-9)
