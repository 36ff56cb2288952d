"""Potential catalog: catalog values, convexity contract, mollification.

The mollified potentials are checked against direct quadrature of the
convolution with the normalized bump, computed here independently with
scipy.
"""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cellroll.errors import BreakpointCollisionError
from cellroll.potentials import (AbsoluteValue, Mollified, PiecewiseLinear,
                                 Potential, Quadratic, Tether, mollify)
from strategies import even_convex_piecewise_linear

BUMP_NORM = quad(lambda y: math.exp(-1.0 / (1.0 - y * y)), -1, 1,
                 points=[0.0], limit=200)[0]


def omega1(y):
    if abs(y) >= 1.0:
        return 0.0
    return math.exp(-1.0 / (1.0 - y * y)) / BUMP_NORM


def convolved_value(psi, u, delta):
    """(omega_delta * psi)(u) - (omega_delta * psi)(0) by quadrature."""
    f = lambda y: (psi.value(u - delta * y) - psi.value(-delta * y)) * omega1(y)
    return quad(f, -1, 1, limit=200)[0]


def convolved_slope(psi, u, delta):
    f = lambda y: 0.5 * (psi.subdiff_lo(u - delta * y)
                         + psi.subdiff_hi(u - delta * y)) * omega1(y)
    return quad(f, -1, 1, limit=200)[0]


def catalog():
    return [Quadratic(), Tether(0.7), AbsoluteValue(),
            PiecewiseLinear([1.0, 2.0], [0.5, 1.0, 3.0]),
            PiecewiseLinear([0.5], [0.0, 2.0]),
            mollify(AbsoluteValue(), 0.2)]


class TestCatalogValues:
    def test_quadratic(self):
        psi = Quadratic()
        assert psi.value(3.0) == 4.5
        assert psi.subdiff_lo(-2.0) == -2.0
        assert psi.breakpoints == ()
        assert math.isinf(psi.lipschitz_L)
        assert psi.lipschitz_Lprime == 1.0

    def test_tether_flat_at_origin(self):
        psi = Tether(0.5)
        # psi ~ u^4 / (8 r^2) near 0: quartic, not quadratic
        assert psi.value(1e-3) == pytest.approx(1e-12 / (8 * 0.25), rel=1e-5)
        assert psi.value(0.0) == 0.0
        assert psi.subdiff_lo(0.0) == 0.0

    def test_tether_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            Tether(0.0)

    def test_absolute_value(self):
        psi = AbsoluteValue()
        assert psi.value(-3.0) == 3.0
        assert psi.subdiff_lo(0.0) == -1.0
        assert psi.subdiff_hi(0.0) == 1.0
        assert psi.subdiff_lo(2.0) == psi.subdiff_hi(2.0) == 1.0
        assert psi.breakpoints == (0.0,)
        assert psi.lipschitz_L == 1.0

    def test_piecewise_linear_profile(self):
        psi = PiecewiseLinear([1.0, 2.0], [0.5, 1.0, 3.0])
        assert psi.value(0.5) == 0.25
        assert psi.value(1.5) == 1.0
        assert psi.value(3.0) == 4.5
        assert psi.value(-3.0) == 4.5
        assert psi.breakpoints == (-2.0, -1.0, 0.0, 1.0, 2.0)
        assert psi.lipschitz_L == 3.0
        assert (psi.subdiff_lo(1.0), psi.subdiff_hi(1.0)) == (0.5, 1.0)
        assert (psi.subdiff_lo(-1.0), psi.subdiff_hi(-1.0)) == (-1.0, -0.5)
        assert (psi.subdiff_lo(0.0), psi.subdiff_hi(0.0)) == (-0.5, 0.5)

    def test_piecewise_linear_flat_core_has_no_kink_at_zero(self):
        psi = PiecewiseLinear([0.5], [0.0, 2.0])
        assert psi.breakpoints == (-0.5, 0.5)
        assert psi.value(0.25) == 0.0
        assert (psi.subdiff_lo(0.0), psi.subdiff_hi(0.0)) == (0.0, 0.0)

    def test_piecewise_linear_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinear([1.0], [1.0])
        with pytest.raises(ValueError):
            PiecewiseLinear([2.0, 1.0], [0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            PiecewiseLinear([1.0], [2.0, 1.0])

    @pytest.mark.parametrize("breaks, slopes", [
        ([1.0], [math.nan, 1.0]),      # no kinks, and value(0.5) is nan
        ([1.0], [0.5, math.nan]),
        ([math.nan], [0.5, 1.0]),      # breakpoints (nan, 0, nan)
        ([math.inf], [0.5, 1.0]),      # a kink at +-inf
        ([1.0], [0.5, math.inf]),
        ([1.0, math.inf], [0.5, 1.0, 2.0]),
    ])
    def test_piecewise_linear_rejects_non_finite_input(self, breaks, slopes):
        with pytest.raises(ValueError, match="finite"):
            PiecewiseLinear(breaks, slopes)

    def test_eval_helpers(self):
        # a scalar evaluation agrees with the vectorized one, kinks included
        u = np.array([-2.5, -1.0, 0.0, 0.3, 1.5])
        for psi in catalog():
            for f in (psi.value, psi.subdiff_lo, psi.subdiff_hi):
                got = [float(f(x)) for x in u]
                assert got == list(f(u))


def half_line_subgradients(breaks, slopes, u):
    """(lo, hi) of psi at u from the right-half profile, mirrored by evenness.

    The reference for the full-line table: at x = |u| > 0 the left slope is
    that of the last knot below x and the right slope that of the last knot
    at or below x; u < 0 takes the negated opposite side, and u = 0 gives
    -+slopes[0].
    """
    knots = np.concatenate(([0.0], np.asarray(breaks, dtype=float)))
    slopes = np.asarray(slopes, dtype=float)
    u = np.asarray(u, dtype=float)
    x = np.abs(u)
    right = slopes[np.searchsorted(knots, x, side="right") - 1]
    left = slopes[np.maximum(np.searchsorted(knots, x, side="left") - 1, 0)]
    lo = np.where(u > 0, left, -right)
    hi = np.where(u > 0, right, -left)
    return (np.where(u == 0.0, -slopes[0], lo),
            np.where(u == 0.0, slopes[0], hi))


@st.composite
def profiles(draw):
    """(breaks, slopes) with zero steps: slopes[0] = 0 and repeated slopes."""
    breaks = sorted(draw(st.sets(st.floats(0.05, 3.0), max_size=4)))
    steps = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
                          min_size=len(breaks) + 1, max_size=len(breaks) + 1))
    slopes = np.cumsum(steps)
    if slopes[-1] == 0.0:
        slopes[-1] = 1.0
    return breaks, slopes


def probe_points(breaks, draw):
    """Both signs of zero and infinity, every knot and its float neighbours,
    and drawn points."""
    b = np.asarray(breaks, dtype=float)
    knots = np.concatenate((b, np.nextafter(b, 0.0), np.nextafter(b, np.inf)))
    drawn = draw(st.lists(st.floats(-4.0, 4.0), max_size=8))
    u = np.concatenate(([0.0, 5e-324, np.inf], knots, drawn))
    return np.concatenate((u, -u))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestPiecewiseLinearTable:
    """The full-line table against the half-line formula, on random
    profiles; every comparison is bitwise, signed zeros included."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(profile=profiles(), data=st.data())
    def test_matches_the_half_line_reference(self, profile, data):
        breaks, slopes = profile
        psi = PiecewiseLinear(breaks, slopes)
        u = probe_points(breaks, data.draw)
        lo, hi = half_line_subgradients(breaks, slopes, u)
        assert same_bits(psi.subdiff_lo(u), lo)
        assert same_bits(psi.subdiff_hi(u), hi)
        # exact oddness: the lower slope at -u is minus the upper one at u
        assert same_bits(psi.subdiff_lo(-u), -psi.subdiff_hi(u))
        kinks, jumps = psi.kinks, psi.jumps
        assert psi.breakpoints == tuple(kinks)
        assert np.all(jumps > 0.0) and slopes[-1] == psi.lipschitz_L
        # the right-half input, kept as given
        assert same_bits(psi.breaks, np.asarray(breaks, float))
        assert same_bits(psi.slopes, np.asarray(slopes, float))
        # the kinks are where lo and hi differ, among the knots
        at = np.concatenate((-np.asarray(breaks[::-1]), [0.0], breaks))
        lo_at, hi_at = half_line_subgradients(breaks, slopes, at)
        assert same_bits(kinks, at[lo_at != hi_at])
        if psi.breakpoints:
            smooth = mollify(psi, data.draw(st.floats(0.05, 0.5)))
            u = u[np.isfinite(u)]
            assert same_bits(smooth.value(-u), smooth.value(u))
            # odd up to the sign of a zero slope
            np.testing.assert_array_equal(smooth.subdiff_lo(-u),
                                          -smooth.subdiff_lo(u))

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_absolute_value_is_the_one_slope_profile(self, data):
        abs_psi, table = AbsoluteValue(), PiecewiseLinear((), (1.0,))
        u = probe_points([], data.draw)
        for name in ("value", "subdiff_lo", "subdiff_hi"):
            assert same_bits(getattr(abs_psi, name)(u), getattr(table, name)(u))
        assert abs_psi.breakpoints == table.breakpoints == (0.0,)
        for name in ("kinks", "jumps", "breaks", "slopes"):
            assert same_bits(getattr(abs_psi, name), getattr(table, name))

    def test_absolute_value_has_no_code_of_its_own(self):
        own = {n for n, f in vars(AbsoluteValue).items() if callable(f)}
        assert own == {"__init__", "__repr__"}
        u = np.array([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, math.inf,
                      -math.inf, math.nan])
        psi = AbsoluteValue()
        assert same_bits(psi.subdiff_lo(u), np.where(u == 0, -1.0, np.sign(u)))
        assert same_bits(psi.subdiff_hi(u), np.where(u == 0, 1.0, np.sign(u)))

    def test_the_table_does_not_alias_the_input(self):
        breaks, slopes = np.array([0.5, 1.5]), np.array([0.3, 1.0, 2.0])
        psi = PiecewiseLinear(breaks, slopes)
        breaks[:], slopes[:] = 9.0, 9.0
        assert list(psi.breaks) == [0.5, 1.5]
        assert list(psi.slopes) == [0.3, 1.0, 2.0]
        assert list(psi.kinks) == [-1.5, -0.5, 0.0, 0.5, 1.5]


class TestNonFiniteInput:
    """A NaN stretch has no slope, as under AbsoluteValue, and psi is +inf
    at both infinities. ``solve_mm`` compares stretches with the outermost
    kink, so a NaN there must never read as past it."""

    @pytest.mark.parametrize("psi", [
        AbsoluteValue(), PiecewiseLinear([1.0], [0.3, 2.0]),
        PiecewiseLinear([0.5], [0.0, 2.0]), PiecewiseLinear((), (0.0,))])
    def test_nan_has_no_slope(self, psi):
        L = psi.lipschitz_L
        for f in (psi.subdiff_lo, psi.subdiff_hi):
            assert math.isnan(float(f(math.nan)))
            s = f(np.array([math.nan, -math.inf, math.inf, 0.75]))
            assert math.isnan(s[0]) and s[1] == -L and s[2] == L
            assert s[3] == f(0.75)

    @pytest.mark.parametrize("base", [
        AbsoluteValue(), PiecewiseLinear([1.0], [0.3, 2.0])])
    def test_mollified_value_is_infinite_at_infinity(self, base):
        psi = mollify(base, 0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = psi.value(np.array([-math.inf, math.inf, 1.5]))
            assert float(psi.value(math.inf)) == math.inf
        assert got[0] == got[1] == math.inf
        assert got[2] == psi.value(1.5) < math.inf

    def test_zero_potential_is_zero_at_infinity(self):
        psi = PiecewiseLinear((), (0.0,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = psi.value(np.array([-math.inf, math.inf, math.nan, 2.0]))
            assert float(psi.value(math.inf)) == 0.0
        assert list(got[[0, 1, 3]]) == [0.0, 0.0, 0.0] and math.isnan(got[2])

    def test_mollified_value_is_nan_at_nan(self):
        psi = mollify(AbsoluteValue(), 0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = psi.value(np.array([math.nan, 1.5]))
            assert math.isnan(float(psi.value(math.nan)))
        assert math.isnan(got[0]) and got[1] == psi.value(1.5)


@st.composite
def random_convex(draw):
    """A random even convex PiecewiseLinear, or its mollification."""
    psi = draw(even_convex_piecewise_linear())
    if draw(st.booleans()):
        psi = mollify(psi, draw(st.floats(0.01, 1.0)))
    return psi


coords = st.floats(-5.0, 5.0)


class TestConvexityContract:
    def test_even_nonnegative_zero_at_origin(self):
        rng = np.random.default_rng(11)
        u = rng.uniform(-5, 5, size=200)
        for psi in catalog():
            np.testing.assert_allclose(psi.value(u), psi.value(-u), atol=1e-14)
            assert np.all(psi.value(u) >= 0)
            assert psi.value(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(12)
        a = rng.uniform(-5, 5, size=300)
        b = rng.uniform(-5, 5, size=300)
        for psi in catalog():
            mid = psi.value(0.5 * (a + b))
            assert np.all(mid <= 0.5 * (psi.value(a) + psi.value(b)) + 1e-12)

    def test_subdifferential_monotone(self):
        rng = np.random.default_rng(13)
        u = np.sort(rng.uniform(-5, 5, size=300))
        for psi in catalog():
            hi = psi.subdiff_hi(u[:-1])
            lo = psi.subdiff_lo(u[1:])
            assert np.all(hi <= lo + 1e-12)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(psi=random_convex(),
           pairs=st.lists(st.tuples(coords, coords), min_size=1, max_size=30))
    def test_random_midpoint_convexity(self, psi, pairs):
        a, b = np.array(pairs).T
        ends = 0.5 * (psi.value(a) + psi.value(b))
        assert np.all(psi.value(0.5 * (a + b)) <= ends + 1e-12 * (1.0 + ends))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(psi=random_convex(), u=st.lists(coords, min_size=2, max_size=40))
    def test_random_subdifferential_monotone(self, psi, u):
        u = np.unique(u)  # strictly increasing: at a kink hi(u) > lo(u)
        assert np.all(psi.subdiff_lo(u) <= psi.subdiff_hi(u))
        assert np.all(psi.subdiff_hi(u[:-1]) <= psi.subdiff_lo(u[1:]) + 1e-12)

    def test_subdiff_lo_never_exceeds_hi(self):
        u = np.linspace(-4, 4, 401)
        for psi in catalog():
            assert np.all(psi.subdiff_lo(u) <= psi.subdiff_hi(u) + 1e-15)

    def test_derivative_raises_only_on_breakpoints(self):
        psi = PiecewiseLinear([1.0], [0.5, 2.0])
        assert psi.derivative(0.5) == 0.5
        with pytest.raises(BreakpointCollisionError):
            psi.derivative(1.0)
        with pytest.raises(BreakpointCollisionError):
            psi.derivative(np.array([0.5, -1.0]))
        assert Quadratic().derivative(0.0) == 0.0


class TestMollify:
    def test_value_matches_quadrature(self):
        for delta in (0.3, 0.05):
            psi = mollify(AbsoluteValue(), delta)
            for u in (-0.4, -0.07, 0.0, 0.01, 0.12, 0.8):
                ref = convolved_value(AbsoluteValue(), u, delta)
                assert psi.value(u) == pytest.approx(ref, abs=2e-7)

    def test_slope_matches_quadrature(self):
        for delta in (0.3, 0.05):
            psi = mollify(AbsoluteValue(), delta)
            for u in (-0.4, -0.07, 0.01, 0.12, 0.8):
                ref = convolved_slope(AbsoluteValue(), u, delta)
                assert psi.subdiff_lo(u) == pytest.approx(ref, abs=2e-7)

    def test_piecewise_linear_molly_matches_quadrature(self):
        base = PiecewiseLinear([1.0], [0.5, 2.0])
        psi = mollify(base, 0.25)
        for u in (-1.1, -0.2, 0.3, 0.95, 1.04, 2.0):
            assert psi.value(u) == pytest.approx(
                convolved_value(base, u, 0.25), abs=2e-7)
            assert psi.subdiff_lo(u) == pytest.approx(
                convolved_slope(base, u, 0.25), abs=2e-7)

    def test_coincides_with_shifted_base_outside_kink_zone(self):
        delta = 0.1
        psi = mollify(AbsoluteValue(), delta)
        c1 = quad(lambda y: abs(y) * omega1(y), -1, 1)[0]
        for u in (0.15, 0.6, -2.0):
            assert psi.value(u) == pytest.approx(abs(u) - delta * c1, abs=1e-7)
            assert psi.subdiff_lo(u) == pytest.approx(math.copysign(1.0, u),
                                                      abs=1e-12)

    def test_smooth_contract(self):
        psi = mollify(AbsoluteValue(), 0.2)
        assert psi.breakpoints == ()
        assert psi.value(0.0) == 0.0
        assert psi.subdiff_lo(0.0) == 0.0
        assert psi.lipschitz_L == 1.0
        assert math.isfinite(psi.lipschitz_Lprime)
        u = np.linspace(-3, 3, 2001)
        slopes = psi.subdiff_lo(u)
        assert np.all(np.abs(slopes) <= 1.0 + 1e-12)
        assert np.all(np.diff(slopes) >= -1e-12)
        # observed curvature stays below the advertised Lipschitz bound
        curv = np.max(np.abs(np.diff(slopes))) / (u[1] - u[0])
        assert curv <= psi.lipschitz_Lprime + 1e-9

    def test_evenness_exact(self):
        psi = mollify(AbsoluteValue(), 0.07)
        u = np.linspace(0, 2, 500)
        np.testing.assert_array_equal(psi.value(u), psi.value(-u))

    def test_lprime_scales_inversely_with_delta(self):
        a = mollify(AbsoluteValue(), 0.2).lipschitz_Lprime
        b = mollify(AbsoluteValue(), 0.1).lipschitz_Lprime
        assert b == pytest.approx(2 * a, rel=1e-12)

    def test_pass_through_and_validation(self):
        smooth = Quadratic()
        assert mollify(smooth, 0.1) is smooth
        with pytest.raises(ValueError):
            mollify(AbsoluteValue(), 0.0)
        with pytest.raises(ValueError):
            mollify(AbsoluteValue(), -1.0)

    def test_mollify_rejects_unbounded_slope(self):
        class KinkedUnbounded(Potential):
            breakpoints = (0.0,)
            lipschitz_L = math.inf

        with pytest.raises(ValueError):
            mollify(KinkedUnbounded(), 0.1)

    def test_repr_mentions_base(self):
        assert "AbsoluteValue" in repr(mollify(AbsoluteValue(), 0.2))
        assert isinstance(mollify(AbsoluteValue(), 0.2), Mollified)
