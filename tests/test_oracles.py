"""Closed-form profiles cross-checked by independent scipy quadrature.

The oracles arbitrate solver output elsewhere, so each closed form is
verified here against a brute-force evaluation of its defining integral.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cellroll.history import ConstantPast, LinearPast, TabulatedPast
from cellroll.kernels import Exponential, Tabulated, TruncatedExponential
from cellroll.oracles import (AbsProfile, _mu_integral, gamma_abs,
                              quadratic_final_position)

LN_10_9 = math.log(10.0 / 9.0)


class TestGammaAbs:
    def test_band_and_sliding(self):
        assert gamma_abs(0.5, 1.0) == 0.0
        assert gamma_abs(-1.0, 1.0) == 0.0
        assert gamma_abs(1.5, 1.0) == pytest.approx(0.5)
        assert gamma_abs(-2.5, 1.0) == pytest.approx(-1.5)
        assert gamma_abs(3.0, 0.0) == 3.0

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            gamma_abs(1.0, -0.5)


class TestQuadraticFinalPosition:
    def test_reference_instance(self):
        past = LinearPast(1.0, 1.0)
        assert quadratic_final_position(1.0, 1.0, past) == pytest.approx(0.5)

    def test_matches_quadrature_for_each_past(self):
        beta, zeta = 1.7, 0.8
        pasts = [ConstantPast(2.0), LinearPast(-0.5, 1.0),
                 TabulatedPast([-2.0, -0.5, 0.0], [1.0, -1.0, 0.5])]
        for past in pasts:
            ref_int = quad(lambda s: math.exp(zeta * s) * float(past.eval(s)),
                           -200.0, 0.0, points=[-2.0, -0.5], limit=400)[0]
            ref = (zeta**2 * float(past.eval(0.0)) + beta * zeta * ref_int) \
                / (zeta**2 + beta)
            got = quadratic_final_position(beta, zeta, past)
            assert got == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_constant_past_is_fixed_point(self):
        assert quadratic_final_position(2.0, 1.5, ConstantPast(3.0)) \
            == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            quadratic_final_position(-1.0, 1.0, ConstantPast(0.0))
        with pytest.raises(ValueError):
            quadratic_final_position(1.0, 0.0, ConstantPast(0.0))


class TestPlasticProfile:
    """AbsProfile inside the band |v| <= mu_inf: the cell creeps and stops."""

    def kernel(self):
        return TruncatedExponential(1.0, 1.0)

    def test_stop_time_solves_mu_equals_drive(self):
        prof = AbsProfile(0.1, self.kernel(), -0.001)
        assert prof.t1 == pytest.approx(LN_10_9, abs=1e-11)
        assert self.kernel().cummass(prof.t1, math.inf) == pytest.approx(
            0.1, abs=1e-11)

    def test_final_position_closed_form(self):
        prof = AbsProfile(0.1, self.kernel(), -0.001)
        # z(t1) = z0 + 0.1 t1 - t1 + 1 - e^{-t1} with mu(t1) = 0.1
        expect = -0.001 + 0.1 - 0.9 * LN_10_9
        assert prof.z(prof.t1) == pytest.approx(expect, abs=1e-12)
        assert prof.z(prof.t1 + 5.0) == pytest.approx(expect, abs=1e-12)

    def test_creep_matches_quadrature(self):
        prof = AbsProfile(0.4, self.kernel(), 0.2)
        k = self.kernel()
        for t in (0.05, 0.2, min(0.45, prof.t1)):
            ref = 0.2 + quad(lambda s: 0.4 - float(k.cummass(s, math.inf)),
                             0, t)[0]
            assert prof.z(t) == pytest.approx(ref, rel=1e-10)

    def test_negative_drive_mirrors_positive(self):
        pos = AbsProfile(0.1, self.kernel(), 0.0)
        neg = AbsProfile(-0.1, self.kernel(), 0.0)
        t = np.linspace(0.0, 0.5, 11)
        np.testing.assert_allclose(neg.z(t), -pos.z(t), atol=1e-14)
        np.testing.assert_allclose(neg.zdot(t), -pos.zdot(t), atol=1e-14)

    def test_zero_drive_never_moves(self):
        prof = AbsProfile(0.0, self.kernel(), 0.7)
        assert prof.t1 == 0.0
        np.testing.assert_allclose(prof.z(np.array([0.0, 1.0, 9.0])), 0.7)

    def test_exact_balance_stops_at_creep_horizon(self):
        prof = AbsProfile(1.0, self.kernel(), 0.0)
        # mu saturates at 1.0 only once e^{-t} is below resolution
        assert prof.t1 > 36.0
        # creep integral has converged there: int (1 - mu) = int e^{-s} = 1
        assert prof.z(prof.t1) == pytest.approx(1.0, abs=1e-12)
        assert prof.zdot(prof.t1) == pytest.approx(0.0, abs=1e-15)

    def test_velocity_clamps_at_zero(self):
        prof = AbsProfile(0.1, self.kernel(), 0.0)
        assert prof.zdot(0.0) == pytest.approx(0.1)
        assert prof.zdot(prof.t1) == pytest.approx(0.0, abs=1e-11)
        assert prof.zdot(5.0) == 0.0

    def test_tabulated_kernel_fallback(self):
        a = np.linspace(0.0, 10.0, 4001)
        k = Tabulated(a, np.exp(-a))
        prof = AbsProfile(0.1, k, 0.0)
        ref = AbsProfile(0.1, self.kernel(), 0.0)
        assert prof.t1 == pytest.approx(ref.t1, abs=1e-6)
        assert prof.z(0.08) == pytest.approx(ref.z(0.08), abs=1e-7)


class TestKinematic:
    """AbsProfile outside the band |v| > mu_inf: the cell rolls, t1 = inf."""

    def test_velocity_and_position_closed_forms(self):
        k = TruncatedExponential(1.0, 1.0)
        t = np.linspace(0.0, 10.0, 21)
        prof = AbsProfile(1.5, k, 0.0)
        assert prof.t1 == math.inf
        np.testing.assert_allclose(prof.zdot(t), 0.5 + np.exp(-t), rtol=1e-12)
        np.testing.assert_allclose(prof.z(t), 0.5 * t + 1.0 - np.exp(-t),
                                   rtol=1e-12)

    def test_position_matches_quadrature(self):
        prof = AbsProfile(-2.0, Exponential(0.8, 1.3), 0.25)
        ref = 0.25 + quad(prof.zdot, 0, 3.0)[0]
        assert prof.z(3.0) == pytest.approx(ref, rel=1e-10)

    def test_tabulated_kernel_fallback(self):
        a = np.linspace(0.0, 10.0, 4001)
        k = Tabulated(a, np.exp(-a))
        t = np.array([0.5, 2.0])
        got = AbsProfile(1.5, k, 0.0).z(t)
        ref = AbsProfile(1.5, TruncatedExponential(1.0, 1.0), 0.0).z(t)
        np.testing.assert_allclose(got, ref, atol=1e-6)

    def test_bond_mass_stops_at_a_max(self):
        k = Exponential(1.0, 1.0, a_max=5.0)
        prof = AbsProfile(1.5, k, 0.0)
        assert prof.zdot(10.0) == 1.5 - k.mu_total()
        t = np.linspace(1.0, 10.0, 9001)
        slope = np.diff(prof.z(t)) / np.diff(t)
        mid = 0.5 * (t[1:] + t[:-1])
        np.testing.assert_allclose(slope, prof.zdot(mid), atol=1e-6)


@st.composite
def abs_cases(draw):
    """(v, kernel, z0) with v in [-3, 3], the band's edges +-mu_inf included."""
    kernel = TruncatedExponential(draw(st.floats(0.0, 3.0)),
                                  draw(st.floats(0.2, 3.0)))
    mu = kernel.mu_total()
    v = draw(st.floats(-3.0, 3.0) | st.sampled_from([mu, -mu]))
    return v, kernel, draw(st.floats(-1.0, 1.0))


class TestAbsProfileLaw:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(case=abs_cases(), a=st.floats(0.0, 20.0), b=st.floats(0.0, 20.0))
    def test_one_law_for_every_drive(self, case, a, b):
        v, kernel, z0 = case
        prof = AbsProfile(v, kernel, z0)
        a, b = min(a, b), max(a, b)
        t = np.linspace(0.0, 20.0, 201)
        # zdot is the velocity law at the bond mass reached
        assert np.array_equal(prof.zdot(t),
                              gamma_abs(v, kernel.cummass(t, math.inf)))
        # only a drive inside the band stops, and it rests from t1 on
        assert math.isfinite(prof.t1) == (gamma_abs(v, kernel.mu_total()) == 0)
        if math.isfinite(prof.t1):
            assert np.all(prof.z(prof.t1 + t) == prof.z(prof.t1))
        # z integrates zdot
        points = [prof.t1] if a < prof.t1 < b else None
        ref = quad(prof.zdot, a, b, points=points, epsabs=1e-13,
                   epsrel=1e-13, limit=200)[0]
        assert prof.z(b) - prof.z(a) == pytest.approx(ref, abs=1e-10)
        # -v mirrors v
        mirror = AbsProfile(-v, kernel, -z0)
        assert mirror.t1 == prof.t1
        assert np.array_equal(mirror.z(t), -prof.z(t))
        assert np.array_equal(mirror.zdot(t), -prof.zdot(t))


class TestMuIntegral:
    def kernel(self):
        a = np.linspace(0.0, 10.0, 4001)
        return Tabulated(a, np.exp(-a))

    def test_value_does_not_depend_on_the_other_times(self):
        k = self.kernel()
        alone = _mu_integral(k, np.array([0.5]))
        together = _mu_integral(k, np.array([0.5, 1e6]))
        assert together[0] == alone[0]

    @pytest.mark.parametrize("t", [0.5, 7.0, 200.0, 1e6])
    def test_matches_quadrature(self, t):
        k = self.kernel()
        ref = quad(lambda s: float(k.cummass(s, math.inf)), 0.0, min(t, 10.0),
                   limit=200)[0] + k.mu_total() * max(t - 10.0, 0.0)
        assert float(_mu_integral(k, t)) == pytest.approx(ref, abs=1e-9)

    def test_the_table_is_built_once_per_kernel(self):
        # the 100 001-node table was rebuilt, one cummass each, per call
        class Counting(Tabulated):
            calls = 0

            def cummass(self, x, t):
                self.calls += 1
                return super().cummass(x, t)

        a = np.linspace(0.0, 10.0, 4001)
        k = Counting(a, np.exp(-a))
        profile = AbsProfile(5.0, k, 0.0)  # outside the band: t1 = inf
        t = np.linspace(0.0, 20.0, 2048)
        first = profile.z(t)
        for _ in range(3):
            np.testing.assert_array_equal(profile.z(t), first)
        profile.z(1.5)
        assert k.calls == 1
        # the memo's values are a fresh table's, bit for bit
        np.testing.assert_array_equal(
            AbsProfile(5.0, Tabulated(a, np.exp(-a)), 0.0).z(t), first)
