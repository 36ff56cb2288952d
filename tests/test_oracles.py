"""Closed-form profiles cross-checked by independent scipy quadrature.

The oracles arbitrate solver output elsewhere, so each closed form is
verified here against a brute-force evaluation of its defining integral.
"""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from cellroll.history import ConstantPast, LinearPast, TabulatedPast
from cellroll.kernels import Exponential, Tabulated, TruncatedExponential
from cellroll.oracles import (PlasticProfile, gamma_abs, kinematic_trajectory,
                              kinematic_velocity, plastic_trajectory,
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
    def kernel(self):
        return TruncatedExponential(1.0, 1.0)

    def test_stop_time_solves_mu_equals_drive(self):
        prof = plastic_trajectory(0.1, self.kernel(), -0.001)
        assert prof.t1 == pytest.approx(LN_10_9, abs=1e-11)
        assert self.kernel().mu(prof.t1) == pytest.approx(0.1, abs=1e-11)

    def test_final_position_closed_form(self):
        prof = plastic_trajectory(0.1, self.kernel(), -0.001)
        # z_final = z0 + 0.1 t1 - t1 + 1 - e^{-t1} with mu(t1) = 0.1
        expect = -0.001 + 0.1 - 0.9 * LN_10_9
        assert prof.z_final == pytest.approx(expect, abs=1e-12)
        assert prof.z(prof.t1 + 5.0) == pytest.approx(expect, abs=1e-12)

    def test_creep_matches_quadrature(self):
        prof = plastic_trajectory(0.4, self.kernel(), 0.2)
        k = self.kernel()
        for t in (0.05, 0.2, min(0.45, prof.t1)):
            ref = 0.2 + quad(lambda s: 0.4 - float(k.mu(s)), 0, t)[0]
            assert prof.z(t) == pytest.approx(ref, rel=1e-10)

    def test_negative_drive_mirrors_positive(self):
        pos = plastic_trajectory(0.1, self.kernel(), 0.0)
        neg = plastic_trajectory(-0.1, self.kernel(), 0.0)
        t = np.linspace(0.0, 0.5, 11)
        np.testing.assert_allclose(neg.z(t), -pos.z(t), atol=1e-14)
        np.testing.assert_allclose(neg.zdot(t), -pos.zdot(t), atol=1e-14)

    def test_zero_drive_never_moves(self):
        prof = plastic_trajectory(0.0, self.kernel(), 0.7)
        assert prof.t1 == 0.0
        np.testing.assert_allclose(prof.z(np.array([0.0, 1.0, 9.0])), 0.7)

    def test_exact_balance_stops_at_creep_horizon(self):
        prof = plastic_trajectory(1.0, self.kernel(), 0.0)
        # mu saturates at 1.0 only once e^{-t} is below resolution
        assert prof.t1 > 36.0
        # creep integral has converged there: int (1 - mu) = int e^{-s} = 1
        assert prof.z_final == pytest.approx(1.0, abs=1e-12)
        assert prof.zdot(prof.t1) == pytest.approx(0.0, abs=1e-15)

    def test_rejects_supercritical_drive(self):
        with pytest.raises(ValueError):
            plastic_trajectory(1.5, self.kernel(), 0.0)

    def test_velocity_clamps_at_zero(self):
        prof = plastic_trajectory(0.1, self.kernel(), 0.0)
        assert prof.zdot(0.0) == pytest.approx(0.1)
        assert prof.zdot(prof.t1) == pytest.approx(0.0, abs=1e-11)
        assert prof.zdot(5.0) == 0.0

    def test_tabulated_kernel_fallback(self):
        a = np.linspace(0.0, 10.0, 4001)
        k = Tabulated(a, np.exp(-a))
        prof = PlasticProfile(0.1, k, 0.0)
        ref = plastic_trajectory(0.1, self.kernel(), 0.0)
        assert prof.t1 == pytest.approx(ref.t1, abs=1e-6)
        assert prof.z(0.08) == pytest.approx(ref.z(0.08), abs=1e-7)


class TestKinematic:
    def test_velocity_and_position_closed_forms(self):
        k = TruncatedExponential(1.0, 1.0)
        t = np.linspace(0.0, 10.0, 21)
        np.testing.assert_allclose(kinematic_velocity(1.5, k, t),
                                   0.5 + np.exp(-t), rtol=1e-12)
        z = kinematic_trajectory(1.5, k, 0.0, t)
        np.testing.assert_allclose(z, 0.5 * t + 1.0 - np.exp(-t), rtol=1e-12)

    def test_position_matches_quadrature(self):
        k = Exponential(0.8, 1.3)
        ref = 0.25 + quad(lambda s: kinematic_velocity(-2.0, k, s), 0, 3.0)[0]
        assert kinematic_trajectory(-2.0, k, 0.25, 3.0) \
            == pytest.approx(ref, rel=1e-10)

    def test_tabulated_kernel_fallback(self):
        a = np.linspace(0.0, 10.0, 4001)
        k = Tabulated(a, np.exp(-a))
        got = kinematic_trajectory(1.5, k, 0.0,
                                   np.array([0.5, 2.0]))
        ref = kinematic_trajectory(1.5, TruncatedExponential(1.0, 1.0), 0.0,
                                   np.array([0.5, 2.0]))
        np.testing.assert_allclose(got, ref, atol=1e-6)

    def test_rejects_subcritical_drive(self):
        with pytest.raises(ValueError):
            kinematic_trajectory(0.5, Exponential(1.0, 1.0), 0.0, 1.0)

    def test_bond_mass_stops_at_a_max(self):
        k = Exponential(1.0, 1.0, a_max=5.0)
        assert kinematic_velocity(1.5, k, 10.0) == 1.5 - k.mu_total()
        t = np.linspace(1.0, 10.0, 9001)
        slope = np.diff(kinematic_trajectory(1.5, k, 0.0, t)) / np.diff(t)
        mid = 0.5 * (t[1:] + t[:-1])
        np.testing.assert_allclose(slope, kinematic_velocity(1.5, k, mid), atol=1e-6)
