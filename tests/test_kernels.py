"""Age-density kernels against direct quadrature of their defining integrals."""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from cellroll.kernels import Exponential, Tabulated, TruncatedExponential


class TestExponential:
    def test_eval_and_profile(self):
        k = Exponential(2.0, 0.5)
        assert k.eval(1.0, 0.0) == pytest.approx(2.0 * math.exp(-0.5))
        assert k.eval(1.0, 7.0) == k.eval(1.0, 0.0)
        assert k.profile(0.0) == 2.0
        assert k.eval(k.a_max + 1.0, 0.0) == 0.0

    def test_default_horizon_tail_is_negligible(self):
        k = Exponential(1.0, 2.0)
        assert k.a_max == 20.0
        tail = quad(lambda a: (1 + a * a) * math.exp(-2 * a), k.a_max, np.inf)[0]
        assert tail < 1e-10

    def test_moments_match_quadrature(self):
        k = Exponential(1.3, 0.7)
        for p in (0, 1, 2):
            ref = quad(lambda a: a**p * 1.3 * math.exp(-0.7 * a), 0, np.inf)[0]
            assert k.moment(math.inf, p) == pytest.approx(ref, rel=1e-12)
            assert k.moment(3.0, p) == k.moment(math.inf, p)

    def test_mu_matches_quadrature(self):
        k = Exponential(1.3, 0.7)
        for t in (0.0, 0.4, 2.5):
            ref = quad(lambda a: 1.3 * math.exp(-0.7 * a), 0, t)[0]
            assert k.mu(t) == pytest.approx(ref, rel=1e-12, abs=1e-15)
        assert k.mu_total() == pytest.approx(1.3 / 0.7, rel=1e-12)

    def test_cummass_is_static(self):
        k = Exponential(1.0, 1.0)
        assert k.cummass(0.5, 0.1) == pytest.approx(k.mu(0.5))
        assert k.cummass(1e9, 0.1) == pytest.approx(k.mu(k.a_max))

    def test_validation(self):
        with pytest.raises(ValueError):
            Exponential(-1.0, 1.0)
        with pytest.raises(ValueError):
            Exponential(1.0, 0.0)
        with pytest.raises(ValueError):
            Exponential(1.0, 1.0).moment(1.0, 3)

    def test_flags(self):
        k = Exponential(1.0, 1.0)
        assert k.time_dependent is False


class TestTruncatedExponential:
    def test_eval_cuts_old_bonds(self):
        k = TruncatedExponential(1.0, 1.0)
        assert k.eval(0.5, 1.0) == pytest.approx(math.exp(-0.5))
        # the age-t bond formed at time 0 still counts; older ones are gone
        assert k.eval(1.0, 1.0) == pytest.approx(math.exp(-1.0))
        assert k.eval(1.0 + 1e-12, 1.0) == 0.0
        assert k.eval(2.0, 1.0) == 0.0
        assert k.time_dependent is True

    def test_moments_match_quadrature(self):
        k = TruncatedExponential(1.2, 0.9)
        for t in (0.0, 0.3, 2.0, 15.0):
            for p in (0, 1, 2):
                ref = quad(lambda a: a**p * 1.2 * math.exp(-0.9 * a), 0, t)[0]
                assert k.moment(t, p) == pytest.approx(ref, rel=1e-11,
                                                       abs=1e-15)

    def test_moments_finite_at_infinite_time(self):
        k = TruncatedExponential(1.0, 1.0)
        assert k.moment(math.inf, 0) == pytest.approx(1.0)
        assert k.moment(math.inf, 1) == pytest.approx(1.0)
        assert k.moment(math.inf, 2) == pytest.approx(2.0)

    def test_cummass_respects_both_caps(self):
        k = TruncatedExponential(1.0, 1.0)
        assert k.cummass(5.0, 0.7) == pytest.approx(k.mu(0.7))
        assert k.cummass(0.3, 0.7) == pytest.approx(k.mu(0.3))
        assert k.cummass(100.0, math.inf) == pytest.approx(k.mu(k.a_max))

    def test_support_follows_process_age(self):
        k = TruncatedExponential(1.0, 1.0)
        assert k.support(2.5) == 2.5
        assert k.support(math.inf) == k.a_max
        assert Exponential(1.0, 1.0).support(2.5) == 40.0

    def test_moment_grows_toward_untruncated(self):
        k = TruncatedExponential(1.0, 1.0)
        t = np.array([0.1, 0.5, 1.0, 5.0, 40.0])
        m = np.array([k.moment(ti, 1) for ti in t])
        assert np.all(np.diff(m) > 0)
        assert m[-1] == pytest.approx(Exponential(1.0, 1.0).moment(np.inf, 1))


class TestTabulated:
    def grid_kernel(self):
        a = np.linspace(0.0, 4.0, 81)
        return Tabulated(a, np.exp(-a))

    def test_matches_exponential_on_grid(self):
        k = self.grid_kernel()
        ref = Exponential(1.0, 1.0)
        nodes = np.linspace(0.0, 4.0, 81)
        np.testing.assert_allclose(k.profile(nodes), ref.profile(nodes),
                                   rtol=1e-12)
        between = np.linspace(0.0, 4.0, 37)
        np.testing.assert_allclose(k.profile(between), ref.profile(between),
                                   rtol=5e-4)
        assert k.eval(5.0, 0.0) == 0.0

    def test_moments_match_quadrature_of_profile(self):
        # the moments of the piecewise-linear density that eval returns
        cut = Tabulated([0.0, 1.0, 3.0], [2.0, 1.0, 0.0], a_max=2.0)
        assert cut.moment(0.0, 1) == pytest.approx(1.75, rel=1e-14)
        k = self.grid_kernel()
        for kernel, nodes in ((k, k.a_grid[1:-1]), (cut, [1.0])):
            rho = lambda a: float(kernel.eval(a, 0.0))
            for p in (0, 1, 2):
                ref = quad(lambda a: a**p * rho(a), 0.0, kernel.a_max,
                           points=nodes, limit=200)[0]
                assert kernel.moment(0.0, p) == pytest.approx(ref, rel=1e-12)
        with pytest.raises(ValueError):
            k.moment(0.0, 3)

    def test_mu_is_exact_for_segments(self):
        k = Tabulated([0.0, 1.0, 3.0], [2.0, 1.0, 0.0])
        assert k.mu(1.0) == pytest.approx(1.5)
        assert k.mu(3.0) == pytest.approx(2.5)
        assert k.cummass(10.0, 0.0) == pytest.approx(2.5)
        # inside a segment the density is linear, so its mass is a trapezoid
        assert k.mu(0.5) == pytest.approx(0.875)
        assert k.mu(2.0) == pytest.approx(2.25)
        assert Tabulated([0.0, 1.0, 3.0], [2.0, 1.0, 0.0], a_max=2.0).mu_total() \
            == pytest.approx(2.25)

    @pytest.mark.parametrize("make", [
        lambda: Tabulated([0.0, 1.0, 2.0, 4.0], [1.0, 1.0, 1.0, 1.0], a_max=1.0),
        lambda: Tabulated([0.0, 1.0, 2.0, 4.0], [1.0, 1.0, 1.0, 1.0], a_max=2.5),
        lambda: Exponential(1.0, 1.0, a_max=5.0),
        lambda: TruncatedExponential(1.0, 1.0, a_max=5.0),
    ], ids=["tabulated-node", "tabulated-mid", "exponential",
            "truncated_exponential"])
    def test_quantities_honor_a_max(self, make):
        k = make()
        rho = lambda a: float(k.eval(a, math.inf))
        assert k.mu_total() == k.cummass(k.a_max, math.inf) == k.moment(math.inf, 0)
        assert k.mu_total() == pytest.approx(quad(rho, 0, k.a_max)[0], rel=1e-12)
        assert k.mu(10.0) == k.mu(k.a_max)
        assert k.moment(math.inf, 1) == pytest.approx(
            quad(lambda a: a * rho(a), 0, k.a_max)[0], rel=1e-12)

    def test_modulated_kernel(self):
        m = lambda t: 1.0 + 0.5 * math.sin(t)
        k = Tabulated([0.0, 1.0], [1.0, 1.0], modulation=m)
        assert k.time_dependent is True
        assert k.eval(0.5, 2.0) == pytest.approx(m(2.0))
        assert k.moment(2.0, 0) == pytest.approx(m(2.0))
        assert k.cummass(0.5, 2.0) == pytest.approx(0.5 * m(2.0))
        with pytest.raises(ValueError):
            k.profile(0.5)
        with pytest.raises(ValueError):
            k.mu(1.0)
        # m(t) has no limit as t -> inf, so neither has the bond mass
        for at_inf in (k.mu_total, lambda: k.moment(math.inf, 1)):
            with pytest.raises(ValueError, match="no value at t = inf"):
                at_inf()

    def test_validation(self):
        with pytest.raises(ValueError):
            Tabulated([0.0], [1.0])
        with pytest.raises(ValueError):
            Tabulated([1.0, 0.5], [1.0, 1.0])
        with pytest.raises(ValueError):
            Tabulated([0.0, 1.0], [1.0, -1.0])


class TestOps:
    def test_moment_and_mu_return_floats(self):
        k = TruncatedExponential(1.0, 1.0)
        assert isinstance(k.moment(2.0, 1), float)
        assert isinstance(k.mu(2.0), float)
        assert k.moment(2.0, 0) == pytest.approx(k.mu(2.0))
