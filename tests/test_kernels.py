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
        assert k.eval(0.0, math.inf) == 2.0
        assert k.eval(k.a_max + 1.0, 0.0) == 0.0

    def test_default_horizon_tail_is_negligible(self):
        k = Exponential(1.0, 2.0)
        assert k.a_max == 20.0
        tail = quad(lambda a: (1 + a * a) * math.exp(-2 * a), k.a_max, np.inf)[0]
        assert tail < 1e-10

    def test_mu_matches_quadrature(self):
        k = Exponential(1.3, 0.7)
        for t in (0.0, 0.4, 2.5):
            ref = quad(lambda a: 1.3 * math.exp(-0.7 * a), 0, t)[0]
            assert k.cummass(t, math.inf) == pytest.approx(ref, rel=1e-12,
                                                          abs=1e-15)
        assert k.mu_total() == pytest.approx(1.3 / 0.7, rel=1e-12)

    def test_cummass_is_static(self):
        k = Exponential(1.0, 1.0)
        assert k.cummass(0.5, 0.1) == pytest.approx(k.cummass(0.5, math.inf))
        assert k.cummass(1e9, 0.1) == pytest.approx(k.cummass(k.a_max, math.inf))

    def test_validation(self):
        with pytest.raises(ValueError):
            Exponential(-1.0, 1.0)
        with pytest.raises(ValueError):
            Exponential(1.0, 0.0)

    @pytest.mark.parametrize("cls", [Exponential, TruncatedExponential])
    def test_rejects_an_infinite_horizon(self, cls):
        # 40/zeta overflows for a subnormal zeta
        for zeta in (5e-324, 1e-310):
            with pytest.raises(ValueError, match="not finite"):
                cls(1.0, zeta)
        with pytest.raises(ValueError, match="not finite"):
            cls(1.0, 1.0, a_max=math.inf)
        assert math.isfinite(cls(1.0, 1e-300).a_max)

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

    def test_cummass_respects_both_caps(self):
        k = TruncatedExponential(1.0, 1.0)
        assert k.cummass(5.0, 0.7) == pytest.approx(k.cummass(0.7, math.inf))
        assert k.cummass(0.3, 0.7) == pytest.approx(k.cummass(0.3, math.inf))
        assert k.cummass(100.0, math.inf) == pytest.approx(
            k.cummass(k.a_max, math.inf))

    def test_support_follows_process_age(self):
        k = TruncatedExponential(1.0, 1.0)
        assert k.support(2.5) == 2.5
        assert k.support(math.inf) == k.a_max
        assert Exponential(1.0, 1.0).support(2.5) == 40.0


class TestTabulated:
    def grid_kernel(self):
        a = np.linspace(0.0, 4.0, 81)
        return Tabulated(a, np.exp(-a))

    def test_matches_exponential_on_grid(self):
        k = self.grid_kernel()
        ref = Exponential(1.0, 1.0)
        nodes = np.linspace(0.0, 4.0, 81)
        np.testing.assert_allclose(k.eval(nodes, math.inf),
                                   ref.eval(nodes, math.inf), rtol=1e-12)
        between = np.linspace(0.0, 4.0, 37)
        np.testing.assert_allclose(k.eval(between, math.inf),
                                   ref.eval(between, math.inf), rtol=5e-4)
        assert k.eval(5.0, 0.0) == 0.0

    def test_mu_is_exact_for_segments(self):
        k = Tabulated([0.0, 1.0, 3.0], [2.0, 1.0, 0.0])
        assert k.cummass(1.0, math.inf) == pytest.approx(1.5)
        assert k.cummass(3.0, math.inf) == pytest.approx(2.5)
        assert k.cummass(10.0, 0.0) == pytest.approx(2.5)
        # inside a segment the density is linear, so its mass is a trapezoid
        assert k.cummass(0.5, math.inf) == pytest.approx(0.875)
        assert k.cummass(2.0, math.inf) == pytest.approx(2.25)
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
        assert k.mu_total() == k.cummass(k.a_max, math.inf)
        assert k.mu_total() == pytest.approx(quad(rho, 0, k.a_max)[0], rel=1e-12)
        assert k.cummass(10.0, math.inf) == k.cummass(k.a_max, math.inf)

    def test_modulated_kernel(self):
        m = lambda t: 1.0 + 0.5 * math.sin(t)
        k = Tabulated([0.0, 1.0], [1.0, 1.0], modulation=m)
        assert k.time_dependent is True
        assert k.eval(0.5, 2.0) == pytest.approx(m(2.0))
        assert k.cummass(math.inf, 2.0) == pytest.approx(m(2.0))
        assert k.cummass(0.5, 2.0) == pytest.approx(0.5 * m(2.0))
        # m(t) has no limit as t -> inf, so neither has rho nor the bond mass
        for at_inf in (k.mu_total, lambda: k.eval(0.5, math.inf),
                       lambda: k.cummass(1.0, math.inf)):
            with pytest.raises(ValueError, match="no value at t = inf"):
                at_inf()

    def test_validation(self):
        with pytest.raises(ValueError):
            Tabulated([0.0], [1.0])
        with pytest.raises(ValueError):
            Tabulated([1.0, 0.5], [1.0, 1.0])
        with pytest.raises(ValueError):
            Tabulated([0.0, 1.0], [1.0, -1.0])

