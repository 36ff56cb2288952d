"""Explicit stepping of the delayed equation: accuracy, stability, guards."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cellroll import solver_smooth
from cellroll.errors import NumericalError
from cellroll.history import ConstantPast, LinearPast, TabulatedPast
from cellroll.kernels import Exponential, Tabulated, TruncatedExponential
from cellroll.memory import Memory
from cellroll.oracles import quadratic_final_position
from cellroll.potentials import (AbsoluteValue, PiecewiseLinear, Potential,
                                 Quadratic, Tether, mollify)
from cellroll.solver_smooth import SolverConfig, solve_smooth


class LinearSlope(Potential):
    """psi(u) = c u^2 / 2 without the identity-slope claim: the per-age path."""

    def __init__(self, c=1.0):
        self.c = float(c)
        self.lipschitz_Lprime = self.c

    def value(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * self.c * u * u

    def subdiff_lo(self, u):
        return self.c * np.asarray(u, dtype=float)

    subdiff_hi = subdiff_lo


class DoubledQuadratic(Quadratic):
    """A Quadratic subclass that redefines the slope as 2u."""

    lipschitz_Lprime = 2.0

    def subdiff_lo(self, u):
        return 2.0 * np.asarray(u, dtype=float)

    subdiff_hi = subdiff_lo


def modulated_kernel(cls=Tabulated):
    a = np.linspace(0.0, 6.0, 301)
    return cls(a, np.exp(-a), modulation=lambda t: 1.0 + 0.2 * t)


def random_bounded_instance(rng):
    """One smooth dissipative model with bounded past and drive."""
    shapes = [Quadratic(), Tether(float(rng.uniform(0.3, 1.5))),
              mollify(AbsoluteValue(), float(rng.uniform(0.05, 0.4))),
              mollify(PiecewiseLinear([1.0], [0.2, 1.5]),
                      float(rng.uniform(0.05, 0.4)))]
    psi = shapes[int(rng.integers(len(shapes)))]
    kernel = Exponential(float(rng.uniform(0.3, 2.0)),
                         float(rng.uniform(0.5, 2.0)))
    if rng.random() < 0.5:
        past = ConstantPast(float(rng.uniform(-2.0, 2.0)))
    else:
        tau = np.array([-2.0, -1.3, -0.4, 0.0])
        past = TabulatedPast(tau, rng.uniform(-2.0, 2.0, size=4))
    v_val = float(rng.uniform(-2.0, 2.0))
    eps = float(rng.choice([0.5, 1.0, 2.0]))
    return psi, kernel, past, v_val, eps


def one_step_force(psi, kernel, eps):
    """The solver's memory force at t = 0 on the past z_p(tau) = tau.

    One Euler step from Z^0 = 0 under zero drive gives Z^1 = -dt F. On this
    past the stretch of an age-a bond is (0 - (-eps a)) / eps = a.
    """
    dt = 1e-3
    cfg = SolverConfig(eps=eps, T=dt, dt=dt)
    z = solve_smooth(psi, kernel, 0.0, LinearPast(1.0, 0.0), cfg).values
    return -(z[1] - z[0]) / dt


class TestMemoryForce:
    def test_linear_history_quadratic_psi_gives_first_moment(self):
        # stretch a at every age, so the force is m_1 = beta/zeta^2 = 1
        got = one_step_force(Quadratic(), Exponential(1.0, 1.0), 1.0)
        assert got == pytest.approx(1.0, abs=1e-6)

    def test_matches_quadrature_for_mollified_potential(self):
        psi = mollify(AbsoluteValue(), 0.3)
        k = Exponential(1.0, 1.0)
        ref = quad(lambda a: float(psi.subdiff_lo(a)) * math.exp(-a),
                   0.0, k.a_max, limit=400)[0]
        got = one_step_force(psi, k, 1.0)
        assert got == pytest.approx(ref, abs=1e-4)

    def test_scaling_in_eps(self):
        # the stretch is a for every eps, so eps = 0.5 gives m_1 = 1 again
        got = one_step_force(Quadratic(), Exponential(1.0, 1.0), 0.5)
        assert got == pytest.approx(1.0, abs=1e-5)


class TestQuadraticBenchmark:
    def test_final_position_hits_closed_form(self):
        past = LinearPast(1.0, 1.0)
        cfg = SolverConfig(eps=1.0, T=40.0, dt=5e-3)
        traj = solve_smooth(Quadratic(), Exponential(1.0, 1.0), 0.0, past, cfg)
        ref = quadratic_final_position(1.0, 1.0, past)
        assert ref == pytest.approx(0.5, abs=1e-12)
        assert traj.values[-1] == pytest.approx(ref, abs=1e-2)

    def test_constant_past_zero_drive_stays_put(self):
        cfg = SolverConfig(eps=1.0, T=1.0, dt=1e-2)
        traj = solve_smooth(Quadratic(), Exponential(1.0, 1.0), 0.0,
                            ConstantPast(0.7), cfg)
        np.testing.assert_allclose(traj.values, 0.7, atol=1e-14)


class TestSchemes:
    def solve_at(self, dt, scheme):
        cfg = SolverConfig(eps=1.0, T=2.0, dt=dt, scheme=scheme)
        return solve_smooth(Quadratic(), Exponential(1.0, 1.0), 1.0,
                            ConstantPast(0.0), cfg).values[-1]

    def test_euler_error_halves_with_dt(self):
        ref = self.solve_at(2.5e-4, "euler")
        e1 = abs(self.solve_at(2e-3, "euler") - ref)
        e2 = abs(self.solve_at(1e-3, "euler") - ref)
        assert 1.6 < e1 / e2 < 2.6

    def test_heun_beats_euler(self):
        ref = self.solve_at(2.5e-4, "heun")
        e_euler = abs(self.solve_at(4e-3, "euler") - ref)
        e_heun = abs(self.solve_at(4e-3, "heun") - ref)
        assert e_heun < e_euler / 3.0

    @pytest.mark.parametrize("scheme, calls", [("euler", 100), ("heun", 101)])
    def test_one_drive_call_per_time(self, scheme, calls):
        seen = []

        def drive(t):
            seen.append(t)
            return 1.0 + 0.5 * math.sin(t)

        cfg = SolverConfig(eps=1.0, T=1.0, dt=1e-2, scheme=scheme)
        solve_smooth(Tether(0.5), Exponential(1.0, 1.0), drive,
                     ConstantPast(0.0), cfg)
        assert seen == [n * 1e-2 for n in range(calls)]


KERNELS = {"exponential": lambda: Exponential(1.0, 1.0),
           "truncated": lambda: TruncatedExponential(1.0, 1.0),
           "modulated": modulated_kernel}


class BumpedExponential(Exponential):
    """An Exponential subclass whose profile beta (1 + a) e^{-zeta a} is no
    longer geometric on the age grid."""

    def _rho(self, a):
        return (1.0 + a) * super()._rho(a)


class TestLinearForce:
    """Quadratic psi sums its memory force as z_n W - w.z: one dot per step,
    or a running sum advanced in O(1) per step on a static exponential."""

    def solve(self, psi, kernel, eps, scheme, T=2.0):
        cfg = SolverConfig(eps=eps, T=T, dt=1e-2, scheme=scheme)
        return solve_smooth(psi, kernel, 0.5, LinearPast(1.0, 0.5), cfg).values

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("eps", [1.0, 0.3])
    @pytest.mark.parametrize("scheme", ["euler", "heun"])
    def test_matches_the_per_age_sum(self, kernel, eps, scheme):
        fast = self.solve(Quadratic(), KERNELS[kernel](), eps, scheme)
        ref = self.solve(LinearSlope(), KERNELS[kernel](), eps, scheme)
        np.testing.assert_allclose(fast, ref, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("eps", [1.0, 0.3])
    @pytest.mark.parametrize("scheme", ["euler", "heun"])
    def test_running_sum_holds_over_many_memory_lengths(self, eps, scheme):
        # ages stop at a_max = 2, where the weight is still e^{-2}: T = 30
        # spans 15 memory lengths eps a_max at eps 1 and 50 at eps 0.3
        kernel = Exponential(1.0, 1.0, a_max=2.0)
        fast = self.solve(Quadratic(), kernel, eps, scheme, T=30.0)
        ref = self.solve(LinearSlope(), kernel, eps, scheme, T=30.0)
        np.testing.assert_allclose(fast, ref, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("J", [1, 2, 3])
    @pytest.mark.parametrize("scheme", ["euler", "heun"])
    def test_running_sum_on_tiny_windows(self, J, scheme):
        # J + 1 ages, so both half end weights sit on or next to each other
        eps = 0.3
        kernel = Exponential(40.0, 1.0, a_max=J * 1e-2 / eps)
        assert Memory(kernel, eps, 1e-2, "trapezoid").ages.size == J + 1
        fast = self.solve(Quadratic(), kernel, eps, scheme)
        ref = self.solve(LinearSlope(), kernel, eps, scheme)
        np.testing.assert_allclose(fast, ref, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("scheme", ["euler", "heun"])
    def test_subclass_that_redefines_the_slope_sums_per_age(self, scheme):
        kernel = Exponential(1.0, 1.0)
        got = self.solve(DoubledQuadratic(), kernel, 0.3, scheme)
        ref = self.solve(LinearSlope(2.0), kernel, 0.3, scheme)
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)
        plain = self.solve(Quadratic(), kernel, 0.3, scheme)
        assert np.max(np.abs(got - plain)) > 1e-3

    @pytest.mark.parametrize("scheme", ["euler", "heun"])
    def test_subclass_that_redefines_the_profile_takes_the_dot(self, scheme):
        kernel = BumpedExponential(1.0, 1.0, a_max=8.0)
        got = self.solve(Quadratic(), kernel, 0.3, scheme)
        ref = self.solve(LinearSlope(), kernel, 0.3, scheme)
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)
        plain = self.solve(Quadratic(), Exponential(1.0, 1.0, a_max=8.0), 0.3,
                           scheme)
        assert np.max(np.abs(got - plain)) > 1e-3


class SupportRedefined(Exponential):
    def support(self, t):
        return super().support(t)


class EvalRedefined(Exponential):
    def eval(self, a, t):
        return super().eval(a, t)


class TestPathSelection:
    """The running sum runs for Quadratic psi on an Exponential kernel and
    for no subclass of either, whatever the subclass redefines."""

    @pytest.mark.parametrize("psi, kernel, running", [
        (Quadratic(), Exponential(1.0, 1.0), True),
        (DoubledQuadratic(), Exponential(1.0, 1.0), False),
        (LinearSlope(), Exponential(1.0, 1.0), False),
        (Tether(0.5), Exponential(1.0, 1.0), False),
        (Quadratic(), BumpedExponential(1.0, 1.0, a_max=8.0), False),
        (Quadratic(), SupportRedefined(1.0, 1.0), False),
        (Quadratic(), EvalRedefined(1.0, 1.0), False),
        (Quadratic(), TruncatedExponential(1.0, 1.0), False),
        (Quadratic(), Tabulated(np.linspace(0.0, 6.0, 301),
                                np.exp(-np.linspace(0.0, 6.0, 301))), False),
        (Quadratic(), modulated_kernel(), False),
    ], ids=["quadratic", "doubled", "linear-slope", "tether", "bumped",
            "support", "eval", "truncated", "tabulated", "modulated"])
    def test_running_sum_only_for_quadratic_on_exponential(
            self, monkeypatch, psi, kernel, running):
        calls = []
        seed = solver_smooth._running_force
        monkeypatch.setattr(solver_smooth, "_running_force",
                            lambda *args: calls.append(args) or seed(*args))
        cfg = SolverConfig(eps=0.5, T=0.1, dt=1e-2)
        solve_smooth(psi, kernel, 0.5, LinearPast(1.0, 0.5), cfg)
        assert len(calls) == running


class TestEpsScaling:
    """y(s) = z(eps s)/eps solves the eps = 1 problem on [0, T/eps] with past
    z_p(eps s)/eps, drive v(eps s) and kernel rho(a, eps s).

    On the tied grid (da = dt/eps in both) the two solves take the same
    steps, so they agree to rounding: over 300 random draws from the ranges
    below the largest |z - eps y| was 8.9e-16 on the running sum (quadratic
    psi, static ``Exponential``) and 1.3e-15 on the dot (static and
    modulated ``Tabulated``), at |z| <= 3. The stretch (z - z(t - eps a))/eps
    is the same in both, so the per-age sum of any other psi' scales too:
    over 240 draws at most 1.8e-15. The mollifier width 0.5 keeps the
    explicit step stable at eps = 0.1; at width 0.2 the steepest slope of
    psi' makes it unstable there, and the rounding grows to 5e-12.
    """

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(psi=st.sampled_from([
               Quadratic(), Tether(0.5), mollify(AbsoluteValue(), 0.5),
               mollify(PiecewiseLinear([1.0], [0.3, 2.0]), 0.5)]),
           eps=st.sampled_from([0.1, 0.3, 0.5, 2.0]),
           kind=st.sampled_from(["exponential", "tabulated", "modulated"]),
           scheme=st.sampled_from(["euler", "heun"]),
           beta=st.floats(0.2, 2.0), zeta=st.floats(0.5, 2.0),
           slope=st.floats(-1.0, 1.0), intercept=st.floats(-1.0, 1.0),
           v0=st.floats(-2.0, 2.0), v1=st.floats(-2.0, 2.0))
    def test_scaled_problem_agrees_to_rounding(self, psi, eps, kind, scheme,
                                               beta, zeta, slope, intercept,
                                               v0, v1):
        a = np.linspace(0.0, 4.0, 41)

        def kernel(scale):
            if kind == "exponential":
                return Exponential(beta, zeta, a_max=4.0)
            modulation = None
            if kind == "modulated":
                modulation = lambda t: 1.0 + 0.3 * math.sin(2.0 * scale * t)
            return Tabulated(a, beta * np.exp(-zeta * a), modulation=modulation)

        dt = 1e-2
        z = solve_smooth(psi, kernel(1.0),
                         lambda t: v0 + v1 * math.sin(t),
                         LinearPast(slope, intercept),
                         SolverConfig(eps=eps, T=1.0, dt=dt, scheme=scheme))
        y = solve_smooth(psi, kernel(eps),
                         lambda s: v0 + v1 * math.sin(eps * s),
                         LinearPast(slope, intercept / eps),
                         SolverConfig(eps=1.0, T=1.0 / eps, dt=dt / eps,
                                      scheme=scheme))
        np.testing.assert_allclose(z.values, eps * y.values, rtol=0.0,
                                   atol=1e-14)


class TestTruncatedMemory:
    def test_no_force_before_first_bond(self):
        # truncated kernel has no bonds at t = 0: the first step is pure drive
        cfg = SolverConfig(eps=1.0, T=0.5, dt=1e-2)
        traj = solve_smooth(Quadratic(), TruncatedExponential(1.0, 1.0), 1.0,
                            ConstantPast(0.0), cfg)
        assert traj.values[1] == pytest.approx(1e-2, rel=1e-12)

    def test_past_never_enters_truncated_memory(self):
        cfg = SolverConfig(eps=1.0, T=0.5, dt=1e-2)
        k = TruncatedExponential(1.0, 1.0)
        a = solve_smooth(Quadratic(), k, 1.0, ConstantPast(0.0), cfg)
        # any past with the same z_p(0) gives the identical trajectory
        b = solve_smooth(Quadratic(), k, 1.0,
                         TabulatedPast([-1.0, 0.0], [37.0, 0.0]), cfg)
        np.testing.assert_array_equal(a.values, b.values)


class TestStabilityBound:
    def test_uniform_bound_on_random_instances(self):
        rng = np.random.default_rng(31)
        T, dt = 1.0, 1e-2
        for _ in range(10):
            psi, kernel, past, v_val, eps = random_bounded_instance(rng)
            cfg = SolverConfig(eps=eps, T=T, dt=dt)
            traj = solve_smooth(psi, kernel, v_val, past, cfg)
            bound = past.bound + abs(v_val) * T + 10.0 * dt
            assert np.max(np.abs(traj.values)) <= bound


class TestEnergyDissipation:
    def test_kinetic_budget_and_slowdown(self):
        # v = 0: all motion is powered by the inherited bond energy
        past = LinearPast(1.0, 0.0)
        k = Exponential(1.0, 1.0)
        cfg = SolverConfig(eps=1.0, T=10.0, dt=2e-3)
        traj = solve_smooth(Quadratic(), k, 0.0, past, cfg)
        zdot = traj.zdot()
        kinetic = float(np.sum(zdot**2) * cfg.dt)
        budget = quad(lambda a: math.exp(-a) * 0.5 * a * a, 0, np.inf)[0]
        assert kinetic <= budget * 1.05
        speeds = np.abs(zdot[[500, 2500, 5000]])
        assert speeds[0] > speeds[1] > speeds[2]


class CountingTabulated(Tabulated):
    evals = 0

    def eval(self, a, t):
        self.evals += 1
        return super().eval(a, t)


class TestModulatedWeights:
    def solve(self, scheme, kernel):
        cfg = SolverConfig(T=1.0, dt=1e-3, scheme=scheme)
        return solve_smooth(Quadratic(), kernel, 1.0, LinearPast(1.0, 0.0),
                            cfg).values

    @pytest.mark.parametrize("scheme, evals", [("euler", 1000), ("heun", 1001)])
    def test_one_evaluation_per_time(self, scheme, evals, monkeypatch):
        k = modulated_kernel(CountingTabulated)
        got = self.solve(scheme, k)
        assert k.evals == evals

        class Uncached(Memory):
            def weights(self, t):
                self._last = (None, None)
                return super().weights(t)

        monkeypatch.setattr(solver_smooth, "Memory", Uncached)
        fresh = modulated_kernel(CountingTabulated)
        np.testing.assert_array_equal(got, self.solve(scheme, fresh))
        # uncached, every force call evaluates the kernel
        assert fresh.evals == 1000 * (2 if scheme == "heun" else 1)


class TestValidation:
    def test_rejects_kinked_potential(self):
        cfg = SolverConfig(T=1.0, dt=1e-2)
        with pytest.raises(ValueError, match="mollify"):
            solve_smooth(AbsoluteValue(), Exponential(1.0, 1.0), 0.0,
                         ConstantPast(0.0), cfg)

    def test_rejects_unbounded_psi_prime_without_kinks(self):
        class Sharp(Quadratic):
            lipschitz_Lprime = math.inf

        cfg = SolverConfig(T=1.0, dt=1e-2)
        with pytest.raises(ValueError, match="Lipschitz"):
            solve_smooth(Sharp(), Exponential(1.0, 1.0), 0.0,
                         ConstantPast(0.0), cfg)

    def test_rejects_untied_age_grid(self):
        cfg = SolverConfig(eps=1e-3, T=1.0, dt=0.1)
        with pytest.raises(ValueError, match="age"):
            solve_smooth(Quadratic(), Exponential(1.0, 1.0), 0.0,
                         ConstantPast(0.0), cfg)

    def test_rejects_partial_final_step(self):
        cfg = SolverConfig(T=1.05, dt=0.1)
        with pytest.raises(ValueError, match="multiple"):
            solve_smooth(Quadratic(), Exponential(1.0, 1.0), 0.0,
                         ConstantPast(0.0), cfg)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            SolverConfig(scheme="rk4").validated()

    @pytest.mark.parametrize("psi", [Quadratic(), LinearSlope()],
                             ids=["quadratic", "per-age"])
    def test_blowup_raises_numerical_error(self, psi):
        cfg = SolverConfig(eps=1.0, T=200.0, dt=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError, match="blew up"):
                solve_smooth(psi, Exponential(200.0, 1.0), 1.0,
                             ConstantPast(0.0), cfg)

    def test_modulated_tabulated_kernel_runs(self):
        k = modulated_kernel()
        cfg = SolverConfig(T=1.0, dt=2e-2)
        traj = solve_smooth(Quadratic(), k, 1.0, ConstantPast(0.0), cfg)
        assert np.all(np.isfinite(traj.values))
        assert traj.values[-1] > 0.0
