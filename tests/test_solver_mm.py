"""Minimizing movements: per-step minimizer, plastic stopping, certificates."""
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from cellroll import solver_mm
from cellroll.errors import NumericalError
from cellroll.history import ConstantPast, LinearPast, Trajectory
from cellroll.kernels import Exponential, Tabulated, TruncatedExponential
from cellroll.potentials import (AbsoluteValue, Mollified, PiecewiseLinear,
                                 Potential, Quadratic, Tether, mollify)
from cellroll.solver_limit import _increasing_root
from cellroll.solver_mm import (StepEnergy, minimize_step, solve_mm,
                                step_energy)
from cellroll.solver_smooth import SolverConfig, solve_smooth
from strategies import convex_piecewise_linear, even_convex_piecewise_linear

LN_10_9 = math.log(10.0 / 9.0)


def energy(psi, previous, dt, drive, weights, anchors, eps=1.0):
    return StepEnergy(psi, previous, dt, drive, np.asarray(weights, float),
                      np.asarray(anchors, float), eps)


def minimize_step_bisect(e, tol=1e-11):
    """Bisection reference for ``minimize_step`` on the subgradient of ``e``.

    Doubles a radius around the previous node until the subgradient changes
    sign across it, then halves the bracket to tol, or to adjacent floats,
    returning early when 0 lies in the subdifferential at the midpoint.
    """
    z = float(e.previous)
    r = 1.0
    while e.subgrad_lo(z - r) > 0.0 or e.subgrad_hi(z + r) < 0.0:
        r *= 2.0
    lo, hi = z - r, z + r
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if e.subgrad_lo(mid) > 0.0:
            hi = mid
        elif e.subgrad_hi(mid) < 0.0:
            lo = mid
        else:
            return mid
    return 0.5 * (lo + hi)


def minimize_step_full_sort(e):
    """Reference for ``minimize_step`` on piecewise-linear psi: one sweep
    over every kink point anchors + eps*k, sorted in full.

    The previous node is returned when 0 lies in the subdifferential there.
    Otherwise the sweep runs upward from g(-inf) = -drive - L*Q, so it reads
    nothing from a probe at the previous node.
    """
    z = float(e.previous)
    if e.subgrad_lo(z) <= 0.0 <= e.subgrad_hi(z):
        return z
    kinks, jumps, L = e.psi.kinks, e.psi.jumps, e.psi.lipschitz_L
    points = (e.anchors[:, None] + e.eps * kinks).ravel()
    order = np.argsort(points)
    p = points[order]
    cum = np.concatenate(([0.0], np.cumsum(
        (e.weights[:, None] * jumps).ravel()[order])))
    base = -float(e.drive) - L * float(e.weights.sum())
    i = int(np.searchsorted((p - z) / e.dt + base + cum[1:], 0.0))
    if i < p.size and (p[i] - z) / e.dt + base + cum[i] <= 0.0:
        return float(p[i])
    return float(z - e.dt * (base + cum[i]))


def assert_certified(e, w, h):
    """0 lies in the subdifferential of e within h of w."""
    assert e.subgrad_lo(w - h) <= 0.0 <= e.subgrad_hi(w + h)


class TestMinimizeStep:
    def test_free_step_is_drive_times_dt(self):
        e = energy(Quadratic(), 0.0, 0.1, 2.0, [], [])
        assert minimize_step(e) == pytest.approx(0.2, abs=1e-11)

    def test_soft_threshold_sticks_below_mass(self):
        e = energy(AbsoluteValue(), 0.0, 0.1, 0.4, [1.0], [0.0])
        assert minimize_step(e) == 0.0

    def test_soft_threshold_slides_above_mass(self):
        e = energy(AbsoluteValue(), 0.0, 0.1, 1.5, [1.0], [0.0])
        assert minimize_step(e) == pytest.approx(0.05, abs=1e-11)

    def test_stick_returns_previous_node_exactly(self):
        e = energy(AbsoluteValue(), 0.73, 0.01, 0.0, [2.0, 1.0], [0.73, 0.7])
        assert minimize_step(e) == 0.73

    def test_matches_scalar_minimizer_on_random_instances(self):
        rng = np.random.default_rng(41)
        shapes = [Quadratic(), AbsoluteValue(), mollify(AbsoluteValue(), 0.2),
                  PiecewiseLinear([0.5, 1.5], [0.3, 1.0, 2.0])]
        for _ in range(40):
            psi = shapes[int(rng.integers(len(shapes)))]
            m = int(rng.integers(0, 6))
            e = energy(psi,
                       float(rng.uniform(-1, 1)),
                       float(rng.uniform(0.01, 0.3)),
                       float(rng.uniform(-3, 3)),
                       rng.uniform(0.0, 1.0, size=m),
                       rng.uniform(-1.0, 1.0, size=m),
                       eps=float(rng.choice([0.5, 1.0])))
            got = minimize_step(e)
            ref = minimize_scalar(e.value, bounds=(got - 2.0, got + 2.0),
                                  method="bounded",
                                  options={"xatol": 1e-12}).x
            assert e.value(got) <= e.value(ref) + 1e-12
            assert got == pytest.approx(ref, abs=1e-6)

    def test_quadratic_growth_without_global_lipschitz(self):
        # psi' is unbounded, but the slope bound 1/dt brackets the root from
        # the finite subgradient at the center
        e = energy(Quadratic(), 1.0, 0.5, 0.0, [1.0], [3.0])
        got = minimize_step(e)
        # (w - 1)/0.5 + (w - 3) = 0 -> w = 5/3
        assert got == pytest.approx(5.0 / 3.0, abs=1e-10)

    @pytest.mark.parametrize("psi", [Tether(0.5), AbsoluteValue(),
                                     mollify(AbsoluteValue(), 0.2)])
    def test_terminates_where_tol_is_below_float_spacing(self, psi):
        # spacing(1e6) = 1.2e-10 > tol: bisection stops at adjacent floats
        e = energy(psi, 1e6, 1e-3, 1.5, [0.5], [1e6 - 0.3])
        w = minimize_step(e)
        assert w > 1e6
        assert_certified(e, w, 4.0 * np.spacing(w))

    def test_root_within_rounding_of_the_center_returns_it(self):
        # w* - 1e6 = 1e-9 / 1001 is far below spacing(1e6) = 1.2e-10, so the
        # far end 1e6 + 2e-12 rounds back to the center
        e = energy(Quadratic(), 1e6, 1e-3, 1e-9, [1.0], [1e6])
        assert minimize_step(e) == 1e6

    def test_nan_drive_raises(self):
        e = energy(Quadratic(), 0.0, 0.1, math.nan, [1.0], [0.0])
        with pytest.raises(NumericalError):
            minimize_step(e)


# anchors from a small pool repeat, as they do whenever the cell sticks
POOL = [-0.5, -0.2, 0.0, 0.2, 0.5, 0.7]
coords = st.one_of(st.sampled_from(POOL), st.floats(-1.0, 1.0))


@st.composite
def piecewise_linear(draw):
    if draw(st.booleans()):
        return AbsoluteValue()
    return convex_piecewise_linear(draw)


@st.composite
def step_energies(draw, psi):
    m = draw(st.integers(0, 6))
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
                            min_size=m, max_size=m))
    anchors = draw(st.lists(coords, min_size=m, max_size=m))
    return energy(psi, draw(coords), draw(st.floats(0.01, 0.3)),
                  draw(st.floats(-3.0, 3.0)), weights, anchors,
                  eps=draw(st.sampled_from([0.5, 1.0])))


class Counting:
    """Mixin: counts the subdiff_lo calls, one per subgradient evaluation,
    and apart from them the subdiff_hi calls."""

    calls = 0
    hi_calls = 0

    def subdiff_lo(self, u):
        self.calls += 1
        return super().subdiff_lo(u)

    def subdiff_hi(self, u):
        self.hi_calls += 1
        return super().subdiff_hi(u)


class TestStructuredStep:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data())
    def test_sweep_matches_bisection(self, data):
        e = data.draw(step_energies(data.draw(piecewise_linear())))
        w = minimize_step(e)
        assert w == pytest.approx(minimize_step_bisect(e), abs=1e-10)
        # sweeping from the probe changes only the rounding
        assert w == pytest.approx(minimize_step_full_sort(e), abs=1e-14)
        assert_certified(e, w, 1e-12)

    @pytest.mark.parametrize("drive, root", [
        (0.5, 0.2), (2.0, 0.2), (2.5, 0.2), (4.5, 0.35)])
    def test_tied_anchors_away_from_center(self, drive, root):
        # g(w) = 10 w - drive - 3 + 2 #(anchors <= w): g_lo(0.2) = -1 - drive
        # and g_hi(0.2) = 3 - drive, so the root is the tied kink 0.2 for
        # drive <= 3; the running sum over the two tied points crosses 0 at
        # the first for drive <= 1, else at the second. For drive = 4.5 the
        # root 0.35 lies in (0.2, 0.5), above the tie.
        for anchors in ([0.2, 0.2, 0.5], [0.5, 0.2, 0.2], [0.2, 0.5, 0.2]):
            e = energy(AbsoluteValue(), 0.0, 0.1, drive, [1.0, 1.0, 1.0],
                       anchors)
            assert minimize_step(e) == pytest.approx(root, abs=1e-14)
            assert minimize_step_bisect(e) == pytest.approx(root, abs=1e-11)

    @pytest.mark.parametrize("cls, args", [
        (AbsoluteValue, ()),
        (PiecewiseLinear, ([0.5, 1.5], [0.3, 1.0, 2.0])),
    ])
    def test_never_bisects(self, cls, args):
        psi = type("Counted", (Counting, cls), {})(*args)
        kernel = TruncatedExponential(1.0, 1.0)
        v = lambda t: 1.5 * math.sin(20.0 * t)
        cfg = SolverConfig(eps=0.5, T=0.4, dt=2e-3)
        traj = solve_mm(psi, kernel, v, ConstantPast(0.0), cfg)
        kinks = psi.kinks
        # a step up takes one g_hi pass at the previous node z; a step down
        # or a stuck step adds one g_lo pass there. A pass whose stretches
        # (z - anchors)/eps all lie at or beyond the outermost kink on its
        # side reads L times the weight total and touches no psi.
        passes, fast = 0, {"up": 0, "down": 0}
        for n in range(1, traj.values.size):
            e = step_energy(psi, kernel, v, traj, n)
            z = traj.values[n - 1]
            u = (z - e.anchors) / e.eps
            up = traj.values[n] > z
            past_hi = bool(np.all(u >= kinks[-1]))
            past_lo = bool(np.all(u <= kinks[0]))
            passes += 1 - past_hi
            fast["up"] += up and past_hi
            if not up:
                passes += 1 - past_lo
                fast["down"] += past_lo
        assert psi.calls + psi.hi_calls == passes
        ups = np.count_nonzero(np.diff(traj.values) > 0.0)
        assert 0 < ups < traj.values.size - 1
        if cls is AbsoluteValue:
            # some steps roll up and some down past every kink, some do not
            assert fast["up"] > 0 and fast["down"] > 0
            assert 0 < passes < 2 * (traj.values.size - 1) - ups
        else:
            # the youngest anchor is z, inside the kinks at +-0.5 .. 1.5
            assert passes == 2 * (traj.values.size - 1) - ups


class Plain(Potential):
    """A piecewise-linear psi behind the generic interface, so a step
    energy over it takes no O(1) branch: the reference for the fast one."""

    def __init__(self, psi):
        self.psi = psi
        self.breakpoints = psi.breakpoints
        self.lipschitz_L = psi.lipschitz_L
        self.kinks, self.jumps = psi.kinks, psi.jumps

    def value(self, u):
        return self.psi.value(u)

    def subdiff_lo(self, u):
        return self.psi.subdiff_lo(u)

    def subdiff_hi(self, u):
        return self.psi.subdiff_hi(u)


@st.composite
def rolling_energies(draw):
    """A step energy on piecewise-linear psi whose previous node lies at or
    beyond the outermost kink from every anchor, on either side, or
    anywhere; the weight total and extreme anchors are carried."""
    psi = draw(piecewise_linear())
    m = draw(st.integers(0, 6))
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
                            min_size=m, max_size=m))
    anchors = draw(st.lists(coords, min_size=m, max_size=m))
    eps = draw(st.sampled_from([0.5, 1.0]))
    kinks = psi.kinks
    gap = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5)))
    side = draw(st.sampled_from(["above", "below", "anywhere"]))
    if side == "above" and m:
        previous = max(anchors) + eps * kinks[-1] + gap
    elif side == "below" and m:
        previous = min(anchors) + eps * kinks[0] - gap
    else:
        previous = draw(coords)
    return StepEnergy(psi, float(previous), draw(st.floats(0.01, 0.3)),
                      draw(st.floats(-3.0, 3.0)), np.asarray(weights, float),
                      np.asarray(anchors, float), eps, math.fsum(weights),
                      max(anchors, default=-math.inf),
                      min(anchors, default=math.inf))


class TestRollingStep:
    """Steps whose stretches all lie past the outermost kink read only the
    carried weight total and extreme anchors."""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(e=rolling_energies(), probe=st.floats(-2.0, 2.0))
    def test_carried_totals_give_the_reference_step(self, e, probe):
        plain = StepEnergy(Plain(e.psi), e.previous, e.dt, e.drive, e.weights,
                           e.anchors, e.eps, e.total, e.anchor_max,
                           e.anchor_min)
        for w in (e.previous, probe):
            assert e.subgrad_lo(w) == pytest.approx(plain.subgrad_lo(w),
                                                    abs=1e-13)
            assert e.subgrad_hi(w) == pytest.approx(plain.subgrad_hi(w),
                                                    abs=1e-13)
        passes = []
        e.psi.subdiff_lo = lambda u, f=e.psi.subdiff_lo: passes.append(u) or f(u)
        e.psi.subdiff_hi = lambda u, f=e.psi.subdiff_hi: passes.append(u) or f(u)
        w = minimize_step(e)
        del e.psi.subdiff_lo, e.psi.subdiff_hi
        assert w == pytest.approx(minimize_step_full_sort(plain), abs=1e-14)
        assert w == pytest.approx(minimize_step_bisect(plain), abs=1e-10)
        assert_certified(plain, w, 1e-12)
        u = (e.previous - e.anchors) / e.eps
        kinks = e.psi.kinks
        if w > e.previous and np.all(u >= kinks[-1]):
            assert passes == []
        if w < e.previous and np.all(u <= kinks[0]):
            # only the g_hi probe that sent the step down may read psi
            assert len(passes) <= 1

    @pytest.mark.parametrize("psi", [
        AbsoluteValue(), PiecewiseLinear([1.0], [0.3, 2.0])],
        ids=["abs", "piecewise"])
    @pytest.mark.parametrize("eps", [0.5, 1.0])
    @pytest.mark.parametrize("up", [True, False], ids=["up", "down"])
    def test_unbounded_anchors_past_the_kinks_step_linearly(self, psi, eps,
                                                            up):
        # with bounds +-inf the O(1) test never holds, so the sweep makes
        # its pass over the anchors and finds no kink on the root's side
        anchors = np.array([0.0, 0.3, -0.2])
        kinks = psi.kinks
        if up:
            previous, drive = anchors.max() + eps * kinks[-1] + 0.1, 3.0
        else:
            previous, drive = anchors.min() + eps * kinks[0] - 0.1, -3.0
        exact = StepEnergy(psi, float(previous), 0.1, drive,
                           np.array([0.5, 0.2, 0.3]), anchors, eps)
        blind = StepEnergy(exact.psi, exact.previous, exact.dt, exact.drive,
                           exact.weights, exact.anchors, exact.eps,
                           exact.total, anchor_max=math.inf,
                           anchor_min=-math.inf)
        w = minimize_step(exact)
        assert (w > previous) == up
        assert minimize_step(blind) == pytest.approx(w, abs=1e-14)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(values=st.lists(st.sampled_from([-1.0, 0.0, 0.5]) | st.floats(-2, 2),
                           min_size=1, max_size=40),
           moves=st.lists(st.tuples(st.integers(0, 3), st.integers(-2, 3)),
                          max_size=40))
    def test_sliding_extrema_match_the_slices(self, values, moves):
        # the end moves forward; the start mostly does too, and sometimes
        # moves back, as a kernel whose support shrinks and grows makes it
        values = np.asarray(values, float)
        start = end = 0
        extrema = solver_mm._SlidingExtrema(values, 0)
        for grow, shift in moves:
            end = min(end + grow, values.size)
            start = min(max(start + shift, 0), end)
            window = values[start:end]
            assert extrema.slide(start, end) == (
                window.max(initial=-math.inf), window.min(initial=math.inf))

    @pytest.mark.parametrize("psi", [
        AbsoluteValue(), PiecewiseLinear([1.0], [0.3, 2.0])],
        ids=["abs", "piecewise"])
    @pytest.mark.parametrize("kernel", [
        Exponential(1.0, 1.0, a_max=0.3), TruncatedExponential(1.0, 2.0),
        Tabulated([0.0, 0.5, 1.0], [1.0, 0.5, 0.2],
                  modulation=lambda t: 1.0 + 0.5 * math.sin(5.0 * t))],
        ids=["static", "cut", "modulated"])
    def test_step_energy_rebuilds_every_step(self, kernel, psi):
        # the drive rolls the cell up and down and sticks
        v = lambda t: 2.0 * math.sin(15.0 * t)
        cfg = SolverConfig(eps=0.5, T=0.6, dt=5e-3)
        traj = solve_mm(psi, kernel, v, ConstantPast(0.0), cfg)
        for n in range(1, traj.values.size):
            e = step_energy(psi, kernel, v, traj, n)
            assert e.total == pytest.approx(float(np.sum(e.weights)),
                                            rel=1e-14)
            if psi.breakpoints == (0.0,):
                assert (e.anchor_max, e.anchor_min) == (e.anchors.max(),
                                                        e.anchors.min())
            else:
                # the youngest stretch at the probe, 0, lies inside the
                # kinks at +-1, so no extreme is kept
                assert (e.anchor_max, e.anchor_min) == (math.inf, -math.inf)
            assert minimize_step(e) == traj.values[n]

    def test_modulated_steps_scale_the_static_weights(self):
        times = []

        class Uncounted(Tabulated):
            def eval(self, a, t):
                raise AssertionError("rho(a, t) evaluated")

        a = np.linspace(0.0, 2.0, 21)
        kernel = Uncounted(a, np.exp(-a),
                           modulation=lambda t: times.append(t) or 1.0 + t)
        solve_mm(AbsoluteValue(), kernel, 1.0, ConstantPast(0.0),
                 SolverConfig(T=0.1, dt=1e-2))
        # one modulation per step time t_1 .. t_10, and the profile read once
        assert times == [n * 1e-2 for n in range(1, 11)]


class TestPathSelection:
    """The kink sweep runs for AbsoluteValue, PiecewiseLinear and their
    subclasses, and never for a smooth psi, which ITP solves."""

    @pytest.mark.parametrize("psi, sweeps", [
        (AbsoluteValue(), True),
        (PiecewiseLinear([0.5], [0.3, 1.0]), True),
        (type("Counted", (Counting, AbsoluteValue), {})(), True),
        (type("Counted", (Counting, PiecewiseLinear), {})([0.5], [0.0, 1.0]),
         True),
        (Quadratic(), False),
        (Tether(0.5), False),
        (mollify(AbsoluteValue(), 0.2), False),
    ], ids=["abs", "piecewise", "abs-sub", "piecewise-sub", "quadratic",
            "tether", "mollified"])
    def test_kink_sweep_only_for_piecewise_linear(self, monkeypatch, psi,
                                                  sweeps):
        calls = {"_kink_sweep": 0, "_increasing_root": 0}
        for name in calls:
            def counted(*args, _name=name, _f=getattr(solver_mm, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(solver_mm, name, counted)
        # the drive exceeds the bond mass, so none of the 10 steps sticks
        cfg = SolverConfig(eps=0.5, T=0.1, dt=1e-2)
        solve_mm(psi, Exponential(1.0, 1.0), 1.5, ConstantPast(0.0), cfg)
        swept, rooted = calls["_kink_sweep"], calls["_increasing_root"]
        assert (swept, rooted) == ((10, 0) if sweeps else (0, 10))


class TestSmoothStep:
    @pytest.mark.parametrize("cls, args", [
        (Quadratic, ()), (Tether, (0.5,)), (Mollified, (AbsoluteValue(), 0.2))])
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_matches_bisection_in_fewer_evaluations(self, cls, args, data):
        psi = type("Counted", (Counting, cls), {})(*args)
        e = data.draw(step_energies(psi))
        probes = []

        def counted(g, *rest):
            return _increasing_root(lambda w: probes.append(w) or g(w), *rest)

        with mock.patch.object(solver_mm, "_increasing_root", counted):
            w = minimize_step(e)
        # subdiff_hi = subdiff_lo here: one subgradient pass per probe
        assert (psi.calls, psi.hi_calls) == (len(probes), 0)
        used, psi.calls = psi.calls, 0
        assert w == pytest.approx(minimize_step_bisect(e), abs=1e-10)
        assert used <= psi.calls + 3
        assert_certified(e, w, 1e-11)

    @pytest.mark.parametrize("kernel", [Exponential(1.0, 1.0),
                                        TruncatedExponential(1.3, 0.7)])
    def test_quadratic_steps_average_at_most_five_probes(self, kernel):
        # g is affine in w for quadratic psi: the centre, the far end, the
        # regula-falsi point and one probe tol/2 past it
        probes, roots = [], []

        def counted(g, *rest):
            roots.append(rest)
            return _increasing_root(lambda w: probes.append(w) or g(w), *rest)

        cfg = SolverConfig(eps=0.5, T=2.0, dt=1e-2)
        with mock.patch.object(solver_mm, "_increasing_root", counted):
            solve_mm(Quadratic(), kernel, 1.5, ConstantPast(0.0), cfg)
        assert len(roots) == 200
        assert len(probes) <= 5 * len(roots)


class TestSolveMM:
    def fig_config(self, T=0.3):
        return SolverConfig(eps=1.0, T=T, dt=1e-3)

    def test_plastic_creep_and_stop(self):
        traj = solve_mm(AbsoluteValue(), TruncatedExponential(1.0, 1.0), 0.1,
                        ConstantPast(-0.001), self.fig_config())
        t = traj.times
        ref = np.where(t <= LN_10_9, -0.001 + 0.1 * t - t + 1.0 - np.exp(-t),
                       -0.001 + 0.1 - 0.9 * LN_10_9)
        assert np.max(np.abs(traj.values - ref)) < 5e-4
        assert traj.values[-1] - traj.values[0] == pytest.approx(
            0.1 - 0.9 * LN_10_9, abs=5e-4)

    def test_age_grid_stops_at_the_horizon(self):
        # no bond is older than T = 1.5, so the run stores 15 000 of the
        # 400 001 ages to a_max = 40 at dt = 1e-4; the full grid took 18.5 MB
        cfg = SolverConfig(eps=1.0, T=1.5, dt=1e-4)
        tracemalloc.start()
        try:
            solve_mm(AbsoluteValue(), TruncatedExponential(1.0, 1.0), 1.5,
                     ConstantPast(0.0), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_stopped_phase_is_flat(self):
        dt = 1e-3
        traj = solve_mm(AbsoluteValue(), TruncatedExponential(1.0, 1.0), 0.1,
                        ConstantPast(-0.001), self.fig_config())
        zdot = np.diff(traj.values) / dt
        stopped = traj.times[1:] >= LN_10_9 + 10 * dt
        assert np.max(np.abs(zdot[stopped])) < 1e-6

    def test_zero_drive_never_moves(self):
        traj = solve_mm(AbsoluteValue(), TruncatedExponential(1.0, 1.0), 0.0,
                        ConstantPast(0.4), self.fig_config(T=0.1))
        np.testing.assert_array_equal(traj.values, 0.4)

    def test_velocity_bound(self):
        k = TruncatedExponential(1.0, 1.0)
        traj = solve_mm(AbsoluteValue(), k, 1.5, ConstantPast(0.0),
                        self.fig_config(T=0.5))
        zdot = np.abs(np.diff(traj.values)) / 1e-3
        assert np.max(zdot) <= 1.5 + 1.0 * k.mu_total() + 1e-9

    @pytest.mark.parametrize("eps, tol", [(1e-3, 1e-3), (1e-2, 2e-2)])
    def test_a_drive_above_the_bond_mass_moves_the_cell(self, eps, tol):
        # v = 1.5 beats mu = 1, so the path is z = (v - mu) t, z(1) = 0.5;
        # weights da rho(a_j) would sum to 1.58 mu at da = 1 and hold the
        # cell near 0 (6.3e-4 at eps = 1e-3, 0.459 at eps = 1e-2)
        traj = solve_mm(AbsoluteValue(), Exponential(1.0, 1.0), 1.5,
                        ConstantPast(0.0), SolverConfig(eps=eps, T=1.0,
                                                        dt=1e-3))
        assert traj.values[-1] == pytest.approx(0.5, abs=tol)

    def test_matches_smooth_solver_to_first_order(self):
        k = TruncatedExponential(1.0, 1.0)
        past = ConstantPast(0.0)
        gaps = []
        for dt in (4e-3, 2e-3, 1e-3):
            cfg = SolverConfig(eps=0.05, T=1.0, dt=dt)
            zm = solve_mm(Quadratic(), k, 1.0, past, cfg).values
            zs = solve_smooth(Quadratic(), k, 1.0, past, cfg).values
            gaps.append(np.max(np.abs(zm - zs)))
        assert gaps[-1] < 0.01
        ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
        assert np.all((1.7 < ratios) & (ratios < 2.4))

    @pytest.mark.parametrize("psi", [
        mollify(AbsoluteValue(), 0.5), Tether(0.5),
        mollify(PiecewiseLinear([1.0], [0.3, 2.0]), 0.5)],
        ids=["mollified-abs", "tether", "mollified-piecewise"])
    @pytest.mark.parametrize("v", [1.5, lambda t: 2.0 * math.sin(4.0 * t)],
                             ids=["constant", "sine"])
    def test_matches_smooth_solver_on_smooth_psi(self, psi, v):
        # no bond predates t = 0 and eps = 1, so both solvers model the
        # same problem; implicit and explicit Euler part at first order
        k = TruncatedExponential(1.0, 1.0)
        gaps = []
        for dt in (2e-2, 1e-2, 5e-3):
            cfg = SolverConfig(eps=1.0, T=2.0, dt=dt)
            zm = solve_mm(psi, k, v, ConstantPast(0.0), cfg).values
            zs = solve_smooth(psi, k, v, ConstantPast(0.0), cfg).values
            gaps.append(np.max(np.abs(zm - zs)))
        assert gaps[-1] < 2e-2
        ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
        assert np.all((1.8 <= ratios) & (ratios <= 2.2))

    def test_untruncated_kernel_self_truncates(self):
        # anchors exist only for computed nodes, so before age a_max both
        # kernels see the identical memory
        cfg = SolverConfig(eps=1.0, T=0.2, dt=1e-2)
        a = solve_mm(AbsoluteValue(), Exponential(1.0, 1.0), 0.7,
                     ConstantPast(0.0), cfg)
        b = solve_mm(AbsoluteValue(), TruncatedExponential(1.0, 1.0), 0.7,
                     ConstantPast(0.0), cfg)
        np.testing.assert_array_equal(a.values, b.values)

    def test_rejects_untied_age_grid(self):
        cfg = SolverConfig(eps=1e-3, T=1.0, dt=0.1)
        with pytest.raises(ValueError, match="age"):
            solve_mm(AbsoluteValue(), Exponential(1.0, 1.0), 0.0,
                     ConstantPast(0.0), cfg)

    def test_zero_psi_is_free_motion(self):
        # psi = 0 has no kink: every step is Z^n = Z^{n-1} + dt v(t_n)
        v = lambda t: math.sin(6.0 * t) + 0.25
        cfg = SolverConfig(eps=1.0, T=1.0, dt=1e-2)
        traj = solve_mm(PiecewiseLinear([], [0.0]), Exponential(1.0, 1.0), v,
                        ConstantPast(0.4), cfg)
        drives = [v(n * 1e-2) for n in range(1, 101)]
        np.testing.assert_allclose(
            traj.values, 0.4 + 1e-2 * np.cumsum([0.0, *drives]),
            rtol=0, atol=1e-14)

    def test_rejects_heun(self):
        # every step is one implicit minimization: there is no Heun step
        with pytest.raises(ValueError, match="heun"):
            solve_mm(AbsoluteValue(), Exponential(1.0, 1.0), 0.0,
                     ConstantPast(0.0), SolverConfig(scheme="heun"))

    def test_rejects_doubly_unbounded_potential(self):
        class Unbounded(Potential):
            breakpoints = (0.0,)

        cfg = SolverConfig(T=1.0, dt=1e-2)
        with pytest.raises(ValueError, match="unbounded"):
            solve_mm(Unbounded(), Exponential(1.0, 1.0), 0.0,
                     ConstantPast(0.0), cfg)


class TestEpsScaling:
    """y(s) = z(eps s)/eps solves the eps = 1 problem on [0, T/eps] with
    start z(0)/eps, drive v(eps s) and kernel rho(a, eps s).

    Each step energy at eps is eps times the scaled one, so on the tied grid
    (da = dt/eps in both) the two solves take the same steps and agree to
    rounding: over 240 random draws from the ranges below the largest
    |z - eps y| was 1.6e-15. The drive pushes up, rests at 0 and pushes down
    beyond the bond mass, so steps go up, stick and go down.
    ``TruncatedExponential`` is left out: it cuts ages at a <= t for every
    eps, so its scaled problem is not the eps = 1 one.
    """

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(psi=st.sampled_from([AbsoluteValue(),
                                PiecewiseLinear([0.5, 1.5], [0.3, 1.0, 2.0])]),
           eps=st.sampled_from([0.1, 0.3, 0.5, 1.0]),
           kind=st.sampled_from(["exponential", "tabulated", "modulated"]),
           beta=st.floats(0.5, 2.0), zeta=st.floats(0.5, 2.0),
           z0=st.floats(-1.0, 1.0), push=st.floats(3.0, 6.0))
    def test_scaled_problem_agrees_to_rounding(self, psi, eps, kind, beta,
                                               zeta, z0, push):
        a = np.linspace(0.0, 4.0, 41)

        def kernel(scale):
            if kind == "exponential":
                return Exponential(beta, zeta, a_max=4.0)
            modulation = None
            if kind == "modulated":
                modulation = lambda t: 1.0 + 0.3 * math.sin(2.0 * scale * t)
            return Tabulated(a, beta * np.exp(-zeta * a), modulation=modulation)

        def v(t):
            # 0 while |sin| <= 1/2; peaks at push/2 times the bond mass
            s = math.sin(2.0 * math.pi * t)
            return push * beta / zeta * math.copysign(max(abs(s) - 0.5, 0.0), s)

        dt = 1e-2
        z = solve_mm(psi, kernel(1.0), v, ConstantPast(z0),
                     SolverConfig(eps=eps, T=1.0, dt=dt)).values
        y = solve_mm(psi, kernel(eps), lambda s: v(eps * s),
                     ConstantPast(z0 / eps),
                     SolverConfig(eps=1.0, T=1.0 / eps, dt=dt / eps)).values
        steps = np.diff(z)
        assert np.any(steps > 0.0) and np.any(steps < 0.0)
        assert np.any(steps == 0.0)
        np.testing.assert_allclose(z, eps * y, rtol=0.0, atol=1e-14)


@st.composite
def lipschitz_potentials(draw):
    """AbsoluteValue, or an even convex PiecewiseLinear with 1-3 breaks."""
    if draw(st.booleans()):
        return AbsoluteValue()
    return draw(even_convex_piecewise_linear())


class TestVelocityBound:
    """|Z^n - Z^{n-1}|/dt <= sup|v| + L*Q for Lipschitz psi.

    The step's subgradient is (w - Z^{n-1})/dt - v(t_n) plus the memory
    force sum_j q_j psi'(u_j), whose size is at most L times the weight sum.
    The weights are cell masses, which on an exponential kernel sum to at
    most Q = beta/zeta, the bond mass, and the age cutoff of
    ``TruncatedExponential`` only drops weights.
    """

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(psi=lipschitz_potentials(),
           truncated=st.booleans(),
           beta=st.floats(0.3, 2.0), zeta=st.floats(0.5, 3.0),
           amp=st.floats(0.5, 4.0), omega=st.floats(1.0, 20.0),
           slope=st.floats(-2.0, 2.0), intercept=st.floats(-1.0, 1.0),
           eps=st.sampled_from([0.1, 0.5, 1.0]))
    def test_steps_respect_the_a_priori_bound(self, psi, truncated, beta,
                                              zeta, amp, omega, slope,
                                              intercept, eps):
        kernel = (TruncatedExponential if truncated else Exponential)(beta, zeta)
        dt = 1e-2
        z = solve_mm(psi, kernel, lambda t: amp * math.sin(omega * t),
                     LinearPast(slope, intercept),
                     SolverConfig(eps=eps, T=1.0, dt=dt)).values
        Q = beta / zeta
        speed = np.abs(np.diff(z)) / dt
        assert np.max(speed) <= amp + psi.lipschitz_L * Q + 1e-9


class TestCertificates:
    def run(self):
        cfg = SolverConfig(eps=1.0, T=0.5, dt=2e-3)
        k = TruncatedExponential(1.0, 1.0)
        v = lambda t: 1.0 + 0.5 * math.sin(3.0 * t)
        traj = solve_mm(AbsoluteValue(), k, v, ConstantPast(0.0), cfg)
        return traj, k, v

    def test_per_step_energy_descent(self):
        traj, k, v = self.run()
        for n in range(1, traj.values.size):
            e = step_energy(AbsoluteValue(), k, v, traj, n)
            assert e.value(traj.values[n]) <= e.value(traj.values[n - 1]) + 1e-14

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(psi=even_convex_piecewise_linear(), truncated=st.booleans(),
           bias=st.floats(-3.0, 3.0), amp=st.floats(0.0, 3.0),
           omega=st.floats(0.5, 30.0), slope=st.floats(-2.0, 2.0),
           eps=st.sampled_from([0.1, 0.5, 1.0]))
    def test_energy_descends_along_random_trajectories(
            self, psi, truncated, bias, amp, omega, slope, eps):
        kernel = (TruncatedExponential if truncated else Exponential)(1.0, 1.0)
        v = lambda t: bias + amp * math.sin(omega * t)
        traj = solve_mm(psi, kernel, v, LinearPast(slope, 0.0),
                        SolverConfig(eps=eps, T=0.3, dt=1e-2))
        for n in range(1, traj.values.size):
            e = step_energy(psi, kernel, v, traj, n)
            assert e.value(traj.values[n]) <= e.value(traj.values[n - 1]) + 1e-14

    def test_variational_inequality(self):
        traj, k, v = self.run()
        rng = np.random.default_rng(43)
        dt = traj.dt
        steps = rng.integers(1, traj.values.size, size=20)
        for n in steps:
            e = step_energy(AbsoluteValue(), k, v, traj, int(n))
            z_n = traj.values[n]
            zdot = (z_n - traj.values[n - 1]) / dt
            psi_z = e.eps * float(np.dot(e.weights, AbsoluteValue().value(
                (z_n - e.anchors) / e.eps)))
            for w in rng.uniform(z_n - 1.0, z_n + 1.0, size=20):
                psi_w = e.eps * float(np.dot(e.weights, AbsoluteValue().value(
                    (w - e.anchors) / e.eps)))
                lhs = (e.drive - zdot) * (w - z_n) + psi_z
                assert lhs <= psi_w + 10.0 * dt

    def test_step_energy_rejects_step_zero(self):
        traj, k, v = self.run()
        with pytest.raises(ValueError):
            step_energy(AbsoluteValue(), k, v, traj, 0)

    @pytest.mark.parametrize("n", [0, 11, 12])
    def test_step_energy_takes_only_the_steps_solved(self, n):
        k = TruncatedExponential(1.0, 1.0)
        traj = solve_mm(AbsoluteValue(), k, 1.0, ConstantPast(0.0),
                        SolverConfig(T=0.1, dt=1e-2))
        assert traj.values.size == 11
        with pytest.raises(ValueError, match="from 1 to 10"):
            step_energy(AbsoluteValue(), k, 1.0, traj, n)
        e = step_energy(AbsoluteValue(), k, 1.0, traj, 10)
        assert minimize_step(e) == traj.values[10]

    def test_step_energy_reproduces_solver_minimizer(self):
        traj, k, v = self.run()
        for n in (1, 50, 200):
            e = step_energy(AbsoluteValue(), k, v, traj, n)
            assert minimize_step(e) == traj.values[n]
