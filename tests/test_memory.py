"""The tied age grid, the node buffer and the memory windows of the solvers."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellroll.history import LinearPast
from cellroll.kernels import Exponential, Tabulated, TruncatedExponential
from cellroll.memory import Memory, step_count


class AgeCutTabulated(Tabulated):
    """A tabulated kernel whose only time dependence is the cutoff a <= t."""

    time_dependent = True

    def support(self, t):
        return min(float(t), self.a_max)


def modulated():
    a = np.linspace(0.0, 2.0, 9)
    return Tabulated(a, np.exp(-a), modulation=lambda t: 1.0 + 0.5 * math.sin(3.0 * t))


def running_sums(w):
    """0 and the sums of the last 1, 2, .. entries of w, youngest first."""
    return np.concatenate(([0.0], np.cumsum(w[::-1])))


def window(memory, t, hi=10**6):
    """The weights of the window at time t under cap hi, oldest first."""
    (m,), (total,), (scale,) = memory.windows(np.array([t]), hi)
    w = memory.weights[memory.ages.size - m:]
    # the total is read off the running sum of the unscaled weights
    assert total == running_sums(w)[-1] * scale
    return w * scale


def test_no_age_beyond_the_horizon():
    # a_max / da = 1000.5: the grid stops at the last age inside the support
    k = Exponential(1.0, 1.0, a_max=1.0005)
    for rule in ("trapezoid", "rectangle"):
        memory = Memory(k, 1.0, 1e-3, rule)
        assert memory.ages.size == 1001
        assert memory.ages[-1] <= k.a_max < memory.ages[-1] + 1e-3
        assert window(memory, 0.0).size == 1001


def test_weights_run_oldest_first():
    k = Exponential(1.0, 1.0, a_max=1.0)
    memory = Memory(k, 2.0, 0.5, "rectangle")  # ages 0, 0.25, .., 1
    np.testing.assert_array_equal(
        window(memory, 0.0), 0.25 * k.eval(memory.ages[::-1], 0.0))
    np.testing.assert_array_equal(window(memory, 0.0), memory.weights)
    # hi drops the oldest ages
    np.testing.assert_array_equal(window(memory, 0.0, hi=2),
                                  memory.weights[-2:])


def test_trapezoid_halves_only_the_end_weights():
    k = Exponential(1.0, 1.0, a_max=1.0)
    trap = window(Memory(k, 2.0, 0.5, "trapezoid"), 0.0)
    rect = window(Memory(k, 2.0, 0.5, "rectangle"), 0.0)
    assert list(trap / rect) == [0.5, 1.0, 1.0, 1.0, 0.5]


def test_truncated_weights_drop_the_bond_as_old_as_t():
    k = TruncatedExponential(1.0, 1.0)
    memory = Memory(k, 1.0, 0.25, "rectangle")
    assert k.eval(0.5, 0.5) > 0.0
    assert window(memory, 0.5).size == 2  # ages 0 and 0.25
    assert window(memory, 0.5, hi=1).size == 1
    assert window(memory, 0.5, hi=5).size == 2
    assert window(memory, 0.0).size == 0


def test_age_cutoff_kernel_gets_the_cut_static_weights():
    a, v = [0.0, 0.5, 1.0, 2.0], [1.0, 0.8, 0.5, 0.1]
    k = AgeCutTabulated(a, v)
    memory = Memory(k, 1.0, 0.25, "trapezoid")
    static = window(Memory(Tabulated(a, v), 1.0, 0.25, "trapezoid"), 0.0)
    t = memory.ages[3]
    assert k.eval(t, t) > 0.0
    np.testing.assert_array_equal(window(memory, t), static[-3:])
    np.testing.assert_array_equal(window(memory, t, hi=2), static[-2:])
    np.testing.assert_array_equal(window(memory, k.a_max), static)


@pytest.mark.parametrize("a_max", [2.0, 2.0 - 2e-11, 2.0 + 1e-12, 1.9])
def test_the_window_stops_before_the_first_age_at_the_support(a_max):
    # 2 - 2e-11 puts the last age a_J = 2 just past a_max
    k = AgeCutTabulated([0.0, 1.0, 2.5], [1.0, 0.5, 0.1], a_max=a_max)
    memory = Memory(k, 1.0, 0.25, "rectangle")
    ages = memory.ages
    supports = np.unique(np.concatenate([
        ages, np.nextafter(ages, -np.inf), np.nextafter(ages, np.inf),
        [a_max, np.nextafter(a_max, 0.0), 0.1, 1.3]]))
    supports = supports[supports >= 0.0]
    want = [ages.size if t >= a_max else int(np.sum(ages < t)) for t in supports]
    assert [window(memory, t).size for t in supports] == want
    sizes, _, _ = memory.windows(supports, 100)
    assert list(sizes) == want


def test_sum_follows_the_age_count():
    # a window that grows and shrinks again gets the total of its own ages
    memory = Memory(TruncatedExponential(1.0, 1.0), 1.0, 0.25, "rectangle")
    sizes, totals, _ = memory.windows(np.array([0.5, 1.0, 0.5]), 100)
    assert list(sizes) == [2, 4, 2]
    sums = running_sums(memory.weights)
    assert list(totals) == [sums[2], sums[4], sums[2]]
    assert sums[4] > sums[2] > 0.0


STEPS = np.arange(1, 17)


@pytest.mark.parametrize("kernel", [
    Exponential(1.0, 1.0, a_max=1.0), TruncatedExponential(1.0, 1.0),
    AgeCutTabulated([0.0, 0.5, 1.0, 2.0], [1.0, 0.8, 0.5, 0.1])],
    ids=["exponential", "truncated", "age-cut-tabulated"])
@pytest.mark.parametrize("eps", [1.0, 0.5, 2.0])
def test_static_windows_match_the_window(kernel, eps):
    # the window at t: da rho(a_j, t) over the ages a_j < support(t), or
    # all once support(t) reaches a_max, the youngest hi of them
    memory = Memory(kernel, eps, 0.25, "rectangle")
    ages, da = memory.ages, memory.ages[1]
    for hi in (STEPS, np.full(STEPS.size, 100)):
        sizes, totals, scales = memory.windows(0.25 * STEPS, hi)
        assert len(sizes) == len(totals) == len(scales) == STEPS.size
        assert list(scales) == [1.0] * STEPS.size
        for t, cap, m in zip(0.25 * STEPS, hi, sizes):
            support = kernel.support(t)
            inside = ages[(ages < support) | (support >= kernel.a_max)]
            want = da * kernel.eval(inside[::-1], t)
            np.testing.assert_array_equal(
                memory.weights[ages.size - m:],
                want[want.size - min(cap, want.size):])
        # every total is read off one running sum, none is a difference
        np.testing.assert_array_equal(totals,
                                      running_sums(memory.weights)[sizes])


@pytest.mark.parametrize("eps", [1.0, 0.5, 2.0])
def test_modulated_windows_match_the_window(eps):
    kernel = modulated()
    memory = Memory(kernel, eps, 0.25, "rectangle")
    da, size = memory.ages[1], memory.ages.size
    sums = running_sums(memory.weights)
    for hi in (STEPS, np.full(STEPS.size, 100)):
        sizes, totals, scales = memory.windows(0.25 * STEPS, hi)
        assert list(sizes) == list(np.minimum(hi, size))
        assert list(scales) == [kernel.modulation(t) for t in 0.25 * STEPS]
        # the static weights' running sums, scaled
        np.testing.assert_array_equal(totals, sums[sizes] * scales)
    for t in (0.25, 1.5, 0.25):
        (_,), _, (scale,) = memory.windows(np.array([t]), size)
        np.testing.assert_allclose(memory.weights * scale,
                                   da * kernel.eval(memory.ages[::-1], t),
                                   rtol=1e-15, atol=0.0)


def test_buffer_holds_the_past_before_the_first_node():
    memory = Memory(Exponential(1.0, 1.0, a_max=1.0), 2.0, 0.5, "rectangle")
    B = memory.buffer(LinearPast(2.0, 1.0), 3)
    assert B.size == memory.ages.size + 3
    # B[J + n] = Z^n: the prefix holds z_p at t = (k - J) dt, Z^0 = z_p(0)
    np.testing.assert_array_equal(B[:5], [-3.0, -2.0, -1.0, 0.0, 1.0])


@pytest.mark.parametrize("T, dt", [(1e308, 0.01), (2.0, 1e-300)])
def test_step_count_rejects_a_count_no_buffer_holds(T, dt):
    # T/dt is inf, or 2e300 nodes: refused before anything is allocated
    with pytest.raises(ValueError, match="can index"):
        step_count(T, dt)


# kernels whose support is an age cut (the grid stops at the horizon's
# window), with the a_max edge cases above, and two that keep every age
HORIZON_KERNELS = [
    TruncatedExponential(1.0, 1.0), TruncatedExponential(1.0, 1.0, a_max=2.0),
    *[AgeCutTabulated([0.0, 1.0, 2.5], [1.0, 0.5, 0.1], a_max=a_max)
      for a_max in (2.0, 2.0 - 2e-11, 2.0 + 1e-12, 1.9)],
    Exponential(1.0, 1.0, a_max=1.0), modulated()]


@pytest.mark.parametrize("kernel", HORIZON_KERNELS + [
    Tabulated([0.0, 1.0], [1.0, 0.5])], ids=repr)
def test_support_never_decreases(kernel):
    t = np.linspace(0.0, 3.0 * kernel.a_max, 301)
    t = np.sort(np.concatenate([t, np.nextafter(t, -np.inf),
                                np.nextafter(t, np.inf), [kernel.a_max]]))
    supports = [kernel.support(x) for x in t[t >= 0.0]] + [kernel.support(math.inf)]
    assert all(b >= a for a, b in zip(supports, supports[1:]))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(kernel=st.sampled_from(HORIZON_KERNELS),
       eps=st.sampled_from([0.5, 1.0, 2.0]),
       rule=st.sampled_from(["trapezoid", "rectangle"]),
       steps=st.integers(1, 12), nudge=st.sampled_from([-1, 0, 1]))
def test_horizon_grid_gives_the_full_grid_windows(kernel, eps, rule, steps,
                                                   nudge):
    dt = 0.25
    horizon = steps * dt
    if nudge:
        horizon = math.nextafter(horizon, nudge * math.inf)
    full = Memory(kernel, eps, dt, rule)
    part = Memory(kernel, eps, dt, rule, horizon)
    size, K = full.ages.size, part.ages.size
    # the youngest ages, up to where the window at the horizon stops
    np.testing.assert_array_equal(part.ages, full.ages[:K])
    reach = window(full, horizon).size
    if kernel.support(horizon) < kernel.a_max:
        assert K == max(reach, 1)
    else:
        assert K == size == reach
    # the youngest weights, the oldest halved only where the grid ends at a_J
    np.testing.assert_array_equal(part.weights, full.weights[size - K:])
    # the same past and computed nodes in both buffers
    past = LinearPast(0.7, -0.2)
    Bf, Bp = full.buffer(past, steps), part.buffer(past, steps)
    np.testing.assert_array_equal(Bp[:K], Bf[size - K:size])
    Bf[size:] = Bp[K:] = np.random.default_rng(steps).random(steps)
    times = [n * dt for n in range(steps + 1) if n * dt <= horizon]
    cuts = np.concatenate([full.ages, np.nextafter(full.ages, -np.inf),
                           [horizon, math.nextafter(horizon, 0.0)]])
    times += [float(c) for c in cuts if 0.0 <= c <= horizon]
    times = np.array(times)
    ends = np.minimum(np.round(times / dt), steps).astype(int)
    for hi in (ends, np.full(times.size, 100)):
        sizes_f, totals_f, scales_f = full.windows(times, hi)
        sizes_p, totals_p, scales_p = part.windows(times, hi)
        np.testing.assert_array_equal(sizes_p, sizes_f)
        np.testing.assert_array_equal(totals_p, totals_f)
        np.testing.assert_array_equal(scales_p, scales_f)
        # each window's anchors end at its step's node
        for n, m in zip(ends, sizes_f):
            np.testing.assert_array_equal(Bp[K + n - m: K + n],
                                          Bf[size + n - m: size + n])


@settings(max_examples=500, derandomize=True, deadline=None)
@given(dt=st.floats(1e-3, 1.0), k=st.integers(0, 200),
       ulps=st.integers(-2, 2))
def test_horizon_grid_counts_the_ages_below_the_support(dt, k, ulps):
    # horizons at and next to the ages' float values, where support / da
    # can round to the wrong side of an integer
    kernel = TruncatedExponential(1.0, 1.0, a_max=dt * (k + 10))
    horizon = dt * k
    for _ in range(abs(ulps)):
        horizon = math.nextafter(horizon, ulps * math.inf)
    ages = Memory(kernel, 1.0, dt, "rectangle").ages
    part = Memory(kernel, 1.0, dt, "rectangle", horizon)
    assert part.ages.size == max(int(np.sum(ages < horizon)), 1)
