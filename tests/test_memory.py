"""The tied age grid, the node buffer and the memory window of the solvers."""
import numpy as np
import pytest

from cellroll.history import LinearPast
from cellroll.kernels import Exponential, Tabulated, TruncatedExponential
from cellroll.memory import Memory, step_count


class AgeCutTabulated(Tabulated):
    """A tabulated kernel whose only time dependence is the cutoff a <= t."""

    time_dependent = True

    def support(self, t):
        return min(float(t), self.a_max)


def weights(memory, t, lo=0, hi=None):
    """The window's weights at time t over a node array of index positions."""
    nodes = np.arange(memory.ages.size, dtype=float)
    w, total, anchors = memory.window(t, nodes, nodes.size - lo, lo, hi)
    assert total == w.sum()
    # oldest first: the anchor of the youngest age a_lo is the last node
    np.testing.assert_array_equal(anchors, nodes[nodes.size - lo - w.size:
                                                 nodes.size - lo])
    return w


def test_no_age_beyond_the_horizon():
    # a_max / da = 1000.5: the grid stops at the last age inside the support
    k = Exponential(1.0, 1.0, a_max=1.0005)
    for rule in ("trapezoid", "rectangle"):
        memory = Memory(k, 1.0, 1e-3, rule)
        assert memory.ages.size == 1001
        assert memory.ages[-1] <= k.a_max < memory.ages[-1] + 1e-3
        assert weights(memory, 0.0).size == 1001


def test_weights_run_oldest_first():
    k = Exponential(1.0, 1.0, a_max=1.0)
    memory = Memory(k, 2.0, 0.5, "rectangle")  # ages 0, 0.25, .., 1
    np.testing.assert_array_equal(
        weights(memory, 0.0), 0.25 * k.eval(memory.ages[::-1], 0.0))
    # lo drops the youngest ages, hi the oldest
    np.testing.assert_array_equal(weights(memory, 0.0, lo=1),
                                  weights(memory, 0.0)[:-1])
    np.testing.assert_array_equal(weights(memory, 0.0, hi=2),
                                  weights(memory, 0.0)[-2:])


def test_trapezoid_halves_only_the_end_weights():
    k = Exponential(1.0, 1.0, a_max=1.0)
    trap = weights(Memory(k, 2.0, 0.5, "trapezoid"), 0.0)
    rect = weights(Memory(k, 2.0, 0.5, "rectangle"), 0.0)
    assert list(trap / rect) == [0.5, 1.0, 1.0, 1.0, 0.5]


def test_truncated_weights_drop_the_bond_as_old_as_t():
    k = TruncatedExponential(1.0, 1.0)
    memory = Memory(k, 1.0, 0.25, "rectangle")
    assert k.eval(0.5, 0.5) > 0.0
    assert weights(memory, 0.5).size == 2  # ages 0 and 0.25
    assert weights(memory, 0.5, hi=1).size == 1
    assert weights(memory, 0.5, lo=1).size == 1
    assert weights(memory, 0.0).size == 0
    assert weights(memory, 0.0, lo=1).size == 0


def test_age_cutoff_kernel_gets_the_cut_static_weights():
    a, v = [0.0, 0.5, 1.0, 2.0], [1.0, 0.8, 0.5, 0.1]
    k = AgeCutTabulated(a, v)
    memory = Memory(k, 1.0, 0.25, "trapezoid")
    static = weights(Memory(Tabulated(a, v), 1.0, 0.25, "trapezoid"), 0.0)
    t = memory.ages[3]
    assert k.eval(t, t) > 0.0
    np.testing.assert_array_equal(weights(memory, t), static[-3:])
    np.testing.assert_array_equal(weights(memory, t, hi=2), static[-2:])
    np.testing.assert_array_equal(weights(memory, t, lo=1), static[-3:-1])
    np.testing.assert_array_equal(weights(memory, k.a_max), static)


def test_sum_follows_the_age_count():
    # the cached sum per lo is renewed when the window grows
    memory = Memory(TruncatedExponential(1.0, 1.0), 1.0, 0.25, "rectangle")
    for t in (0.5, 1.0, 0.5):
        weights(memory, t, lo=1)


@pytest.mark.parametrize("kernel", [
    Exponential(1.0, 1.0, a_max=1.0), TruncatedExponential(1.0, 1.0),
    AgeCutTabulated([0.0, 0.5, 1.0, 2.0], [1.0, 0.8, 0.5, 0.1])],
    ids=["exponential", "truncated", "age-cut-tabulated"])
@pytest.mark.parametrize("eps", [1.0, 0.5, 2.0])
def test_static_windows_match_the_window(kernel, eps):
    memory = Memory(kernel, eps, 0.25, "rectangle")
    steps = np.arange(1, 17)
    times = 0.25 * steps
    youngest_first = np.concatenate(([0.0], np.cumsum(memory._static[::-1])))
    for hi in (steps, np.full(steps.size, 100)):
        sizes, totals = memory.static_windows(times, hi)
        for t, cap, m, total in zip(times, hi, sizes, totals):
            w = weights(memory, t, hi=int(cap))
            assert m == w.size
            assert total == pytest.approx(w.sum(), rel=1e-15)
        # every total is read off one running sum, none is a difference
        np.testing.assert_array_equal(totals, youngest_first[sizes])


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
