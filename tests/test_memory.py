"""The tied age grid and the per-step memory weights shared by the solvers."""
import numpy as np

from cellroll.kernels import Exponential, Tabulated, TruncatedExponential
from cellroll.memory import Memory


class AgeCutTabulated(Tabulated):
    """A tabulated kernel whose only time dependence is the cutoff a <= t."""

    time_dependent = True

    def support(self, t):
        return min(float(t), self.a_max)


def test_no_age_beyond_the_horizon():
    # a_max / da = 1000.5: the grid stops at the last age inside the support
    k = Exponential(1.0, 1.0, a_max=1.0005)
    for rule in ("trapezoid", "rectangle"):
        ages = Memory(k, 1.0, 1e-3, rule).ages
        assert ages.size == 1001
        assert ages[-1] <= k.a_max < ages[-1] + 1e-3


def test_trapezoid_halves_only_the_end_weights():
    k = Exponential(1.0, 1.0, a_max=1.0)
    trap = Memory(k, 2.0, 0.5, "trapezoid").weights(0.0)
    rect = Memory(k, 2.0, 0.5, "rectangle").weights(0.0)
    assert list(trap / rect) == [0.5, 1.0, 1.0, 1.0, 0.5]


def test_truncated_weights_drop_the_bond_as_old_as_t():
    k = TruncatedExponential(1.0, 1.0)
    memory = Memory(k, 1.0, 0.25, "rectangle")
    assert k.eval(0.5, 0.5) > 0.0
    assert memory.weights(0.5).size == 2  # ages 0 and 0.25
    assert memory.weights(0.5, 1).size == 1
    assert memory.weights(0.0).size == 0


def test_age_cutoff_kernel_gets_the_cut_static_weights():
    a, v = [0.0, 0.5, 1.0, 2.0], [1.0, 0.8, 0.5, 0.1]
    k = AgeCutTabulated(a, v)
    memory = Memory(k, 1.0, 0.25, "trapezoid")
    static = Memory(Tabulated(a, v), 1.0, 0.25, "trapezoid").weights(0.0)
    t = memory.ages[3]
    assert k.eval(t, t) > 0.0
    np.testing.assert_array_equal(memory.weights(t), static[:3])
    np.testing.assert_array_equal(memory.weights(t, 2), static[:2])
    np.testing.assert_array_equal(memory.weights(k.a_max), static)
