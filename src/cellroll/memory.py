"""The time grid, the age grid tied to it, and the memory window on it.

A solve on [0, T] takes T/dt steps of size dt. Bond ages sit on the grid
a_j = j * da, j = 0..J, with da = dt/eps, so the delayed position
z(t_n - eps*a_j) is the node value Z^{n-j} and needs no interpolation.
J = floor(a_max / da): no age lies beyond the kernel's truncation horizon.

A run to time T stores only the ages its windows can read: those below
the kernel's support at T (all J + 1 once that reaches a_max), as the
support never shrinks. So with bonds no older than t, a short run holds
about T/da ages, not a_max/da. Both delayed solvers keep their nodes in one
buffer, B[K - 1 + n] = Z^n for K stored ages, with the prescribed past z_p
on B[:K]. ``Memory`` reads the kernel's static profile once and stores the
weights of one rule oldest age first, so a window of ages gives weights and
anchors as two forward slices: a memory sum is one dot, times the window's
modulation scale.
"""
from __future__ import annotations

import math

import numpy as np

from .kernels import Kernel

__all__ = ["Memory", "age_step", "as_drive", "step_count"]


# the most float64 nodes a numpy array can index; whether that many fit in
# memory is only known when the buffer is allocated
_MAX_NODES = np.iinfo(np.intp).max // np.dtype(float).itemsize


def step_count(T: float, dt: float) -> int:
    """Number of steps dt from 0 to T; checked before any buffer exists."""
    steps = T / dt
    if not (math.isfinite(steps) and steps < _MAX_NODES):
        raise ValueError(f"T/dt = {steps:.6g} steps exceed what an array can index")
    n = round(steps)
    if n < 1 or abs(n * dt - T) > 1e-9 * max(1.0, abs(T)):
        raise ValueError("T must be a positive integer multiple of dt")
    return n


def _age_grid(kernel: Kernel, eps: float, dt: float) -> tuple[float, int]:
    """The age step da and J = floor(a_max / da), the index of the oldest
    age inside the support; checked before any array exists."""
    da = age_step(kernel, eps, dt)
    ages = kernel.a_max / da if da > 0.0 else math.inf
    if not ages + 1.0 < _MAX_NODES:
        raise ValueError(f"a_max*eps/dt = {ages:.6g} ages exceed what an "
                         "array can index")
    return da, int(math.floor(ages + 1e-9))


def age_step(kernel: Kernel, eps: float, dt: float) -> float:
    """The age step dt/eps tied to the time step; at most the age support."""
    da = dt / eps
    if da > kernel.a_max:
        raise ValueError(
            "dt/eps exceeds the kernel age support; refine dt to tie the age grid"
        )
    return da


def as_drive(v):
    """The drive as a function of time; a number means a constant drive."""
    return v if callable(v) else (lambda t, _c=float(v): _c)


class Memory:
    """Tied age grid, node buffer and memory windows for one kernel.

    ``weights`` holds one weight per stored age, oldest first, read off
    the kernel's static profile once. The rule "trapezoid" gives
    q_j rho(a_j), with q_j = da, or da/2 at the grid's two ends. The rule
    "cells" gives the exact mass M(min(a_j + da, a_max)) - M(a_j) of the
    age cell behind a_j, M the profile's primitive, so the weights of all
    J + 1 ages sum to the static mass on [0, a_max] up to rounding.
    The kernel's time dependence enters a window in two ways. A
    modulated kernel scales every weight by ``modulation(t)``. A window
    whose kernel support s = ``support(t)`` is below ``a_max`` (a kernel
    whose time dependence is an age cutoff) holds the ages a_j < s by their
    float values. So a bond exactly t old is dropped here, although
    ``Kernel.eval`` counts it (a <= t). Once s >= a_max, it holds all
    J + 1 ages.

    Windows are asked for at times t <= ``horizon``. The grid stops where
    the window at the horizon does, by the same count, so it holds the
    ages a_0 .. a_{K-1} of that window, K >= 1; a static kernel keeps all
    J + 1. Every window, and every weight it reads, is the full grid's bit
    for bit: the trapezoid halves the oldest stored age only when the grid
    reaches a_J.
    """

    def __init__(self, kernel: Kernel, eps: float, dt: float, rule: str,
                 horizon: float = math.inf):
        da, J = _age_grid(kernel, eps, dt)
        size = J + 1
        if kernel.time_dependent:
            size = max(int(_window_sizes(kernel.support(horizon),
                                         kernel.a_max, da, size)), 1)
        self.kernel = kernel
        self.dt = dt
        self._da = da
        self.ages = da * np.arange(size)
        ages = self.ages[::-1]
        if rule == "cells":
            # the static primitive: a modulated kernel has no cummass at inf
            self.weights = (kernel._mass(np.minimum(ages + da, kernel.a_max))
                            - kernel._mass(ages))
        else:
            profile = kernel.profile(ages)
            self.weights = da * profile
            # the two ends, the oldest only where the grid reaches a_J
            for j in (0, -1) if size > J else (-1,):
                self.weights[j] = (0.5 * da) * profile[j]

    def buffer(self, past, n_steps: int) -> np.ndarray:
        """Node buffer B with B[K - 1 + n] = Z^n and z_p(n dt) on B[:K]."""
        K = self.ages.size
        B = np.empty(K + n_steps)
        B[:K] = past.eval((np.arange(K) - (K - 1)) * self.dt)
        return B

    def windows(self, times, hi):
        """Age counts m, weight totals and scales (arrays) of the windows at
        ``times``, with counts capped by ``hi`` (a number or an array).

        Window i holds the last m[i] of ``weights`` times scale[i], which is
        ``modulation(times[i])`` as the kernel checks it, or 1 for a kernel
        without modulation. The count rule is applied to all times of a
        time-dependent kernel at once, and every total is read off one
        cumulative sum of the weights, youngest age first, times its scale:
        none comes from a subtraction.
        """
        kernel, size = self.kernel, self.ages.size
        m = np.minimum(np.broadcast_to(hi, len(times)), size)
        if kernel.time_dependent:
            support = np.array([kernel.support(t) for t in times])
            m = np.minimum(m, _window_sizes(support, kernel.a_max, self._da,
                                            size))
        youngest = self.weights[size - int(m.max(initial=0)):][::-1]
        totals = np.concatenate(([0.0], np.cumsum(youngest)))[m]
        if kernel.modulation is None:
            return m, totals, np.ones(m.size)
        scales = np.array([kernel._modulated(1.0, t)
                           for t in np.asarray(times).tolist()], dtype=float)
        return m, totals * scales, scales


def _window_sizes(support, a_max: float, da: float, ages: int):
    """The window rule, for a grid of ``ages`` ages j * da: a window whose
    kernel support is ``support`` holds all of them once the support
    reaches a_max, and otherwise those below it by their float values.
    ``support`` may be an array; so is the result."""
    s = np.minimum(support, a_max)
    # the float ratio can put ceil one off either way
    n = np.ceil(s / da)
    n -= da * (n - 1.0) >= s
    n += da * n < s
    return np.where(support >= a_max, ages, np.clip(n, 0, ages)).astype(int)
