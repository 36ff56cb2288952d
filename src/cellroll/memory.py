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
on B[:K]. ``Memory`` reads the kernel's profile once and stores the weights
q_j rho(a_j) of one quadrature rule oldest age first, so a window of ages
gives weights and anchors as two forward slices: a memory sum is one dot,
times the window's modulation scale.
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

    ``weights`` holds q_j rho(a_j) for the stored ages, oldest first: the
    kernel's ``profile`` read once, times the rule's q_j, which is da, or
    da/2 at the trapezoid's two ends ("trapezoid"; "rectangle" halves
    none). The kernel's time dependence enters a window in two ways. A
    modulated kernel scales every weight by ``modulation(t)``. When
    ``support(t)`` is below ``a_max`` (a kernel whose time dependence is an
    age cutoff), the window at time t stops before the first age
    a_j >= support(t). So a bond exactly t old is dropped here, although
    ``Kernel.eval`` counts it (a <= t).

    Windows are asked for at times t <= ``horizon``. The grid stops where
    the window at the horizon does, so it holds the ages a_0 .. a_{K-1}
    below ``support(horizon)``, K >= 1, or all J + 1 when that window holds
    them all; a time-independent support keeps them all. Every window, and
    every weight it reads, is the full grid's bit for bit: the trapezoid
    halves the oldest stored age only when the grid reaches a_J.
    """

    def __init__(self, kernel: Kernel, eps: float, dt: float, rule: str,
                 horizon: float = math.inf):
        da, J = _age_grid(kernel, eps, dt)
        # a_J is in a window iff the support passes this key: a_J < support,
        # or support >= a_max
        key = min(da * J, math.nextafter(kernel.a_max, -math.inf))
        support = kernel.support(horizon)
        size = J + 1 if support > key else max(_ages_below(support, da), 1)
        self.kernel = kernel
        self.dt = dt
        self.ages = da * np.arange(size)
        # below the full grid no window reaches the key, so every count is
        # the ages under the support
        self._older, self._last_key = ((self.ages[:-1], key) if size > J
                                       else (self.ages, math.inf))
        profile = kernel.profile(self.ages[::-1])
        self.weights = da * profile
        if rule == "trapezoid":
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
        ``modulation(times[i])``, or 1 for a kernel without modulation. The
        support cut is applied to all times at once, and every total is read
        off one cumulative sum of the weights, youngest age first, times its
        scale: none comes from a subtraction.
        """
        size = self.ages.size
        m = np.minimum(np.broadcast_to(hi, len(times)), size)
        if self.kernel.time_dependent:
            # every a_j < support, and all J + 1 once support reaches a_max
            support = np.array([self.kernel.support(t) for t in times])
            m = np.minimum(m, np.searchsorted(self._older, support)
                           + (support > self._last_key))
        youngest = self.weights[size - int(m.max(initial=0)):][::-1]
        totals = np.concatenate(([0.0], np.cumsum(youngest)))[m]
        modulation = self.kernel.modulation
        if modulation is None:
            return m, totals, np.ones(m.size)
        scales = np.array([modulation(t) for t in np.asarray(times).tolist()],
                          dtype=float)
        return m, totals * scales, scales


def _ages_below(support: float, da: float) -> int:
    """How many ages j * da lie below ``support``, by their float values."""
    if not support > 0.0:
        return 0
    n = math.ceil(support / da)
    while n and da * (n - 1) >= support:
        n -= 1
    while da * n < support:
        n += 1
    return n
