"""The time grid, the age grid tied to it, and the memory window on it.

A solve on [0, T] takes T/dt steps of size dt. Bond ages sit on the grid
a_j = j * da, j = 0..J, with da = dt/eps, so the delayed position
z(t_n - eps*a_j) is the node value Z^{n-j} and needs no interpolation.
J = floor(a_max / da): no age lies beyond the kernel's truncation horizon.

Both delayed solvers keep their nodes in one buffer, B[J + n] = Z^n, with
the prescribed past z_p on B[:J + 1]. ``Memory`` stores the weights
q_j rho(a_j, t) of one quadrature rule oldest age first, so a window of ages
gives weights and anchors as two forward slices: a memory sum is one dot.
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
    """Tied age grid, node buffer and per-step memory windows for one kernel.

    ``rule`` is "trapezoid" (end weights da/2) or "rectangle" (every weight
    da). A kernel without a time ``modulation`` gets its weights q_j rho(a_j)
    once; a modulated kernel is evaluated once per time t, so a Heun
    corrector and the next predictor share one evaluation. When
    ``support(t)`` is below ``a_max`` (a kernel whose time dependence is an
    age cutoff), the window at time t stops before the first age
    a_j >= support(t). So a bond exactly t old is dropped here, although
    ``Kernel.eval`` counts it (a <= t).
    """

    def __init__(self, kernel: Kernel, eps: float, dt: float, rule: str):
        da = age_step(kernel, eps, dt)
        J = int(math.floor(kernel.a_max / da + 1e-9))
        self.kernel = kernel
        self.dt = dt
        self.ages = da * np.arange(J + 1)
        # the rule is symmetric in j, so it reads the same oldest first
        self._quad = np.full(J + 1, da)
        if rule == "trapezoid":
            self._quad[0] = self._quad[-1] = 0.5 * da
        self._static = None
        if kernel.modulation is None:
            self._static = self._quad * kernel.eval(self.ages[::-1], math.inf)
        self._last = (None, None)  # (t, all weights at t) of a modulated kernel
        # a_J is in a window iff the support passes this key: a_J < support,
        # or support >= a_max
        self._older, self._last_key = self.ages[:-1], min(
            self.ages[-1], math.nextafter(kernel.a_max, -math.inf))
        self._totals = {}  # lo -> ((age count, t or None), sum of the weights)

    def buffer(self, past, n_steps: int) -> np.ndarray:
        """Node buffer B with B[J + n] = Z^n and z_p(n dt) on B[:J + 1]."""
        J = self.ages.size - 1
        B = np.empty(J + n_steps + 1)
        B[:J + 1] = past.eval((np.arange(J + 1) - J) * self.dt)
        return B

    def weights(self, t: float) -> np.ndarray:
        """q_j rho(a_j, t) for all J + 1 ages, oldest first: one shared array
        for a kernel without modulation, else one evaluation per new t."""
        if self._static is not None:
            return self._static
        if self._last[0] != t:
            self._last = (t, self._quad * self.kernel.eval(self.ages[::-1], t))
        return self._last[1]

    def window(self, t: float, nodes, end: int, lo: int = 0):
        """Ages a_lo .. a_{m-1} at time t: weights, their sum, and anchors.

        Both arrays run oldest age first: the weights are one contiguous
        slice of ``weights(t)`` and the anchors the forward slice of
        ``nodes`` ending just before index ``end``, so age a_lo pairs with
        ``nodes[end - 1]``. The age count m is J + 1, cut by ``support(t)``.
        """
        size = m = self.ages.size
        if self.kernel.time_dependent:
            support = self.kernel.support(t)
            if support <= self._last_key:  # else every age is in
                m = self._age_count(support)
        w = self.weights(t)[size - m: size - lo]
        key = (m, None if self._static is not None else t)
        total = self._totals.get(lo)
        if total is None or total[0] != key:
            total = self._totals[lo] = (key, float(w.sum()))
        return w, total[1], nodes[end - w.size: end]

    def _age_count(self, support):
        """Ages in a window at kernel support ``support`` (a number or an
        array): every a_j < support, and all J + 1 once support reaches
        a_max."""
        return (np.searchsorted(self._older, support, side="left")
                + (support > self._last_key))

    def windows(self, times, hi):
        """Age counts m and weight totals (arrays) of the windows at
        ``times`` with counts capped by ``hi``: window i holds the last m[i]
        of ``weights(times[i])``, for any kernel.

        The support cut is applied to all times at once. Without modulation,
        every total is read off one cumulative sum of the weights, youngest
        age first, so none comes from a subtraction; a modulated kernel's
        totals are None, as its weights change with t.
        """
        size = self.ages.size
        m = np.minimum(hi, size)
        if self.kernel.time_dependent:
            support = np.array([self.kernel.support(t) for t in times])
            m = np.minimum(m, self._age_count(support))
        if self._static is None:
            return m, np.full(m.size, None)
        youngest = self._static[size - int(m.max(initial=0)):][::-1]
        totals = np.concatenate(([0.0], np.cumsum(youngest)))
        return m, totals[m]
