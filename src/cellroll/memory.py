"""The time grid, the age grid tied to it, and the memory weights on it.

A solve on [0, T] takes T/dt steps of size dt. Bond ages sit on the grid
a_j = j * da, j = 0..J, with da = dt/eps, so the delayed position
z(t_n - eps*a_j) is the node value Z^{n-j} and needs no interpolation.
J = floor(a_max / da): no age lies beyond the kernel's truncation horizon.
``Memory`` holds that grid and hands each step the weights q_j rho(a_j, t)
of one quadrature rule; each solver pairs them with its own anchors.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .kernels import Kernel

__all__ = ["Memory", "age_step", "as_drive", "step_count"]


def step_count(T: float, dt: float) -> int:
    """Number of steps dt from 0 to T."""
    n = round(T / dt)
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
    """Tied age grid and per-step quadrature weights for one kernel.

    ``rule`` is "trapezoid" (end weights da/2) or "rectangle" (every weight
    da). A kernel without a time ``modulation`` gets its weights q_j rho(a_j)
    once; when ``support(t)`` is below ``a_max`` (a kernel whose time
    dependence is a pure age cutoff), the weights at time t stop before the
    first age a_j >= support(t). So a bond exactly t old is dropped here,
    although ``Kernel.eval`` counts it (a <= t). A modulated kernel is
    evaluated at every call of ``weights``; ``_oldest_first`` keeps the
    last time's weights, so a Heun corrector and the next predictor share
    one evaluation.
    """

    def __init__(self, kernel: Kernel, eps: float, dt: float, rule: str):
        da = age_step(kernel, eps, dt)
        J = int(math.floor(kernel.a_max / da + 1e-9))
        self.kernel = kernel
        self.ages = da * np.arange(J + 1)
        self._quad = np.full(J + 1, da)
        if rule == "trapezoid":
            self._quad[0] = self._quad[-1] = 0.5 * da
        self._static = None
        self._totals = {}  # lo -> (age count, sum of the static weights)
        self._last = (None, None)  # (t, all weights at t) of a modulated kernel
        if kernel.modulation is None:
            self._static = self._quad * kernel.eval(self.ages, math.inf)
        self._cut = kernel.time_dependent

    def weights(self, t: float, m: int | None = None):
        """Weights of ages a_0 .. a_{m-1} (all ages when m is None) at time t."""
        if self._static is None:
            return self._quad[:m] * self.kernel.eval(self.ages[:m], t)
        if self._cut:
            support = self.kernel.support(t)
            if support < self.kernel.a_max:
                cap = int(np.searchsorted(self.ages, support, side="left"))
                m = cap if m is None else min(m, cap)
        return self._static[:m]

    @functools.cached_property
    def _static_oldest(self):
        return self._static[::-1].copy()

    def _oldest_first(self, t: float, lo: int):
        """Weights of ages a_lo.. at time t, oldest first, and their sum.

        The weights come as one contiguous array, so paired with a forward
        slice of node values a memory sum is one BLAS dot. Static weights
        are reversed once, and a sum is kept per ``lo`` until the age count
        changes; a modulated kernel's weights are evaluated once per t.
        """
        if self._static is None:
            if self._last[0] != t:
                self._last = (t, self.weights(t))
            w = self._last[1][lo:][::-1].copy()
            return w, float(w.sum())
        m = self.weights(t).size
        w = self._static_oldest[self.ages.size - m: self.ages.size - lo]
        total = self._totals.get(lo)
        if total is None or total[0] != m:
            total = self._totals[lo] = (m, float(w.sum()))
        return w, total[1]
