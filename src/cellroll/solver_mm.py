"""Minimizing-movements time stepping for kinked (merely Lipschitz) potentials.

Each step minimizes a strongly convex incremental energy whose memory part
anchors at the already-computed nodes, one step behind the unknown; it reads
them from the node buffer through one ``Memory`` window, oldest age first. No
smoothness of psi is required: the subgradient is strictly increasing in the
step variable with slope at least 1/dt (the modulus of strong convexity), so
its value at the previous node tells on which side of that node the root
lies. For piecewise-linear psi that probe has already summed every kink on
the other side, and one sorted sweep over the kinks on the root's side finds
it exactly. For any other psi the probe brackets the root, and the ITP
search that also solves the limit law closes the bracket.

A rolling step costs O(1). Each step carries its window's weight total Q;
every window's age count, total and modulation scale is computed for the
whole run up front. The probe at the previous node sees
the youngest stretch 0, so every stretch can lie past the outermost kink
only when psi has no kink but 0 (abs); for such psi each step also carries
its highest and lowest anchor, kept by two monotone deques (Lemire,
arXiv:cs/0610046). When every stretch lies past that kink, on the side the
step probes, the memory force is +-L*Q, with no pass over the anchors, and
no kink is left to sweep.
"""
from __future__ import annotations

import math
from collections import deque

import numpy as np

from .errors import NumericalError
from .history import PastData, Trajectory
from .kernels import Kernel
from .memory import Memory, as_drive, step_count
from .potentials import PiecewiseLinear, Potential
from .solver_limit import _increasing_root
from .solver_smooth import SolverConfig

__all__ = ["StepEnergy", "minimize_step", "solve_mm", "step_energy"]


class StepEnergy:
    """One incremental minimization problem.

    E(w) = (w - previous)^2 / (2 dt)
         + eps * sum_j weights[j] * psi((w - anchors[j]) / eps)
         - drive * w

    with weights[j] >= 0 the bond mass at t_n of the age cell behind one age
    a and anchors[j] its node one step behind z(t_n - eps*a): oldest age
    first, paired index by index. Strongly convex with modulus 1/dt.

    ``total`` is the sum of the weights, and ``anchor_max``/``anchor_min``
    bound the anchors from above and below; left out, they are computed
    from the arrays, the bounds as the extreme anchors (-inf/+inf for no
    anchor). For piecewise-linear psi they give the subgradient in O(1)
    when every stretch u_j = (w - anchors[j])/eps lies at or beyond the
    outermost kink on the side asked for, where psi'(u_j) = +-L. The test
    computes the extreme u_j from the bound with the same float operations
    as u, so with the extremes as bounds it holds exactly when every u_j
    clears the kink; +-inf bounds turn it off wherever psi has a kink.
    """

    def __init__(self, psi: Potential, previous: float, dt: float,
                 drive: float, weights: np.ndarray, anchors: np.ndarray,
                 eps: float = 1.0, total: float | None = None,
                 anchor_max: float | None = None,
                 anchor_min: float | None = None):
        self.psi = psi
        self.previous = previous
        self.dt = dt
        self.drive = drive
        self.weights = weights
        self.anchors = anchors
        self.eps = eps
        self.total = float(np.sum(weights) if total is None else total)
        self.anchor_max = anchor_max
        self.anchor_min = anchor_min
        if self.anchor_max is None:
            self.anchor_max = float(np.max(self.anchors, initial=-math.inf))
        if self.anchor_min is None:
            self.anchor_min = float(np.min(self.anchors, initial=math.inf))

    def value(self, w: float) -> float:
        u = (w - self.anchors) / self.eps
        mem = self.eps * float(np.dot(self.weights, self.psi.value(u)))
        return (w - self.previous) ** 2 / (2.0 * self.dt) + mem - self.drive * w

    def subgrad_lo(self, w: float) -> float:
        if _past_kinks(self, w, False):
            mem = -self.psi.lipschitz_L * self.total
        else:
            u = (w - self.anchors) / self.eps
            mem = float(np.dot(self.weights, self.psi.subdiff_lo(u)))
        return (w - self.previous) / self.dt + mem - self.drive

    def subgrad_hi(self, w: float) -> float:
        if _past_kinks(self, w, True):
            mem = self.psi.lipschitz_L * self.total
        else:
            u = (w - self.anchors) / self.eps
            mem = float(np.dot(self.weights, self.psi.subdiff_hi(u)))
        return (w - self.previous) / self.dt + mem - self.drive


def _past_kinks(e: StepEnergy, w: float, up: bool) -> bool:
    """Whether psi is piecewise linear and every stretch (w - anchors)/eps
    is at or above its highest kink (``up``), or at or below its lowest.

    A NaN stretch clears no kink; with no kink at all, psi = 0.
    """
    if not isinstance(e.psi, PiecewiseLinear):
        return False
    kinks = e.psi.breakpoints  # the kink table's, as floats
    if not kinks:
        return True
    if up:
        return (w - e.anchor_max) / e.eps >= kinks[-1]
    return (w - e.anchor_min) / e.eps <= kinks[0]


def minimize_step(e: StepEnergy) -> float:
    """Unique minimizer of ``e``; the form of psi chooses the method.

    Either way the first probe is the subgradient at the unconstrained
    quadratic center (the previous node z), so a stuck step returns z
    exactly, and the slope bound 1/dt puts the root within dt*|g(z)| of z,
    on the side where g changes sign.

    * ``PiecewiseLinear`` psi, ``AbsoluteValue`` included: the
      subgradient is piecewise linear in w with kinks at anchors + eps * k.
      The probe at z sums every kink on the far side of z from the root,
      so one sorted sweep over the kinks on the root's side finds it
      exactly. When every stretch at z lies past the outermost kink on the
      probe's side, the probe reads only the carried weight total, and the
      sweep has no kink to sort: the step is O(1).
    * any other psi: ITP closes the bracket to 1e-11, or to adjacent floats
      where their spacing is wider.
    """
    z = float(e.previous)
    if not isinstance(e.psi, PiecewiseLinear):
        one = len(e.psi.breakpoints) == 0  # then subdiff_hi = subdiff_lo
        g = lambda w: (s := e.subgrad_lo(w), s if one else e.subgrad_hi(w))
        return _increasing_root(g, z, float(e.dt), 1e-11)
    y = e.subgrad_hi(z)
    if y >= 0.0:
        y = e.subgrad_lo(z)
        if y <= 0.0:
            return z
    return _kink_sweep(e, y)


def _kink_sweep(e: StepEnergy, y: float) -> float:
    """Root of the piecewise-linear subgradient g from its probe y at z.

    g(w) = (w - z)/dt - drive - L*Q + sum_{j,k} q_j ds_k H(w - a_j - eps k)
    is strictly increasing. y < 0 is g_hi(z), which counts the kinks with
    u_j >= k, u = (z - anchors)/eps; the root lies above z, so the kinks
    left to sweep are those with u_j < k. y > 0 is g_lo(z), which counts
    the kinks with u_j > k; the root lies below z, so those are the kinks
    to sweep. The comparison is the probe's own, so a rounding tie is
    counted exactly once. With no such kink, g is linear on that side: the
    extreme anchor tells so before any pass over the anchors.
    """
    kinks, jumps = e.psi.kinks, e.psi.jumps
    dt = float(e.dt)
    z = float(e.previous)
    up = y < 0.0
    if _past_kinks(e, z, up):
        return z - dt * y
    u = ((z - e.anchors) / e.eps)[:, None]
    j, k = np.nonzero(u < kinks if up else u > kinks)
    p = e.anchors[j] + e.eps * kinks[k]
    order = np.argsort(p)
    p = p[order]
    cum = np.concatenate(([0.0], np.cumsum(e.weights[j[order]] * jumps[k[order]])))
    # below the swept kinks g lacks their weight, which g_lo(z) counted
    base = y if up else y - cum[-1]
    # i: the first point at which the running upper subgradient reaches 0.
    # If p[i] ties with p[i-1], g_lo(p[i]) is at most the running value at
    # i - 1, which is < 0, so p[i] is the root; otherwise cum[i] is exactly
    # the weight strictly below p[i]. Either way ties need no grouping.
    i = int(np.searchsorted((p - z) / dt + base + cum[1:], 0.0))
    if i < p.size and (p[i] - z) / dt + base + cum[i] <= 0.0:
        return float(p[i])
    # the root lies in the open interval just below p[i], where g is linear
    return float(z - dt * (base + cum[i]))


class _SlidingExtrema:
    """Highest and lowest of values[start:end] as the window slides.

    Two monotone deques of (index, value) pairs (Lemire): each index enters
    and leaves each deque at most once while both ends move forward, so a
    slide costs O(1) amortised. A value is read when it enters, so it must
    be final by then. A start that moves back adds older values at the
    front, where a value that is not a new extreme can never become one.
    That backward slide is unreached while ``solve_mm`` caps its windows at
    Z^0, where a window grows by at most one age per step: the cap grows by
    one, and the cut a < t by at most one where it binds (eps <= 1). It
    stays for windows that also read the prescribed past: there the cut
    a < t grows by about eps ages per step, until it runs on the age grid's
    own clock n * da.
    """

    def __init__(self, values, start: int):
        self.values = values
        self.start = self.end = start
        self.high = deque()  # strictly falling values
        self.low = deque()  # strictly rising values

    def slide(self, start: int, end: int):
        """(max, min) of values[start:end]; (-inf, inf) when it is empty."""
        v, high, low = self.values, self.high, self.low
        for i in range(self.end, end):
            x = float(v[i])
            while high and high[-1][1] <= x:
                high.pop()
            high.append((i, x))
            while low and low[-1][1] >= x:
                low.pop()
            low.append((i, x))
        while high and high[0][0] < start:
            high.popleft()
        while low and low[0][0] < start:
            low.popleft()
        for i in range(self.start - 1, start - 1, -1):
            x = float(v[i])
            if not high or x > high[0][1]:
                high.appendleft((i, x))
            if not low or x < low[0][1]:
                low.appendleft((i, x))
        self.start, self.end = start, end
        return (high[0][1] if high else -math.inf,
                low[0][1] if low else math.inf)


def _steps(psi: Potential, memory: Memory, drive, nodes, origin: int,
           first: int, last: int, dt: float, eps: float):
    """E_first .. E_last from nodes[origin + k] = Z^k; E_n anchors at
    Z^{n-m} .. Z^{n-1}, and is built when asked for, so Z^{n-1} must be in
    ``nodes`` by then.

    Every step takes its age count m, weight total and scale from one
    ``Memory.windows`` call, and its weights as the last m of
    ``Memory.weights``, times the scale only for a modulated kernel. The
    youngest anchor is Z^{n-1}, whose stretch at the probe is 0, so only a
    psi with no kink but 0 can find every stretch past its outermost kink
    there; only for such psi are the extreme anchors kept, and any other psi
    gets the bounds +-inf.
    """
    steps = np.arange(first, last + 1)
    # hi = n keeps the anchors at computed nodes, so bonds older than t_n
    # carry no force: the known gap to the prescribed past z_p
    sizes, totals, scales = memory.windows(steps * dt, steps)
    size, weights = memory.ages.size, memory.weights
    modulated = memory.kernel.modulation is not None
    extrema = None
    if isinstance(psi, PiecewiseLinear) and set(psi.breakpoints) <= {0.0}:
        extrema = _SlidingExtrema(nodes, origin)
    top, bottom = math.inf, -math.inf
    for n, m, total, scale in zip(range(first, last + 1), map(int, sizes),
                                  totals, scales):
        end = origin + n
        if extrema is not None:
            top, bottom = extrema.slide(end - m, end)
        w = weights[size - m:]
        yield StepEnergy(psi, float(nodes[end - 1]), dt, float(drive(n * dt)),
                         w * scale if modulated else w, nodes[end - m: end],
                         eps, total, top, bottom)


def _reject_unbounded(psi: Potential):
    if not math.isfinite(psi.lipschitz_L) and not math.isfinite(psi.lipschitz_Lprime):
        raise ValueError("psi' is unbounded with no Lipschitz derivative; no solver applies")


def solve_mm(psi: Potential, kernel: Kernel, v, past: PastData,
             cfg: SolverConfig) -> Trajectory:
    """Advance Z^n = argmin E_n from Z^0 = past(0).

    Parameters
    ----------
    psi : Potential
        Convex; kinks are handled exactly. Globally Lipschitz psi gives the
        a priori velocity bound |zdot| <= sup|v| + L * (sum of the weights).
    kernel : Kernel
        Age density; its a_max caps the memory window.
    v : callable or float
        Drive, evaluated at the current step time t_n.
    past : PastData
        Supplies the starting node; the memory sum anchors only at computed
        nodes, so bonds predating t = 0 carry no force here.
    cfg : SolverConfig
        Same grid contract as the smooth solver (age step dt/eps). Each
        step is one implicit minimization, so the scheme must be "euler".

    Returns
    -------
    Trajectory
    """
    cfg = cfg.validated()
    if cfg.scheme != "euler":
        raise ValueError(f"solve_mm has no {cfg.scheme!r} scheme; use 'euler'")
    _reject_unbounded(psi)
    eps, dt = float(cfg.eps), float(cfg.dt)
    n_steps = step_count(cfg.T, dt)
    memory = Memory(kernel, eps, dt, "cells", n_steps * dt)
    J = memory.ages.size - 1
    drive = as_drive(v)
    B = memory.buffer(past, n_steps)  # B[J + n] = Z^n
    steps = _steps(psi, memory, drive, B, J, 1, n_steps, dt, eps)
    for n, e in enumerate(steps, start=1):
        B[J + n] = minimize_step(e)
        if not math.isfinite(B[J + n]):
            raise NumericalError(f"minimizing movements diverged at t = {n * dt:.6g}")
    return Trajectory(dt, B[J:].copy(), eps=eps)


def step_energy(psi: Potential, kernel: Kernel, v, traj: Trajectory,
                n: int) -> StepEnergy:
    """Rebuild the incremental energy the solver minimized at step n >= 1.

    Lets audits check energy descent and the variational inequality on a
    finished trajectory without rerunning the solve.
    """
    if not 1 <= n < traj.values.size:
        raise ValueError(f"steps run from 1 to {traj.values.size - 1}")
    memory = Memory(kernel, traj.eps, traj.dt, "cells", n * traj.dt)
    return next(_steps(psi, memory, as_drive(v), traj.values, 0, n, n,
                       traj.dt, traj.eps))
