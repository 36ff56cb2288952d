"""Minimizing-movements time stepping for kinked (merely Lipschitz) potentials.

Each step minimizes a strongly convex incremental energy whose memory part
anchors at the already-computed nodes, one step behind the unknown; it reads
them from the node buffer through one ``Memory`` window, oldest age first. No
smoothness of psi is required: the subgradient is strictly increasing in the
step variable, and its root is found by one sorted sweep over the kinks for
piecewise-linear psi. For any other psi, the strong convexity of the step
(modulus 1/dt) brackets the root from the subgradient at the previous node,
and the ITP search that also solves the limit law closes that bracket.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .history import PastData, Trajectory
from .kernels import Kernel
from .memory import Memory, as_drive, step_count
from .potentials import Potential
from .solver_limit import _increasing_root
from .solver_smooth import SolverConfig

__all__ = ["StepEnergy", "minimize_step", "solve_mm", "step_energy"]


@dataclass
class StepEnergy:
    """One incremental minimization problem.

    E(w) = (w - previous)^2 / (2 dt)
         + eps * sum_j weights[j] * psi((w - anchors[j]) / eps)
         - drive * w

    with weights[j] = rho(a, t_n) * da >= 0 for one age a and anchors[j] its
    node one step behind z(t_n - eps*a): oldest age first, paired index by
    index. Strongly convex with modulus 1/dt.
    """

    psi: Potential
    previous: float
    dt: float
    drive: float
    weights: np.ndarray
    anchors: np.ndarray
    eps: float = 1.0

    def value(self, w: float) -> float:
        u = (w - self.anchors) / self.eps
        mem = self.eps * float(np.dot(self.weights, self.psi.value(u)))
        return (w - self.previous) ** 2 / (2.0 * self.dt) + mem - self.drive * w

    def subgrad_lo(self, w: float) -> float:
        u = (w - self.anchors) / self.eps
        mem = float(np.dot(self.weights, self.psi.subdiff_lo(u)))
        return (w - self.previous) / self.dt + mem - self.drive

    def subgrad_hi(self, w: float) -> float:
        u = (w - self.anchors) / self.eps
        mem = float(np.dot(self.weights, self.psi.subdiff_hi(u)))
        return (w - self.previous) / self.dt + mem - self.drive


def minimize_step(e: StepEnergy) -> float:
    """Unique minimizer of ``e``; the form of psi chooses the method.

    * piecewise-linear psi (``AbsoluteValue``, ``PiecewiseLinear``): the
      subgradient is piecewise linear in w with kinks at anchors + eps * k,
      so one sorted sweep over the kinks finds the root exactly.
    * any other psi: the subgradient has slope at least 1/dt, which brackets
      its root from its value at the previous node; ITP closes the bracket
      to 1e-11, or to adjacent floats where their spacing is wider.

    Either way the first probe is the unconstrained quadratic center (the
    previous node), so sticking steps return that node exactly.
    """
    z = float(e.previous)
    if not hasattr(e.psi, "_half_line_form"):
        one = len(e.psi.breakpoints) == 0  # then subdiff_hi = subdiff_lo
        g = lambda w: (s := e.subgrad_lo(w), s if one else e.subgrad_hi(w))
        return _increasing_root(g, z, float(e.dt), 1e-11)
    if e.subgrad_lo(z) <= 0.0 <= e.subgrad_hi(z):
        return z
    return _kink_sweep(e)


def _kink_sweep(e: StepEnergy) -> float:
    """Root of the piecewise-linear subgradient by one sorted sweep.

    g(w) = (w - prev)/dt - drive - L*Q + sum_{j,k} q_j ds_k H(w - a_j - eps k)
    is strictly increasing. At a kink point p, g_lo(p) counts the weight of
    the points strictly below p and g_hi(p) all weight up to p, ties included.
    """
    kinks, jumps, L = e.psi._full_line_kinks
    dt = float(e.dt)
    points = (e.anchors[:, None] + e.eps * kinks).ravel()
    order = np.argsort(points)
    p = points[order]
    weights = (e.weights[:, None] * jumps).ravel()[order]
    cum = np.concatenate(([0.0], np.cumsum(weights)))
    base = -float(e.drive) - L * float(e.weights.sum())
    # i: the first point at which the running upper subgradient reaches 0.
    # If p[i] ties with p[i-1], g_lo(p[i]) is at most the running value at
    # i - 1, which is < 0, so p[i] is the root; otherwise cum[i] is exactly
    # the weight strictly below p[i]. Either way ties need no grouping.
    i = int(np.searchsorted((p - e.previous) / dt + base + cum[1:], 0.0))
    if i < p.size and (p[i] - e.previous) / dt + base + cum[i] <= 0.0:
        return float(p[i])
    # the root lies in the open interval just below p[i], where g is linear
    return float(e.previous - dt * (base + cum[i]))


def _step(psi: Potential, memory: Memory, drive, nodes, origin: int, n: int,
          dt: float, eps: float) -> StepEnergy:
    """E_n from nodes[origin + k] = Z^k; anchors Z^{n-m} .. Z^{n-1}."""
    t_n = n * dt
    # hi = n keeps the anchors at computed nodes, so bonds older than t_n
    # carry no force: the known gap to the prescribed past z_p
    weights, _, anchors = memory.window(t_n, nodes, origin + n, hi=n)
    return StepEnergy(psi, float(nodes[origin + n - 1]), dt, float(drive(t_n)),
                      weights, anchors, eps)


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
        a priori velocity bound |zdot| <= sup|v| + L * moment0.
    kernel : Kernel
        Age density; its a_max caps the memory window.
    v : callable or float
        Drive, evaluated at the current step time t_n.
    past : PastData
        Supplies the starting node; the memory sum anchors only at computed
        nodes, so bonds predating t = 0 carry no force here.
    cfg : SolverConfig
        Same grid contract as the smooth solver (age step dt/eps).

    Returns
    -------
    Trajectory
    """
    cfg = cfg.validated()
    _reject_unbounded(psi)
    eps, dt = float(cfg.eps), float(cfg.dt)
    n_steps = step_count(cfg.T, dt)
    memory = Memory(kernel, eps, dt, "rectangle")
    J = memory.ages.size - 1
    drive = as_drive(v)
    B = memory.buffer(past, n_steps)  # B[J + n] = Z^n
    for n in range(1, n_steps + 1):
        B[J + n] = minimize_step(_step(psi, memory, drive, B, J, n, dt, eps))
        if not np.isfinite(B[J + n]):
            raise NumericalError(f"minimizing movements diverged at t = {n * dt:.6g}")
    return Trajectory(dt, B[J:].copy(), eps=eps)


def step_energy(psi: Potential, kernel: Kernel, v, traj: Trajectory,
                n: int) -> StepEnergy:
    """Rebuild the incremental energy the solver minimized at step n >= 1.

    Lets audits check energy descent and the variational inequality on a
    finished trajectory without rerunning the solve.
    """
    if n < 1:
        raise ValueError("steps are numbered from 1")
    memory = Memory(kernel, traj.eps, traj.dt, "rectangle")
    return _step(psi, memory, as_drive(v), traj.values, 0, n, traj.dt, traj.eps)
