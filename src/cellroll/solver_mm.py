"""Minimizing-movements time stepping for kinked (merely Lipschitz) potentials.

Each step minimizes a strongly convex incremental energy whose memory part
anchors at the already-computed nodes, one step behind the unknown. No
smoothness of psi is required: the minimizer is located by bisection on the
subgradient, which is strictly increasing in the step variable.
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
from .solver_smooth import SolverConfig

__all__ = ["StepEnergy", "minimize_step", "solve_mm", "step_energy"]


@dataclass
class StepEnergy:
    """One incremental minimization problem.

    E(w) = (w - previous)^2 / (2 dt)
         + eps * sum_j weights[j] * psi((w - anchors[j]) / eps)
         - drive * w

    with weights[j] = rho(a_j, t_n) * da >= 0 and anchors[j] the node value
    one-plus-j steps back. Strongly convex with modulus 1/dt.
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


def minimize_step(e: StepEnergy, tol: float = 1e-11) -> float:
    """Unique minimizer of ``e``, to |w - w*| <= tol.

    The first probe is the unconstrained quadratic center (the previous node),
    so sticking steps return after a single subgradient evaluation.
    """
    z, dt = float(e.previous), float(e.dt)
    mass = float(e.weights.sum()) if e.weights.size else 0.0
    L = e.psi.lipschitz_L
    if math.isfinite(L):
        r = dt * (abs(e.drive) + L * mass) + 1.0
    else:
        # force at the previous node is finite; widen until the bracket holds
        here = abs(float(np.dot(e.weights, e.psi.derivative((z - e.anchors) / e.eps))) if e.weights.size else 0.0)
        r = dt * (abs(e.drive) + here) + 1.0
        while e.subgrad_lo(z - r) > 0.0 or e.subgrad_hi(z + r) < 0.0:
            r *= 2.0
            if r > 1e18:
                raise NumericalError("minimizer bracket expansion failed")
    kinked = len(e.psi.breakpoints) > 0
    # probe the quadratic center first: sticking steps return immediately
    # and exactly, without accumulating bisection round-off
    if kinked and e.subgrad_lo(z) <= 0.0 <= e.subgrad_hi(z):
        return z
    lo, hi = z - r, z + r
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        g = e.subgrad_lo(mid)
        if kinked and g <= 0.0 <= e.subgrad_hi(mid):
            return mid
        if g > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _step(psi: Potential, memory: Memory, drive, values, n: int, dt: float,
          eps: float) -> StepEnergy:
    """E_n, whose anchors[j] = Z^{n-1-j} are the computed nodes alone."""
    t_n = n * dt
    weights = memory.weights(t_n, min(n, memory.ages.size))
    anchors = values[n - weights.size: n][::-1]
    return StepEnergy(psi, float(values[n - 1]), dt, float(drive(t_n)),
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
    drive = as_drive(v)
    Z = np.empty(n_steps + 1)
    Z[0] = float(past.eval(0.0))
    for n in range(1, n_steps + 1):
        Z[n] = minimize_step(_step(psi, memory, drive, Z, n, dt, eps))
        if not np.isfinite(Z[n]):
            raise NumericalError(f"minimizing movements diverged at t = {n * dt:.6g}")
    return Trajectory(dt, Z, eps=eps)


def step_energy(psi: Potential, kernel: Kernel, v, traj: Trajectory,
                n: int) -> StepEnergy:
    """Rebuild the incremental energy the solver minimized at step n >= 1.

    Lets audits check energy descent and the variational inequality on a
    finished trajectory without rerunning the solve.
    """
    if n < 1:
        raise ValueError("steps are numbered from 1")
    memory = Memory(kernel, traj.eps, traj.dt, "rectangle")
    return _step(psi, memory, as_drive(v), traj.values, n, traj.dt, traj.eps)
