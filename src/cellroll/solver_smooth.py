"""Explicit time stepping of the delayed evolution with Lipschitz forces.

The age grid is tied to the time grid (da = dt/eps) so every delayed sample
z(t - eps*a_j) is a stored node value: the memory term needs no interpolation
and past-branch samples evaluate the prescribed history exactly.

Each force reads one ``Memory`` window of the node buffer, oldest age first.
It costs one dot over the J + 1 ages when psi' is the identity (quadratic
psi): the force is linear in the node values, so it is z_n W - w.Z with W
the total weight. Any other psi costs J + 1 evaluations of psi' per step.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .history import PastData, Trajectory
from .kernels import Kernel
from .memory import Memory, as_drive, step_count
from .potentials import Potential

__all__ = ["SolverConfig", "solve_smooth"]


@dataclass
class SolverConfig:
    """Grid and scheme choices for one solve.

    Parameters
    ----------
    eps : float
        Memory scale; eps = 1 recovers the unscaled evolution.
    T : float
        Final time, an integer multiple of dt.
    dt : float
        Time step; the age step is dt/eps.
    scheme : str
        "euler" (default) or "heun".
    """

    eps: float = 1.0
    T: float = 1.0
    dt: float = 1e-2
    scheme: str = "euler"

    def validated(self) -> "SolverConfig":
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if not self.T > 0:
            raise ValueError("T must be positive")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.scheme not in ("euler", "heun"):
            raise ValueError(f"unknown scheme {self.scheme!r}; use 'euler' or 'heun'")
        return self


def _reject_nonsmooth(psi: Potential):
    if len(psi.breakpoints) > 0:
        raise ValueError(
            "potential has subdifferential jumps; mollify it or use solve_mm"
        )
    if not np.isfinite(psi.lipschitz_Lprime):
        raise ValueError("psi' is not Lipschitz; use solve_mm")


def solve_smooth(psi: Potential, kernel: Kernel, v, past: PastData,
                 cfg: SolverConfig) -> Trajectory:
    """March Z^{n+1} = Z^n + dt (v - memory force) from the prescribed past.

    Parameters
    ----------
    psi : Potential
        Must have a Lipschitz derivative; kinked potentials are rejected.
    kernel : Kernel
        Age density rho(a, t); its a_max truncates the memory integral.
    v : callable or float
        Driving velocity v(t).
    past : PastData
        Trajectory on (-inf, 0]; supplies all pre-history samples.
    cfg : SolverConfig
        Grids and scheme.

    Returns
    -------
    Trajectory
        Node values on [0, T].
    """
    cfg = cfg.validated()
    _reject_nonsmooth(psi)
    eps, dt = float(cfg.eps), float(cfg.dt)
    n_steps = step_count(cfg.T, dt)
    memory = Memory(kernel, eps, dt, "trapezoid")
    J = memory.ages.size - 1
    drive = as_drive(v)
    # B[J + n] = Z^n, so z(t_n - eps a_j) = B[J + n - j]
    B = memory.buffer(past, n_steps)
    linear = psi._slope_is_identity

    def force(n, z_n, lo):
        # ages j >= lo at time t_n = n dt, anchored at position z_n; the
        # youngest of them, a_lo, pairs with Z^{n-lo}
        w, total, anchors = memory.window(n * dt, B, J + n + 1 - lo, lo)
        if w.size == 0:
            return 0.0
        if linear:
            # psi'(u) = u: sum_j w_j (z_n - anchor_j) / eps
            #           = (z_n W - w.anchors) / eps
            return (z_n * total - float(np.dot(w, anchors))) / eps
        return float(np.dot(w, psi.derivative((z_n - anchors) / eps)))

    # overflow shows up as a non-finite node, reported below as a blow-up
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            z_n = B[J + n]
            rate = drive(n * dt) - force(n, z_n, 0)
            z_next = z_n + dt * rate
            if cfg.scheme == "heun":
                # the age-0 term vanishes (zero stretch), so the corrector
                # force at t_{n+1} only needs already-stored nodes
                rate2 = drive((n + 1) * dt) - force(n + 1, z_next, 1)
                z_next = z_n + 0.5 * dt * (rate + rate2)
            if not np.isfinite(z_next):
                raise NumericalError(f"solution blew up at t = {(n + 1) * dt:.6g}")
            B[J + n + 1] = z_next

    return Trajectory(dt, B[J:].copy(), eps=eps)
