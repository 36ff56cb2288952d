"""Explicit time stepping of the delayed evolution with Lipschitz forces.

The age grid is tied to the time grid (da = dt/eps) so every delayed sample
z(t - eps*a_j) is a stored node value: the memory term needs no interpolation
and past-branch samples evaluate the prescribed history exactly.

Each force reads one ``Memory`` window of the node buffer, oldest age first,
with its modulation scale s from one ``Memory.windows`` call per run. For
``Quadratic`` psi (psi' the identity) the force is s w.(z_n - Z) / eps. On
an ``Exponential`` kernel it costs O(1) per step, with no run-wide array: a
running sum of the stretches, seeded by one dot and advanced by the step
ratio r = e^{-zeta da}, which agrees with the per-age sum to 1e-12 (4e-14 at
most in the tests, over up to 50 memory lengths). On any other kernel it
costs one subtraction and one dot over the J + 1 ages. Any other psi costs
J + 1 evaluations of psi' per step. Both tests are on the exact type, so a
subclass that redefines psi' or the profile takes the general path. Heun's
corrector reads the window at t_{n+1} with the predictor written into the
buffer as Z^{n+1}. The step loop reads and writes nodes through a
memoryview of the buffer, so each step is Python-float arithmetic: IEEE +,
-, *, / give the same bits as on float64 scalars, at a fraction of their
cost.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError
from .history import PastData, Trajectory
from .kernels import Exponential, Kernel
from .memory import Memory, as_drive, step_count
from .potentials import Potential, Quadratic

__all__ = ["SolverConfig", "solve_smooth"]


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

    def __init__(self, eps: float = 1.0, T: float = 1.0, dt: float = 1e-2,
                 scheme: str = "euler"):
        self.eps = eps
        self.T = T
        self.dt = dt
        self.scheme = scheme

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


def _running_force(memory: Memory, B, eps: float, r: float):
    """``force`` for psi' = id on a static exponential kernel, O(1) per step.

    It carries the stretch sum D_n = sum_j w_j (Z^n - Z^{n-j}) over ages
    0..J, seeded by one dot at n = 0. Ages 1..J at t_n are ages 0..J-1 at
    t_{n-1} one step older, so their weights are r times as large, except
    that the trapezoid halves the oldest; age 0 carries no stretch. Less
    age J of t_{n-1} and half of age J at t_n, the sum over ages 1..J at
    t_n measured from z is
        W' (z - Z^{n-1}) + r D_{n-1}
            - w_J ((Z^{n-1} - Z^{n-J}) + r (Z^{n-1} - Z^{n-1-J})),
    with W' the weight of ages 1..J. It is eps times the force at z, and
    D_n at z = Z^n; a ``trial`` z (Heun's predictor) leaves D_{n-1} in
    place. Only node differences enter, so a constant history stays put.
    Steps must be asked for in order. Nodes are read through a memoryview
    of B, as Python floats.
    """
    J, nodes, w = memory.ages.size - 1, memoryview(B), memory.weights
    total, total_older = float(w.sum()), float(w[:-1].sum())
    w_old = float(w[0])
    D, at = nodes[J] * total - float(np.dot(w, B[:J + 1])), 0

    def force(n, z_n, trial=False):
        nonlocal D, at
        if at == n:
            return D / eps
        z_prev = nodes[J + n - 1]
        d = (total_older * (z_n - z_prev) + r * D
             - w_old * ((z_prev - nodes[n]) + r * (z_prev - nodes[n - 1])))
        if not trial:
            D, at = d, n
        return d / eps

    return force


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
    memory = Memory(kernel, eps, dt, "trapezoid", n_steps * dt)
    J = memory.ages.size - 1
    drive = as_drive(v)
    # B[J + n] = Z^n, so z(t_n - eps a_j) = B[J + n - j]
    B = memory.buffer(past, n_steps)
    nodes = memoryview(B)  # the same nodes, read as Python floats
    linear = type(psi) is Quadratic
    heun = cfg.scheme == "heun"

    if linear and type(kernel) is Exponential:
        # the step ratio r = e^{-zeta da} of the weights, da = dt/eps
        force = _running_force(memory, B, eps, math.exp(-kernel.zeta * (dt / eps)))
    else:
        # the windows at t_0 .. t_{n_steps - 1}, and t_{n_steps} for Heun
        times = dt * np.arange(n_steps + heun)
        sizes, _, scales = memory.windows(times, J + 1)

        def force(n, z_n, trial=False):
            # the window at t_n = n dt, anchored at Z^n = z_n: its youngest
            # age a_0 pairs with Z^n, so a trial z_n must be in B already
            m = int(sizes[n])
            w = memory.weights[J + 1 - m:]
            anchors = B[J + n + 1 - m: J + n + 1]
            if linear:
                # psi'(u) = u: one dot of the stretches, with no total W
                # whose rounding z_n W - w.anchors would magnify
                return float(scales[n]) * float(np.dot(w, z_n - anchors)) / eps
            return float(scales[n]) * float(
                np.dot(w, psi.derivative((z_n - anchors) / eps)))

    v_n = drive(0.0)
    # overflow shows up as a non-finite node, reported below as a blow-up
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            z_n = nodes[J + n]
            if n and not heun:
                v_n = drive(n * dt)
            rate = v_n - force(n, z_n)
            z_next = z_n + dt * rate
            if heun:
                # the corrector reads the window at t_{n+1} anchored at the
                # predictor, whose age-0 stretch is 0; the next predictor
                # reuses the drive at t_{n+1}
                nodes[J + n + 1] = z_next
                v_n = drive((n + 1) * dt)
                rate2 = v_n - force(n + 1, z_next, True)
                z_next = z_n + 0.5 * dt * (rate + rate2)
            if not math.isfinite(z_next):
                raise NumericalError(f"solution blew up at t = {(n + 1) * dt:.6g}")
            nodes[J + n + 1] = z_next

    return Trajectory(dt, B[J:].copy(), eps=eps)
