"""Prescribed past data on (-inf, 0], computed trajectories, and CSV output.

The model needs delayed positions z(t - eps*a) for every bond age a. The
delayed solvers read them from one node buffer (``Memory.buffer``), whose
prefix before t = 0 is filled from the prescribed z_p; a finished
``Trajectory`` holds only the nodes on [0, T].
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "PastData",
    "ConstantPast",
    "LinearPast",
    "TabulatedPast",
    "Trajectory",
]


class PastData:
    """Base class for z_p; bounded and Lipschitz per the model assumptions.

    ``bound`` may be ``math.inf`` (a linear past is unbounded on (-inf, 0]);
    the stability checks that use it simply require bounded instances.
    """

    bound: float

    def eval(self, tau):
        raise NotImplementedError


class ConstantPast(PastData):
    def __init__(self, c: float):
        self.c = float(c)
        self.bound = abs(self.c)

    def eval(self, tau):
        return np.full_like(np.asarray(tau, dtype=float), self.c)

    def __repr__(self):
        return f"ConstantPast({self.c})"


class LinearPast(PastData):
    """z_p(tau) = slope * tau + intercept."""

    def __init__(self, slope: float, intercept: float):
        self.slope = float(slope)
        self.intercept = float(intercept)
        self.bound = abs(self.intercept) if self.slope == 0 else math.inf

    def eval(self, tau):
        return self.slope * np.asarray(tau, dtype=float) + self.intercept

    def __repr__(self):
        return f"LinearPast(slope={self.slope}, intercept={self.intercept})"


class TabulatedPast(PastData):
    """Piecewise-linear z_p on a grid of nonpositive times ending at 0.

    Below the first node the value is held constant, which keeps z_p bounded
    and Lipschitz on the whole half line.
    """

    def __init__(self, tau_grid, values):
        tau = np.asarray(tau_grid, dtype=float)
        v = np.asarray(values, dtype=float)
        if tau.ndim != 1 or tau.size < 2 or v.shape != tau.shape:
            raise ValueError("tau_grid and values must be 1-d arrays of equal length >= 2")
        if np.any(np.diff(tau) <= 0):
            raise ValueError("tau_grid must be strictly increasing")
        if tau[-1] != 0.0 or tau[0] >= 0.0:
            raise ValueError("tau_grid must cover negative times and end at 0")
        self.tau_grid = tau
        self.values = v
        self.bound = float(np.max(np.abs(v)))

    def eval(self, tau):
        # np.interp clamps to the end values, giving the constant extension
        return np.interp(np.asarray(tau, dtype=float), self.tau_grid, self.values)

    def __repr__(self):
        return f"TabulatedPast(n={self.tau_grid.size})"


class Trajectory:
    """Computed positions Z^0, Z^1, ... on the uniform grid t_n = n * dt.

    ``values[0]`` equals z_p(0) so the path is continuous at t = 0. Completed
    trajectories are immutable in spirit: solvers build the array once.
    """

    def __init__(self, dt: float, values, eps: float = 1.0):
        if not dt > 0:
            raise ValueError("dt must be positive")
        self.dt = float(dt)
        self.values = np.asarray(values, dtype=float)
        self.eps = float(eps)

    @property
    def times(self):
        return self.dt * np.arange(self.values.size)

    def zdot(self):
        """Discrete velocity: centered differences, one-sided at the ends."""
        if self.values.size < 2:
            return np.zeros_like(self.values)
        return np.gradient(self.values, self.dt)

    def to_csv(self, path, precision: int = 17):
        write_trajectory_csv(path, self.times, self.values, self.zdot(), precision)


def write_trajectory_csv(path, t, z, zdot, precision: int = 17):
    _write_csv(path, ("t", "z", "zdot"), (t, z, zdot), precision)


# rows per `%` call: a block's text is a few dozen kB, so memory stays flat
# however long the file
_BLOCK_ROWS = 1024


def _write_csv(path, names, columns, precision: int):
    """A header line, then one line per row with every value as %.{precision}g.

    ``columns`` holds one 1-d sequence per name, all of one length; unequal
    lengths raise ``ValueError``. Rows are formatted ``_BLOCK_ROWS`` at a
    time: the block's values, row by row, go as one tuple of Python numbers
    to one ``%`` whose format is the line repeated once per row. The bytes
    are those of ``line % row`` row by row: ``%g`` formats a bool or an int
    as the float it converts to, which is the float numpy promotes it to in
    a block that mixes it with floats.
    """
    cols = [np.asarray(c) for c in columns]
    n = cols[0].size
    if any(c.shape != (n,) for c in cols):
        raise ValueError("CSV columns must be 1-d and of equal length, got "
                         f"shapes {[c.shape for c in cols]}")
    line = ",".join([f"%.{int(precision)}g"] * len(cols)) + "\n"
    block = line * _BLOCK_ROWS
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for start in range(0, n, _BLOCK_ROWS):
            rows = np.stack([c[start:start + _BLOCK_ROWS] for c in cols], axis=1)
            fmt = block if len(rows) == _BLOCK_ROWS else line * len(rows)
            fh.write(fmt % tuple(rows.ravel().tolist()))
