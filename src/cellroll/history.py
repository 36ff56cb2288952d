"""Prescribed past data on (-inf, 0], computed trajectories, and CSV output.

The model needs delayed positions z(t - eps*a) for every bond age a. The
delayed solvers read them from one node buffer (``Memory.buffer``), whose
prefix before t = 0 is filled from the prescribed z_p; a finished
``Trajectory`` holds only the nodes on [0, T].

Every CSV value is the text of ``"%.{P}g" % x``, byte for byte, for P in
1..17. The writer makes that text for a block of rows at a time from the
exact binary value with numpy integer arithmetic, and hands to ``%`` only
zero, inf, nan and magnitudes outside about [1e-10, 1e18). Each block's
text is compacted by setting unused characters to NUL and deleting them
in one ``bytes.translate``, with no index array. The time column may be
a uniform grid made per block, and any other column a function the
writer calls on one block of times at a time: a trajectory write holds
the solution (none, for a closed form) plus one block.
"""
from __future__ import annotations

import functools
import itertools
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
        """Write ``t,z,zdot`` rows, making t and zdot one block at a time."""
        z, dt = self.values, self.dt
        stop = 0

        def zdot(t):  # the writer's blocks come in order
            nonlocal stop
            a, stop = stop, stop + t.size
            lo = max(a - 1, 0)  # zdot() of the block and a node each side
            return Trajectory(dt, z[lo:stop + 1]).zdot()[a - lo:stop - lo]

        write_trajectory_csv(path, _Grid(z.size, dt), z, zdot, precision)


class _Grid:
    """The times i * dt, i < n, made per slice: ``grid[a:b]`` has the bits
    of ``dt * np.arange(n)[a:b]``."""

    def __init__(self, n, dt):
        self.n, self.dt = n, dt

    def __len__(self):
        return self.n

    def __getitem__(self, rows):
        return np.arange(*rows.indices(self.n), dtype=float) * self.dt


def write_trajectory_csv(path, t, z, zdot, precision: int = 17):
    """Write ``t,z,zdot`` rows. ``z`` and ``zdot`` are arrays of ``t``'s
    length, or functions that map a block of ``t`` to that block's values
    (see ``_write_csv``), so a closed form is made one block at a time."""
    _write_csv(path, ("t", "z", "zdot"), (t, z, zdot), precision)


# rows per block: one block's text matrix and temporaries take a few
# hundred kB, so memory stays flat however long the file
_BLOCK_ROWS = 1024


def _write_csv(path, names, columns, precision: int):
    """A header line, then one line per row with every value as %.{precision}g.

    ``columns`` holds one 1-d sequence of real numbers (bool, int or float)
    per name, all of the first one's length. The first may be a ``_Grid``,
    sliced per block; any later one a function, called once per block, in
    order, with the first column's slice and returning the block's values.
    A column of the wrong shape raises ``ValueError``, one not of real
    numbers ``TypeError``, both naming the column; a function is checked on
    each block it returns, and is never called when there are no rows.
    ``precision`` must be an int in [1, 17]. A bool or an int is written as
    the float it converts to. Lines end in "\\n" on every platform. Rows go
    ``_BLOCK_ROWS`` at a time through ``_BlockText``, one ``write`` per
    block; the file is opened after the first block's columns are made.
    """
    if (isinstance(precision, (bool, np.bool_))
            or not isinstance(precision, (int, np.integer))
            or not 1 <= precision <= 17):
        raise ValueError(f"precision must be an int in [1, 17], got {precision!r}")
    first = columns[0]
    if not isinstance(first, _Grid):
        first = _checked(names[0], first, np.size(first))
    n = len(first)
    cols = [c if callable(c) else _checked(name, c, n)
            for name, c in zip(names[1:], columns[1:])]
    rows = min(_BLOCK_ROWS, n)

    def block(start):
        stop = min(start + rows, n)
        t = first[start:stop]
        return [t] + [_checked(name, c(t), stop - start) if callable(c)
                      else c[start:stop] for name, c in zip(names[1:], cols)]

    parts = block(0) if rows else None
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode())
        if rows == 0:
            return
        text = _BlockText(int(precision), len(names), rows)
        values = np.empty((rows, len(names)))
        for start in range(0, n, rows):
            if start:
                parts = block(start)
            m = min(rows, n - start)
            for j, part in enumerate(parts):
                values[:m, j] = part
            fh.write(text(values[:m].ravel()))


def _checked(name, column, n):
    """``column`` as an array of n real numbers; else an error naming it."""
    c = np.asarray(column)
    if c.shape != (n,):
        raise ValueError(f"CSV columns must be 1-d and of equal length: "
                         f"{name!r} has shape {c.shape}, not ({n},)")
    if c.dtype.kind not in "biuf":
        raise TypeError(f"CSV columns must hold real numbers: {name!r} has "
                        f"dtype {c.dtype.str}")
    return c


# %.{P}g text without the float formatter. A double x = M 2^(E - 1075), M
# < 2^53, has s = 17 - floor(log10 |x|) and 18 leading digits floor(|x| 10^s)
# = floor(M 5^s 2^(E - 1075 + s)): a 128-bit integer product, exact while
# 5^s < 2^63, that is for s in [0, 27] (about 1e-10 <= |x| < 1e18). The
# floor is exact iff M has no set bit below the shift, as 5^s is odd. From
# the 18 digits and that bit, rounding half to even to P digits is exact
# decimal arithmetic, so the text equals CPython's correctly rounded one.
# Zero is "0" with its sign; inf, nan and magnitudes out of range go through
# one `%` per block.

_LO32 = 0xFFFFFFFF
_MAX_S = 27


@functools.cache
def _digit_tables():
    """Text of every 4-digit chunk "0000".."9999" as one uint32 each, its
    count of trailing zeros (4 for "0000"), and the high and low 32-bit limbs
    of 5^s for s in [0, 27]."""
    # built without array arithmetic, and everything below runs in uint64:
    # each numpy loop run for the first time maps more of numpy's code into
    # memory
    pairs = np.frombuffer(bytes(itertools.chain.from_iterable(
        itertools.product(b"0123456789", repeat=2))), np.uint16)
    chars = np.empty((100, 100, 2), np.uint16)
    chars[..., 0], chars[..., 1] = pairs[:, None], pairs
    zeros = np.zeros(10_000, np.uint64)
    for k in (1, 2, 3):
        zeros[::10 ** k] = k
    zeros[0] = 4
    pow5 = [5 ** s for s in range(_MAX_S + 1)]
    limbs = (np.array([p >> 32 for p in pow5], np.uint64),
             np.array([p & _LO32 for p in pow5], np.uint64))
    return chars.view(np.uint32).ravel(), zeros, limbs


def _scaled(M, E, s, pow5):
    """floor(M 2^(E - 1075) 10^s) from 32-bit limbs, and whether that floor
    is exact."""
    f1, f0 = pow5[0][s], pow5[1][s]
    m1, m0 = M >> 32, M & _LO32
    lo = m0 * f0
    mid = m0 * f1
    mid += m1 * f0
    mid += lo >> 32
    hi = m1 * f1
    hi += mid >> 32
    lo &= _LO32
    lo |= mid << 32
    # shift the 128-bit product right by 1075 - E - s, or left by its negative
    E = E + s
    top = np.maximum(E, 1075)
    r = top - E
    left = 64 - r  # a shift by 64 gives 0
    hi <<= left
    hi |= lo >> r
    hi <<= top - 1075
    return hi, (M << left) == 0


def _decimal(x, P: int, pow5):
    """|x| rounded half to even to P significant digits: the digits as an
    integer in [10^(P-1), 10^P), X + 10 for the decimal exponent X of the
    rounded value, and whether both are exact. They are not for zero, inf,
    nan and magnitudes out of range, which read as 1 (digits 10^(P-1), X 0).
    """
    a = np.abs(x)
    exact = (a >= 1e-11) & (a < 1e18)  # no uint64 below overflows
    a = np.where(exact, a, 1.0)
    s = np.clip(17 - np.floor(np.log10(a)), 0, _MAX_S).astype(np.uint64)
    # a = M 2^(E - 1075) from the bits of a normal double
    bits = a.view(np.uint64)
    M = (bits & (2 ** 52 - 1)) | 2 ** 52
    E = bits >> 52
    q, whole = _scaled(M, E, s, pow5)
    # log10 can miss floor(log10 |x|) by one next to a power of ten, and the
    # clip moves s off it out of range: q then has 17 or 19 digits and is
    # recomputed one decade over, never rescaled (that would round twice)
    off = np.flatnonzero((q < 10 ** 17) | (q >= 10 ** 18))
    if off.size:
        s_off = s[off] + (q[off] < 10 ** 17) - (q[off] >= 10 ** 18)
        s[off] = np.minimum(s_off, _MAX_S)  # s = 0 - 1 wraps above it
        q[off], whole[off] = _scaled(M[off], E[off], s[off], pow5)
        exact[off] &= ((s_off <= _MAX_S) & (q[off] >= 10 ** 17)
                       & (q[off] < 10 ** 18))
    div = np.uint64(10 ** (18 - P))
    digits = q // div
    q -= digits * div  # the dropped digits
    half = div // 2
    digits += (q > half) | ((q == half) & ~(whole & (digits & 1 == 0)))
    carry = digits == 10 ** P
    digits[carry] = 10 ** (P - 1)
    decade = 27 - s + carry
    digits[~exact], decade[~exact] = 10 ** (P - 1), 10
    return digits, decade, exact


class _BlockText:
    """Text of a block of rows: ``self(x)``, for the block's values row by
    row, gives the bytes of ``"%.{P}g" % v`` plus "," or "\\n" for each v.

    Every value is laid out in one row of a (values, 2P + 10) uint8 matrix:
    sign, "0.000", the P digits with a "." after each, "e+XX", separator.
    The value's decimal exponent X and its count of significant digits pick
    a template row (the constant characters) and a mask row (the characters
    it keeps); the sign and the separator are set per value. The characters
    it drops are set to NUL and deleted from the matrix's bytes in one
    ``bytes.translate``, which needs no index array; a `%` row is padded
    with NULs already. What is left is the block's text.
    """

    def __init__(self, precision: int, ncols: int, rows: int):
        P = self.P = precision
        self.fmt = f"%.{P}g"
        W = 2 * P + 10
        digit_cols, dot_cols, e_cols = (slice(6, 5 + 2 * P, 2),
                                        slice(7, 4 + 2 * P, 2),
                                        slice(5 + 2 * P, 9 + 2 * P))
        # built by slicing alone: each numpy loop run for the first time
        # maps more of numpy's code into memory
        first = np.zeros((P, P), bool)  # row k keeps the first k + 1 digits
        for k in range(P):
            first[k, :k + 1] = True
        # one key per decimal exponent X in [-10, 18] and count of
        # significant digits nd in [1, P], at row (X + 10) P + nd - 1
        text = np.zeros((29, P, W), np.uint8)
        keep = np.zeros((29, P, W), bool)
        text[..., 0] = ord("-")
        text[..., 1:6] = np.frombuffer(b"0.000", np.uint8)
        text[..., dot_cols] = ord(".")
        keep[..., -1] = True
        for X in range(-10, 19):
            t, k = text[X + 10], keep[X + 10]
            t[:, e_cols] = np.frombuffer(b"e%+03d" % X, np.uint8)
            if not -4 <= X < P:  # d.ddde+XX
                k[:, digit_cols] = first
                k[1:, 7] = True
                k[:, e_cols] = True
            elif X < 0:  # 0.000ddd
                k[:, 1:2 - X] = True
                k[:, digit_cols] = first
            else:  # ddd.ddd: row r (r + 1 digits) keeps max(r + 1, X + 1)
                k[:, digit_cols] = first[[max(r, X) for r in range(P)]]
                k[X + 1:, 7 + 2 * X] = True
        self.digit_cols = digit_cols
        self.templates = text.reshape(29 * P, W)
        self.masks = keep.reshape(29 * P, W)
        self.sep = np.full(ncols * rows, ord(","), np.uint8)
        self.sep[ncols - 1::ncols] = ord("\n")
        # a block's temporaries (about 0.4 MB) come from the C heap, which
        # glibc trims after every block, so the next one faults them back
        # in; freeing an mmap chunk larger than its threshold raises the
        # threshold to that size. One freed, never-touched MB keeps them
        # on warm pages (on glibc, 15 195 -> under 300 minor faults over
        # 200 001 rows); another allocator just makes one allocation
        np.empty(1 << 20, np.uint8)
        self.text = np.empty((ncols * rows, W), np.uint8)
        self.keep = np.empty((ncols * rows, W), bool)

    def __call__(self, x):
        P, n = self.P, x.size
        text, keep = self.text[:n], self.keep[:n]
        chars, zeros, pow5 = _digit_tables()
        digits, decade, exact = _decimal(x, P, pow5)
        digits, tz = _digit_chars(digits, chars, zeros)
        key = decade * P + (P - 1) - tz
        np.take(self.templates, key, axis=0, out=text, mode="clip")
        np.take(self.masks, key, axis=0, out=keep, mode="clip")
        text[:, self.digit_cols] = digits[:, 20 - P:]
        text[:, -1] = self.sep[:n]
        keep[:, 0] = np.signbit(x)
        rest = np.flatnonzero(~exact)
        if rest.size:
            # a zero reads as 1 (digits 10^(P-1), X 0): its one digit is 0
            zero = x[rest] == 0
            text[rest[zero], self.digit_cols.start] = ord("0")
            rest = rest[~zero]
        if rest.size:  # by `%`, each padded with NULs up to the separator
            W = text.shape[1]
            lines = (self.fmt + "\n") * rest.size % tuple(x[rest].tolist())
            padded = np.array(lines.encode().split(b"\n")[:-1], f"S{W - 1}")
            text[rest, :-1] = padded.view(np.uint8).reshape(rest.size, W - 1)
            keep[rest, :-1] = True
        # zero the dropped characters and delete every NUL: no index array
        np.multiply(text, keep, out=text)
        return np.frombuffer(text.tobytes().translate(None, b"\0"), np.uint8)


def _digit_chars(digits, chars, zeros):
    """Each integer in ``digits`` (uint64) as 20 ASCII digits, left-padded
    with zeros, and its count of trailing zeros (up to 20)."""
    chunks = np.empty((5, digits.size), np.uint64)  # 4 digits each
    for j in (4, 3, 2, 1):
        rest = digits // 10_000
        chunks[j] = digits - rest * 10_000
        digits = rest
    chunks[0] = digits
    tz = np.take(zeros, chunks[4])
    for j in (3, 2, 1, 0):  # while every chunk after chunk j is "0000"
        tz = np.where(tz == 4 * (4 - j), tz + np.take(zeros, chunks[j]), tz)
    return np.take(chars, chunks.T).view(np.uint8), tz
