"""Prescribed past data on (-inf, 0], computed trajectories, and CSV output.

The model needs delayed positions z(t - eps*a) for every bond age a. The
delayed solvers read them from one node buffer (``Memory.buffer``), whose
prefix before t = 0 is filled from the prescribed z_p; a finished
``Trajectory`` holds only the nodes on [0, T].

Every CSV value is the text of ``"%.{P}g" % x``, byte for byte, for P in
1..17. The writer makes that text for a block of rows at a time from the
exact binary value with numpy integer arithmetic, and hands to ``%`` only
zero, inf, nan and magnitudes outside about [1e-10, 1e18). Every step
writes into work arrays made once per write, so a block allocates nothing
large. A value's text is a 32-byte row: a pre-masked template, whose
unused characters are NUL, plus its digits, of which those after the dot
column are moved one byte up. The NULs of a third of a block at a time
are deleted by ``bytes.translate``, with no index array, and each third
is written as it is made. The time column may be a uniform grid made per
block, and any other column a function the writer calls on one block of
times at a time: a trajectory write holds the solution (none, for a
closed form) plus one block.
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


# rows per block. A block's numpy calls, most of the writer's time, do not
# grow with its length, but its working set does: about 90 bytes per value
# at precision 17 (0.55 MB for 2048 rows of three columns: 52 in the work
# arrays, and the text made in 32-byte rows a third of a block at a time,
# each third written before the next is made), which is less than 1024 rows
# took before the writer reused its work arrays (0.73 MB). Memory stays
# flat however long the file.
_BLOCK_ROWS = 2048


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
    ``_BLOCK_ROWS`` at a time through ``_BlockText``, one ``writelines``
    of its parts per block; the file is opened after the first block's
    columns are made.
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
            fh.writelines(text(values[:m].ravel()))


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
# < 2^53, has the decade estimate d = floor(log10 |x|) + 10, s = 27 - d and
# 18 leading digits floor(|x| 10^s) = floor(M 5^s 2^(E - 1075 + s)): a
# 128-bit integer product, exact while 5^s < 2^63, that is for d in [0, 27]
# (about 1e-10 <= |x| < 1e18). The floor is exact iff M has no set bit
# below the shift, as 5^s is odd. From the 18 digits and that bit, rounding
# half to even to P digits is exact decimal arithmetic, so the text equals
# CPython's correctly rounded one. Zero is "0" with its sign; inf, nan and
# magnitudes out of range go through one `%` per block. Every step writes
# into work arrays that the block's `_BlockText` owns.

_LO32 = 0xFFFFFFFF
_MAX_D = 27
# 1e-11 <= |x| < 1e18, read on the bits of |x| (nan lies above): no uint64
# below overflows
_EXACT_LO = int(np.float64(1e-11).view(np.uint64))
_EXACT_SPAN = int(np.float64(1e18).view(np.uint64)) - _EXACT_LO


@functools.cache
def _digit_tables():
    """The digits 0..9 of every 4-digit chunk "0000".."9999" as four bytes
    (one uint32 each); for each place j in 0..4 of a chunk in a 20-digit
    number, the number's trailing zeros if that chunk is its last nonzero
    one (255 for a zero chunk, so the least over the chunks counts them);
    and the high and low 32-bit limbs of 5^(27 - d) for d in [0, 27]."""
    # built without array arithmetic: each numpy loop run for the first time
    # maps more of numpy's code into memory
    pairs = np.frombuffer(bytes(itertools.chain.from_iterable(
        itertools.product(range(10), repeat=2))), np.uint16)
    digits = np.empty((100, 100, 2), np.uint16)
    digits[..., 0], digits[..., 1] = pairs[:, None], pairs
    zeros = np.empty((5, 10_000), np.uint8)
    for j in range(5):
        for k in range(4):
            zeros[j, ::10 ** k] = 4 * (4 - j) + k
        zeros[j, 0] = 255
    pow5 = [5 ** (_MAX_D - d) for d in range(_MAX_D + 1)]
    limbs = (np.array([p >> 32 for p in pow5], np.uint64),
             np.array([p & _LO32 for p in pow5], np.uint64))
    return digits.view(np.uint32).ravel(), zeros, limbs


def _scaled(q, d, pow5, t):
    """In place, floor(M 2^(E - 1075) 10^s) times 2, plus 1 if that floor
    is not exact, for s = 27 - d: ``q`` holds the bits of positive normal
    doubles M 2^(E - 1075) on entry and the result on return. ``d`` (uint64
    in [0, 27]) and ``t`` (four uint64 arrays of q's length) are
    overwritten."""
    Es, f0, f1, m0 = t
    np.right_shift(q, 52, out=Es)
    np.subtract(Es, d, out=Es)  # E + s - 27
    np.bitwise_and(q, 2 ** 52 - 1, out=q)
    np.bitwise_or(q, 2 ** 52, out=q)  # M
    pow5[1].take(d.view(np.intp), out=f0, mode="clip")
    pow5[0].take(d.view(np.intp), out=f1, mode="clip")
    lo = d
    # the 128-bit product of M and 5^s from 32-bit limbs: (q, lo)
    np.bitwise_and(q, _LO32, out=m0)
    np.right_shift(q, 32, out=q)
    np.multiply(m0, f0, out=lo)
    mid = f0
    np.multiply(mid, q, out=mid)
    np.multiply(m0, f1, out=m0)
    np.add(mid, m0, out=mid)
    np.right_shift(lo, 32, out=m0)
    np.add(mid, m0, out=mid)
    np.multiply(q, f1, out=q)
    np.right_shift(mid, 32, out=m0)
    np.add(q, m0, out=q)
    np.bitwise_and(lo, _LO32, out=lo)
    np.left_shift(mid, 32, out=mid)
    np.bitwise_or(lo, mid, out=lo)
    # shift it right by 1075 - E - s, or left by its negative
    top, r, left = f0, f1, m0
    np.maximum(Es, 1048, out=top)
    np.subtract(top, Es, out=r)
    np.subtract(64, r, out=left)  # a shift by 64 gives 0
    np.left_shift(q, left, out=q)
    # the bits shifted out, zero iff the floor is exact: 1 if they are not
    np.left_shift(lo, left, out=left)
    np.minimum(left, 1, out=left)
    np.right_shift(lo, r, out=lo)
    np.bitwise_or(q, lo, out=q)
    np.subtract(top, 1048, out=top)
    np.left_shift(q, top, out=q)
    np.left_shift(q, 1, out=q)
    np.bitwise_or(q, left, out=q)


def _decimal(x, P: int, w, decade, flag):
    """|x| rounded half to even to P significant digits: the digits, an
    integer in [10^(P-1), 10^P), in ``w[1]``, X + 10 for the decimal
    exponent X of the rounded value in ``decade`` (uint8), and the sorted
    positions of zero, inf, nan and magnitudes out of range, which read as
    1 (digits 10^(P-1), X 0). ``w`` (six uint64 arrays of x's length) and
    ``flag`` (bool) are overwritten.
    """
    pow5 = _digit_tables()[2]
    q, d, f = w[0], w[1], w[2].view(float)
    a = q.view(float)
    np.abs(x, out=a)
    np.subtract(q, _EXACT_LO, out=d)
    rest = np.flatnonzero(np.greater_equal(d, _EXACT_SPAN, out=flag))
    a[rest] = 1.0
    np.log10(a, out=f)
    np.floor(f, out=f)
    np.add(f, 10, out=f)
    np.clip(f, 0, _MAX_D, out=f)
    d[...] = f
    decade[...] = d
    _scaled(q, d, pow5, w[2:])
    # log10 can miss floor(log10 |x|) by one next to a power of ten, and the
    # clip moves d off it out of range: q then has 17 or 19 digits and is
    # recomputed one decade over, never rescaled (that would round twice)
    np.subtract(q, 2 * 10 ** 17, out=w[2])
    off = np.flatnonzero(np.greater_equal(w[2], 18 * 10 ** 17, out=flag))
    if off.size:
        q_off = q[off]
        d_off = (decade[off].astype(np.uint64) + (q_off >= 2 * 10 ** 18)
                 - (q_off < 2 * 10 ** 17))
        bad = d_off > _MAX_D  # d = 0 - 1 wraps above it
        np.minimum(d_off, _MAX_D, out=d_off)
        q_off = np.abs(x[off]).view(np.uint64)
        _scaled(q_off, d_off.copy(), pow5, np.empty((4, off.size), np.uint64))
        bad |= q_off - 2 * 10 ** 17 >= 18 * 10 ** 17
        q_off[bad], d_off[bad] = 2 * 10 ** 17, 10  # they read as 1
        q[off], decade[off] = q_off, d_off
        rest = np.union1d(rest, off[bad])
    digits, t = w[1], w[2]
    div = 2 * 10 ** (18 - P)
    np.floor_divide(q, div, out=digits)
    np.multiply(digits, div, out=t)
    np.subtract(q, t, out=q)  # twice the dropped digits, plus 1 if inexact
    # round up iff that is above div / 2, or equal to it and digits is odd
    np.bitwise_and(digits, 1, out=t)
    np.add(q, t, out=q)
    np.subtract(div // 2, q, out=q)
    np.right_shift(q, 63, out=q)
    np.add(digits, q, out=digits)
    carry = np.greater_equal(digits, 10 ** P, out=flag)
    np.add(decade, carry.view(np.uint8), out=decade)
    digits[np.flatnonzero(carry)] = 10 ** (P - 1)
    return digits, rest


def _digit_chars(digits, decade, P: int, w, chars, tmp, tz, z):
    """The template key of each value, ``decade`` P plus its count of
    trailing zeros, in ``w[0]``, and its digits as bytes 0..9 in the
    32-byte rows of ``chars`` (uint32): of its 20 digits, left-padded with
    zeros, the 4-digit chunk j goes to column 1 + j. Only the chunks that
    hold one of the last P digits are written. ``digits`` is ``w[1]``;
    ``w[0]``, ``w[1]``, ``tmp`` (uint64) and ``tz`` and ``z`` (uint8) are
    overwritten."""
    chars4, zeros, _ = _digit_tables()
    rest = w[0]
    chunk = tmp.view(np.uint32)[:digits.size]
    low = (20 - P) // 4  # the chunks below it hold no digit of the P
    for j in range(4, low - 1, -1):  # 4 digits at a time, from the right
        if j > low:
            np.floor_divide(digits, 10_000, out=rest)
            np.multiply(rest, 10_000, out=tmp)
            np.subtract(digits, tmp, out=digits)
            c, digits, rest = digits, rest, digits
        else:
            c = digits
        chars4.take(c.view(np.intp), out=chunk, mode="clip")
        chars[:, 1 + j] = chunk
        zeros[j].take(c.view(np.intp), out=tz if j == 4 else z,
                      mode="clip")
        if j < 4:
            np.minimum(tz, z, out=tz)
    key, t = w[0], w[1]
    key[...] = decade
    np.multiply(key, P, out=key)
    t[...] = tz
    np.add(key, t, out=key)
    return key.view(np.intp)


class _BlockText:
    """Text of a block of rows: ``self(x)``, for the block's values row by
    row, yields the bytes of ``"%.{P}g" % v`` plus "," or "\\n" for each
    v, as byte strings to write in order. Each is made when it is asked
    for, from work arrays that the next call overwrites, so a block's
    parts must all be taken before the next block's call.

    Every value is laid out in one 32-byte row of a uint8 matrix: the sign
    at byte 18 - P, "0.000", the P digits from byte f = 24 - P with one
    column more for the ".", "e+XX" at byte 25 and the separator at 29.
    The value's decimal exponent X and its count of trailing zeros pick a
    template row, which is pre-masked: a character the value does not use
    is NUL in it. Its digit columns read "0" where the value keeps
    a digit and NUL where it drops one, and its one dot column, at f + k
    after the first k digits, reads "." when a digit follows it (k = 1 in
    scientific form and X + 1 in fixed form; below 1, the dot is in the
    prefix and k = P). The value's digits 0..9 are made in rows of the
    same layout with no dot column, at bytes f..23; a per-key word mask
    picks those at and after f + k, which are added back one byte up, and
    the rows are added onto the templates. A dropped digit is 0, since
    only trailing zeros are dropped, so it stays NUL. The sign and the
    newlines are set per part, and a `%` row is padded with NULs.
    ``bytes.translate`` on a copy of the matrix deletes every NUL, with no
    index array, and what is left is the text.

    The digits of the whole block are made at once, in six uint64 and four
    uint8 work arrays per value: ``_decimal`` writes every step into them,
    and ``_digit_chars`` writes the digit rows into the last four uint64
    ones, which ``_decimal`` no longer needs, with the text matrix, not
    yet in use, as its third uint64 temporary. The matrix, on a bytearray,
    holds a third of the block's rows and is filled, copied to bytes and
    translated three times; ``translate`` makes its result at the size of
    the whole input before trimming it, so a smaller matrix costs less
    memory. Its row count is a multiple of ``ncols``, so every part ends
    on a line. All of these are made once and reused by every block, so a
    block allocates nothing larger than a few kB besides its text.
    """

    def __init__(self, precision: int, ncols: int, rows: int):
        P = self.P = precision
        self.fmt = f"%.{P}g"
        self.ncols = ncols
        f = self.f = 24 - P
        e_cols, self.sep = slice(25, 29), 29
        self.sign = f - 6
        # built by slicing alone: each numpy loop run for the first time
        # maps more of numpy's code into memory
        first = np.zeros((P, P), bool)  # row k keeps the first k + 1 digits
        for k in range(P):
            first[k, :k + 1] = True
        # one key per decimal exponent X in [-10, 18] and count of
        # significant digits nd in [1, P], at row (X + 10) P + P - nd
        text = np.zeros((29, P, 32), np.uint8)
        keep = np.zeros((29, P, 32), bool)
        moved = np.zeros((29, P, 32), np.uint8)
        text[..., f - 5:f] = np.frombuffer(b"0.000", np.uint8)
        text[..., f:f + P + 1] = ord("0")
        text[..., self.sep] = ord(",")
        keep[..., self.sep] = True
        for X in range(-10, 19):
            t, k = text[X + 10], keep[X + 10, ::-1]
            t[:, e_cols] = np.frombuffer(b"e%+03d" % X, np.uint8)
            if not -4 <= X < P:  # d.ddde+XX
                dot = 1
                k[:, f] = True
                k[:, e_cols] = True
            elif X < 0:  # 0.000ddd
                dot = P  # no digit moves
                k[:, f - 5:f - 4 - X] = True
                k[:, f:f + P] = first
            else:  # ddd.ddd: row r (r + 1 digits) keeps max(r + 1, X + 1)
                dot = X + 1
                k[:, f:f + dot] = True
            k[:, f + dot + 1:f + P + 1] = first[:, dot:]
            k[dot:, f + dot] = True
            t[:, f + dot] = ord(".")
            moved[X + 10, :, f + dot:] = 255
        text[~keep] = 0
        self.templates = text.reshape(29 * P, 32).view(np.uint64)
        self.moved = moved.reshape(29 * P, 32).view(np.uint64)
        self.buf = bytearray(ncols * -(-rows // 3) * 32)
        self.text = np.frombuffer(self.buf, np.uint8).reshape(-1, 32)
        self.words = np.frombuffer(self.buf, np.uint64).reshape(-1, 4)
        # six uint64 rows of a block's length: _decimal's work arrays, then
        # _digit_chars' (rows 0-1), the key (row 0) and, on rows 2-5, the
        # digit rows of 32 bytes per value
        self.work = np.empty((6, ncols * rows), np.uint64)
        self.work8 = np.empty((4, ncols * rows), np.uint8)

    def __call__(self, x):
        P, n, m = self.P, x.size, len(self.text)
        w = self.work[:, :n]
        decade, flag, tz, z = self.work8[:, :n]
        digits, rest = _decimal(x, P, w, decade, flag.view(bool))
        chars = self.work[2:].reshape(-1).view(np.uint8)[:32 * n]
        chars = chars.reshape(n, 32)
        # _decimal left them set, and _digit_chars writes only the digits'
        # chunks: clear the bytes before the first chunk it writes and the
        # last word, into which the digits move (a memset of the whole rows
        # is faster, but maps more of numpy's code)
        chars.view(np.uint32)[:, :(20 - P) // 4 + 1] = 0
        chars.view(np.uint64)[:, -1] = 0
        # the text matrix is not used before the first part
        key = _digit_chars(digits, decade, P, w, chars.view(np.uint32),
                           self.words.reshape(-1)[:n], tz, z)
        # a contiguous output: numpy 2.4's signbit misplaces the values of a
        # strided one
        np.signbit(x, out=flag.view(bool))
        np.multiply(flag, ord("-"), out=flag)
        # each part's `rest` by comparisons, not searchsorted: its first call
        # maps more of numpy's code than a small write's tables take
        for a in range(0, n, m):
            yield self._text(x[a:a + m], key[a:a + m], chars[a:a + m],
                             flag[a:a + m],
                             rest[(rest >= a) & (rest < a + m)] - a)

    def _text(self, x, key, chars, sign, rest):
        """One matrix of the block's text, from its part of the block."""
        n = x.size
        text, words = self.text[:n], self.words[:n]
        self.text[n:] = 0  # a short part: no text past its rows
        # the digits at and after the dot column are taken out and added
        # back one byte up, on the flat bytes: each row shifted left by 8
        # bits. A row's last byte holds no digit, so none crosses a row
        self.moved.take(key, axis=0, out=words, mode="clip")
        digit_words = chars.view(np.uint64)
        np.bitwise_and(digit_words, words, out=words)
        np.bitwise_xor(digit_words, words, out=digit_words)
        flat = chars.reshape(-1)
        np.add(flat[1:], text.reshape(-1)[:-1], out=flat[1:])
        self.templates.take(key, axis=0, out=words, mode="clip")
        np.add(words, digit_words, out=words)
        text[:, self.sign] = sign
        text[self.ncols - 1::self.ncols, self.sep] = ord("\n")
        if rest.size:
            # a zero reads as 1 (digits 10^(P-1), X 0): its one digit is 0
            zero = x[rest] == 0
            text[rest[zero], self.f] = ord("0")
            rest = rest[~zero]
        if rest.size:  # by `%`, each padded with NULs up to the separator
            lines = (self.fmt + "\n") * rest.size % tuple(x[rest].tolist())
            padded = np.array(lines.encode().split(b"\n")[:-1],
                              f"S{self.sep}")
            text[rest, :self.sep] = padded.view(np.uint8).reshape(
                rest.size, self.sep)
        # delete every NUL in the whole matrix, with no index array; bytes
        # translate faster than a bytearray does, by more than the copy costs
        return bytes(self.buf).translate(None, b"\0")
