"""Past data, the trajectory grid, and CSV output."""
import collections
import itertools
import json
import math
import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cellroll.cli import main
from cellroll.experiments import StudyReport
from cellroll.history import (_BLOCK_ROWS, ConstantPast, LinearPast,
                              TabulatedPast, Trajectory, _BlockText,
                              write_trajectory_csv)
from cellroll.kernels import Exponential, TruncatedExponential
from cellroll.oracles import kinematic_trajectory, kinematic_velocity
from cellroll.potentials import Quadratic
from cellroll.solver_smooth import SolverConfig, solve_smooth


class TestPastData:
    def test_constant(self):
        p = ConstantPast(2.5)
        assert p.eval(-3.0) == 2.5
        assert p.bound == 2.5

    def test_linear(self):
        p = LinearPast(2.0, 1.0)
        assert p.eval(-0.5) == 0.0
        assert math.isinf(p.bound)
        assert LinearPast(0.0, -4.0).bound == 4.0

    def test_tabulated_interp_and_constant_tail(self):
        p = TabulatedPast([-2.0, -1.0, 0.0], [0.0, 1.0, 3.0])
        assert p.eval(-1.5) == pytest.approx(0.5)
        assert p.eval(0.0) == 3.0
        assert p.eval(-10.0) == 0.0
        assert p.bound == 3.0

    def test_tabulated_validation(self):
        with pytest.raises(ValueError):
            TabulatedPast([-1.0], [1.0])
        with pytest.raises(ValueError):
            TabulatedPast([-1.0, -2.0, 0.0], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            TabulatedPast([-2.0, -1.0], [0.0, 1.0])


class TestTrajectory:
    def make(self):
        values = np.array([0.0, 0.2, 0.3, 0.35])
        return Trajectory(0.1, values)

    def test_grid(self):
        traj = self.make()
        np.testing.assert_allclose(traj.times, [0.0, 0.1, 0.2, 0.3])
        assert traj.times[-1] == pytest.approx(0.3)

    def test_zdot_recovers_linear_motion(self):
        t = np.arange(21) * 0.05
        traj = Trajectory(0.05, 3.0 * t + 1.0)
        np.testing.assert_allclose(traj.zdot(), 3.0, rtol=1e-12)

    def test_dt_validation(self):
        with pytest.raises(ValueError):
            Trajectory(0.0, [0.0])

    def test_to_csv_holds_one_block(self, tmp_path):
        traj = Trajectory(1e-3, np.random.default_rng(0).random(10 ** 6))
        # a first small write builds the writer's cached tables, which live
        # as long as the module, not the write
        Trajectory(1e-3, [0.0, 1.0]).to_csv(tmp_path / "warm.csv")
        tracemalloc.start()
        try:
            traj.to_csv(tmp_path / "traj.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 0.8 MB per block; whole times and zdot arrays took 24 MB
        assert peak < 1.5e6


class TestCsv:
    def test_header_and_17_digit_round_trip(self, tmp_path):
        path = tmp_path / "traj.csv"
        t = np.array([0.0, 1.0 / 3.0])
        z = np.array([0.1, 0.2])
        write_trajectory_csv(path, t, z, np.array([1.0, 1.0]))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,z,zdot"
        parsed = float(lines[1].split(",")[1])
        assert parsed == 0.1
        assert float(lines[2].split(",")[0]) == t[1]

    def test_precision_knob(self, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, [1.0 / 3.0], [0.0], [0.0], precision=3)
        assert path.read_text().splitlines()[1].split(",")[0] == "0.333"

    def test_trajectory_to_csv(self, tmp_path):
        traj = Trajectory(0.5, [0.0, 1.0, 1.5])
        path = tmp_path / "out.csv"
        traj.to_csv(path)
        rows = np.genfromtxt(path, delimiter=",", names=True)
        np.testing.assert_allclose(rows["t"], [0.0, 0.5, 1.0])
        np.testing.assert_allclose(rows["z"], traj.values)

    def test_unequal_columns_are_rejected(self, tmp_path):
        path = tmp_path / "traj.csv"
        message = "equal length: 'z' has shape (1,), not (2,)"
        # an array, or a function returning it for the block: one message
        for z in ([0.0], lambda t: [0.0]):
            with pytest.raises(ValueError) as info:
                write_trajectory_csv(path, [0.0, 1.0], z, [0.0, 0.0])
            assert str(info.value).endswith(message)
            assert not path.exists()

    def test_study_row_of_the_wrong_width_is_rejected(self, tmp_path):
        report = StudyReport("demo", ("param", "metric"), [(1.0, 2.0, 3.0)],
                             "none", True)
        with pytest.raises(ValueError):
            report.to_csv(tmp_path / "demo.csv")

    def test_non_numeric_columns_are_rejected(self, tmp_path):
        path = tmp_path / "traj.csv"
        with pytest.raises(TypeError, match="real numbers"):
            write_trajectory_csv(path, ["0.5"], [0.0], [0.0])
        assert not path.exists()
        message = "real numbers: 'zdot' has dtype <U3"
        for zdot in (["0.5"], lambda t: ["0.5"]):
            with pytest.raises(TypeError) as info:
                write_trajectory_csv(path, [0.5], [0.0], zdot)
            assert str(info.value).endswith(message)
            assert not path.exists()

    @pytest.mark.parametrize("precision", [2.7, 17.0, True, False, 0, 18, 20,
                                           -1, "3", None])
    @pytest.mark.parametrize("api", ["write_trajectory_csv", "Trajectory",
                                     "StudyReport"])
    def test_precision_must_be_an_int_in_1_to_17(self, tmp_path, api,
                                                 precision):
        path = tmp_path / "out.csv"
        write = {
            "write_trajectory_csv": lambda p: write_trajectory_csv(
                path, [0.0], [1.0], [0.5], p),
            "Trajectory": lambda p: Trajectory(0.5, [0.0, 1.0]).to_csv(path, p),
            "StudyReport": lambda p: StudyReport(
                "demo", ("param", "metric"), [(1.0, 2.0)], "none",
                True).to_csv(path, p),
        }[api]
        with pytest.raises(ValueError, match="precision"):
            write(precision)
        assert not path.exists()
        write(np.int64(5))  # a numpy integer is an int
        assert path.exists()


def assert_per_row_format(path, names, rows, precision):
    """The file holds the header, then ``line % tuple(row)`` row by row."""
    line = ",".join([f"%.{precision}g"] * len(names)) + "\n"
    want = [",".join(names) + "\n"] + [line % tuple(row) for row in rows]
    got = path.read_text().splitlines(keepends=True)
    # line by line: pytest's diff of two whole files would take minutes
    for i, (a, b) in enumerate(zip(got, want)):
        assert a == b, f"line {i}"
    assert len(got) == len(want)


SPECIAL = (0.0, -0.0, math.nan, math.inf, -math.inf)
B = _BLOCK_ROWS
# around a block and two, around the 1024 rows a block once held, and no
# rows at all
ROW_COUNTS = tuple(sorted({0, 1, 1023, 1024, 1025, 2049,
                           B - 1, B, B + 1, 2 * B + 1}))


def wide_floats(rng, size, head):
    """Magnitudes 1e-300 .. 1e300 of either sign, some special values, and
    ``head`` (drawn by Hypothesis) in front."""
    x = 10.0 ** rng.uniform(-300.0, 300.0, size) * rng.choice([-1.0, 1.0], size)
    spots = rng.choice(size, min(size, 12), replace=False)
    x[spots] = rng.choice(SPECIAL, spots.size)
    head = head[:size]
    x[:len(head)] = head
    return x


def exact_range_floats(rng, size):
    """Values the writer formats without ``%`` (1e-10 <= |x| < 1e17), of
    either sign: log-uniform magnitudes, short decimals, integers, and
    dyadic fractions m / 2^j, whose decimal digits end in 5."""
    kind = rng.integers(0, 4, size)
    mag = 10.0 ** rng.uniform(-10.0, 17.0, size)
    decimals = np.round(mag * 1e4) / 10.0 ** rng.integers(0, 14, size)
    ints = rng.integers(1, 10 ** 17, size).astype(float)
    dyadic = rng.integers(1, 2 ** 30, size) * 2.0 ** rng.integers(-40, 20, size)
    x = np.choose(kind, [mag, decimals, ints, dyadic])
    x[(x < 1e-10) | (x >= 1e17)] = 1.5
    return x * rng.choice([-1.0, 1.0], size)


def edge_values(precision):
    """Hand-picked values at ``precision``: exact ties, carries to the next
    power of ten, 10^k and its neighbours, the ends of the range the writer
    formats without ``%``, and the special values."""
    P = precision
    powers = 10.0 ** np.arange(-12, 19)
    # P + 1 digits ending in 5: an exact tie, which half-even sends to the
    # even neighbour, while below 2^53, and next to one above it
    ties = [0.5, 1.5, 2.5, 12.5, 0.125, 0.375, 1.0625,
            float(2 * 10 ** P + 5), float(10 ** P + 5) / 10 ** P]
    carries = [9.5, 99.95, 0.9999999999999999, 999.5, 0.09995,
               9.999999999999999e16, 1.0 - 2.0 ** -53, 10.0 ** P - 0.5,
               float(10 ** (P + 1) - 5) * 10.0 ** -P]
    edges = [1e-10, np.nextafter(1e-10, 0.0), np.nextafter(1e-10, 1.0),
             1e-11, np.nextafter(1e-11, 1.0), 1e17, np.nextafter(1e17, 0.0),
             1e18, np.nextafter(1e18, 0.0), 5e-324, 1.7976931348623157e308,
             2.0 ** 53, 2.0 ** 53 + 2.0, 2.0 ** 60]
    x = np.concatenate([powers, np.nextafter(powers, 0.0),
                        np.nextafter(powers, np.inf), ties, carries, edges])
    return np.concatenate([x, -x, SPECIAL])


def decade_and_digits(x, precision):
    """The decimal exponent X and the count of significant digits nd of
    ``"%.{precision}g" % x``, for finite nonzero x."""
    mantissa, exponent = (f"%.{precision - 1}e" % abs(x)).split("e")
    return int(exponent), len(mantissa.replace(".", "").rstrip("0"))


def key_values(precision):
    """For each decimal exponent X in [-10, 18] and count nd in 1..P of
    significant digits at precision P, a positive double whose text has
    them if one is found next to an nd-digit decimal; and the double below
    1e18, which rounds up to 1e+18 for P <= 15."""
    P = precision
    pi = "3141592653589793238462643383279"
    values = [np.nextafter(1e18, 0.0)]
    for X, nd in itertools.product(range(-10, 19), range(1, P + 1)):
        # ending in 5 or an even digit finds the exact doubles
        for last, lead, at in itertools.product("754", "123456789",
                                                range(16)):
            digits = (lead + pi[at:at + nd - 2] + last)[:nd]
            x = float(f"{digits}e{X - nd + 1}")
            if decade_and_digits(x, P) == (X, nd):
                values.append(x)
                break
    return np.array(values)


def block_function(t, values):
    """``values`` as a function column over ``t``: each call must get the
    next block of ``t``, bit for bit, and returns that block's values.
    ``calls`` counts the calls."""
    bits = t.view(np.uint64)

    def column(block):
        start = column.rows
        m = min(_BLOCK_ROWS, t.size - start)
        assert np.array_equal(block.view(np.uint64), bits[start:start + m])
        column.rows += m
        column.calls += 1
        return values[start:start + m]

    column.rows = column.calls = 0
    return column


def function_column_examples(test):
    """Hypothesis examples with function columns at every row count, at the
    shortest, a middle and the longest precision."""
    for seed, (precision, n) in enumerate(itertools.product((1, 6, 17),
                                                            ROW_COUNTS)):
        test = example(precision=precision, n=n, seed=seed, head=[],
                       functions=True)(test)
    return test


def assert_to_csv_matches_whole_arrays(folder, traj, precision):
    """``traj.to_csv`` writes the bytes of its whole ``times`` and
    ``zdot()`` arrays."""
    traj.to_csv(folder / "blocks.csv", precision)
    write_trajectory_csv(folder / "whole.csv", traj.times, traj.values,
                         traj.zdot(), precision)
    assert (folder / "blocks.csv").read_bytes() == \
        (folder / "whole.csv").read_bytes()


class TestBlockWriter:
    @pytest.mark.parametrize("precision", [1, 6, 17])
    @pytest.mark.parametrize("n", sorted({1, 2, 3, 1023, 1024, 1025, 2049,
                                          B - 1, B, B + 1, 2 * B + 1}))
    def test_to_csv_matches_whole_arrays(self, tmp_path, n, precision):
        rng = np.random.default_rng(n * 100 + precision)
        # a random walk at scales 1e-8 .. 1e8, on a dt with no short decimal
        z = np.cumsum(rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n))
        assert_to_csv_matches_whole_arrays(tmp_path, Trajectory(
            rng.uniform(1e-4, 1.0), z), precision)

    @pytest.mark.parametrize("precision", [1, 6, 17])
    def test_heun_solve_to_csv_matches_whole_arrays(self, tmp_path,
                                                    precision):
        traj = solve_smooth(Quadratic(), Exponential(1.0, 1.0),
                            lambda t: np.sin(3.0 * t), LinearPast(1.0, 1.0),
                            SolverConfig(T=2 * B * 1e-2, dt=1e-2,
                                         scheme="heun"))
        assert traj.values.size == 2 * B + 1  # two whole blocks and one row
        assert_to_csv_matches_whole_arrays(tmp_path, traj, precision)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(precision=st.integers(1, 17), n=st.sampled_from(ROW_COUNTS),
           seed=st.integers(0, 2**32 - 1), head=st.lists(st.floats(), max_size=6),
           functions=st.booleans())
    @function_column_examples
    def test_trajectory_matches_per_row_format(self, tmp_path_factory,
                                               precision, n, seed, head,
                                               functions):
        rng = np.random.default_rng(seed)
        t, z, zdot = wide_floats(rng, 3 * n, head).reshape(n, 3).T
        folder = tmp_path_factory.mktemp("csv")
        path = folder / "traj.csv"
        write_trajectory_csv(path, t, z, zdot, precision)
        assert_per_row_format(path, ("t", "z", "zdot"), zip(t, z, zdot),
                              precision)
        if functions:  # z and zdot made per block give the same bytes
            columns = block_function(t, z), block_function(t, zdot)
            write_trajectory_csv(folder / "blocks.csv", t, *columns, precision)
            assert (folder / "blocks.csv").read_bytes() == path.read_bytes()
            for c in columns:
                assert (c.rows, c.calls) == (n, -(-n // _BLOCK_ROWS))

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(precision=st.integers(1, 17), n=st.sampled_from(ROW_COUNTS),
           seed=st.integers(0, 2**32 - 1))
    def test_exact_range_matches_per_row_format(self, tmp_path_factory,
                                                precision, n, seed):
        rng = np.random.default_rng(seed)
        t, z, zdot = exact_range_floats(rng, 3 * n).reshape(n, 3).T
        path = tmp_path_factory.mktemp("csv") / "traj.csv"
        write_trajectory_csv(path, t, z, zdot, precision)
        assert_per_row_format(path, ("t", "z", "zdot"), zip(t, z, zdot),
                              precision)

    @pytest.mark.parametrize("precision", range(1, 18))
    def test_edge_values_match_per_row_format(self, tmp_path, precision):
        x = edge_values(precision)
        path = tmp_path / "edges.csv"
        write_trajectory_csv(path, x, x[::-1], -x, precision)
        assert_per_row_format(path, ("t", "z", "zdot"), zip(x, x[::-1], -x),
                              precision)
        # a column of zeros and one of negative zeros next to the edges
        zero, negative = np.zeros_like(x), np.full_like(x, -0.0)
        write_trajectory_csv(path, x, zero, negative, precision)
        assert_per_row_format(path, ("t", "z", "zdot"), zip(x, zero, negative),
                              precision)

    @pytest.mark.parametrize("precision", range(1, 18))
    def test_zeros_never_reach_percent_format(self, precision):
        t = np.linspace(0.5, 2.0, 7)
        values = np.column_stack([t, np.zeros(7), np.full(7, -0.0)]).ravel()
        text = _BlockText(precision, 3, 7)
        text.fmt = None  # `%` formatting would fail on it
        want = "".join(f"%.{precision}g,0,-0\n" % v for v in t)
        assert b"".join(text(values)).decode() == want

    @pytest.mark.parametrize("precision", range(1, 18))
    def test_every_template_key(self, precision):
        # each value's decade X and count nd of significant digits pick its
        # template row, and X its dot column; random values need not reach
        # every one, so here is one value per (X, nd), of either sign
        x = key_values(precision)
        x = np.concatenate([x, -x])
        exact = x[np.abs(x) < 1e18]  # formatted without `%`
        reached = {decade_and_digits(v, precision) for v in exact}
        # from 1e18 on values go through `%`: of X = 18 the writer's own
        # text reaches only 1e+18, rounded up from below it; and no double
        # has the 17 digits of N e-07, N e-06 or N e-05 for N in 1..9
        keys = {(X, nd) for X in range(-10, 18)
                for nd in range(1, precision + 1)}
        if precision <= 15:
            keys.add((18, 1))
        if precision == 17:
            keys -= {(-7, 1), (-6, 1), (-5, 1)}
        assert reached == keys
        text = _BlockText(precision, 1, exact.size)
        text.fmt = None  # `%` formatting would fail on it
        assert b"".join(text(exact)).decode() == "".join(
            f"%.{precision}g\n" % v for v in exact)
        for ncols in range(1, 6):  # every value in every column
            rows = np.resize(x, (-(-x.size // ncols) + 1, ncols))
            for shift in range(ncols):
                values = np.roll(rows.ravel(), shift)
                got = b"".join(_BlockText(precision, ncols, len(rows))(values))
                seps = "," * (ncols - 1) + "\n"
                assert got.decode() == "".join(
                    f"%.{precision}g" % v + seps[i % ncols]
                    for i, v in enumerate(values))

    def test_block_text_needs_no_index_array(self):
        # one block of the oracle's rows; selecting the kept characters by
        # an index array (np.compress) took 8 bytes per character for it
        kernel = TruncatedExponential(1.0, 1.0)
        t = np.arange(_BLOCK_ROWS, dtype=float) * 1e-3
        values = np.column_stack([t, kinematic_trajectory(1.5, kernel, 0.0, t),
                                  kinematic_velocity(1.5, kernel, t)]).ravel()
        text = _BlockText(17, 3, _BLOCK_ROWS)
        want = list(text(values))  # builds the cached tables first
        tracemalloc.start()
        try:
            # part by part, each dropped once compared, as writelines does
            same = list(map(operator.eq, text(values), want))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert same == [True] * len(want)
        assert peak < 8 * sum(map(len, want))

    def test_block_working_set_per_value(self):
        # building the writer's block text and making one full block of the
        # oracle's rows at precision 17, its parts written one at a time:
        # 553 688 bytes for 2048 rows (90 per value; numpy 2.4.6, CPython
        # 3.11.7), with 32-byte text rows, a third of the block per matrix,
        # and the digit rows in the work arrays. With 44-byte rows and a
        # block's parts returned as one list it peaked at 642 906 bytes. The
        # bound is 5% over the first, for the temporaries other numpy and
        # Python versions may trace, and 10% under the second.
        kernel = TruncatedExponential(1.0, 1.0)
        t = np.arange(_BLOCK_ROWS, dtype=float) * 1e-3
        values = np.column_stack([t, kinematic_trajectory(1.5, kernel, 0.0, t),
                                  kinematic_velocity(1.5, kernel, t)]).ravel()
        b"".join(_BlockText(17, 3, 1)(values[:3]))  # builds the cached tables
        tracemalloc.start()
        try:
            text = _BlockText(17, 3, _BLOCK_ROWS)
            # part by part, each dropped once made, as writelines does
            collections.deque(text(values), maxlen=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 581_000, f"{peak / values.size:.1f} bytes per value"

    @pytest.mark.parametrize("ncols", [1, 2, 3, 4, 5])
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(precision=st.integers(1, 17), rows=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_reused_block_text_matches_a_fresh_one(self, ncols, precision,
                                                   rows, seed, data):
        # every work array is reused: nothing of one block may show in the
        # text of the next; and the text matrix, a third of the block, must
        # end each part on a row boundary whatever the width
        rng = np.random.default_rng(seed)
        short = data.draw(st.integers(1, max(rows - 1, 1)), label="short")
        edges = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300,
                          1e300, -1e-300, -1e300])
        blocks = [exact_range_floats(rng, ncols * rows),
                  wide_floats(rng, ncols * short, []),
                  np.resize(edges, ncols * rows),
                  exact_range_floats(rng, ncols * rows)]
        seps = "," * (ncols - 1) + "\n"
        text = _BlockText(precision, ncols, rows)
        for x in blocks:
            got = b"".join(text(x))
            assert got == b"".join(_BlockText(precision, ncols, rows)(x))
            want = "".join(f"%.{precision}g" % v + seps[i % ncols]
                           for i, v in enumerate(x))
            assert got.decode() == want

    def test_full_size_oracle_file(self, tmp_path, capsys):
        # the benchmark's largest CSV, oracle_csv at seed 0: 200 001 rows,
        # so every block boundary of 98 blocks, and zdot exactly 0.5 from
        # t = 37.43 on
        cfg = {"model": {"potential": {"kind": "abs"},
                         "kernel": {"kind": "truncated_exponential",
                                    "beta": 1.0, "zeta": 1.0},
                         "past": {"kind": "constant", "value": 0.0},
                         "v": {"kind": "constant", "value": 1.5}},
               "solver": {"T": 200.0, "dt": 1e-3}}
        (tmp_path / "run.json").write_text(json.dumps(cfg))
        path = tmp_path / "oracle.csv"
        assert main(["oracle", "--config", str(tmp_path / "run.json"),
                     "--out", str(path)]) == 0
        capsys.readouterr()
        kernel = TruncatedExponential(1.0, 1.0)
        t = np.arange(200_001) * 1e-3
        z = kinematic_trajectory(1.5, kernel, 0.0, t)
        zdot = kinematic_velocity(1.5, kernel, t)
        assert np.count_nonzero(zdot == 0.5) > 100_000
        assert_per_row_format(path, ("t", "z", "zdot"),
                              zip(t.tolist(), z.tolist(), zdot.tolist()), 17)

    def test_no_rows_gives_the_header_only(self, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, [], [], [])
        assert path.read_bytes() == b"t,z,zdot\n"
        path.unlink()

        def never(t):
            raise AssertionError("a function column called with no rows")

        write_trajectory_csv(path, np.empty(0), never, never)
        assert path.read_bytes() == b"t,z,zdot\n"
        report = StudyReport("demo", ("param", "metric"), [], "none", True)
        report.to_csv(path)
        assert path.read_bytes() == b"param,metric\n"

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(precision=st.integers(1, 17), n=st.sampled_from(ROW_COUNTS),
           seed=st.integers(0, 2**32 - 1))
    def test_study_report_with_ints_and_bools(self, tmp_path_factory,
                                              precision, n, seed):
        rng = np.random.default_rng(seed)
        floats = wide_floats(rng, n, [])
        ints = rng.integers(-2**53 + 1, 2**53, n)
        flags = rng.random(n) < 0.5
        rows = [(float(x), int(i), bool(b))
                for x, i, b in zip(floats, ints, flags)]
        report = StudyReport("demo", ("param", "steps", "ok"), rows, "none",
                             True)
        path = tmp_path_factory.mktemp("csv") / "study.csv"
        report.to_csv(path, precision)
        assert_per_row_format(path, report.columns, rows, precision)
