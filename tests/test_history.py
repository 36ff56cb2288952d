"""Past data, the trajectory grid, and CSV output."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellroll.experiments import StudyReport
from cellroll.history import (ConstantPast, LinearPast, TabulatedPast,
                              Trajectory, write_trajectory_csv)


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
        with pytest.raises(ValueError, match="equal length"):
            write_trajectory_csv(path, [0.0, 1.0], [0.0], [0.0])
        assert not path.exists()

    def test_study_row_of_the_wrong_width_is_rejected(self, tmp_path):
        report = StudyReport("demo", ("param", "metric"), [(1.0, 2.0, 3.0)],
                             "none", True)
        with pytest.raises(ValueError):
            report.to_csv(tmp_path / "demo.csv")


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
ROW_COUNTS = (1, 1023, 1024, 1025, 2049)  # around the 1024-row block


def wide_floats(rng, size, head):
    """Magnitudes 1e-300 .. 1e300 of either sign, some special values, and
    ``head`` (drawn by Hypothesis) in front."""
    x = 10.0 ** rng.uniform(-300.0, 300.0, size) * rng.choice([-1.0, 1.0], size)
    spots = rng.choice(size, min(size, 12), replace=False)
    x[spots] = rng.choice(SPECIAL, spots.size)
    head = head[:size]
    x[:len(head)] = head
    return x


class TestBlockWriter:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(precision=st.integers(1, 17), n=st.sampled_from(ROW_COUNTS),
           seed=st.integers(0, 2**32 - 1), head=st.lists(st.floats(), max_size=6))
    def test_trajectory_matches_per_row_format(self, tmp_path_factory,
                                               precision, n, seed, head):
        rng = np.random.default_rng(seed)
        t, z, zdot = wide_floats(rng, 3 * n, head).reshape(n, 3).T
        path = tmp_path_factory.mktemp("csv") / "traj.csv"
        write_trajectory_csv(path, t, z, zdot, precision)
        assert_per_row_format(path, ("t", "z", "zdot"), zip(t, z, zdot),
                              precision)

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
