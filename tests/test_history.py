"""Past data, the trajectory grid, and CSV output."""
import math

import numpy as np
import pytest

from cellroll.history import (ConstantPast, LinearPast, TabulatedPast,
                              Trajectory, initial_stretch,
                              write_trajectory_csv)


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

    def test_initial_stretch(self):
        p = LinearPast(2.0, 1.0)
        a = np.array([0.0, 0.5, 3.0])
        np.testing.assert_allclose(initial_stretch(p, a), 2.0 * a)
        np.testing.assert_allclose(initial_stretch(ConstantPast(5.0), a), 0.0)


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
