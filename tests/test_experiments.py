"""Study reports: convergence rates, long-time drift, velocity-force sweep."""
import math

import numpy as np
import pytest

from cellroll.experiments import (StudyReport, convergence_study,
                                  longtime_study, velocity_force_sweep)
from cellroll.history import ConstantPast
from cellroll.kernels import Exponential
from cellroll.oracles import gamma_abs
from cellroll.potentials import AbsoluteValue, Quadratic


def smooth_instance():
    return Quadratic(), Exponential(1.0, 1.0), 1.0, ConstantPast(0.0)


class TestConvergenceStudy:
    def test_smooth_errors_decrease_at_rate_eps(self):
        psi, kernel, v, past = smooth_instance()
        report = convergence_study(psi, kernel, v, past,
                                   [0.4, 0.2, 0.1], T=1.0, dt=2e-3,
                                   final_bound=0.05)
        assert report.passed
        assert report.name == "convergence"
        assert report.columns == ("param", "metric", "fit")
        errs = [row[1] for row in report.rows]
        assert errs[0] > errs[1] > errs[2]
        # first-order rate: the error shadows 0.25 * eps on this instance
        model, c, resid = report.fit
        assert model == "eps"
        assert c == pytest.approx(0.25, rel=0.2)
        assert resid < 0.1 * c
        assert "strictly decreasing" in report.criterion
        assert "final error <= 0.05" in report.criterion

    def test_kinked_ratio_trend_uses_log_corrected_model(self):
        # stationary kernel, sliding drive: the limit is the exact line
        # gamma t and the eps solution lags by a boundary layer of width eps
        psi = AbsoluteValue()
        kernel = Exponential(1.0, 1.0)
        report = convergence_study(psi, kernel, 1.5, ConstantPast(0.0),
                                   [0.2, 0.1], T=1.0, dt=2e-3)
        assert report.passed
        assert report.fit[0] == "eps*|ln eps|"
        assert "last <= 1.2 * first" in report.criterion
        errs = [row[1] for row in report.rows]
        assert errs[0] == pytest.approx(0.2, rel=0.1)
        assert errs[1] == pytest.approx(0.1, rel=0.1)
        model = [e * abs(np.log(e)) for e in (0.2, 0.1)]
        ratios = [err / m for err, m in zip(errs, model)]
        assert ratios[1] <= 1.2 * ratios[0]

    def test_single_point_is_vacuous(self):
        psi, kernel, v, past = smooth_instance()
        report = convergence_study(psi, kernel, v, past, [0.2],
                                   T=0.5, dt=2e-3)
        assert report.passed
        assert report.criterion == "single point: vacuously true"
        assert report.fit is None
        # without a fit the fitted column repeats the measured error
        assert report.rows[0][2] == report.rows[0][1]

    @pytest.mark.parametrize("psi, eps_list", [
        (AbsoluteValue(), [0.2, 0.1]),
        (Quadratic(), [0.2]),
    ], ids=["kinked", "single-point"])
    def test_final_bound_applies_to_every_case(self, psi, eps_list):
        kernel, past = Exponential(1.0, 1.0), ConstantPast(0.0)
        free = convergence_study(psi, kernel, 1.5, past, eps_list, 0.2, 1e-3)
        assert free.passed
        assert "final error" not in free.criterion
        report = convergence_study(psi, kernel, 1.5, past, eps_list, 0.2,
                                   1e-3, final_bound=1e-9)
        assert report.rows[-1][1] > 1e-9
        assert not report.passed
        assert report.criterion == free.criterion + "; final error <= 1e-09"

    def test_rows_follow_the_requested_eps_order(self):
        psi, kernel, v, past = smooth_instance()
        report = convergence_study(psi, kernel, v, past, [0.4, 0.2],
                                   T=0.5, dt=2e-3)
        assert [row[0] for row in report.rows] == [0.4, 0.2]

    def test_rejects_non_decreasing_eps_list(self):
        psi, kernel, v, past = smooth_instance()
        with pytest.raises(ValueError, match="strictly decreasing"):
            convergence_study(psi, kernel, v, past, [0.1, 0.2], T=1.0, dt=1e-3)
        with pytest.raises(ValueError, match="strictly decreasing"):
            convergence_study(psi, kernel, v, past, [0.2, 0.2], T=1.0, dt=1e-3)

    def test_rejects_dt_at_or_above_smallest_eps(self):
        psi, kernel, v, past = smooth_instance()
        with pytest.raises(ValueError, match="well below"):
            convergence_study(psi, kernel, v, past, [0.4, 0.1], T=1.0, dt=0.1)


class TestLongtimeStudy:
    def test_drift_and_offset_shrink_as_horizon_doubles(self):
        psi, kernel, _, past = smooth_instance()
        v = lambda t: 1.0 + np.exp(-t)
        report = longtime_study(psi, kernel, v, past, [10.0, 20.0], dt=2e-3,
                                v_inf=1.0)
        assert report.passed
        assert report.columns == ("param", "metric", "offset")
        assert [row[0] for row in report.rows] == [10.0, 20.0]
        drifts = [row[1] for row in report.rows]
        offsets = [row[2] for row in report.rows]
        # transient deposits a constant head start, so drift ~ c / T
        assert drifts[1] == pytest.approx(0.5 * drifts[0], rel=0.05)
        assert offsets[1] <= 1.1 * offsets[0]
        assert "10% slack" in report.criterion

    def test_accepts_unsorted_horizons(self):
        psi, kernel, v, past = smooth_instance()
        report = longtime_study(psi, kernel, v, past, [8.0, 4.0], dt=5e-3)
        assert [row[0] for row in report.rows] == [4.0, 8.0]

    def test_rejects_empty_horizon_list(self):
        psi, kernel, v, past = smooth_instance()
        with pytest.raises(ValueError, match="nonempty"):
            longtime_study(psi, kernel, v, past, [])

    def test_callable_drive_needs_asymptotic_value(self):
        # sin never settles, so no time can stand in for t = inf
        psi, kernel, _, past = smooth_instance()
        with pytest.raises(ValueError, match="v_inf"):
            longtime_study(psi, kernel, math.sin, past, [4.0], dt=5e-3)


class TestVelocityForceSweep:
    def test_matches_closed_form_law_across_grid(self):
        kernel = Exponential(1.0, 1.0)
        report = velocity_force_sweep(kernel, np.linspace(-2.0, 2.0, 9))
        assert report.passed
        assert report.columns == ("param", "gamma", "gamma_abs", "diff")
        for v, g, g_ref, diff in report.rows:
            assert g_ref == gamma_abs(v, 1.0)
            assert diff <= 1e-6
        # the pinned region reports exactly zero
        inside = [g for v, g, _, _ in report.rows if abs(v) <= 1.0]
        assert inside == [0.0] * len(inside)

    def test_sorts_an_unordered_grid(self):
        kernel = Exponential(1.0, 1.0)
        report = velocity_force_sweep(kernel, [1.5, -1.5, 0.0])
        assert [row[0] for row in report.rows] == [-1.5, 0.0, 1.5]


class TestStudyReport:
    def report(self):
        return StudyReport("demo", ("param", "metric"),
                           [(0.5, 1.0 / 3.0), (0.25, 0.125)],
                           "metric halves with param", True)

    def test_summary_prefixes_verdict_and_keeps_criterion(self):
        report = self.report()
        assert report.summary() == "PASS demo: metric halves with param"
        report.passed = False
        assert report.summary().startswith("FAIL demo:")

    def test_summary_appends_fit_constants(self):
        report = self.report()
        report.fit = ("eps", 0.504856, 0.0271)
        assert report.summary().endswith("[fit eps: c=0.504856, rms=0.0271]")

    def test_csv_round_trips_at_full_precision(self, tmp_path):
        path = tmp_path / "demo.csv"
        self.report().to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "param,metric"
        back = np.genfromtxt(path, delimiter=",", skip_header=1)
        assert back[0, 1] == 1.0 / 3.0

    def test_csv_honors_reduced_precision(self, tmp_path):
        path = tmp_path / "demo.csv"
        self.report().to_csv(path, precision=3)
        assert path.read_text().splitlines()[1] == "0.5,0.333"
