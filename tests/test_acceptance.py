"""Acceptance gate: eight headline behaviors, one PASS/FAIL line each.

Every test prints its verdict on the live terminal (bypassing capture) so
the gate can be read directly off a plain pytest run, then asserts it.
"""
import math
import time

import numpy as np
from scipy.integrate import quad

from cellroll import solver_smooth
from cellroll.cli import main as cli_main
from cellroll.experiments import convergence_study, longtime_study
from cellroll.history import (ConstantPast, LinearPast, TabulatedPast,
                              initial_stretch)
from cellroll.kernels import Exponential, TruncatedExponential
from cellroll.memory import Memory
from cellroll.oracles import quadratic_final_position
from cellroll.potentials import (AbsoluteValue, PiecewiseLinear, Quadratic,
                                 Tether, mollify)
from cellroll.solver_mm import minimize_step, solve_mm, step_energy
from cellroll.solver_smooth import SolverConfig, solve_smooth

T1_STOP = 0.1053605156578262


def report(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_plastic_regime_creeps_then_stops(capsys):
    z0 = -0.001
    cfg = SolverConfig(eps=1.0, T=0.3, dt=1e-3)
    start = time.perf_counter()
    traj = solve_mm(AbsoluteValue(), TruncatedExponential(1.0, 1.0), 0.1,
                    ConstantPast(z0), cfg)
    elapsed = time.perf_counter() - start
    t = traj.times
    creep = z0 + 0.1 * t - t + 1.0 - np.exp(-t)
    ref = np.where(t <= T1_STOP, creep, z0 + 0.1 - 0.9 * math.log(10.0 / 9.0))
    err = float(np.max(np.abs(traj.values - ref)))
    ok = err < 5e-4 and elapsed < 10.0
    report(capsys, "plastic creep and stop",
           ok, f"max |z - ref| = {err:.3e} (tol 5e-4), {elapsed:.1f}s (limit 10s)")


def test_kinematic_regime_tracks_reference_velocity(capsys):
    cfg = SolverConfig(eps=1.0, T=10.0, dt=1e-3)
    start = time.perf_counter()
    traj = solve_mm(AbsoluteValue(), TruncatedExponential(1.0, 1.0), 1.5,
                    ConstantPast(-0.001), cfg)
    elapsed = time.perf_counter() - start
    t = traj.times
    sel = t >= 0.5
    err = float(np.max(np.abs(traj.zdot()[sel] - (0.5 + np.exp(-t[sel])))))
    ok = err < 1e-2 and elapsed < 30.0
    report(capsys, "kinematic velocity tracking",
           ok, f"max |zdot - (0.5 + exp(-t))| on [0.5, 10] = {err:.3e} "
               f"(tol 1e-2), {elapsed:.1f}s (limit 30s)")


def test_velocity_force_diagram_matches_law(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli_main(["gamma", "--sweep", "-3", "3", "25", "--out", str(out)])
    table = np.genfromtxt(out, delimiter=",", skip_header=1)
    worst = float(np.max(table[:, 3]))
    band = table[np.abs(table[:, 0]) <= 1.0, 1]
    ok = code == 0 and worst <= 1e-6 and np.all(band == 0.0)
    report(capsys, "velocity-force diagram",
           ok, f"25-point sweep max |gamma - law| = {worst:.2e} (tol 1e-6), "
               f"{band.size} pinned points exactly 0")


def test_zero_drive_final_position(capsys, monkeypatch):
    past = LinearPast(1.0, 1.0)
    cfg = SolverConfig(eps=1.0, T=40.0, dt=1e-3)
    kernel = Exponential(1.0, 1.0)
    running = []
    seed = solver_smooth._running_force
    monkeypatch.setattr(solver_smooth, "_running_force",
                        lambda *args: running.append(args) or seed(*args))
    start = time.perf_counter()
    traj = solve_smooth(Quadratic(), kernel, 0.0, past, cfg)
    elapsed = time.perf_counter() - start
    steps = traj.values.size - 1
    ages = Memory(kernel, cfg.eps, cfg.dt, "trapezoid").ages.size
    # quadratic psi on an exponential kernel runs on the running sum
    work = (f"one {ages}-age dot, then {steps} O(1) steps"
            if running else f"{steps} steps x {ages} ages")
    target = quadratic_final_position(1.0, 1.0, past)
    err = abs(float(traj.values[-1]) - target)
    ok = err < 1e-2
    report(capsys, "quadratic final position",
           ok, f"|z(40) - {target:g}| = {err:.3e} (tol 1e-2), "
               f"{work}, {elapsed:.1f}s")


def test_smooth_convergence_rate(capsys):
    rep = convergence_study(Quadratic(), Exponential(1.0, 1.0), 1.0,
                            ConstantPast(0.0), [0.4, 0.2, 0.1, 0.05],
                            T=2.0, dt=1e-3, final_bound=0.02)
    errs = [row[1] for row in rep.rows]
    ok = rep.passed and all(b < a for a, b in zip(errs, errs[1:])) \
        and errs[-1] <= 0.02
    report(capsys, "smooth eps-convergence",
           ok, "errors " + " > ".join(f"{e:.4f}" for e in errs)
               + ", final <= 0.02")


def test_kinked_convergence_rate(capsys):
    eps_list = [0.2, 0.1, 0.05, 0.025]
    rep = convergence_study(AbsoluteValue(), Exponential(1.0, 1.0), 1.5,
                            ConstantPast(0.0), eps_list, T=1.0, dt=1e-3)
    model = [e * abs(math.log(e)) for e in eps_list]
    ratios = [row[1] / m for row, m in zip(rep.rows, model)]
    ok = rep.passed and ratios[-1] <= 1.2 * ratios[0]
    report(capsys, "kinked eps|ln eps| rate",
           ok, "ratios " + " -> ".join(f"{r:.3f}" for r in ratios)
               + ", last <= 1.2 x first")


def _random_instance(rng):
    shapes = [Quadratic(), Tether(float(rng.uniform(0.3, 1.5))),
              mollify(AbsoluteValue(), float(rng.uniform(0.05, 0.4))),
              mollify(PiecewiseLinear([1.0], [0.2, 1.5]),
                      float(rng.uniform(0.05, 0.4)))]
    psi = shapes[int(rng.integers(len(shapes)))]
    kernel = Exponential(float(rng.uniform(0.3, 2.0)),
                         float(rng.uniform(0.5, 2.0)))
    if rng.random() < 0.5:
        past = ConstantPast(float(rng.uniform(-2.0, 2.0)))
    else:
        past = TabulatedPast([-2.0, -1.3, -0.4, 0.0],
                             rng.uniform(-2.0, 2.0, size=4))
    v_val = float(rng.uniform(-2.0, 2.0))
    eps = float(rng.choice([0.5, 1.0, 2.0]))
    return psi, kernel, past, v_val, eps


def _suite_stability():
    rng = np.random.default_rng(101)
    T, dt = 1.0, 1e-2
    for _ in range(50):
        psi, kernel, past, v_val, eps = _random_instance(rng)
        traj = solve_smooth(psi, kernel, v_val, past,
                            SolverConfig(eps=eps, T=T, dt=dt))
        if np.max(np.abs(traj.values)) > past.bound + abs(v_val) * T + 10 * dt:
            return False
    return True


def _suite_energy():
    past = LinearPast(1.0, 0.0)
    kernel = Exponential(1.0, 1.0)
    psi = Quadratic()
    cfg = SolverConfig(eps=1.0, T=40.0, dt=4e-3)
    traj = solve_smooth(psi, kernel, 0.0, past, cfg)
    zdot = traj.zdot()
    kinetic = float(np.sum(zdot**2) * cfg.dt)
    budget = quad(lambda a: kernel.eval(a, 0.0)
                  * psi.value(initial_stretch(past, a)), 0, np.inf)[0]
    # zero drive: motion is funded by the inherited bond energy alone,
    # and the speed dies out (to exact zero once fully relaxed)
    speeds = np.abs(zdot[[2500, 5000, 10000]])
    return (kinetic <= 1.05 * budget
            and speeds[0] >= speeds[1] >= speeds[2] and speeds[2] < 1e-6)


def _suite_certificates():
    psi = AbsoluteValue()
    kernel = TruncatedExponential(1.0, 1.0)
    v = lambda t: 1.0 + 0.5 * math.sin(3.0 * t)
    cfg = SolverConfig(eps=1.0, T=0.5, dt=2e-3)
    traj = solve_mm(psi, kernel, v, ConstantPast(0.0), cfg)
    dt = traj.dt
    for n in range(1, traj.values.size):
        e = step_energy(psi, kernel, v, traj, n)
        if e.value(traj.values[n]) > e.value(traj.values[n - 1]) + 1e-14:
            return False
    rng = np.random.default_rng(43)
    for n in rng.integers(1, traj.values.size, size=20):
        e = step_energy(psi, kernel, v, traj, int(n))
        z_n = float(traj.values[n])
        zdot = (z_n - traj.values[n - 1]) / dt
        psi_z = e.eps * float(np.dot(e.weights,
                                     psi.value((z_n - e.anchors) / e.eps)))
        for w in rng.uniform(z_n - 1.0, z_n + 1.0, size=20):
            psi_w = e.eps * float(np.dot(e.weights,
                                         psi.value((w - e.anchors) / e.eps)))
            if (e.drive - zdot) * (w - z_n) + psi_z > psi_w + 10.0 * dt:
                return False
    return True


def _suite_convexity():
    rng = np.random.default_rng(103)
    catalog = [Quadratic(), AbsoluteValue(), Tether(0.8),
               PiecewiseLinear([0.5, 1.5], [0.3, 1.0, 2.0]),
               mollify(AbsoluteValue(), 0.2),
               mollify(PiecewiseLinear([1.0], [0.2, 1.5]), 0.1)]
    for psi in catalog:
        span = 0.72 if isinstance(psi, Tether) else 2.0
        u = rng.uniform(-span, span, size=200)
        w = rng.uniform(-span, span, size=200)
        mid = psi.value(0.5 * (u + w))
        if np.any(mid > 0.5 * (psi.value(u) + psi.value(w)) + 1e-12):
            return False
        if not np.array_equal(psi.value(u), psi.value(-u)):
            return False
        grid = np.sort(u)
        if np.any(psi.subdiff_hi(grid[:-1]) > psi.subdiff_lo(grid[1:]) + 1e-12):
            return False
    return True


def _suite_mollified_agreement():
    kernel = TruncatedExponential(1.0, 1.0)
    cfg = SolverConfig(eps=1.0, T=1.0, dt=2e-3)
    ref = solve_mm(AbsoluteValue(), kernel, 1.5, ConstantPast(0.0), cfg)
    gaps = []
    for delta in (0.1, 0.02):
        smooth = solve_smooth(mollify(AbsoluteValue(), delta), kernel, 1.5,
                              ConstantPast(0.0), cfg)
        gaps.append(float(np.max(np.abs(smooth.values - ref.values))))
    return gaps[1] < gaps[0] and gaps[0] < 0.1


def test_property_suites(capsys):
    suites = [("stability bound", _suite_stability),
              ("energy budget", _suite_energy),
              ("step certificates", _suite_certificates),
              ("potential convexity", _suite_convexity),
              ("mollified agreement", _suite_mollified_agreement)]
    verdicts = [(name, fn()) for name, fn in suites]
    ok = all(v for _, v in verdicts)
    detail = ", ".join(f"{name} {'ok' if v else 'FAILED'}"
                       for name, v in verdicts)
    report(capsys, "property suites", ok, detail)


def test_longtime_offset_bounded(capsys):
    rep = longtime_study(Quadratic(), Exponential(1.0, 1.0),
                         lambda t: 1.0 + np.exp(-t), ConstantPast(0.0),
                         [20.0, 40.0, 80.0], dt=2e-3, v_inf=1.0)
    offsets = [row[2] for row in rep.rows]
    ok = rep.passed and all(b <= 1.1 * a for a, b in zip(offsets, offsets[1:]))
    report(capsys, "long-time boundedness",
           ok, "window offsets " + " -> ".join(f"{o:.2e}" for o in offsets)
               + " (10% slack per doubling)")
