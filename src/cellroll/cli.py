"""Command-line runner for trajectory solves, closed-form checks, and studies.

Subcommands
-----------
simulate / mm / limit
    Integrate one trajectory from a JSON config and write ``t,z,zdot`` CSV.
oracle
    Closed-form reference trajectory (plastic or kinematic) on the same grid.
gamma
    Print the asymptotic velocity for a constant drive, or sweep a force
    grid against the velocity-force law.
converge / longtime
    Parameter studies; the exit code reports whether the declared
    criteria passed.

Every CSV write is paired with a ``*.manifest.json`` echoing the fully
resolved configuration; feeding a manifest back through ``--config``
reproduces the run bit for bit. Bad input exits 2 with the dotted path of
the offending field; a numerical failure, a grid too large for memory, or
an internal error, exits 1.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import config as cfgmod
from .errors import ConfigError, NumericalError
from .experiments import (_check_eps_list, convergence_study,
                          longtime_study, velocity_force_sweep)
from .history import write_trajectory_csv
from .kernels import Exponential
from .memory import _MAX_NODES, age_step, step_count
from .oracles import (kinematic_trajectory, kinematic_velocity,
                      plastic_trajectory)
from .potentials import AbsoluteValue, Quadratic, Tether
from .solver_limit import integrate_limit, limit_velocity
from .solver_mm import solve_mm
from .solver_smooth import _reject_nonsmooth, solve_smooth

__all__ = ["main"]


def _manifest_path(csv_path: str) -> str:
    stem = csv_path[:-4] if csv_path.endswith(".csv") else csv_path
    return stem + ".manifest.json"


def _write_manifest(resolved: dict, csv_path: str) -> None:
    with open(_manifest_path(csv_path), "w") as fh:
        json.dump(resolved, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _output_section(cfg: dict, default_path: str) -> dict:
    return cfgmod.build_output(cfgmod._section(cfg, "output", required=False),
                               default_path=default_path)


def _checked(path: str, check, *args):
    """Run one of a solver's own precondition checks as a config check."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _run_trajectory(cmd: str, args) -> int:
    cfg = cfgmod.load_config(args.config)
    psi, kernel, past, drive, r_model = cfgmod.resolve_model(cfg)
    solver_cfg, r_solver = cfgmod.build_solver(
        cfgmod._section(cfg, "solver", required=False))
    _checked("solver.T", step_count, solver_cfg.T, solver_cfg.dt)
    if cmd != "limit":
        _checked("solver.dt", age_step, kernel, solver_cfg.eps, solver_cfg.dt)
    if cmd == "simulate":
        _checked("model.potential", _reject_nonsmooth, psi)
    out = _output_section(cfg, default_path=f"{cmd}.csv")
    if args.out:
        out["path"] = args.out
    if cmd == "simulate":
        traj = solve_smooth(psi, kernel, drive, past, solver_cfg)
    elif cmd == "mm":
        traj = solve_mm(psi, kernel, drive, past, solver_cfg)
    else:
        traj = integrate_limit(psi, kernel, drive, past.eval(0.0),
                               solver_cfg.T, solver_cfg.dt)
    traj.to_csv(out["path"], precision=out["precision"])
    resolved = {"command": cmd, "model": r_model, "solver": r_solver,
                "output": out}
    _write_manifest(resolved, out["path"])
    print(f"wrote {out['path']}")
    return 0


def _run_oracle(args) -> int:
    cfg = cfgmod.load_config(args.config)
    psi, kernel, past, drive, r_model = cfgmod.resolve_model(cfg)
    if r_model["v"]["kind"] != "constant":
        raise ConfigError("model.v.kind",
                          "oracle profiles need a constant drive")
    v_inf = r_model["v"]["value"]
    solver_cfg, r_solver = cfgmod.build_solver(
        cfgmod._section(cfg, "solver", required=False))
    out = _output_section(cfg, default_path="oracle.csv")
    if args.out:
        out["path"] = args.out
    z0 = past.eval(0.0)
    n = _checked("solver.T", step_count, solver_cfg.T, solver_cfg.dt)
    t = np.arange(n + 1) * solver_cfg.dt
    if abs(v_inf) <= kernel.mu_total():
        profile = plastic_trajectory(v_inf, kernel, z0)
        z, zdot = profile.z(t), profile.zdot(t)
    else:
        z = kinematic_trajectory(v_inf, kernel, z0, t)
        zdot = kinematic_velocity(v_inf, kernel, t)
    write_trajectory_csv(out["path"], t, z, zdot, precision=out["precision"])
    resolved = {"command": "oracle", "model": r_model, "solver": r_solver,
                "output": out}
    _write_manifest(resolved, out["path"])
    print(f"wrote {out['path']}")
    return 0


def _gamma_potential(args):
    if args.psi == "abs":
        return AbsoluteValue()
    if args.psi == "quadratic":
        return Quadratic()
    if args.psi == "tether":
        if args.r is None or args.r <= 0:
            raise ConfigError("--r", "tether needs a positive radius")
        return Tether(args.r)
    raise ConfigError("--psi", f"unknown potential {args.psi!r}")


def _gamma_kernel(args):
    if args.beta is not None or args.zeta is not None:
        if args.beta is None or args.zeta is None:
            raise ConfigError("--beta", "give both --beta and --zeta")
        return Exponential(args.beta, args.zeta)
    # default: unit-rate bonds scaled so the total mass equals --mu
    return Exponential(args.mu, 1.0)


def _run_gamma(args) -> int:
    psi = _gamma_potential(args)
    kernel = _gamma_kernel(args)
    if args.sweep is not None:
        lo, hi, count = args.sweep
        if not (count.is_integer() and 2 <= count < _MAX_NODES):
            raise ConfigError("--sweep", f"N must be an integer from 2 to "
                              f"{_MAX_NODES - 1}, got {count:g}")
        if not lo < hi:
            raise ConfigError("--sweep", "need LO < HI")
        if not isinstance(psi, AbsoluteValue):
            raise ConfigError("--psi", "the sweep law is for the abs potential")
        report = velocity_force_sweep(kernel, np.linspace(lo, hi, int(count)))
        report.to_csv(args.out)
        print(report.summary())
        return 0 if report.passed else 1
    if args.v is None:
        raise ConfigError("--v", "give a drive value or --sweep LO HI N")
    gamma = limit_velocity(psi, kernel, args.v, math.inf)
    print("%.12g" % gamma)
    return 0


def _run_converge(args) -> int:
    cfg = cfgmod.load_config(args.config)
    psi, kernel, past, drive, r_model = cfgmod.resolve_model(cfg)
    study = cfgmod._section(cfg, "study")
    cfgmod._check_keys(study, {"eps_list", "T", "dt", "final_bound"}, "study")
    eps_arr = cfgmod._array(study, "eps_list", "study")
    T = cfgmod._num(study, "T", "study", required=True, positive=True)
    dt = cfgmod._num(study, "dt", "study", required=True, positive=True)
    bound = cfgmod._num(study, "final_bound", "study", positive=True)
    out = _output_section(cfg, default_path="converge.csv")
    if args.out:
        out["path"] = args.out
    eps_list = [float(e) for e in eps_arr]
    _checked("study.eps_list", _check_eps_list, eps_list, dt)
    _checked("study.T", step_count, T, dt)
    _checked("study.dt", age_step, kernel, eps_list[-1], dt)
    report = convergence_study(psi, kernel, drive, past, eps_list, T, dt,
                               final_bound=bound)
    report.to_csv(out["path"], precision=out["precision"])
    r_study = {"eps_list": eps_list, "T": T, "dt": dt}
    if bound is not None:
        r_study["final_bound"] = bound
    resolved = {"command": "converge", "model": r_model, "study": r_study,
                "output": out}
    _write_manifest(resolved, out["path"])
    print(report.summary())
    return 0 if report.passed else 1


def _run_longtime(args) -> int:
    cfg = cfgmod.load_config(args.config)
    psi, kernel, past, drive, r_model = cfgmod.resolve_model(cfg)
    study = cfgmod._section(cfg, "study")
    cfgmod._check_keys(study, {"T_list", "dt"}, "study")
    T_arr = cfgmod._array(study, "T_list", "study")
    dt = cfgmod._num(study, "dt", "study", default=1e-2, positive=True)
    out = _output_section(cfg, default_path="longtime.csv")
    if args.out:
        out["path"] = args.out
    T_list = [float(T) for T in T_arr]
    for T in T_list:
        _checked("study.T_list", step_count, T, dt)
    _checked("study.dt", age_step, kernel, 1.0, dt)  # the study runs at eps = 1
    r_v = r_model["v"]
    # a table drive holds its last value beyond its last time
    v_inf = r_v["value"] if r_v["kind"] == "constant" else r_v["values"][-1]
    report = longtime_study(psi, kernel, drive, past, T_list, dt=dt, v_inf=v_inf)
    report.to_csv(out["path"], precision=out["precision"])
    resolved = {"command": "longtime", "model": r_model,
                "study": {"T_list": T_list, "dt": dt}, "output": out}
    _write_manifest(resolved, out["path"])
    print(report.summary())
    return 0 if report.passed else 1


def _finite(text: str) -> float:
    """argparse type: a finite float; NaN and infinities exit 2."""
    try:
        val = float(text)
    except ValueError:
        val = math.nan
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return val


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellroll",
        description="Crawling-cell adhesion dynamics: delayed solves, "
                    "minimizing movements, and the macroscopic limit.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, blurb in (("simulate", "explicit time stepping of the delayed model"),
                        ("mm", "minimizing-movement stepping (kinked potentials allowed)"),
                        ("limit", "macroscopic limit trajectory"),
                        ("oracle", "closed-form reference trajectory"),
                        ("converge", "error vs eps against the limit trajectory"),
                        ("longtime", "drift toward the asymptotic velocity")):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--out", help="override output.path from the config")

    g = sub.add_parser("gamma", help="asymptotic velocity from the stationary law")
    g.add_argument("--psi", default="abs", choices=("abs", "quadratic", "tether"),
                   help="potential shape (default abs)")
    g.add_argument("--r", type=_finite, help="tether radius when --psi tether")
    g.add_argument("--mu", type=_finite, default=1.0,
                   help="total bond mass for the default exponential kernel")
    g.add_argument("--beta", type=_finite, help="kernel amplitude (with --zeta)")
    g.add_argument("--zeta", type=_finite, help="kernel decay rate (with --beta)")
    g.add_argument("--v", type=_finite, help="single drive value to solve at")
    g.add_argument("--sweep", type=_finite, nargs=3, metavar=("LO", "HI", "N"),
                   help="sweep N drive values in [LO, HI] against the law")
    g.add_argument("--out", default="gamma_sweep.csv",
                   help="CSV path for --sweep results")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("simulate", "mm", "limit"):
            return _run_trajectory(args.command, args)
        if args.command == "oracle":
            return _run_oracle(args)
        if args.command == "gamma":
            return _run_gamma(args)
        if args.command == "converge":
            return _run_converge(args)
        return _run_longtime(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # step_count only refuses counts no array can index
        print(f"out of memory: {exc}; lower T/dt", file=sys.stderr)
        return 1
    except ValueError as exc:
        # bad input is rejected as a ConfigError before any solve starts
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
