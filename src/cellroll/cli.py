"""Command-line runner for trajectory solves, closed-form checks, and studies.

Subcommands
-----------
simulate / mm / limit
    Integrate one trajectory from a JSON config and write ``t,z,zdot`` CSV.
oracle
    Closed-form reference trajectory (plastic or kinematic) on the same
    grid, for the abs potential on a truncated_exponential kernel.
gamma
    Print the asymptotic velocity for a constant drive, or sweep a force
    grid against the velocity-force law.
converge / longtime
    Parameter studies; the exit code reports whether the declared
    criteria passed.

Every command but ``gamma`` runs through :func:`_run_config`: the config
is parsed and checked by :mod:`cellroll.config`, then the solve or study
runs, and its CSV is paired with a ``*.manifest.json`` echoing the fully
resolved configuration; feeding a manifest back through ``--config``
reproduces the run bit for bit. Bad input, an unreadable config file or a
missing output directory included, exits 2 with the dotted path of the
offending field (or the flag); a numerical failure, a grid too large for
memory, an output write that fails, or an internal error, exits 1.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import config as cfgmod
from .errors import ConfigError, NumericalError
from .experiments import (convergence_study, longtime_study,
                          velocity_force_sweep)
from .history import write_trajectory_csv
from .kernels import Exponential
from .memory import _MAX_NODES, step_count
from .oracles import (kinematic_trajectory, kinematic_velocity,
                      plastic_trajectory)
from .potentials import AbsoluteValue, Quadratic, Tether
from .solver_limit import integrate_limit, limit_velocity
from .solver_mm import solve_mm
from .solver_smooth import solve_smooth

__all__ = ["main"]


def _oracle(kernel, z0, v_inf, solver):
    """The closed-form trajectory on the solver's grid, as a CSV writer."""
    t = np.arange(step_count(solver.T, solver.dt) + 1) * solver.dt
    if abs(v_inf) <= kernel.mu_total():
        profile = plastic_trajectory(v_inf, kernel, z0)
        z, zdot = profile.z(t), profile.zdot(t)
    else:
        z = kinematic_trajectory(v_inf, kernel, z0, t)
        zdot = kinematic_velocity(v_inf, kernel, t)
    return lambda path, precision: write_trajectory_csv(path, t, z, zdot,
                                                        precision)


def _run_config(cmd: str, args) -> int:
    """Run one config command; a study exits 1 if its criteria failed."""
    psi, kernel, past, drive, run, manifest = cfgmod.resolve_run(
        cfgmod.load_config(args.config), cmd)
    out = manifest["output"]
    if args.out:
        out["path"] = args.out
    folder = os.path.dirname(out["path"]) or "."
    if not os.path.isdir(folder):
        raise ConfigError("--out" if args.out else "output.path",
                          f"directory {folder!r} does not exist")
    r_v = manifest["model"]["v"]
    # a table drive holds its last value beyond its last time
    v_inf = r_v["value"] if r_v["kind"] == "constant" else r_v["values"][-1]
    report = None
    if cmd == "simulate":
        write = solve_smooth(psi, kernel, drive, past, run).to_csv
    elif cmd == "mm":
        write = solve_mm(psi, kernel, drive, past, run).to_csv
    elif cmd == "limit":
        write = integrate_limit(psi, kernel, drive, past.eval(0.0),
                                run.T, run.dt).to_csv
    elif cmd == "oracle":
        write = _oracle(kernel, past.eval(0.0), v_inf, run)
    elif cmd == "converge":
        report = convergence_study(psi, kernel, drive, past, run["eps_list"],
                                   run["T"], run["dt"],
                                   final_bound=run.get("final_bound"))
    else:
        report = longtime_study(psi, kernel, drive, past, run["T_list"],
                                dt=run["dt"], v_inf=v_inf)
    if report is not None:
        write = report.to_csv
    write(out["path"], precision=out["precision"])
    stem = out["path"][:-4] if out["path"].endswith(".csv") else out["path"]
    with open(stem + ".manifest.json", "w") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    if report is None:
        print(f"wrote {out['path']}")
        return 0
    print(report.summary())
    return 0 if report.passed else 1


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
        # Exponential checks beta first, so any other complaint is zeta's
        flag = "--beta" if args.beta < 0 else "--zeta"
        return cfgmod._checked(flag, Exponential, args.beta, args.zeta)
    # default: unit-rate bonds scaled so the total mass equals --mu
    return cfgmod._checked("--mu", Exponential, args.mu, 1.0)


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
        if args.command == "gamma":
            return _run_gamma(args)
        return _run_config(args.command, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # the output directory was checked before the solve
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # the count checks only refuse sizes that no array can index
        knob = "--sweep N" if args.command == "gamma" else "T/dt"
        print(f"out of memory: {exc}; lower {knob}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # bad input is rejected as a ConfigError before any solve starts
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
