"""Command-line runner for trajectory solves, closed-form checks, and studies.

Subcommands
-----------
simulate / mm / limit
    Integrate one trajectory from a JSON config and write ``t,z,zdot`` CSV.
oracle
    Closed-form reference trajectory (``oracles.AbsProfile``) on the same
    grid, for the abs potential on a truncated_exponential kernel.
gamma
    Print the asymptotic velocity for a constant drive (``--v``), or sweep
    a force grid against the velocity-force law (``--sweep``, to ``--out``).
    The config builders make psi and the kernel, so a flag is checked as
    its field is; a flag the run would not read exits 2.
converge / longtime
    Parameter studies; the exit code reports whether the declared
    criteria passed.

Every command but ``gamma`` runs through :func:`_run_config`: the config
is parsed and checked by :mod:`cellroll.config`, which accepts only what
the command reads, then the solve or study runs, and its CSV is paired
with a ``*.manifest.json`` echoing the fully resolved configuration;
feeding a manifest back through ``--config`` reproduces the run bit for
bit. Bad input, an unreadable config file or an output path that no
write could use (empty, in a missing directory, or a directory, for the
CSV or its manifest) included, exits 2 with the dotted path of the
offending field (or the flag); a numerical failure, a grid too large for
memory, an output write that fails, or an internal error, exits 1; an
internal error is one ``internal error:`` line, never a traceback.

This module's imports, numpy's among them, run with the cyclic collector
switched off; then the heap built so far is frozen (``gc.freeze()``), and
only then is the collector restored to the state it was found in. So no
collection runs during start-up, and none afterwards, the ones at
interpreter shutdown included, walks numpy's or cellroll's import-time
objects. ``import cellroll`` alone loads no numpy, freezes nothing and
leaves the collector alone, and :func:`main` freezes nothing.
"""
from __future__ import annotations

import gc

# No collection during the imports: each would walk numpy's import-time
# objects, which are frozen below and never collected. At module level,
# not in main(): once per process, never once per in-process call.
_collecting = gc.isenabled()
gc.disable()
try:
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
    from .history import _Grid, write_trajectory_csv
    from .memory import _MAX_NODES, step_count
    from .oracles import AbsProfile
    from .solver_limit import integrate_limit, limit_velocity
    from .solver_mm import solve_mm
    from .solver_smooth import solve_smooth
finally:
    # freeze first: it empties the young generation and resets its count,
    # so the first collection after the imports walks none of their objects
    gc.freeze()
    if _collecting:
        gc.enable()

__all__ = ["main"]


def _oracle(kernel, z0, v_inf, solver):
    """The closed-form trajectory on the solver's grid, as a CSV writer.

    Only the profile's stop time is found here: the writer makes the time
    grid and evaluates z and zdot, which are elementwise in t, one block of
    times at a time, so memory holds one block and the bytes equal those of
    whole-grid arrays.
    """
    t = _Grid(step_count(solver.T, solver.dt) + 1, solver.dt)
    profile = AbsProfile(v_inf, kernel, z0)
    return lambda path, precision: write_trajectory_csv(
        path, t, profile.z, profile.zdot, precision)


def _check_out(path: str, field: str):
    """Reject an output path that no write could use, before any solve:
    an empty one, one in a directory that does not exist, or a directory."""
    if not path:
        raise ConfigError(field, "must be a nonempty path")
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ConfigError(field, f"directory {folder!r} does not exist")
    if os.path.isdir(path):
        raise ConfigError(field, f"{path!r} is a directory")


def _run_config(cmd: str, args) -> int:
    """Run one config command; a study exits 1 if its criteria failed."""
    psi, kernel, past, drive, run, manifest = cfgmod.resolve_run(
        cfgmod.load_config(args.config), cmd)
    out = manifest["output"]
    if args.out is not None:
        out["path"] = args.out
    field = "output.path" if args.out is None else "--out"
    stem = out["path"][:-4] if out["path"].endswith(".csv") else out["path"]
    manifest_path = stem + ".manifest.json"
    _check_out(out["path"], field)
    _check_out(manifest_path, field)
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
    with open(manifest_path, "w") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    if report is None:
        print(f"wrote {out['path']}")
        return 0
    print(report.summary())
    return 0 if report.passed else 1


def _from_flags(build, **flags):
    """What the config builder ``build`` makes of the flags given (None for
    one left out), with a config error reported at its flag."""
    try:
        return build({k: v for k, v in flags.items() if v is not None},
                     "gamma")[0]
    except ConfigError as exc:
        raise ConfigError("--" + exc.field.rsplit(".", 1)[-1],
                          exc.message) from exc


def _run_gamma(args) -> int:
    if args.r is not None and args.psi != "tether":
        raise ConfigError("--r", "only --psi tether takes a radius")
    if (args.beta is None) != (args.zeta is None):
        given = "--beta" if args.zeta is None else "--zeta"
        raise ConfigError(given, "give both --beta and --zeta")
    if args.sweep is None and args.out is not None:
        raise ConfigError("--out", "only --sweep writes a CSV")
    if args.sweep is not None and args.v is not None:
        raise ConfigError("--v", "--sweep sets the drives")
    psi = _from_flags(cfgmod.build_potential, kind=args.psi, r=args.r)
    # by default, unit-rate bonds of total mass 1
    kernel = _from_flags(cfgmod.build_kernel, kind="exponential",
                         beta=1.0 if args.beta is None else args.beta,
                         zeta=1.0 if args.zeta is None else args.zeta)
    if args.sweep is not None:
        lo, hi, count = args.sweep
        if not (count.is_integer() and 2 <= count < _MAX_NODES):
            raise ConfigError("--sweep", f"N must be an integer from 2 to "
                              f"{_MAX_NODES - 1}, got {count:g}")
        if not lo < hi:
            raise ConfigError("--sweep", "need LO < HI")
        if args.psi != "abs":
            raise ConfigError("--psi", "the sweep law is for the abs potential")
        out = "gamma_sweep.csv" if args.out is None else args.out
        _check_out(out, "--out")
        report = velocity_force_sweep(kernel, np.linspace(lo, hi, int(count)))
        report.to_csv(out)
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
    g.add_argument("--r", type=_finite, help="tether radius (--psi tether only)")
    g.add_argument("--beta", type=_finite, help="kernel amplitude (default 1)")
    g.add_argument("--zeta", type=_finite, help="kernel decay rate (default 1)")
    g.add_argument("--v", type=_finite, help="single drive value to solve at")
    g.add_argument("--sweep", type=_finite, nargs=3, metavar=("LO", "HI", "N"),
                   help="sweep N drive values in [LO, HI] against the law")
    g.add_argument("--out", help="--sweep CSV path (default gamma_sweep.csv)")
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
        # the count checks only refuse sizes that no array can index; a
        # delayed solver's buffer holds the steps and the ages
        knob = {"gamma": "--sweep N", "limit": "T/dt", "oracle": "T/dt"}.get(
            args.command, "T/dt (steps) or a_max*eps/dt (ages)")
        print(f"out of memory: {exc}; lower {knob}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # bad input is rejected as a ConfigError before any solve starts
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # a bug, not bad input: one line, never a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
