"""JSON run configs: every section parsed, checked and resolved.

A command accepts exactly the settings it reads. :func:`resolve_run`
builds ``model`` and ``output`` for every command; ``solver`` for
``simulate``, ``mm``, ``limit`` and ``oracle``, where only ``simulate``
takes a ``scheme`` (``limit`` and ``oracle`` take an ``eps`` they do not
read); and ``study`` for ``converge`` and ``longtime``. Any other section,
or a top-level ``command`` naming another subcommand, is rejected at
``<config>.<key>``. It checks the preconditions the solve or study would
check at its start, so bad input fails before any computation starts, as a
:class:`ConfigError` carrying the dotted field path. It also returns the
manifest: the config with every default filled in, which reproduces the
run when fed back. A JSON ``null`` number, list or section counts as
absent.
"""
from __future__ import annotations

import json
import math

import numpy as np

from .errors import ConfigError
from .experiments import _check_eps_list
from .history import ConstantPast, LinearPast, TabulatedPast
from .kernels import Exponential, Tabulated, TruncatedExponential
from .memory import _age_grid, age_step, step_count
from .potentials import (AbsoluteValue, PiecewiseLinear, Quadratic, Tether,
                         mollify)
from .solver_smooth import SolverConfig, _reject_nonsmooth

__all__ = ["load_config", "build_potential", "build_kernel", "build_past",
           "build_drive", "build_solver", "build_output"]


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, UnicodeError) as exc:
        raise ConfigError("<config>", f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # RecursionError: too deep
        raise ConfigError("<config>", f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("<config>", "top level must be an object")
    _check_keys(cfg, {"model", "solver", "output", "study", "command"},
                "<config>")
    return cfg


def _checked(path, check, *args, **kwargs):
    """``check(*args, **kwargs)``, with a ValueError it raises reported at
    ``path``: the solvers' own precondition checks become config checks."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _check_keys(d, allowed, path):
    for key in d:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", "unknown field")


def _section(cfg, name, required=True):
    sec = cfg.get(name)
    if sec is None:
        if required:
            raise ConfigError(name, "required section")
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(name, "must be an object")
    return sec


def _get(d, key, path, default=None, required=False):
    if key not in d:
        if required:
            raise ConfigError(f"{path}.{key}", "required")
        return default
    return d[key]


def _kind(d, path, what, fields, *common):
    """The ``kind`` of the object ``d``, checked against ``fields``, which
    maps each kind to the keys it takes besides ``kind`` and ``common``."""
    if not isinstance(d, dict):
        raise ConfigError(path, "must be an object")
    kind = _get(d, "kind", path, required=True)
    if not isinstance(kind, str) or kind not in fields:
        raise ConfigError(f"{path}.kind",
                          f"unknown {what} {kind!r}; use {', '.join(fields)}")
    _check_keys(d, {"kind", *common, *fields[kind]}, path)
    return kind


def _num(d, key, path, default=None, required=False, positive=False,
         nonnegative=False):
    raw = d.get(key)  # a JSON null counts as absent
    if raw is None:
        if required:
            raise ConfigError(f"{path}.{key}", "required")
        return default
    try:
        val = float(raw)
    except (TypeError, ValueError, OverflowError):
        val = math.nan
    # JSON true/false would pass as 1.0/0.0, "1.5" as 1.5, NaN/Infinity as
    # floats, and an integer past the float range overflows
    if isinstance(raw, (bool, str)) or not math.isfinite(val):
        raise ConfigError(f"{path}.{key}", f"expected a finite number, got {raw!r}")
    if positive and not val > 0:
        raise ConfigError(f"{path}.{key}", "must be positive")
    if nonnegative and val < 0:
        raise ConfigError(f"{path}.{key}", "must be nonnegative")
    return val


def _array(d, key, path):
    raw = d.get(key)  # a JSON null counts as absent
    if raw is None:
        raise ConfigError(f"{path}.{key}", "required")
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{path}.{key}", "expected a list of numbers")
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigError(f"{path}.{key}", "expected a nonempty flat list")
    if any(isinstance(x, (bool, str)) for x in raw) or not np.all(np.isfinite(arr)):
        raise ConfigError(f"{path}.{key}", "expected a list of finite numbers")
    return arr


def build_potential(d, path="model.potential"):
    # mollify leaves a psi without kinks as it is, so only the kinked
    # kinds take a mollify_delta
    kind = _kind(d, path, "potential",
                 {"quadratic": (), "tether": ("r",), "abs": ("mollify_delta",),
                  "piecewise_linear": ("breaks", "slopes", "mollify_delta")})
    resolved = {"kind": kind}
    if kind == "quadratic":
        psi = Quadratic()
    elif kind == "tether":
        r = _num(d, "r", path, required=True, positive=True)
        psi = Tether(r)
        resolved["r"] = r
    elif kind == "abs":
        psi = AbsoluteValue()
    else:
        breaks = _array(d, "breaks", path)
        slopes = _array(d, "slopes", path)
        psi = _checked(path, PiecewiseLinear, breaks, slopes)
        resolved["breaks"] = list(map(float, breaks))
        resolved["slopes"] = list(map(float, slopes))
    delta = _num(d, "mollify_delta", path, positive=True)
    if delta is not None:
        psi = _checked(f"{path}.mollify_delta", mollify, psi, delta)
        resolved["mollify_delta"] = delta
    return psi, resolved


def build_kernel(d, path="model.kernel"):
    kind = _kind(d, path, "kernel",
                 {"exponential": ("beta", "zeta"),
                  "truncated_exponential": ("beta", "zeta"),
                  "tabulated": ("a", "values")}, "a_max")
    resolved = {"kind": kind}
    if kind == "tabulated":
        a = _array(d, "a", path)
        values = _array(d, "values", path)
        a_max = _num(d, "a_max", path, positive=True)
        kernel = _checked(path, Tabulated, a, values, a_max=a_max)
        resolved.update(a=list(map(float, a)), values=list(map(float, values)))
    else:
        beta = _num(d, "beta", path, required=True, nonnegative=True)
        zeta = _num(d, "zeta", path, required=True, positive=True)
        a_max = _num(d, "a_max", path, positive=True)
        cls = Exponential if kind == "exponential" else TruncatedExponential
        # a_max is finite here, but a subnormal zeta makes the default
        # 40/zeta infinite
        kernel = _checked(f"{path}.zeta", cls, beta, zeta, a_max)
        resolved.update(beta=beta, zeta=zeta)
    resolved["a_max"] = kernel.a_max
    return kernel, resolved


def build_past(d, path="model.past"):
    kind = _kind(d, path, "past",
                 {"constant": ("value",), "linear": ("slope", "intercept"),
                  "tabulated": ("tau", "values")})
    if kind == "constant":
        c = _num(d, "value", path, required=True)
        return ConstantPast(c), {"kind": kind, "value": c}
    if kind == "linear":
        slope = _num(d, "slope", path, required=True)
        intercept = _num(d, "intercept", path, required=True)
        return LinearPast(slope, intercept), {"kind": kind, "slope": slope,
                                              "intercept": intercept}
    tau = _array(d, "tau", path)
    values = _array(d, "values", path)
    past = _checked(path, TabulatedPast, tau, values)
    return past, {"kind": kind, "tau": list(map(float, tau)),
                  "values": list(map(float, values))}


def build_drive(d, path="model.v"):
    kind = _kind(d, path, "drive",
                 {"constant": ("value",), "table": ("t", "values")})
    if kind == "constant":
        value = _num(d, "value", path, required=True)
        return (lambda t, _c=value: _c), {"kind": kind, "value": value}
    t = _array(d, "t", path)
    values = _array(d, "values", path)
    if t.size != values.size:
        raise ConfigError(f"{path}.values", "length must match t")
    if np.any(np.diff(t) <= 0):
        raise ConfigError(f"{path}.t", "must be strictly increasing")
    drive = lambda s, _t=t, _v=values: float(np.interp(s, _t, _v))
    return drive, {"kind": kind, "t": list(map(float, t)),
                   "values": list(map(float, values))}


def build_solver(d, path="solver", scheme=True):
    """The :class:`SolverConfig` and its resolved section, which takes a
    ``scheme`` only if ``scheme`` is true; else the scheme is Euler."""
    _check_keys(d, {"eps", "T", "dt", "scheme"} if scheme else
                {"eps", "T", "dt"}, path)
    resolved = {"eps": _num(d, "eps", path, default=1.0, positive=True),
                "T": _num(d, "T", path, default=1.0, positive=True),
                "dt": _num(d, "dt", path, default=1e-2, positive=True)}
    if scheme:
        resolved["scheme"] = _get(d, "scheme", path, default="euler")
    cfg = SolverConfig(**resolved)
    _checked(f"{path}.scheme", cfg.validated)
    return cfg, resolved


def _build_study(d, command, path="study"):
    """The resolved ``study`` section of ``converge`` or ``longtime``."""
    if command == "longtime":
        _check_keys(d, {"T_list", "dt"}, path)
        return {"T_list": list(map(float, _array(d, "T_list", path))),
                "dt": _num(d, "dt", path, default=1e-2, positive=True)}
    _check_keys(d, {"eps_list", "T", "dt", "final_bound"}, path)
    study = {"eps_list": list(map(float, _array(d, "eps_list", path))),
             "T": _num(d, "T", path, required=True, positive=True),
             "dt": _num(d, "dt", path, required=True, positive=True)}
    bound = _num(d, "final_bound", path, positive=True)
    if bound is not None:
        study["final_bound"] = bound
    return study


def build_output(d, path="output", default_path="out.csv"):
    _check_keys(d, {"path", "precision"}, path)
    out_path = _get(d, "path", path, default=default_path)
    if not isinstance(out_path, str) or not out_path:
        raise ConfigError(f"{path}.path", "must be a nonempty string")
    precision = _get(d, "precision", path, default=17)
    if type(precision) is not int or not 1 <= precision <= 17:  # not bool
        raise ConfigError(f"{path}.precision", "must be an integer in [1, 17]")
    return {"path": out_path, "precision": precision}


def resolve_run(cfg, command):
    """``(psi, kernel, past, drive, run, manifest)`` for ``command``.

    ``run`` is the :class:`SolverConfig`, or for a study the resolved
    ``study`` section; ``manifest`` is the resolved config.
    """
    study = command in ("converge", "longtime")
    reads = {"model", "output", "command", "study" if study else "solver"}
    for key, value in cfg.items():
        if key not in reads and value is not None:
            raise ConfigError(f"<config>.{key}", f"not read by {command}")
    if cfg.get("command") not in (None, command):
        raise ConfigError("<config>.command",
                          f"names {cfg['command']!r}, not {command!r}")
    model = _section(cfg, "model")
    _check_keys(model, {"potential", "kernel", "past", "v"}, "model")
    psi, r_pot = build_potential(_get(model, "potential", "model", required=True))
    kernel, r_ker = build_kernel(_get(model, "kernel", "model", required=True))
    past, r_past = build_past(_get(model, "past", "model", required=True))
    drive, r_v = build_drive(_get(model, "v", "model", required=True))
    r_model = {"potential": r_pot, "kernel": r_ker, "past": r_past, "v": r_v}
    manifest = {"command": command, "model": r_model}
    if study:
        run = manifest["study"] = _build_study(_section(cfg, "study"),
                                               command)
    else:
        run, manifest["solver"] = build_solver(
            _section(cfg, "solver", required=False),
            scheme=command == "simulate")
    manifest["output"] = build_output(_section(cfg, "output", required=False),
                                      default_path=f"{command}.csv")

    if command == "converge":
        _checked("study.eps_list", _check_eps_list, run["eps_list"],
                 run["dt"])
        _checked("study.T", step_count, run["T"], run["dt"])
        # the age step is widest at the smallest eps, the grid longest at
        # the largest
        _checked("study.dt", age_step, kernel, run["eps_list"][-1], run["dt"])
        _checked("study.eps_list", _age_grid, kernel, run["eps_list"][0],
                 run["dt"])
    elif command == "longtime":
        for T in run["T_list"]:
            _checked("study.T_list", step_count, T, run["dt"])
        # the study runs at eps = 1
        _checked("study.dt", _age_grid, kernel, 1.0, run["dt"])
    else:
        _checked("solver.T", step_count, run.T, run.dt)
    if command in ("simulate", "mm"):
        _checked("solver.dt", age_step, kernel, run.eps, run.dt)
        _checked("solver.eps", _age_grid, kernel, run.eps, run.dt)
    if command == "simulate":
        _checked("model.potential", _reject_nonsmooth, psi)
    if command == "oracle":
        # the closed forms hold for psi = |u| under a constant drive, with
        # no bond older than t
        for field, holds, need in (
                ("model.v.kind", r_v["kind"] == "constant", "a constant drive"),
                ("model.potential.kind", r_pot == {"kind": "abs"},
                 "the abs potential, not mollified"),
                ("model.kernel.kind", r_ker["kind"] == "truncated_exponential",
                 "a truncated_exponential kernel")):
            if not holds:
                raise ConfigError(field, f"oracle profiles need {need}")
    return psi, kernel, past, drive, run, manifest
