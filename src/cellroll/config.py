"""JSON run configs resolved into model objects.

Every validation failure raises :class:`ConfigError` carrying the dotted
field path, so the CLI can report exactly which entry is wrong before any
computation starts. Builders return both the object and the fully resolved
(defaults filled) dictionary that goes into the run manifest.
"""
from __future__ import annotations

import json
import math

import numpy as np

from .errors import ConfigError
from .history import ConstantPast, LinearPast, PastData, TabulatedPast
from .kernels import Exponential, Kernel, Tabulated, TruncatedExponential
from .potentials import (AbsoluteValue, PiecewiseLinear, Potential, Quadratic,
                         Tether, mollify)
from .solver_smooth import SolverConfig

__all__ = ["load_config", "build_potential", "build_kernel", "build_past",
           "build_drive", "build_solver", "build_output"]

_TOP_KEYS = {"model", "solver", "output", "study", "command"}


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError("<config>", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("<config>", f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("<config>", "top level must be an object")
    _check_keys(cfg, _TOP_KEYS, "<config>")
    return cfg


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


def _num(d, key, path, default=None, required=False, positive=False,
         nonnegative=False):
    raw = _get(d, key, path, default, required)
    if raw is None:
        return None
    try:
        val = float(raw)
    except (TypeError, ValueError):
        val = math.nan
    # JSON true/false would pass as 1.0/0.0, "1.5" as 1.5, NaN/Infinity as floats
    if isinstance(raw, (bool, str)) or not math.isfinite(val):
        raise ConfigError(f"{path}.{key}", f"expected a finite number, got {raw!r}")
    if positive and not val > 0:
        raise ConfigError(f"{path}.{key}", "must be positive")
    if nonnegative and val < 0:
        raise ConfigError(f"{path}.{key}", "must be nonnegative")
    return val


def _array(d, key, path, required=True):
    raw = _get(d, key, path, required=required)
    if raw is None:
        return None
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}.{key}", "expected a list of numbers")
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigError(f"{path}.{key}", "expected a nonempty flat list")
    if any(isinstance(x, (bool, str)) for x in raw) or not np.all(np.isfinite(arr)):
        raise ConfigError(f"{path}.{key}", "expected a list of finite numbers")
    return arr


def build_potential(d, path="model.potential"):
    if not isinstance(d, dict):
        raise ConfigError(path, "must be an object")
    kind = _get(d, "kind", path, required=True)
    resolved = {"kind": kind}
    if kind == "quadratic":
        _check_keys(d, {"kind", "mollify_delta"}, path)
        psi: Potential = Quadratic()
    elif kind == "tether":
        _check_keys(d, {"kind", "r", "mollify_delta"}, path)
        r = _num(d, "r", path, required=True, positive=True)
        psi = Tether(r)
        resolved["r"] = r
    elif kind == "abs":
        _check_keys(d, {"kind", "mollify_delta"}, path)
        psi = AbsoluteValue()
    elif kind == "piecewise_linear":
        _check_keys(d, {"kind", "breaks", "slopes", "mollify_delta"}, path)
        breaks = _array(d, "breaks", path)
        slopes = _array(d, "slopes", path)
        try:
            psi = PiecewiseLinear(breaks, slopes)
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc
        resolved["breaks"] = list(map(float, breaks))
        resolved["slopes"] = list(map(float, slopes))
    else:
        raise ConfigError(f"{path}.kind",
                          f"unknown potential {kind!r}; use quadratic, tether, "
                          "abs, or piecewise_linear")
    delta = _num(d, "mollify_delta", path, positive=True)
    if delta is not None:
        try:
            psi = mollify(psi, delta)
        except ValueError as exc:
            raise ConfigError(f"{path}.mollify_delta", str(exc)) from exc
        resolved["mollify_delta"] = delta
    return psi, resolved


def build_kernel(d, path="model.kernel"):
    if not isinstance(d, dict):
        raise ConfigError(path, "must be an object")
    kind = _get(d, "kind", path, required=True)
    resolved = {"kind": kind}
    if kind in ("exponential", "truncated_exponential"):
        _check_keys(d, {"kind", "beta", "zeta", "a_max"}, path)
        beta = _num(d, "beta", path, required=True, nonnegative=True)
        zeta = _num(d, "zeta", path, required=True, positive=True)
        a_max = _num(d, "a_max", path, positive=True)
        cls = Exponential if kind == "exponential" else TruncatedExponential
        kernel: Kernel = cls(beta, zeta, a_max)
        resolved.update(beta=beta, zeta=zeta, a_max=kernel.a_max)
    elif kind == "tabulated":
        _check_keys(d, {"kind", "a", "values", "a_max"}, path)
        a = _array(d, "a", path)
        values = _array(d, "values", path)
        a_max = _num(d, "a_max", path, positive=True)
        try:
            kernel = Tabulated(a, values, a_max=a_max)
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc
        resolved.update(a=list(map(float, a)), values=list(map(float, values)),
                        a_max=kernel.a_max)
    else:
        raise ConfigError(f"{path}.kind",
                          f"unknown kernel {kind!r}; use exponential, "
                          "truncated_exponential, or tabulated")
    return kernel, resolved


def build_past(d, path="model.past"):
    if not isinstance(d, dict):
        raise ConfigError(path, "must be an object")
    kind = _get(d, "kind", path, required=True)
    resolved = {"kind": kind}
    if kind == "constant":
        _check_keys(d, {"kind", "value"}, path)
        c = _num(d, "value", path, required=True)
        past: PastData = ConstantPast(c)
        resolved["value"] = c
    elif kind == "linear":
        _check_keys(d, {"kind", "slope", "intercept"}, path)
        slope = _num(d, "slope", path, required=True)
        intercept = _num(d, "intercept", path, required=True)
        past = LinearPast(slope, intercept)
        resolved.update(slope=slope, intercept=intercept)
    elif kind == "tabulated":
        _check_keys(d, {"kind", "tau", "values"}, path)
        tau = _array(d, "tau", path)
        values = _array(d, "values", path)
        try:
            past = TabulatedPast(tau, values)
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc
        resolved.update(tau=list(map(float, tau)),
                        values=list(map(float, values)))
    else:
        raise ConfigError(f"{path}.kind",
                          f"unknown past {kind!r}; use constant, linear, "
                          "or tabulated")
    return past, resolved


def build_drive(d, path="model.v"):
    if not isinstance(d, dict):
        raise ConfigError(path, "must be an object")
    kind = _get(d, "kind", path, required=True)
    if kind == "constant":
        _check_keys(d, {"kind", "value"}, path)
        value = _num(d, "value", path, required=True)
        return (lambda t, _c=value: _c), {"kind": kind, "value": value}
    if kind == "table":
        _check_keys(d, {"kind", "t", "values"}, path)
        t = _array(d, "t", path)
        values = _array(d, "values", path)
        if t.size != values.size:
            raise ConfigError(f"{path}.values", "length must match t")
        if np.any(np.diff(t) <= 0):
            raise ConfigError(f"{path}.t", "must be strictly increasing")
        drive = lambda s, _t=t, _v=values: float(np.interp(s, _t, _v))
        return drive, {"kind": kind, "t": list(map(float, t)),
                       "values": list(map(float, values))}
    raise ConfigError(f"{path}.kind",
                      f"unknown drive {kind!r}; use constant or table")


def build_solver(d, path="solver"):
    _check_keys(d, {"eps", "T", "dt", "scheme", "tol_fixedpoint"}, path)
    eps = _num(d, "eps", path, default=1.0, positive=True)
    T = _num(d, "T", path, default=1.0, positive=True)
    dt = _num(d, "dt", path, default=1e-2, positive=True)
    scheme = _get(d, "scheme", path, default="euler")
    # "tol_fixedpoint" is accepted and ignored: manifests written before it
    # was dropped still carry it
    cfg = SolverConfig(eps=eps, T=T, dt=dt, scheme=scheme)
    try:
        cfg.validated()
    except ValueError as exc:
        raise ConfigError(f"{path}.scheme", str(exc)) from exc
    resolved = {"eps": eps, "T": T, "dt": dt, "scheme": scheme}
    return cfg, resolved


def build_output(d, path="output", default_path="out.csv"):
    _check_keys(d, {"path", "precision"}, path)
    out_path = _get(d, "path", path, default=default_path)
    if not isinstance(out_path, str) or not out_path:
        raise ConfigError(f"{path}.path", "must be a nonempty string")
    precision = _get(d, "precision", path, default=17)
    if type(precision) is not int or not 1 <= precision <= 17:  # not bool
        raise ConfigError(f"{path}.precision", "must be an integer in [1, 17]")
    return {"path": out_path, "precision": precision}


def resolve_model(cfg):
    """model section -> (psi, kernel, past, drive, resolved-dict)."""
    model = _section(cfg, "model")
    _check_keys(model, {"potential", "kernel", "past", "v"}, "model")
    psi, r_pot = build_potential(_get(model, "potential", "model", required=True))
    kernel, r_ker = build_kernel(_get(model, "kernel", "model", required=True))
    past, r_past = build_past(_get(model, "past", "model", required=True))
    drive, r_v = build_drive(_get(model, "v", "model", required=True))
    resolved = {"potential": r_pot, "kernel": r_ker, "past": r_past, "v": r_v}
    return psi, kernel, past, drive, resolved
