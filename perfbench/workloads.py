"""The benchmark's workloads: one cellroll CLI command each.

A workload turns a seed into a JSON run config and, after the run, measures
the error of the written CSV against a closed form that this file computes
on its own, independent of ``cellroll.oracles``. Seed 0 gives the reference
inputs; any other seed perturbs them a little, staying inside the validity
range of the closed form (kinematic regime |v| > mu, strictly increasing
ramp), so the work per run barely changes while the answer does.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # cellroll subcommand
    why: str
    make_config: Callable[[random.Random | None, bool], dict]
    max_err: Callable[[str, dict], float]  # (csv path, config) -> error
    tolerance: float

    def config(self, seed: int, tiny: bool = False) -> dict:
        """Run config for ``seed``; ``tiny`` shrinks it for the self-test."""
        return self.make_config(random.Random(seed) if seed else None, tiny)


def _jitter(rng, value, rel):
    """value * (1 + U(-rel, rel)); seed 0 (rng None) keeps the value."""
    return value if rng is None else value * (1.0 + rng.uniform(-rel, rel))


def _shift(rng, value, width):
    return value if rng is None else value + rng.uniform(-width, width)


def _read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _trajectory(path, cfg):
    """The CSV's (t, z, zdot) rows; raises unless t is the config's grid."""
    data = _read_csv(path)
    dt = cfg["solver"]["dt"]
    n = int(round(cfg["solver"]["T"] / dt))
    if data.shape != (n + 1, 3) or np.max(np.abs(data[:, 0] - dt * np.arange(n + 1))) > 1e-9:
        raise ValueError("CSV rows do not cover the time grid of the config")
    return data


# --- mm_kinematic: minimizing movements, bisection-bound --------------------

def _mm_config(rng, tiny):
    return {
        "model": {
            "potential": {"kind": "abs"},
            "kernel": {"kind": "truncated_exponential",
                       "beta": _jitter(rng, 1.0, 0.05),
                       "zeta": _jitter(rng, 1.0, 0.05)},
            "past": {"kind": "constant", "value": _jitter(rng, -0.001, 0.5)},
            "v": {"kind": "constant", "value": _jitter(rng, 1.5, 0.05)},
        },
        "solver": {"T": 0.1 if tiny else 1.5, "dt": 1e-3},
    }


def _mm_err(path, cfg):
    # rolling regime: zdot = v - mu(t), mu(t) = (beta/zeta)(1 - e^{-zeta t})
    m = cfg["model"]
    beta, zeta = m["kernel"]["beta"], m["kernel"]["zeta"]
    v = m["v"]["value"]
    data = _trajectory(path, cfg)
    t, zdot = data[:, 0], data[:, 2]
    keep = t >= min(0.5, 0.5 * cfg["solver"]["T"])  # past the start-up layer
    ref = v - (beta / zeta) * -np.expm1(-zeta * t[keep])
    return float(np.max(np.abs(zdot[keep] - ref)))


# --- smooth_relax: explicit solver, memory-sum-bound ------------------------

def _smooth_config(rng, tiny):
    return {
        "model": {
            "potential": {"kind": "quadratic"},
            # zeta fixed: it sets a_max and so the number of ages summed
            "kernel": {"kind": "exponential", "beta": _jitter(rng, 1.0, 0.05),
                       "zeta": 1.0},
            "past": {"kind": "linear", "slope": _jitter(rng, 1.0, 0.1),
                     "intercept": _jitter(rng, 1.0, 0.1)},
            "v": {"kind": "constant", "value": 0.0},
        },
        # relaxation is complete by T = 10; the tiny run coarsens dt instead
        "solver": {"T": 10.0, "dt": 1e-2 if tiny else 1e-3},
    }


def _smooth_err(path, cfg):
    # lim z = (zeta^2 z_p(0) + beta zeta int_{-inf}^0 e^{zeta tau} z_p dtau)
    #         / (zeta^2 + beta), with z_p(tau) = slope tau + intercept
    m = cfg["model"]
    beta, zeta = m["kernel"]["beta"], m["kernel"]["zeta"]
    slope, icpt = m["past"]["slope"], m["past"]["intercept"]
    weighted = icpt / zeta - slope / zeta**2
    final = (zeta**2 * icpt + beta * zeta * weighted) / (zeta**2 + beta)
    return abs(float(_trajectory(path, cfg)[-1, 1]) - final)


# --- converge_kinked: the convergence study ---------------------------------

def _converge_config(rng, tiny):
    return {
        "model": {
            "potential": {"kind": "abs"},
            "kernel": {"kind": "exponential", "beta": 1.0, "zeta": 1.0},
            "past": {"kind": "constant", "value": 0.0},
            "v": {"kind": "constant", "value": _jitter(rng, 1.5, 0.02)},
        },
        "study": {"eps_list": [0.2, 0.1, 0.05, 0.025],
                  "T": 0.1 if tiny else 0.5, "dt": 1e-3},
    }


def _converge_err(path, cfg):
    # the study's own error column, sup |z_eps - z_0|, at the smallest eps
    data = _read_csv(path)
    if data.shape[0] != len(cfg["study"]["eps_list"]):
        raise ValueError("one CSV row per eps expected")
    return float(data[np.argmin(data[:, 0]), 1])


# --- limit_ramp: the limit equation, Simpson branch -------------------------

def _limit_config(rng, tiny):
    T = 0.05 if tiny else 0.5
    values = [0.0, 2.0, 2.5, 4.0]
    if rng is not None:  # gaps are >= 0.5, so +-0.1 keeps the ramp increasing
        values = [_shift(rng, x, 0.1) for x in values]
    return {
        "model": {
            "potential": {"kind": "quadratic"},
            "kernel": {"kind": "exponential", "beta": _jitter(rng, 1.0, 0.05),
                       "zeta": _jitter(rng, 1.0, 0.05)},
            "past": {"kind": "constant", "value": _shift(rng, 0.0, 0.5)},
            "v": {"kind": "table", "t": [0.0, 0.25 * T, 0.5 * T, T],
                  "values": values},
        },
        "solver": {"T": T, "dt": 1e-3},
    }


def _limit_err(path, cfg):
    # quadratic psi: w = v(t) / (1 + m1), m1 = beta / zeta^2
    m = cfg["model"]
    beta, zeta = m["kernel"]["beta"], m["kernel"]["zeta"]
    data = _trajectory(path, cfg)
    t, z = data[:, 0], data[:, 1]
    w = np.interp(t, m["v"]["t"], m["v"]["values"]) / (1.0 + beta / zeta**2)
    dt = cfg["solver"]["dt"]
    ref = m["past"]["value"] + np.concatenate(
        ([0.0], np.cumsum(0.5 * dt * (w[1:] + w[:-1]))))
    return float(np.max(np.abs(z - ref)))


# --- oracle_csv: closed form plus a large CSV, writer-bound -----------------

def _oracle_config(rng, tiny):
    return {
        "model": {
            "potential": {"kind": "abs"},
            "kernel": {"kind": "truncated_exponential",
                       "beta": _jitter(rng, 1.0, 0.05),
                       "zeta": _jitter(rng, 1.0, 0.05)},
            "past": {"kind": "constant", "value": _shift(rng, 0.0, 0.5)},
            "v": {"kind": "constant", "value": _jitter(rng, 1.5, 0.05)},
        },
        "solver": {"T": 2.0 if tiny else 200.0, "dt": 1e-3},
    }


def _oracle_err(path, cfg):
    # z = z0 + v t - int_0^t mu, zdot = v - mu(t); the a_max cut changes
    # mu by beta/zeta * e^{-40}, far below the tolerance
    m = cfg["model"]
    beta, zeta = m["kernel"]["beta"], m["kernel"]["zeta"]
    v, z0 = m["v"]["value"], m["past"]["value"]
    data = _trajectory(path, cfg)
    t = cfg["solver"]["dt"] * np.arange(data.shape[0])
    decay = -np.expm1(-zeta * t)
    z = z0 + v * t - ((beta / zeta) * t - (beta / zeta**2) * decay)
    zdot = v - (beta / zeta) * decay
    return float(max(np.max(np.abs(data[:, 0] - t)),
                     np.max(np.abs(data[:, 1] - z)),
                     np.max(np.abs(data[:, 2] - zdot))))


WORKLOADS = {w.name: w for w in (
    Workload("mm_kinematic", "mm",
             "minimizing movements on abs psi: solve_mm bisection is nearly all "
             "of the run; smooth, limit and oracle paths are idle",
             _mm_config, _mm_err, 1e-2),
    Workload("smooth_relax", "simulate",
             "explicit solver on quadratic psi: the memory sum over 40001 ages "
             "per step; never bisects",
             _smooth_config, _smooth_err, 1e-2),
    Workload("converge_kinked", "converge",
             "convergence study on abs psi: one limit equation repeated at every "
             "step, plus solve_mm at four eps",
             _converge_config, _converge_err, 5e-2),
    Workload("limit_ramp", "limit",
             "limit law on quadratic psi with a rising drive: Simpson quadrature "
             "in every bisection, no equation repeats",
             _limit_config, _limit_err, 1e-6),
    Workload("oracle_csv", "oracle",
             "closed-form oracle writing 200001 CSV rows: output dominates, no "
             "solver runs",
             _oracle_config, _oracle_err, 1e-9),
)}
