"""Wrappers the benchmark places around cellroll's public functions.

The program is not modified: ``Probe.install`` replaces each public function
in its defining module *and* under every name another cellroll module bound
it to with ``from .x import f`` (the CLI and the studies look up
``solve_mm``, ``write_trajectory_csv`` and the others that way), and each
public method on the classes a layer defines.

Two modes:

* plain: only the solvers and oracles are wrapped, to timestamp the first
  call into one (the end of set-up). This is what end-to-end runs use.
* traced: every public function and method of the layers below is wrapped.
  Each call that enters a layer from another opens a span; the probe sums
  busy time (span length) and self time (span length minus child spans of
  other layers) per layer, keeps the spans opened directly by the CLI, and
  counts the work the per-layer metrics name.
"""
from __future__ import annotations

import functools
import os
import sys
import time
import types

LAYERS = ("config", "solver_mm", "solver_smooth", "solver_limit", "kernels",
          "potentials", "experiments", "oracles", "history")

# the first call to any of these ends set-up
ENTRY_POINTS = {
    "solver_smooth": ("solve_smooth",),
    "solver_mm": ("solve_mm",),
    "solver_limit": ("integrate_limit", "limit_velocity"),
    "oracles": ("kinematic_trajectory", "kinematic_velocity",
                "plastic_trajectory", "gamma_abs"),
}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _size(x):
    return getattr(x, "size", 1)


# (layer, attribute name) -> fn(probe, args, kwargs, result, seconds)
def _kernel_eval(p, args, kwargs, result, seconds):
    p.count("kernels.eval.calls")
    p.count("kernels.eval.elements", _size(_arg(args, kwargs, 1, "a")))


def _kernel_cummass(p, args, kwargs, result, seconds):
    p.count("kernels.cummass.calls")


def _derivative(p, args, kwargs, result, seconds):
    p.count("potentials.derivative.calls")
    p.count("potentials.derivative.elements", _size(_arg(args, kwargs, 1, "u")))


def _subgrad(p, args, kwargs, result, seconds):
    p.count("solver_mm.subgrad_evals")
    p.count("solver_mm.anchor_terms", args[0].anchors.size)


def _minimize_step(p, args, kwargs, result, seconds):
    p.count("solver_mm.steps")
    if result == float(_arg(args, kwargs, 0, "e").previous):
        p.count("solver_mm.stuck_steps")


def _solve_smooth(p, args, kwargs, result, seconds):
    cfg = _arg(args, kwargs, 4, "cfg")
    p.count("solver_smooth.steps", int(round(cfg.T / cfg.dt)))


def _limit_velocity(p, args, kwargs, result, seconds):
    psi = _arg(args, kwargs, 0, "psi")
    kernel = _arg(args, kwargs, 1, "kernel")
    v_t = float(_arg(args, kwargs, 2, "v_t"))
    t = _arg(args, kwargs, 3, "t", float("inf"))
    p.count("solver_limit.equations")
    p.limit_inputs.add((id(psi), id(kernel), v_t,
                        float(t) if kernel.time_dependent else None))


def _csv_written(rows):
    def observe(p, args, kwargs, result, seconds):
        path = _arg(args, kwargs, rows[0], "path")
        p.count("output.csv_files")
        p.count("output.csv_rows", rows[1](args, kwargs))
        p.count("output.csv_bytes", os.path.getsize(path))
        p.csv_seconds += seconds
    return observe


OBSERVERS = {
    ("kernels", "eval"): _kernel_eval,
    ("kernels", "cummass"): _kernel_cummass,
    ("potentials", "derivative"): _derivative,
    ("solver_mm", "subgrad_lo"): _subgrad,
    ("solver_mm", "subgrad_hi"): _subgrad,
    ("solver_mm", "minimize_step"): _minimize_step,
    ("solver_smooth", "solve_smooth"): _solve_smooth,
    ("solver_limit", "limit_velocity"): _limit_velocity,
    # the two CSV writers: trajectories (history) and study tables
    ("history", "write_trajectory_csv"): _csv_written(
        (0, lambda a, k: len(_arg(a, k, 1, "t")))),
    ("experiments", "to_csv"): _csv_written(
        (1, lambda a, k: len(a[0].rows))),
}


class Probe:
    def __init__(self, traced: bool):
        self.traced = traced
        self.first_entry = None  # time.monotonic() of the first solver call
        self.depth = dict.fromkeys(LAYERS, 0)
        self.stack = []  # open spans of other layers around the current call
        self.busy = dict.fromkeys(LAYERS, 0.0)
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.counts = {}
        self.limit_inputs = set()
        self.csv_seconds = 0.0
        self.spans = []  # spans opened directly by the CLI: (name, start, end)

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def install(self):
        """Wrap cellroll's layers; ``cellroll`` must already be imported."""
        modules = [m for name, m in sys.modules.items()
                   if name == "cellroll" or name.startswith("cellroll.")]
        for layer in LAYERS:
            module = sys.modules[f"cellroll.{layer}"]
            if self.traced:
                names = [n for n, f in vars(module).items()
                         if _is_own_function(f, module)]
            else:
                names = [n for n in ENTRY_POINTS.get(layer, ())
                         if hasattr(module, n)]
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(layer, name, original)
                for m in modules:  # every name a caller looks it up under
                    for alias, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, alias, wrapper)
            if not self.traced:
                continue
            for cls in list(vars(module).values()):
                if not (isinstance(cls, type)
                        and cls.__module__ == module.__name__):
                    continue
                for name, f in list(vars(cls).items()):
                    if isinstance(f, types.FunctionType) and not name.startswith("_"):
                        setattr(cls, name, self._wrap(layer, name, f))

    def _wrap(self, layer, name, fn):
        observe = OBSERVERS.get((layer, name)) if self.traced else None
        entry = name in ENTRY_POINTS.get(layer, ())
        if not self.traced:
            @functools.wraps(fn)
            def marker(*args, **kwargs):
                if self.first_entry is None:
                    self.first_entry = time.monotonic()
                return fn(*args, **kwargs)
            return marker

        qualname = f"{layer}.{getattr(fn, '__qualname__', name)}"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if entry and self.first_entry is None:
                self.first_entry = time.monotonic()
            if self.depth[layer]:  # already inside this layer: no new span
                start = clock()
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(self, args, kwargs, result, clock() - start)
                return result
            frame = [clock(), 0.0]  # start, seconds in child spans
            self.stack.append(frame)
            self.depth[layer] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.depth[layer] -= 1
                self.stack.pop()
                span = end - frame[0]
                self.busy[layer] += span
                self.self_time[layer] += span - frame[1]
                if self.stack:
                    self.stack[-1][1] += span
                else:
                    self.spans.append((qualname, frame[0], end))
            if observe is not None:
                observe(self, args, kwargs, result, span)
            return result
        return wrapper

    def record(self) -> dict:
        out = {"first_entry": self.first_entry}
        if self.traced:
            counts = dict(self.counts)
            counts["solver_limit.distinct_inputs"] = len(self.limit_inputs)
            out.update(busy=self.busy, self_time=self.self_time, counts=counts,
                       csv_seconds=self.csv_seconds, spans=self.spans)
        return out


def _is_own_function(f, module):
    return (isinstance(f, types.FunctionType)
            and f.__module__ == module.__name__
            and not f.__name__.startswith("_"))
