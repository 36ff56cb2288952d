"""cellroll benchmark: fresh CLI runs per workload, checked against closed forms.

Usage (from the repository root; nothing needs installing):

    python3 perfbench/run.py --workload mm_kinematic --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

Each sample is one new ``python3 perfbench/child.py`` process running
``cellroll.cli.main`` on a config generated from the seed, exactly as a user
runs ``cellroll <command> --config ...``. Samples repeat until ``--seconds``
is used up; the first is a warm-up whose times are discarded. Every sample's
CSV and manifest are checked against the workload's closed form.

``--trace 0`` reports end-to-end metrics (medians over samples). ``--trace 1``
alternates plain and traced samples and reports per-layer metrics from the
traced ones. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The exit code is 0 only when every sample passed its check.
"""
from __future__ import annotations

import os

# held fixed for every child and for this process, parent and change alike:
# smooth_relax's memory sum is a BLAS dot whose thread count changes both wall
# and CPU time, and a multi-threaded BLAS here would distort the calibration.
# Set before numpy is first imported.
FIXED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "CELLROLL_THREADS": "1"}
os.environ.update(FIXED_ENV)

import argparse
import hashlib
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from probe import LAYERS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

CHILD_TIMEOUT_S = 120.0
MIN_SAMPLES = 3  # per kind of sample, even if --seconds is used up
HARD_LIMIT_S = 150.0  # stop starting samples after this, whatever the minimum
ERR_FLOOR = 1e-12  # errors below this count as exact for correct_digits
# typical calibrate() time inside the harness on the 2-vCPU Xeon sandbox the
# benchmark was defined on; only the scale of the reported times depends on it
CAL_REF_S = 0.12

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "correct_digits": "digits"}


@dataclass
class Sample:
    kind: str  # "plain" or "traced"
    wall: float
    cpu: float
    max_err: float = math.inf
    setup: float | None = None
    rss_mb: float | None = None
    problems: list = field(default_factory=list)
    record: dict = field(default_factory=dict)
    import_s: dict = field(default_factory=dict)
    calib: float = math.nan  # mean calibrate() time just before and after

    def ref_s(self, seconds: float) -> float:
        """``seconds`` rescaled to the reference host's speed."""
        return seconds * CAL_REF_S / self.calib

    @property
    def ok(self) -> bool:
        return not self.problems


class Runner:
    """Runs and checks child processes for one workload and config."""

    def __init__(self, workload, config, workdir: Path):
        self.wl = workload
        self.config = config
        self.dir = workdir
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(config))
        self.csv = workdir / f"{workload.name}.csv"
        self.manifest = workdir / f"{workload.name}.manifest.json"
        self.record = workdir / "record.json"
        self.stderr = workdir / "stderr.txt"
        self.env = {k: os.environ[k] for k in ("PATH", "HOME", "LANG", "LC_ALL")
                    if k in os.environ}
        self.env.update(FIXED_ENV)
        self.checked = {}  # CSV digest -> max_err already computed for it

    def run(self, kind: str) -> Sample:
        for stale in (self.csv, self.manifest, self.record):
            stale.unlink(missing_ok=True)
        cmd = [sys.executable]
        if kind == "traced":
            cmd += ["-X", "importtime"]
        cmd += [str(HERE / "child.py"), str(self.record), kind,
                self.wl.command, "--config", str(self.config_path),
                "--out", str(self.csv)]
        with open(self.stderr, "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.dir, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        sample = Sample(kind, wall, usage.ru_utime + usage.ru_stime)
        self._check(sample, proc.returncode, t0)
        return sample

    def _check(self, s: Sample, code: int, t0: float):
        stderr = self.stderr.read_text(errors="replace")
        if code != 0:
            tail = [ln for ln in stderr.splitlines()
                    if not ln.startswith("import time:")][-3:]
            s.problems.append(f"exit {code}: {' | '.join(tail)}")
        if not self.manifest.is_file():
            s.problems.append("no manifest written")
        if self.record.is_file():
            s.record = json.loads(self.record.read_text())
            if s.record.get("first_entry") is not None:
                s.setup = s.record["first_entry"] - t0
            if s.record.get("peak_rss_kb") is not None:
                s.rss_mb = s.record["peak_rss_kb"] / 1024.0
        if s.rss_mb is None:
            s.problems.append("no peak memory recorded")
        if s.setup is None:
            s.problems.append("no call into a solver or oracle seen")
        if s.kind == "traced":
            s.import_s = _import_self_times(stderr)
        if not self.csv.is_file():
            s.problems.append("no CSV written")
            return
        digest = hashlib.sha256(self.csv.read_bytes()).hexdigest()
        if digest not in self.checked:
            try:
                self.checked[digest] = self.wl.max_err(str(self.csv), self.config)
            except (OSError, ValueError, IndexError, KeyError) as exc:
                self.checked[digest] = math.inf
                s.problems.append(f"CSV check failed: {exc}")
        s.max_err = self.checked[digest]
        if not s.max_err <= self.wl.tolerance:
            s.problems.append(f"max_err {s.max_err:.3g} above {self.wl.tolerance:g}")


def _import_self_times(stderr: str) -> dict:
    """Per-layer self import time from ``python -X importtime`` output."""
    out = dict.fromkeys(LAYERS, 0.0)
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        name = parts[2].strip()
        layer = name[len("cellroll."):] if name.startswith("cellroll.") else None
        if layer in out:
            out[layer] += int(parts[0]) * 1e-6
    return out


def calibrate() -> float:
    """Seconds for a fixed task with the workloads' mix of work.

    The host is shared: neighbours slow a CPU by up to 2x for tens of
    seconds at a time. Small numpy calls from a Python loop (the
    bisections), dots and temporaries over 40001 doubles (the memory sum)
    and float formatting (the CSV writer) slow down with it, so each sample
    is divided by the calibration runs around it, on the same CPU, and times
    are reported at the reference speed (see ``CAL_REF_S``).
    """
    a = np.linspace(0.0, 1.0, 40001)
    b = a[:512]
    start = time.perf_counter()
    for _ in range(2400):
        float(np.dot(b, np.sign(b - 0.5)))
    for _ in range(600):
        float(np.dot(a, a))
    for _ in range(150):
        float(np.dot(a, (0.5 - a[::-1]) / 1.0))
    for _ in range(2):
        ",".join("%.17g" % x for x in a)
    return time.perf_counter() - start


def collect(runner: Runner, seconds: float, trace: bool):
    """Warm-up plus samples until ``seconds`` are used; returns all samples.

    A calibration runs before the first sample and after each one.
    """
    start = time.monotonic()
    kinds = ["plain", "traced"] if trace else ["plain"]
    warmup = runner.run("plain")  # checked, not timed
    timed = {k: [] for k in kinds}
    cal = calibrate()
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        est = statistics.median([s.wall for s in timed[kind]] or [warmup.wall])
        est += 2 * cal
        now = time.monotonic()
        enough = all(len(v) >= MIN_SAMPLES for v in timed.values())
        if (enough and now + est > start + seconds) or now + est > start + HARD_LIMIT_S:
            break
        s = runner.run(kind)
        before, cal = cal, calibrate()
        s.calib = 0.5 * (before + cal)
        timed[kind].append(s)
        i += 1
    return warmup, timed


def _median(values):
    return statistics.median(values) if values else math.nan


def end_to_end(timed) -> dict:
    good = [s for s in timed["plain"] if s.ok]
    worst = max((s.max_err for s in good), default=math.inf)
    values = {
        "wall_s": _median([s.ref_s(s.wall) for s in good]),
        "setup_s": _median([s.ref_s(s.setup) for s in good]),
        "cpu_s": _median([s.ref_s(s.cpu) for s in good]),
        "peak_rss_mb": _median([s.rss_mb for s in good]),
        "correct_digits": -math.log10(max(worst, ERR_FLOOR)),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(timed) -> tuple[dict, bool]:
    """Per-layer metrics and whether the traced counts repeated exactly."""
    traced = [s for s in timed["traced"] if s.ok]
    plain = [s for s in timed["plain"] if s.ok]
    if not traced or not plain:
        return {}, False
    counts = traced[0].record["counts"]
    repeat = all(s.record["counts"] == counts for s in traced)

    def c(name):
        return counts.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    def busy(layer, key="busy"):
        # the layer's own import plus the time its public calls were open
        return _median([s.ref_s(s.record[key][layer] + s.import_s[layer])
                        for s in traced])

    csv_s = _median([s.ref_s(s.record["csv_seconds"]) for s in traced])
    m = {f"{layer}.busy_s": (busy(layer), "s")
         for layer in ("config", "solver_mm", "solver_smooth", "solver_limit",
                       "kernels", "potentials", "oracles")}
    m.update({
        "solver_mm.steps": (c("solver_mm.steps"), "count"),
        "solver_mm.subgrad_evals": (c("solver_mm.subgrad_evals"), "count"),
        "solver_mm.subgrad_evals_per_step": (
            ratio(c("solver_mm.subgrad_evals"), c("solver_mm.steps")), "count"),
        "solver_mm.anchor_terms": (c("solver_mm.anchor_terms"), "count"),
        "solver_mm.stuck_share": (
            ratio(c("solver_mm.stuck_steps"), c("solver_mm.steps")), "ratio"),
        "solver_smooth.steps": (c("solver_smooth.steps"), "count"),
        "solver_limit.equations": (c("solver_limit.equations"), "count"),
        "solver_limit.distinct_share": (
            ratio(c("solver_limit.distinct_inputs"),
                  c("solver_limit.equations")), "ratio"),
        "kernels.eval.calls": (c("kernels.eval.calls"), "count"),
        "kernels.eval.elements": (c("kernels.eval.elements"), "count"),
        "kernels.cummass.calls": (c("kernels.cummass.calls"), "count"),
        "potentials.derivative.calls": (c("potentials.derivative.calls"), "count"),
        "potentials.derivative.elements": (
            c("potentials.derivative.elements"), "count"),
        "experiments.self_s": (busy("experiments", "self_time"), "s"),
        "output.csv_busy_s": (csv_s, "s"),
        "output.csv_rows": (c("output.csv_rows"), "count"),
        "output.csv_bytes": (c("output.csv_bytes"), "B"),
        "output.csv_rows_per_s": (ratio(c("output.csv_rows"), csv_s), "1/s"),
        "trace.overhead": (_median([s.wall for s in traced])
                           / _median([s.wall for s in plain]), "ratio"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, repeat


def environment() -> dict:
    commit = "unknown"  # also when ROOT is an export inside another repository
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cellroll").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
            "blas_threads": FIXED_ENV["OPENBLAS_NUM_THREADS"],
            "git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def _tail(values) -> str:
    """Median plus the highest percentile with ten samples beyond it."""
    n = len(values)
    text = f"median of n={n}"
    if n > 20:
        s = sorted(values)
        text += f"; p{100 * (n - 10) // n}={s[n - 11]:.4g}"
    return text


def report(name, warmup, timed, metrics, repeat, trace) -> list:
    samples = [warmup] + [s for v in timed.values() for s in v]
    failed = [s for s in samples if not s.ok]
    lines = [f"== {name}: {len(samples)} runs (1 warm-up), "
             f"failed_frac {len(failed) / len(samples):.4g}"]
    for s in failed[:5]:
        lines.append(f"   FAILED {s.kind} run: {'; '.join(s.problems)}")
    plain = [s for s in timed["plain"] if s.ok]
    errs = [s.max_err for s in samples if math.isfinite(s.max_err)]
    if errs:
        lines.append(f"   {'max_err':32s} {max(errs):.6g}")
    if plain:
        lines.append(f"   {'raw wall_s, calibration':32s} "
                     f"{_median([s.wall for s in plain]):.6g} s, "
                     f"{_median([s.calib for s in plain]):.6g} s "
                     f"(reference {CAL_REF_S:g} s)")
    for key, m in metrics.items():
        detail = ""
        if key in ("wall_s", "setup_s"):
            raw = "wall" if key == "wall_s" else "setup"
            detail = _tail([s.ref_s(getattr(s, raw)) for s in plain])
        lines.append(f"   {key:32s} {m['value']:.6g} {m['unit']}  {detail}".rstrip())
    traced = [s for s in timed.get("traced", []) if s.ok]
    if traced:
        # the CLI's direct calls into the layers, first traced run, raw seconds
        spans = {}
        for span_name, start, end in traced[0].record["spans"]:
            spans[span_name] = spans.get(span_name, 0.0) + end - start
        lines.append("   spans from the CLI: " + ", ".join(
            f"{k} {v:.4g} s" for k, v in sorted(spans.items(), key=lambda kv: -kv[1])))
    if trace and not repeat:
        lines.append("   WARNING: traced counts differ between runs")
    return lines


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0,
                   help="input seed; 0 gives the reference inputs")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measuring time per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from traced runs")
    p.add_argument("--tiny", action="store_true",
                   help="shrink every workload (harness self-test)")
    return p.parse_args(argv)


def measure(name, args, workdir: Path):
    wl = WORKLOADS[name]
    runner = Runner(wl, wl.config(args.seed, args.tiny), workdir)
    warmup, timed = collect(runner, args.seconds, bool(args.trace))
    samples = [warmup] + [s for v in timed.values() for s in v]
    if args.trace:
        metrics, repeat = per_layer(timed)
    else:
        metrics, repeat = end_to_end(timed), True
    return samples, metrics, report(name, warmup, timed, metrics, repeat,
                                    bool(args.trace))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cellroll" / "cli.py").is_file():
        print(f"perfbench: no cellroll sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # one CPU for this process and, inherited, every child: the calibration
    # then times the CPU the runs used (see calibrate)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print("env", json.dumps(environment(), sort_keys=True), flush=True)
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=base))
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            samples, m, lines = measure(name, args, workdir)
            print("\n".join(lines), flush=True)
            attempted += len(samples)
            failed += sum(not s.ok for s in samples)
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in m.items()})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if base.is_dir() and not any(base.iterdir()):
            base.rmdir()
    finite = {k: v for k, v in metrics.items() if math.isfinite(v["value"])}
    correct = failed == 0 and bool(metrics) and len(finite) == len(metrics)
    metrics = finite
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
