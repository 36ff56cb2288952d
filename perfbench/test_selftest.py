"""Fast self-test of the benchmark harness (about a minute).

Run from the repository root:  python3 -m pytest perfbench -q

Every workload runs shrunk (``--tiny``). The tests check that each metric
BENCHMARK.json declares is printed by name with its unit, that the traced
counts repeat exactly between two runs, that seeds move the inputs only
within each closed form's range, and that the harness refuses to report
when the cellroll sources are missing.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", "all", "--tiny",
         "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def _result(args):
    code, lines = _bench(*args)
    assert code == 0, "\n".join(lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    return result


def _assert_declared(result, declared):
    metrics = result["metrics"]
    for name in WORKLOADS:
        for spec in declared:
            m = metrics[f"{name}.{spec['name']}"]
            assert m["unit"] == spec["unit"]
            assert isinstance(m["value"], (int, float))
    assert len(metrics) == len(WORKLOADS) * len(declared)


@pytest.fixture(scope="module")
def traced_pair():
    return _result(["--trace", "1"]), _result(["--trace", "1"])


def test_end_to_end_metrics_are_named_with_units():
    result = _result(["--trace", "0"])
    _assert_declared(result, SPEC["end_to_end"])
    assert result["attempted"] >= 4 * len(WORKLOADS)


def test_per_layer_metrics_are_named_with_units(traced_pair):
    _assert_declared(traced_pair[0], SPEC["per_layer"])


def test_traced_counts_repeat_exactly(traced_pair):
    first, second = (r["metrics"] for r in traced_pair)
    counted = [k for k, m in first.items() if m["unit"] in ("count", "B")]
    assert counted
    for key in counted:
        assert first[key]["value"] == second[key]["value"], key
    # each layer's counters fire where its code runs, including CSV writes
    # the CLI makes through its own imported name
    assert first["mm_kinematic.solver_mm.subgrad_evals"]["value"] > 0
    assert first["limit_ramp.solver_limit.equations"]["value"] == 51
    assert first["limit_ramp.kernels.eval.elements"]["value"] > 0
    assert first["oracle_csv.output.csv_rows"]["value"] == 2001
    assert first["converge_kinked.solver_limit.distinct_share"]["value"] == 1 / 101


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_zero_is_reference_and_seeds_perturb(name):
    wl = WORKLOADS[name]
    assert wl.config(0) == wl.config(0)
    assert wl.config(1) != wl.config(0)
    assert wl.config(7) == wl.config(7)


@pytest.mark.parametrize("seed", range(1, 40))
def test_seeds_stay_in_closed_form_range(seed):
    for name in ("mm_kinematic", "oracle_csv"):
        m = WORKLOADS[name].config(seed)["model"]
        assert m["v"]["value"] > m["kernel"]["beta"] / m["kernel"]["zeta"]
    ramp = WORKLOADS["limit_ramp"].config(seed)["model"]["v"]["values"]
    assert all(b > a for a, b in zip(ramp, ramp[1:]))


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _bench("--trace", "0", cwd=tmp_path,
                         script=tmp_path / "perfbench" / "run.py")
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
