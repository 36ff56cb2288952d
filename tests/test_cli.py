"""Command-line interface: exit codes, CSV outputs, manifest round-trips."""
import gc
import io
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellroll import cli, memory
from cellroll.cli import main
from cellroll.history import write_trajectory_csv
from cellroll.kernels import TruncatedExponential
from cellroll.oracles import AbsProfile, gamma_abs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def python(*argv, timeout=None):
    """Run a fresh interpreter on the checkout's ``src``, stdio buffered."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=dict(env, PYTHONPATH=src),
                          timeout=timeout)


def write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def quad_config(**solver):
    """Quadratic model arriving at z=1 with unit incoming velocity.

    Under zero drive the limit trajectory holds at 1 while the delayed
    solve relaxes toward the finite final position 0.5.
    """
    solver = {"eps": 1.0, "T": 1.0, "dt": 2e-3, **solver}
    return {"model": {"potential": {"kind": "quadratic"},
                      "kernel": {"kind": "exponential",
                                 "beta": 1.0, "zeta": 1.0},
                      "past": {"kind": "linear",
                               "slope": 1.0, "intercept": 1.0},
                      "v": {"kind": "constant", "value": 0.0}},
            "solver": solver}


def creep_config():
    """Plastic-regime setup: |v| below the total bond mass."""
    return {"model": {"potential": {"kind": "abs"},
                      "kernel": {"kind": "truncated_exponential",
                                 "beta": 1.0, "zeta": 1.0},
                      "past": {"kind": "constant", "value": -0.001},
                      "v": {"kind": "constant", "value": 0.1}},
            "solver": {"eps": 1.0, "T": 0.3, "dt": 1e-3}}


CONFIG_COMMANDS = ("simulate", "mm", "limit", "oracle", "converge", "longtime")


def valid_config(command):
    """A config each config command accepts, with an entry of every shape:
    a number, a list of numbers, a string and a nested object."""
    if command in ("mm", "oracle"):
        cfg = creep_config()
    else:
        cfg = quad_config()
    if command == "mm":
        cfg["model"]["potential"] = {"kind": "piecewise_linear",
                                     "breaks": [1.0], "slopes": [0.5, 1.0]}
        cfg["model"]["past"] = {"kind": "tabulated", "tau": [-1.0, 0.0],
                                "values": [0.0, -0.001]}
    if command == "limit":
        cfg["model"]["v"] = {"kind": "table", "t": [0.0, 1.0],
                             "values": [0.0, 0.5]}
    if command == "converge":
        del cfg["solver"]
        cfg["study"] = {"eps_list": [0.4, 0.2], "T": 1.0, "dt": 2e-3,
                        "final_bound": 0.05}
    if command == "longtime":
        del cfg["solver"]
        cfg["study"] = {"T_list": [1.0, 2.0], "dt": 5e-3}
    cfg["output"] = {"path": "run.csv", "precision": 17}
    return cfg


# every setting that no code reads, and so exits 2 naming it: a config
# change as (path, value) on valid_config(command), or gamma's argv
UNREAD = [
    *[pytest.param(command, (("study",), {"T": 9.0, "dt": 1.0}),
                   "<config>.study", id=f"{command}-study")
      for command in ("simulate", "mm", "limit", "oracle")],
    *[pytest.param(command, (("solver",), {"T": 1.0}), "<config>.solver",
                   id=f"{command}-solver")
      for command in ("converge", "longtime")],
    *[pytest.param(command, (("solver", "scheme"), scheme), "solver.scheme",
                   id=f"{command}-{scheme}")
      for command in ("mm", "limit", "oracle") for scheme in ("euler", "heun")],
    pytest.param("simulate", (("model", "potential"),
                              {"kind": "quadratic", "mollify_delta": 0.1}),
                 "model.potential.mollify_delta", id="quadratic-mollify"),
    pytest.param("limit", (("model", "potential"),
                           {"kind": "tether", "r": 0.8, "mollify_delta": 0.1}),
                 "model.potential.mollify_delta", id="tether-mollify"),
    pytest.param("oracle", (("command",), "mm"), "<config>.command",
                 id="oracle-command-mm"),
    pytest.param("converge", (("command",), "longtime"), "<config>.command",
                 id="converge-command-longtime"),
    pytest.param("gamma", ("--r", "1", "--v", "1"), "--r", id="gamma-r-abs"),
    pytest.param("gamma", ("--v", "1", "--sweep", "-3", "3", "5"), "--v",
                 id="gamma-v-sweep"),
    pytest.param("gamma", ("--v", "1", "--out", "gamma.csv"), "--out",
                 id="gamma-out-v"),
]


@pytest.mark.parametrize("command, change, field", UNREAD)
def test_unread_setting_exits_two(capsys, tmp_path, monkeypatch, command,
                                  change, field):
    monkeypatch.chdir(tmp_path)
    if command == "gamma":
        argv = ["gamma", *change]
    else:
        cfg = valid_config(command)
        (*keys, last), value = change
        node = cfg
        for key in keys:
            node = node.setdefault(key, {})
        node[last] = value
        argv = [command, "--config", write_config(tmp_path / "run.json", cfg)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith(f"config error: {field}: ")
    assert os.listdir(tmp_path) == ([] if command == "gamma" else ["run.json"])


class TestGamma:
    def test_prints_sliding_velocity(self, capsys):
        code, out, _ = run(capsys, "gamma", "--psi", "abs",
                           "--beta", "1", "--zeta", "1", "--v", "1.5")
        assert code == 0
        assert out.strip() == "0.5"

    def test_pinned_band_prints_zero(self, capsys):
        code, out, _ = run(capsys, "gamma", "--psi", "abs",
                           "--beta", "1", "--zeta", "1", "--v", "0.7")
        assert code == 0
        assert out.strip() == "0"

    def test_explicit_kernel_parameters(self, capsys):
        # beta=2, zeta=1 gives total mass 2: v=2.5 slides at 0.5
        code, out, _ = run(capsys, "gamma", "--beta", "2", "--zeta", "1",
                           "--v", "2.5")
        assert code == 0
        assert out.strip() == "0.5"

    def test_sweep_writes_csv_and_passes(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "gamma", "--sweep", "-3", "3", "25",
                           "--out", str(out_csv))
        assert code == 0
        assert out.startswith("PASS velocity_force:")
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "param,gamma,gamma_abs,diff"
        table = np.genfromtxt(out_csv, delimiter=",", skip_header=1)
        assert table.shape == (25, 4)
        assert table[0, 0] == -3.0 and table[-1, 0] == 3.0
        assert np.max(table[:, 3]) <= 1e-6
        for v, g in zip(table[:, 0], table[:, 1]):
            assert g == pytest.approx(gamma_abs(v, 1.0), abs=1e-6)

    @pytest.mark.parametrize("out, message", [
        ("", "must be a nonempty path"),
        ("d.csv", "'d.csv' is a directory"),
        ("d.csv" + os.sep, repr("d.csv" + os.sep) + " is a directory"),
        (os.path.join("absent", "s.csv"), "directory 'absent' does not exist"),
    ], ids=["empty", "directory", "directory-slash", "missing-directory"])
    def test_unusable_sweep_out_exits_before_the_sweep(
            self, capsys, tmp_path, monkeypatch, out, message):
        # the empty flag once fell back to gamma_sweep.csv
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d.csv").mkdir()
        sweep = mock.MagicMock()
        with mock.patch("cellroll.cli.velocity_force_sweep", sweep):
            code, _, err = run(capsys, "gamma", "--sweep", "-1", "1", "5",
                               "--out", out)
        assert code == 2
        assert err == f"config error: --out: {message}\n"
        assert not sweep.called
        assert os.listdir(tmp_path) == ["d.csv"]

    def test_missing_drive_is_config_error(self, capsys):
        code, _, err = run(capsys, "gamma")
        assert code == 2
        assert err.startswith("config error: --v")

    def test_sweep_needs_two_points(self, capsys):
        code, _, err = run(capsys, "gamma", "--sweep", "0", "1", "1")
        assert code == 2
        assert "--sweep" in err

    @pytest.mark.parametrize("count", ["1e300", "2.5"])
    def test_sweep_size_must_be_an_indexable_integer(self, capsys,
                                                     monkeypatch, count):
        # the check comes before the drive grid exists, so nothing of that
        # size is allocated
        monkeypatch.setattr(np, "linspace",
                            lambda *args, **kwargs: pytest.fail("grid built"))
        code, _, err = run(capsys, "gamma", "--sweep", "-3", "3", count)
        assert code == 2
        assert err.startswith("config error: --sweep: N must be an integer")

    def test_tether_requires_radius(self, capsys):
        code, _, err = run(capsys, "gamma", "--psi", "tether", "--v", "1")
        assert code == 2
        assert "--r" in err

    def test_partial_kernel_flags_rejected(self, capsys):
        # the error names the flag that was given, not its missing partner
        for flag in ("--beta", "--zeta"):
            code, _, err = run(capsys, "gamma", flag, "2", "--v", "1")
            assert code == 2
            assert err == f"config error: {flag}: give both --beta and --zeta\n"

    @pytest.mark.parametrize("argv, flag", [
        (["--beta", "-1", "--zeta", "1"], "--beta"),
        (["--zeta", "0", "--beta", "1"], "--zeta"),
        (["--beta", "0", "--zeta", "-1"], "--zeta"),
        (["--beta", "1", "--zeta", "1e-310"], "--zeta"),
        (["--beta", "1e10", "--zeta", "1e-300"], "--zeta"),
    ])
    def test_bad_kernel_flag_is_a_config_error(self, capsys, argv, flag):
        code, _, err = run(capsys, "gamma", *argv, "--v", "1")
        assert code == 2
        assert err.startswith(f"config error: {flag}: ")

    def test_zero_beta_is_free_motion(self, capsys):
        code, out, _ = run(capsys, "gamma", "--beta", "0", "--zeta", "1",
                           "--v", "1.5")
        assert (code, out) == (0, "1.5\n")

    @pytest.mark.parametrize("mu", ["-1", "nan"])
    def test_mu_is_an_unknown_argument(self, capsys, mu):
        # --beta M --zeta 1 is the kernel --mu M gave
        with pytest.raises(SystemExit) as exc:
            main(["gamma", "--mu", mu, "--v", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mu" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["--v", "nan"], "--v"),
        (["--beta", "1", "--zeta", "nan", "--v", "1"], "--zeta"),
        (["--beta", "inf", "--zeta", "1", "--v", "1"], "--beta"),
        (["--beta", "1", "--zeta=-inf", "--v", "1"], "--zeta"),
        (["--psi", "tether", "--r", "inf", "--v", "1"], "--r"),
        (["--sweep", "0", "nan", "5"], "--sweep"),
    ])
    def test_non_finite_flag_exits_two(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(["gamma", *argv])
        assert exc.value.code == 2
        assert f"argument {flag}: expected a finite number" in capsys.readouterr().err


class TestTrajectoryCommands:
    def test_simulate_writes_csv_and_manifest(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "run.json", quad_config())
        out_csv = tmp_path / "run.csv"
        code, out, _ = run(capsys, "simulate", "--config", cfg,
                           "--out", str(out_csv))
        assert code == 0
        assert f"wrote {out_csv}" in out
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "t,z,zdot"
        table = np.genfromtxt(out_csv, delimiter=",", skip_header=1)
        assert table.shape[0] == 501
        # stretched incoming bonds pull the position down from 1 toward 0.5
        assert table[0, 1] == 1.0
        assert np.all(np.diff(table[:, 1]) <= 0.0)
        assert 0.5 < table[-1, 1] < 1.0

        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["model"]["kernel"] == {"kind": "exponential",
                                               "beta": 1.0, "zeta": 1.0,
                                               "a_max": 40.0}
        assert manifest["solver"]["dt"] == 2e-3
        assert manifest["output"]["path"] == str(out_csv)

    def test_manifest_reruns_bit_identical(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "run.json",
                           quad_config(T=0.5, scheme="heun"))
        first = tmp_path / "first.csv"
        run(capsys, "simulate", "--config", cfg, "--out", str(first))
        manifest = str(tmp_path / "first.manifest.json")
        second = tmp_path / "second.csv"
        code, _, _ = run(capsys, "simulate", "--config", manifest,
                         "--out", str(second))
        assert code == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("command", ["simulate", "mm"])
    def test_tabulated_kernel_and_past_rerun_from_the_manifest(
            self, capsys, tmp_path, command):
        cfg_dict = quad_config(T=0.5, dt=1e-2)
        kernel = {"kind": "tabulated", "a": [0.0, 0.5, 1.0, 2.0],
                  "values": [1.0, 0.6, 0.3, 0.0]}
        past = {"kind": "tabulated", "tau": [-2.0, -1.0, 0.0],
                "values": [-1.0, 0.0, 1.0]}
        cfg_dict["model"].update(kernel=kernel, past=past)
        first = tmp_path / "first.csv"
        code, _, err = run(capsys, command, "--config",
                           write_config(tmp_path / "run.json", cfg_dict),
                           "--out", str(first))
        assert (code, err) == (0, "")
        manifest = tmp_path / "first.manifest.json"
        model = json.loads(manifest.read_text())["model"]
        assert model["kernel"] == {**kernel, "a_max": 2.0}
        assert model["past"] == past
        second = tmp_path / "second.csv"
        assert run(capsys, command, "--config", str(manifest),
                   "--out", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    def test_manifest_holds_what_the_command_reads(self, capsys, tmp_path,
                                                   command):
        cfg_dict = valid_config(command)
        cfg_dict["output"]["path"] = str(tmp_path / "run.csv")
        solves = {name: mock.MagicMock() for name in SOLVES}
        with mock.patch.multiple("cellroll.cli", **solves):
            code, _, err = run(capsys, command, "--config",
                               write_config(tmp_path / "run.json", cfg_dict))
        assert (code, err) == (0, "")
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        section = "study" if command in ("converge", "longtime") else "solver"
        assert set(manifest) == {"command", "model", "output", section}
        if section == "solver":
            scheme = {"scheme"} if command == "simulate" else set()
            assert set(manifest["solver"]) == {"eps", "T", "dt", *scheme}

    def test_mm_matches_oracle_final_position(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "creep.json", creep_config())
        mm_csv = tmp_path / "mm.csv"
        oracle_csv = tmp_path / "oracle.csv"
        assert run(capsys, "mm", "--config", cfg,
                   "--out", str(mm_csv))[0] == 0
        assert run(capsys, "oracle", "--config", cfg,
                   "--out", str(oracle_csv))[0] == 0
        z_mm = np.genfromtxt(mm_csv, delimiter=",", skip_header=1)[:, 1]
        z_ref = np.genfromtxt(oracle_csv, delimiter=",", skip_header=1)[:, 1]
        assert z_mm.shape == z_ref.shape
        assert abs(z_mm[-1] - z_ref[-1]) < 5e-4

    def test_limit_command_holds_equilibrium(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "run.json", quad_config())
        out_csv = tmp_path / "limit.csv"
        code, _, _ = run(capsys, "limit", "--config", cfg,
                         "--out", str(out_csv))
        assert code == 0
        table = np.genfromtxt(out_csv, delimiter=",", skip_header=1)
        assert np.max(np.abs(table[:, 1] - 1.0)) < 1e-12

    def test_output_precision_is_honored(self, capsys, tmp_path):
        cfg_dict = quad_config(T=0.1, dt=0.05)
        cfg_dict["output"] = {"precision": 3}
        cfg = write_config(tmp_path / "run.json", cfg_dict)
        out_csv = tmp_path / "coarse.csv"
        run(capsys, "simulate", "--config", cfg, "--out", str(out_csv))
        assert out_csv.read_text().splitlines()[1] == "0,1,-1"

    @pytest.mark.parametrize("part, value, field", [
        ("potential", {"kind": "quadratic"}, "model.potential.kind"),
        ("potential", {"kind": "abs", "mollify_delta": 0.01},
         "model.potential.kind"),
        ("kernel", {"kind": "exponential", "beta": 1.0, "zeta": 1.0},
         "model.kernel.kind"),
    ], ids=["quadratic", "mollified-abs", "exponential-kernel"])
    def test_oracle_rejects_model_without_closed_form(self, capsys, tmp_path,
                                                      part, value, field):
        # the closed forms are for psi = |u| with no bond older than t
        cfg_dict = creep_config()
        cfg_dict["model"][part] = value
        cfg_dict["model"]["v"]["value"] = 1.5
        cfg = write_config(tmp_path / "run.json", cfg_dict)
        code, _, err = run(capsys, "oracle", "--config", cfg,
                           "--out", str(tmp_path / "oracle.csv"))
        assert code == 2
        assert err.startswith(f"config error: {field}: oracle profiles need")
        assert not (tmp_path / "oracle.csv").exists()

    def test_oracle_rejects_varying_drive(self, capsys, tmp_path):
        cfg_dict = creep_config()
        cfg_dict["model"]["v"] = {"kind": "table", "t": [0.0, 1.0],
                                  "values": [0.1, 0.2]}
        cfg = write_config(tmp_path / "run.json", cfg_dict)
        code, _, err = run(capsys, "oracle", "--config", cfg)
        assert code == 2
        assert "model.v.kind" in err

    @pytest.mark.parametrize("precision", [1, 6, 17])
    @pytest.mark.parametrize("beta, zeta, v", [
        (1.0, 1.0, 1.5), (1.0, 1.0, 0.5), (1.3, 0.7, -0.8), (1.0, 1.0, 0.0),
    ], ids=["kinematic", "plastic", "plastic-backward", "at-rest"])
    def test_oracle_writes_the_whole_grid_closed_form(self, capsys, tmp_path,
                                                      beta, zeta, v,
                                                      precision):
        # the command makes z and zdot one writer block at a time; 3001
        # rows span three blocks, and the plastic ones stop inside the first
        cfg_dict = creep_config()
        cfg_dict["model"]["kernel"].update(beta=beta, zeta=zeta)
        cfg_dict["model"]["v"]["value"] = v
        cfg_dict["solver"]["T"] = 3.0
        cfg_dict["output"] = {"precision": precision}
        cfg = write_config(tmp_path / "run.json", cfg_dict)
        out_csv = tmp_path / "oracle.csv"
        assert run(capsys, "oracle", "--config", cfg,
                   "--out", str(out_csv))[0] == 0
        profile = AbsProfile(v, TruncatedExponential(beta, zeta), -0.001)
        t = np.arange(3001) * 1e-3
        whole = tmp_path / "whole.csv"
        write_trajectory_csv(whole, t, profile.z(t), profile.zdot(t),
                             precision)
        assert out_csv.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize("T", [200.0, 800.0])
    @pytest.mark.parametrize("v", [1.5, 0.5], ids=["kinematic", "plastic"])
    def test_oracle_holds_one_block(self, tmp_path, v, T):
        kernel = TruncatedExponential(1.0, 1.0)
        # a first small run builds the writer's cached tables, which live
        # as long as the module, not the run
        cli._oracle(kernel, 0.0, v, SimpleNamespace(T=2.0, dt=1e-3))(
            tmp_path / "warm.csv", 17)
        tracemalloc.start()
        try:
            cli._oracle(kernel, 0.0, v, SimpleNamespace(T=T, dt=1e-3))(
                tmp_path / "oracle.csv", 17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 0.8 MB per block; the whole time grid took 1.6 to 6.4 MB
        # more, and whole-grid z and zdot 6.4 to 32 MB
        assert peak < 1.5e6


class TestFailureExits:
    def test_bad_field_reports_dotted_path(self, capsys, tmp_path):
        cfg_dict = quad_config()
        cfg_dict["model"]["kernel"]["beta"] = -1.0
        cfg = write_config(tmp_path / "run.json", cfg_dict)
        code, _, err = run(capsys, "simulate", "--config", cfg)
        assert code == 2
        assert err.startswith("config error: model.kernel.beta")

    def test_unknown_field_is_rejected(self, capsys, tmp_path):
        cfg_dict = quad_config()
        cfg_dict["extra"] = 1
        cfg = write_config(tmp_path / "run.json", cfg_dict)
        code, _, err = run(capsys, "simulate", "--config", cfg)
        assert code == 2
        assert "<config>.extra" in err and "unknown field" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--config",
                           str(tmp_path / "absent.json"))
        assert code == 2
        assert err.startswith("config error: <config>")

    @pytest.mark.parametrize("command", ["limit", "mm"])
    @pytest.mark.parametrize("potential", [{"kind": "quadratic"},
                                           {"kind": "tether", "r": 0.8},
                                           {"kind": "abs"}])
    def test_drive_of_1e300_solves(self, capsys, tmp_path, command, potential):
        # the root find's budget was once (hi - lo)/tol, infinite past a
        # 1e296-wide bracket; the tether's psi' overflows on the way
        cfg_dict = quad_config(T=0.05, dt=0.01)
        cfg_dict["model"]["potential"] = potential
        cfg_dict["model"]["past"] = {"kind": "constant", "value": 0.0}
        cfg_dict["model"]["v"] = {"kind": "table", "t": [0.0, 0.05],
                                  "values": [1e300, -1e300]}
        cfg = write_config(tmp_path / "run.json", cfg_dict)
        out_csv = tmp_path / "run.csv"
        with np.errstate(over="ignore"):
            code, _, err = run(capsys, command, "--config", cfg,
                               "--out", str(out_csv))
        assert (code, err) == (0, "")
        table = np.genfromtxt(out_csv, delimiter=",", skip_header=1)
        assert np.all(np.isfinite(table)) and table[0, 2] > 1e299

    @pytest.mark.parametrize("psi", [["quadratic"], ["tether", "--r", "0.8"],
                                     ["abs"]])
    @pytest.mark.parametrize("v", ["1e300", "-1e300"])
    def test_gamma_of_1e300_solves(self, capsys, psi, v):
        with np.errstate(over="ignore"):
            code, out, err = run(capsys, "gamma", "--psi", *psi, f"--v={v}")
        assert (code, err) == (0, "")
        assert 0.4 < float(out) / float(v) <= 1.0

    def test_overflowing_tether_is_a_numerical_failure(self, capsys):
        with np.errstate(over="ignore"):
            code, _, err = run(capsys, "gamma", "--psi", "tether", "--r", "0.8",
                               "--v", "3e307")
        assert code == 1
        assert err.startswith("numerical failure: root map is not finite")

    def test_unstable_run_exits_one(self, capsys, tmp_path):
        cfg_dict = quad_config(T=200.0, dt=0.5)
        cfg_dict["model"]["kernel"]["beta"] = 200.0
        cfg_dict["model"]["past"] = {"kind": "constant", "value": 0.0}
        cfg_dict["model"]["v"] = {"kind": "constant", "value": 1.0}
        cfg = write_config(tmp_path / "stiff.json", cfg_dict)
        code, _, err = run(capsys, "simulate", "--config", cfg)
        assert code == 1
        assert err.startswith("numerical failure:")
        assert "blew up" in err

    @pytest.mark.parametrize("command, solver, potential, field", [
        ("simulate", {}, "abs", "model.potential"),
        ("simulate", {"T": 1.001}, "quadratic", "solver.T"),
        ("mm", {"eps": 1e-3, "dt": 0.1}, "abs", "solver.dt"),
        ("simulate", {"scheme": "explicit_euler"}, "quadratic",
         "solver.scheme"),
        ("oracle", {"T": 1.001}, "abs", "solver.T"),
        # T/dt is inf, or more steps than any node buffer holds
        ("mm", {"T": 1e308}, "abs", "solver.T"),
        ("oracle", {"T": 1e308}, "abs", "solver.T"),
        ("simulate", {"T": 2.0, "dt": 1e-300}, "quadratic", "solver.T"),
        ("limit", {"T": 2.0, "dt": 1e-300}, "quadratic", "solver.T"),
        # a_max*eps/dt = 4e22 ages, more than any array indexes
        ("simulate", {"eps": 1e20, "dt": 1e-3}, "quadratic", "solver.eps"),
        ("mm", {"eps": 1e20, "dt": 1e-3}, "abs", "solver.eps"),
    ])
    def test_solver_precondition_reports_dotted_path(
            self, capsys, tmp_path, command, solver, potential, field):
        cfg_dict = quad_config(**solver)
        cfg_dict["model"]["potential"] = {"kind": potential}
        cfg = write_config(tmp_path / "run.json", cfg_dict)
        code, _, err = run(capsys, command, "--config", cfg)
        assert code == 2
        assert err.startswith(f"config error: {field}")

    @pytest.mark.parametrize("command", ["simulate", "mm", "limit"])
    @pytest.mark.parametrize("zeta", [5e-324, 1e-310])
    def test_subnormal_zeta_reports_its_field(self, capsys, tmp_path,
                                              command, zeta):
        # the default a_max = 40/zeta overflows to inf
        cfg_dict = creep_config() if command == "mm" else quad_config()
        cfg_dict["model"]["kernel"]["zeta"] = zeta
        cfg = write_config(tmp_path / "run.json", cfg_dict)
        code, _, err = run(capsys, command, "--config", cfg,
                           "--out", str(tmp_path / "run.csv"))
        assert code == 2
        assert err.startswith("config error: model.kernel.zeta: ")

    @pytest.mark.parametrize("command", ["simulate", "mm", "limit", "oracle"])
    def test_overflowing_mass_scale_reports_zeta(self, capsys, tmp_path,
                                                 command):
        # a_max is finite, but beta/zeta is not: every bond mass read inf
        cfg_dict = creep_config()
        cfg_dict["model"]["v"]["value"] = 6.0
        cfg_dict["model"]["kernel"].update(zeta=1e-310, a_max=5.0)
        cfg = write_config(tmp_path / "run.json", cfg_dict)
        code, _, err = run(capsys, command, "--config", cfg,
                           "--out", str(tmp_path / "run.csv"))
        assert code == 2
        assert err.startswith("config error: model.kernel.zeta: beta/zeta")
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("command", ["oracle", "mm", "converge"])
    @pytest.mark.parametrize("flag", [False, True], ids=["config", "--out"])
    def test_missing_output_directory_exits_before_the_solve(
            self, capsys, tmp_path, command, flag):
        cfg_dict = valid_config(command) if command == "converge" else creep_config()
        target = str(tmp_path / "absent" / "run.csv")
        argv = [command, "--config", None]
        if flag:
            argv += ["--out", target]
        else:
            cfg_dict["output"] = {"path": target}
        argv[2] = write_config(tmp_path / "run.json", cfg_dict)
        solves = {name: mock.MagicMock() for name in SOLVES}
        with mock.patch.multiple("cellroll.cli", **solves):
            code, _, err = run(capsys, *argv)
        assert code == 2
        field = "--out" if flag else "output.path"
        assert err == (f"config error: {field}: directory "
                       f"{str(tmp_path / 'absent')!r} does not exist\n")
        for name, solve in solves.items():
            assert not solve.called, name

    @pytest.mark.parametrize("command", ["oracle", "mm", "converge"])
    @pytest.mark.parametrize("flag", [False, True], ids=["config", "--out"])
    @pytest.mark.parametrize("leaf, directory", [
        ("d.csv", "d.csv"),
        ("d.csv" + os.sep, "d.csv"),
        ("run.csv", "run.manifest.json"),
    ], ids=["csv", "csv-slash", "manifest"])
    def test_directory_as_output_exits_before_the_solve(
            self, capsys, tmp_path, command, flag, leaf, directory):
        # open() on a directory once failed only after the whole solve
        cfg_dict = valid_config(command) if command == "converge" else creep_config()
        (tmp_path / directory).mkdir()
        target = str(tmp_path) + os.sep + leaf
        argv = [command, "--config", None]
        if flag:
            argv += ["--out", target]
        else:
            cfg_dict["output"] = {"path": target}
        argv[2] = write_config(tmp_path / "run.json", cfg_dict)
        solves = {name: mock.MagicMock() for name in SOLVES}
        with mock.patch.multiple("cellroll.cli", **solves):
            code, _, err = run(capsys, *argv)
        assert code == 2
        field = "--out" if flag else "output.path"
        culprit = target if directory == "d.csv" else str(tmp_path / directory)
        assert err == f"config error: {field}: {culprit!r} is a directory\n"
        for name, solve in solves.items():
            assert not solve.called, name
        assert sorted(os.listdir(tmp_path)) == sorted([directory, "run.json"])

    @pytest.mark.parametrize("command", ["mm", "converge"])
    def test_empty_out_flag_exits_two(self, capsys, tmp_path, monkeypatch,
                                      command):
        # the empty flag once fell back to output.path and wrote mm.csv
        cfg_dict = valid_config(command) if command == "converge" else creep_config()
        cfg = write_config(tmp_path / "run.json", cfg_dict)
        monkeypatch.chdir(tmp_path)
        solves = {name: mock.MagicMock() for name in SOLVES}
        with mock.patch.multiple("cellroll.cli", **solves):
            code, _, err = run(capsys, command, "--config", cfg, "--out", "")
        assert code == 2
        assert err == "config error: --out: must be a nonempty path\n"
        for name, solve in solves.items():
            assert not solve.called, name
        assert os.listdir(tmp_path) == ["run.json"]

    def test_failed_write_exits_one_in_one_line(self, capsys, tmp_path):
        # a file name longer than the file system takes: its directory
        # exists, and open() fails only after the solve
        cfg = write_config(tmp_path / "run.json", creep_config())
        code, _, err = run(capsys, "mm", "--config", cfg,
                           "--out", str(tmp_path / ("x" * 300 + ".csv")))
        assert code == 1
        assert err.startswith("cannot write output: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command, section, value", [
        ("limit", "solver", []),
        ("limit", "output", 0),
        ("oracle", "solver", "fast"),
        ("converge", "study", []),
        ("longtime", "study", 1),
    ])
    def test_malformed_section_reports_its_name(self, capsys, tmp_path,
                                                command, section, value):
        cfg_dict = quad_config()
        if section == "study":  # a study reads no solver section
            del cfg_dict["solver"]
        cfg_dict[section] = value
        cfg = write_config(tmp_path / "run.json", cfg_dict)
        code, _, err = run(capsys, command, "--config", cfg,
                           "--out", str(tmp_path / "run.csv"))
        assert code == 2
        assert err.startswith(f"config error: {section}: must be an object")

    @pytest.mark.parametrize("command, keys, value, field", [
        ("limit", ("model", "v", "value"), math.nan, "model.v.value"),
        ("oracle", ("model", "v", "value"), math.nan, "model.v.value"),
        ("simulate", ("model", "kernel", "a_max"), math.inf,
         "model.kernel.a_max"),
        ("mm", ("model", "kernel", "a_max"), math.inf, "model.kernel.a_max"),
        ("simulate", ("solver", "T"), math.inf, "solver.T"),
        ("mm", ("solver", "eps"), math.inf, "solver.eps"),
        ("simulate", ("model", "kernel", "beta"), True, "model.kernel.beta"),
        ("simulate", ("output", "precision"), True, "output.precision"),
        ("limit", ("model", "v"),
         {"kind": "table", "t": [0.0, 1.0], "values": [0.0, -math.inf]},
         "model.v.values"),
        ("mm", ("model", "past"),
         {"kind": "tabulated", "tau": [-1.0, 0.0], "values": [0.0, False]},
         "model.past.values"),
        # a quoted number is a string, not a number
        ("simulate", ("model", "kernel", "beta"), "1.5", "model.kernel.beta"),
        ("limit", ("model", "v", "value"), "1", "model.v.value"),
        ("mm", ("model", "past"),
         {"kind": "tabulated", "tau": ["-1", 0.0], "values": [0.0, 0.0]},
         "model.past.tau"),
        # an integer past the float range, alone or in a list
        pytest.param("simulate", ("solver", "T"), 10**400, "solver.T",
                     id="huge-solver.T"),
        pytest.param("converge", ("study",),
                     {"eps_list": [0.4, 0.2], "T": 1.0, "dt": 2e-3,
                      "final_bound": 10**400}, "study.final_bound",
                     id="huge-study.final_bound"),
        pytest.param("mm", ("model", "potential"),
                     {"kind": "piecewise_linear", "breaks": [10**400],
                      "slopes": [-1.0, 1.0]}, "model.potential.breaks",
                     id="huge-model.potential.breaks"),
        pytest.param("longtime", ("study",),
                     {"T_list": [1.0, -10**400], "dt": 5e-3}, "study.T_list",
                     id="huge-study.T_list"),
    ])
    def test_non_finite_or_boolean_number_reports_its_field(
            self, capsys, tmp_path, command, keys, value, field):
        cfg_dict = quad_config()
        if keys[0] == "study":  # a study reads no solver section
            del cfg_dict["solver"]
        node = cfg_dict
        for key in keys[:-1]:
            node = node.setdefault(key, {})
        node[keys[-1]] = value
        cfg = write_config(tmp_path / "run.json", cfg_dict)
        code, _, err = run(capsys, command, "--config", cfg,
                           "--out", str(tmp_path / "run.csv"))
        assert code == 2
        assert err.startswith(f"config error: {field}")

    @pytest.mark.parametrize("table, field, message", [
        ({"t": [0.0, 1.0], "values": [1.0]}, "model.v.values",
         "length must match t"),
        ({"t": [0.0, 1.0, 1.0], "values": [1.0, 2.0, 3.0]}, "model.v.t",
         "must be strictly increasing"),
    ], ids=["length", "order"])
    def test_table_drive_reports_its_field(self, capsys, tmp_path, table,
                                           field, message):
        cfg_dict = quad_config()
        cfg_dict["model"]["v"] = {"kind": "table", **table}
        cfg = write_config(tmp_path / "run.json", cfg_dict)
        code, _, err = run(capsys, "limit", "--config", cfg)
        assert (code, err) == (2, f"config error: {field}: {message}\n")

    def test_dropped_tol_fixedpoint_is_an_unknown_field(self, capsys,
                                                        tmp_path):
        cfg = write_config(tmp_path / "run.json",
                           quad_config(T=0.1, tol_fixedpoint=1e-10))
        code, _, err = run(capsys, "simulate", "--config", cfg,
                           "--out", str(tmp_path / "run.csv"))
        assert code == 2
        assert err == "config error: solver.tol_fixedpoint: unknown field\n"

    @pytest.mark.parametrize("content, reason", [
        (b"\xff\xfe{}", "cannot read"),
        (b"[" * 100_000, "invalid JSON in"),
        (b'{"model": 1' + b"0" * 5000 + b"}", "invalid JSON in"),
    ], ids=["not-utf8", "deep-nesting", "integer-digit-limit"])
    def test_unparsable_config_file_is_a_config_error(self, capsys, tmp_path,
                                                      content, reason):
        path = tmp_path / "run.json"
        path.write_bytes(content)
        code, _, err = run(capsys, "simulate", "--config", str(path))
        assert code == 2
        assert err.startswith(f"config error: <config>: {reason} {path}")

    def test_internal_value_error_exits_one(self, capsys, tmp_path,
                                            monkeypatch):
        def broken(*args):
            raise ValueError("boom")

        monkeypatch.setattr("cellroll.cli.solve_smooth", broken)
        cfg = write_config(tmp_path / "run.json", quad_config())
        code, _, err = run(capsys, "simulate", "--config", cfg)
        assert code == 1
        assert err == "internal error: boom\n"

    @pytest.mark.parametrize("error", [IndexError, TypeError,
                                       ZeroDivisionError])
    def test_any_internal_error_exits_one_in_one_line(self, capsys, tmp_path,
                                                      monkeypatch, error):
        def broken(*args):
            raise error("boom")

        monkeypatch.setattr("cellroll.cli.solve_smooth", broken)
        cfg = write_config(tmp_path / "run.json", quad_config())
        code, _, err = run(capsys, "simulate", "--config", cfg)
        assert code == 1
        assert err == f"internal error: {error.__name__}: boom\n"

    def test_keyboard_interrupt_is_not_caught(self, tmp_path, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr("cellroll.cli.solve_smooth", interrupted)
        cfg = write_config(tmp_path / "run.json", quad_config())
        with pytest.raises(KeyboardInterrupt):
            main(["simulate", "--config", cfg])

    @pytest.mark.parametrize("command", ["simulate", "mm"])
    def test_node_buffer_out_of_memory_exits_one(self, capsys, tmp_path,
                                                 monkeypatch, command):
        # 1e13 steps pass step_count; the buffer allocation is stubbed so
        # that nothing of that size is really requested
        def no_memory(self, past, n_steps):
            assert n_steps == 10**13
            raise MemoryError("Unable to allocate 72.8 TiB")

        monkeypatch.setattr("cellroll.memory.Memory.buffer", no_memory)
        cfg = write_config(tmp_path / "run.json", quad_config(T=1e10, dt=1e-3))
        code, _, err = run(capsys, command, "--config", cfg)
        assert code == 1
        assert err == ("out of memory: Unable to allocate 72.8 TiB; lower T/dt "
                       "(steps) or a_max*eps/dt (ages)\n")

    @pytest.mark.parametrize("command", ["simulate", "mm"])
    def test_age_grid_out_of_memory_names_the_age_count(
            self, capsys, tmp_path, monkeypatch, command):
        # 40/1e-12 ages pass the config; the grid is refused in the stub
        # before anything of that size is requested
        def no_memory(kernel, eps, dt):
            da, J = age_grid(kernel, eps, dt)
            assert J == 4 * 10**13
            raise MemoryError("Unable to allocate 291. TiB")

        age_grid = memory._age_grid
        monkeypatch.setattr(memory, "_age_grid", no_memory)
        cfg = write_config(tmp_path / "run.json", quad_config(eps=1e9, dt=1e-3))
        code, _, err = run(capsys, command, "--config", cfg)
        assert code == 1
        assert err == ("out of memory: Unable to allocate 291. TiB; lower T/dt "
                       "(steps) or a_max*eps/dt (ages)\n")

    @pytest.mark.parametrize("command", ["limit", "oracle"])
    def test_solvers_without_ages_name_only_the_steps(
            self, capsys, tmp_path, monkeypatch, command):
        def no_memory(*args):
            raise MemoryError("Unable to allocate 72.8 TiB")

        monkeypatch.setattr("cellroll.cli.integrate_limit", no_memory)
        monkeypatch.setattr("cellroll.cli._oracle", no_memory)
        cfg_dict = creep_config() if command == "oracle" else quad_config()
        cfg = write_config(tmp_path / "run.json", cfg_dict)
        code, _, err = run(capsys, command, "--config", cfg)
        assert code == 1
        assert err == "out of memory: Unable to allocate 72.8 TiB; lower T/dt\n"

    def test_sweep_out_of_memory_names_the_sweep_size(self, capsys,
                                                      monkeypatch):
        # the sweep is stubbed, so nothing of a failing size is requested
        def no_memory(kernel, v_grid):
            raise MemoryError("Unable to allocate 7.11 PiB")

        monkeypatch.setattr("cellroll.cli.velocity_force_sweep", no_memory)
        code, _, err = run(capsys, "gamma", "--sweep", "-3", "3", "5")
        assert code == 1
        assert err == "out of memory: Unable to allocate 7.11 PiB; lower --sweep N\n"


class TestStudyCommands:
    def test_converge_passes_and_echoes_study(self, capsys, tmp_path):
        cfg_dict = quad_config()
        del cfg_dict["solver"]
        cfg_dict["model"]["past"] = {"kind": "constant", "value": 0.0}
        cfg_dict["model"]["v"] = {"kind": "constant", "value": 1.0}
        cfg_dict["study"] = {"eps_list": [0.4, 0.2, 0.1], "T": 1.0,
                             "dt": 2e-3, "final_bound": 0.05}
        cfg = write_config(tmp_path / "conv.json", cfg_dict)
        out_csv = tmp_path / "conv.csv"
        code, out, _ = run(capsys, "converge", "--config", cfg,
                           "--out", str(out_csv))
        assert code == 0
        assert out.startswith("PASS convergence:")
        assert "final error <= 0.05" in out
        table = np.genfromtxt(out_csv, delimiter=",", skip_header=1)
        assert list(table[:, 0]) == [0.4, 0.2, 0.1]
        manifest = json.loads((tmp_path / "conv.manifest.json").read_text())
        assert manifest["study"] == {"eps_list": [0.4, 0.2, 0.1], "T": 1.0,
                                     "dt": 2e-3, "final_bound": 0.05}

    def test_converge_kinked_study_fails_its_final_bound(self, capsys,
                                                         tmp_path):
        cfg_dict = quad_config()
        del cfg_dict["solver"]
        cfg_dict["model"]["potential"] = {"kind": "abs"}
        cfg_dict["model"]["past"] = {"kind": "constant", "value": 0.0}
        cfg_dict["model"]["v"] = {"kind": "constant", "value": 1.5}
        cfg_dict["study"] = {"eps_list": [0.2, 0.1], "T": 0.2, "dt": 1e-3,
                             "final_bound": 1e-9}
        cfg = write_config(tmp_path / "conv.json", cfg_dict)
        code, out, _ = run(capsys, "converge", "--config", cfg,
                           "--out", str(tmp_path / "conv.csv"))
        assert code == 1
        assert out.startswith("FAIL convergence:")
        assert "final error <= 1e-09" in out

    def test_converge_rejects_increasing_eps(self, capsys, tmp_path):
        cfg_dict = quad_config()
        del cfg_dict["solver"]
        cfg_dict["study"] = {"eps_list": [0.1, 0.2], "T": 1.0, "dt": 2e-3}
        cfg = write_config(tmp_path / "conv.json", cfg_dict)
        code, _, err = run(capsys, "converge", "--config", cfg)
        assert code == 2
        assert "study.eps_list" in err

    def test_converge_partial_final_step_reports_study_t(self, capsys,
                                                         tmp_path):
        cfg_dict = quad_config()
        del cfg_dict["solver"]
        cfg_dict["study"] = {"eps_list": [0.4, 0.2], "T": 1.001, "dt": 2e-3}
        cfg = write_config(tmp_path / "conv.json", cfg_dict)
        code, _, err = run(capsys, "converge", "--config", cfg)
        assert code == 2
        assert err.startswith("config error: study.T:")

    @pytest.mark.parametrize("T, dt", [(1e308, 0.01), (2.0, 1e-300)])
    def test_converge_step_count_beyond_any_buffer_reports_study_t(
            self, capsys, tmp_path, T, dt):
        cfg_dict = quad_config()
        del cfg_dict["solver"]
        cfg_dict["study"] = {"eps_list": [0.4, 0.2], "T": T, "dt": dt}
        cfg = write_config(tmp_path / "conv.json", cfg_dict)
        code, _, err = run(capsys, "converge", "--config", cfg)
        assert code == 2
        assert err.startswith("config error: study.T:")

    def test_converge_age_count_beyond_any_array_reports_eps_list(
            self, capsys, tmp_path):
        # the largest eps sets the longest age grid: 40e20/1e-3 ages
        cfg_dict = quad_config()
        del cfg_dict["solver"]
        cfg_dict["model"]["potential"] = {"kind": "abs"}
        cfg_dict["study"] = {"eps_list": [1e20, 0.1], "T": 0.5, "dt": 1e-3}
        cfg = write_config(tmp_path / "conv.json", cfg_dict)
        code, _, err = run(capsys, "converge", "--config", cfg)
        assert code == 2
        assert err.startswith("config error: study.eps_list: a_max*eps/dt")

    def test_longtime_age_count_beyond_any_array_reports_study_dt(
            self, capsys, tmp_path):
        # 100 steps, but at eps = 1 a grid of 40/1e-19 ages
        cfg_dict = quad_config()
        del cfg_dict["solver"]
        cfg_dict["study"] = {"T_list": [1e-17], "dt": 1e-19}
        cfg = write_config(tmp_path / "lt.json", cfg_dict)
        code, _, err = run(capsys, "longtime", "--config", cfg)
        assert code == 2
        assert err.startswith("config error: study.dt: a_max*eps/dt")

    def test_longtime_passes(self, capsys, tmp_path):
        cfg_dict = quad_config()
        del cfg_dict["solver"]
        cfg_dict["model"]["past"] = {"kind": "constant", "value": 0.0}
        cfg_dict["model"]["v"] = {"kind": "constant", "value": 1.0}
        cfg_dict["study"] = {"T_list": [10.0, 20.0], "dt": 5e-3}
        cfg = write_config(tmp_path / "lt.json", cfg_dict)
        out_csv = tmp_path / "lt.csv"
        code, out, _ = run(capsys, "longtime", "--config", cfg,
                           "--out", str(out_csv))
        assert code == 0
        assert out.startswith("PASS longtime:")
        table = np.genfromtxt(out_csv, delimiter=",", skip_header=1)
        assert table[1, 1] < table[0, 1]

    def test_longtime_table_drive_settles_at_last_value(self, capsys,
                                                        tmp_path):
        cfg_dict = quad_config()
        del cfg_dict["solver"]
        cfg_dict["model"]["past"] = {"kind": "constant", "value": 0.0}
        cfg_dict["model"]["v"] = {"kind": "table", "t": [0.0, 1.0],
                                  "values": [2.0, 1.0]}
        cfg_dict["study"] = {"T_list": [10.0, 20.0], "dt": 5e-3}
        cfg = write_config(tmp_path / "lt.json", cfg_dict)
        out_csv = tmp_path / "lt.csv"
        code, out, _ = run(capsys, "longtime", "--config", cfg,
                           "--out", str(out_csv))
        assert code == 0, out
        # gamma at the first value 2.0 would leave a drift near 0.5
        table = np.genfromtxt(out_csv, delimiter=",", skip_header=1)
        assert table[1, 1] < 0.05

    def test_longtime_rejects_empty_horizons(self, capsys, tmp_path):
        cfg_dict = quad_config()
        del cfg_dict["solver"]
        cfg_dict["study"] = {"T_list": [], "dt": 5e-3}
        cfg = write_config(tmp_path / "lt.json", cfg_dict)
        code, _, err = run(capsys, "longtime", "--config", cfg)
        assert code == 2
        assert "study.T_list" in err

    def test_longtime_rejects_negative_horizon(self, capsys, tmp_path):
        cfg_dict = quad_config()
        del cfg_dict["solver"]
        cfg_dict["study"] = {"T_list": [-1.0, 2.0], "dt": 1e-2}
        cfg = write_config(tmp_path / "lt.json", cfg_dict)
        code, _, err = run(capsys, "longtime", "--config", cfg)
        assert code == 2
        assert err.startswith("config error: study.T_list:")

    def test_unknown_study_key_rejected(self, capsys, tmp_path):
        cfg_dict = quad_config()
        del cfg_dict["solver"]
        cfg_dict["study"] = {"T_list": [1.0], "dt": 5e-3, "slack": 0.1}
        cfg = write_config(tmp_path / "lt.json", cfg_dict)
        code, _, err = run(capsys, "longtime", "--config", cfg)
        assert code == 2
        assert "study.slack" in err and "unknown field" in err


# every solve, study and closed form a config command calls, and the CSV
# writer the oracle calls; stubbed, a drawn grid size allocates nothing
SOLVES = dict.fromkeys(
    ("solve_smooth", "solve_mm", "integrate_limit", "convergence_study",
     "longtime_study", "AbsProfile", "write_trajectory_csv"), mock.MagicMock())

_huge = (st.integers(min_value=2**1024, max_value=10**400)
         | st.integers(min_value=-10**400, max_value=-2**1024))
_scalar = st.one_of(st.none(), st.booleans(), _huge,
                    st.sampled_from([math.nan, math.inf, -math.inf,
                                     0.0, -1.0, 0.5, 5e-324, 1e-310]),
                    st.text(max_size=4))
# scalars, nested lists, and objects whose keys no section takes
_json_value = st.recursive(
    _scalar,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(["x", "extra"]), inner,
                                     min_size=1)),
    max_leaves=6)


def _locations(node, where=()):
    """The path to every entry below ``node``: members and list items."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield where + (key,)
        yield from _locations(child, where + (key,))


@st.composite
def broken_configs(draw):
    """A valid config for a drawn command with one entry replaced."""
    command = draw(st.sampled_from(CONFIG_COMMANDS))
    cfg = valid_config(command)
    where = draw(st.sampled_from(list(_locations(cfg))))
    node = cfg
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = draw(_json_value)
    return command, cfg


@settings(derandomize=True, max_examples=300, deadline=None)
@given(broken_configs())
def test_config_commands_never_traceback(case):
    command, cfg = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.multiple("cellroll.cli", **SOLVES), \
            redirect_stdout(out), redirect_stderr(err):
        path = os.path.join(tmp, "run.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        code = main([command, "--config", path,
                     "--out", os.path.join(tmp, "run.csv")])
    assert code in (0, 1, 2)
    assert "internal error:" not in err.getvalue()
    if code == 2:
        assert re.match(r"config error: (<config>|[A-Za-z_]\w*)(\.\w+)*: ",
                        err.getvalue()), err.getvalue()


def test_readme_gamma_lines_run_as_documented(capsys, tmp_path, monkeypatch):
    # every `cellroll gamma` line of README's command-line block, in a
    # scratch directory since the sweep writes its CSV there
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = fh.read().split("## Command line", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines()
             if line.startswith("cellroll gamma ")]
    assert sum("# prints " in line for line in lines) >= 2
    monkeypatch.chdir(tmp_path)
    for line in lines:
        command, _, comment = line.partition("# ")
        code, out, err = run(capsys, *shlex.split(command)[1:])
        assert (code, err) == (0, ""), line
        if comment.startswith("prints "):
            assert out == comment[len("prints "):].strip() + "\n", line


def test_console_script_is_installed():
    exe = shutil.which("cellroll")
    assert exe is not None
    proc = subprocess.run([exe, "gamma", "--psi", "abs", "--v", "1.5"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.5"


def test_module_entry_point():
    proc = python("-m", "cellroll", "gamma", "--v", "1.5")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.5"


def test_module_run_writes_every_output(tmp_path):
    # a whole process, exit included: nothing may be lost after main returns
    cfg = write_config(tmp_path / "run.json", creep_config())
    out_csv = tmp_path / "oracle.csv"
    proc = python("-m", "cellroll", "oracle", "--config", cfg,
                  "--out", str(out_csv))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, f"wrote {out_csv}\n", "")
    solver = creep_config()["solver"]
    rows = round(solver["T"] / solver["dt"]) + 1
    text = out_csv.read_text()
    assert text.count("\n") == 1 + rows  # the header, then one per row
    assert text.endswith("\n")
    manifest = tmp_path / "oracle.manifest.json"
    json.loads(manifest.read_text())
    again = tmp_path / "again.csv"
    assert python("-m", "cellroll", "oracle", "--config", str(manifest),
                  "--out", str(again)).returncode == 0
    assert again.read_bytes() == out_csv.read_bytes()


@pytest.mark.parametrize("rate", [1e-3, 1e-11])
def test_oracle_stop_time_past_the_float_spacing_of_tol(tmp_path, rate):
    # mu(t1) = |v| at t1 = 37430 (3.7e12 at the lower rate, past 1e12,
    # where the bracket search once gave up), where adjacent floats lie
    # more than the stop-time bisection's 1e-12 apart; that bisection once
    # never ended, so it runs in a subprocess, and a regression fails
    # within a minute
    cfg_dict = creep_config()
    cfg_dict["model"]["kernel"].update(beta=rate, zeta=rate)
    cfg_dict["model"]["v"]["value"] = 1.0
    cfg_dict["solver"].update(T=1.0, dt=1e-3)
    cfg = write_config(tmp_path / "run.json", cfg_dict)
    out_csv = tmp_path / "oracle.csv"
    proc = python("-m", "cellroll", "oracle", "--config", cfg,
                  "--out", str(out_csv), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    t, z, zdot = np.loadtxt(out_csv, delimiter=",", skiprows=1)[-1]
    # zdot = 1 - (1 - e^{-rate t}), z = z0 + (1 - e^{-rate t}) / rate
    assert t == 1.0
    assert zdot == pytest.approx(math.exp(-rate), abs=1e-15)
    assert z == pytest.approx(-0.001 - math.expm1(-rate) / rate, abs=1e-12)
    # the float below t1 holds less mass than the drive, t1 itself enough
    proc = python("-c", f"""if True:
        import math
        from cellroll.kernels import TruncatedExponential
        from cellroll.oracles import AbsProfile
        k = TruncatedExponential({rate}, {rate})
        t1 = AbsProfile(1.0, k, 0.0).t1
        print(k.cummass(math.nextafter(t1, 0.0), math.inf) < 1.0
              <= k.cummass(t1, math.inf))""", timeout=60)
    assert (proc.stdout, proc.stderr) == ("True\n", "")


class TestHeapFreeze:
    """Importing the CLI module freezes the start-up heap, once per process."""

    def test_only_the_cli_import_freezes(self):
        proc = python("-c", "import gc, cellroll; n = gc.get_freeze_count(); "
                            "import cellroll.cli; "
                            "print(n, gc.get_freeze_count())")
        assert proc.returncode == 0, proc.stderr
        library, cli_module = map(int, proc.stdout.split())
        assert library == 0 and cli_module > 0

    def test_main_freezes_nothing(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "run.json", quad_config())
        frozen = gc.get_freeze_count()
        for _ in range(2):
            assert run(capsys, "simulate", "--config", cfg,
                       "--out", str(tmp_path / "run.csv"))[0] == 0
        # a frozen object that dies leaves the count; none may join it
        assert gc.get_freeze_count() <= frozen

    def test_cycles_around_a_run_are_collected(self, capsys, tmp_path):
        class Node:
            pass

        def cycle():
            node = Node()
            node.self = node
            return node

        cfg = write_config(tmp_path / "run.json", quad_config())
        before = cycle()
        assert run(capsys, "simulate", "--config", cfg,
                   "--out", str(tmp_path / "run.csv"))[0] == 0
        refs = [weakref.ref(before), weakref.ref(cycle())]
        del before
        gc.collect()
        assert [ref() for ref in refs] == [None, None]


class TestStartup:
    """What importing the package and the CLI module leaves behind."""

    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["enabled", "disabled"])
    def test_package_import_leaves_the_collector_as_found(self, enabled):
        proc = python("-c", "import gc; "
                            f"gc.enable() if {enabled} else gc.disable(); "
                            "import cellroll; "
                            "print(gc.isenabled(), gc.get_freeze_count())")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(enabled), "0"]

    def test_cli_import_loads_no_dataclasses(self):
        proc = python("-c", "import sys; before = set(sys.modules); "
                            "import cellroll.cli; "
                            "print(sorted(m for m in set(sys.modules) - before"
                            " if m.split('.')[0] == 'dataclasses'))")
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr

    def test_cli_import_loads_every_benchmark_layer(self):
        # the benchmark's probe wraps each layer it finds in sys.modules
        # once cellroll.cli is imported, so none may be imported lazily
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = python("-c", f"""if True:
            import sys
            sys.path.insert(0, {os.path.join(root, "perfbench")!r})
            from probe import LAYERS
            import cellroll.cli
            print(len(LAYERS), [layer for layer in LAYERS
                                if "cellroll." + layer not in sys.modules])""")
        assert proc.returncode == 0, proc.stderr
        count, missing = proc.stdout.split(" ", 1)
        assert int(count) > 0 and missing == "[]\n"
