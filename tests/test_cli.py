"""Command-line interface: exit codes, CSV outputs, manifest round-trips."""
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellroll.cli import main
from cellroll.oracles import gamma_abs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def valid_config(command):
    """A config each config command accepts, with an entry of every shape:
    a number, a list of numbers, a string and a nested object."""
    if command in ("mm", "oracle"):
        cfg = creep_config()
    else:
        cfg = quad_config()
    if command == "mm":
        cfg["model"]["potential"] = {"kind": "piecewise_linear",
                                     "breaks": [0.0], "slopes": [-1.0, 1.0]}
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


class TestGamma:
    def test_prints_sliding_velocity(self, capsys):
        code, out, _ = run(capsys, "gamma", "--psi", "abs",
                           "--mu", "1", "--v", "1.5")
        assert code == 0
        assert out.strip() == "0.5"

    def test_pinned_band_prints_zero(self, capsys):
        code, out, _ = run(capsys, "gamma", "--psi", "abs",
                           "--mu", "1", "--v", "0.7")
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
        code, _, err = run(capsys, "gamma", "--beta", "2", "--v", "1")
        assert code == 2
        assert "--beta" in err

    @pytest.mark.parametrize("argv, flag", [
        (["--beta", "-1", "--zeta", "1"], "--beta"),
        (["--zeta", "0", "--beta", "1"], "--zeta"),
        (["--mu", "-1"], "--mu"),
        (["--beta", "1", "--zeta", "1e-310"], "--zeta"),
        (["--beta", "1e10", "--zeta", "1e-300"], "--zeta"),
    ])
    def test_bad_kernel_flag_is_a_config_error(self, capsys, argv, flag):
        code, _, err = run(capsys, "gamma", *argv, "--v", "1")
        assert code == 2
        assert err.startswith(f"config error: {flag}: ")

    @pytest.mark.parametrize("argv, flag", [
        (["--v", "nan"], "--v"),
        (["--mu", "nan", "--v", "1"], "--mu"),
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

    def test_failed_write_exits_one_in_one_line(self, capsys, tmp_path):
        # the output path is an existing directory: open() fails after the
        # solve, so the directory check cannot see it
        cfg = write_config(tmp_path / "run.json", creep_config())
        code, _, err = run(capsys, "mm", "--config", cfg,
                           "--out", str(tmp_path))
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
        node = cfg_dict
        for key in keys[:-1]:
            node = node.setdefault(key, {})
        node[keys[-1]] = value
        cfg = write_config(tmp_path / "run.json", cfg_dict)
        code, _, err = run(capsys, command, "--config", cfg,
                           "--out", str(tmp_path / "run.csv"))
        assert code == 2
        assert err.startswith(f"config error: {field}")

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


CONFIG_COMMANDS = ("simulate", "mm", "limit", "oracle", "converge", "longtime")

# every solve, study and closed form a config command calls, and the CSV
# writer the oracle calls; stubbed, a drawn grid size allocates nothing
SOLVES = dict.fromkeys(
    ("solve_smooth", "solve_mm", "integrate_limit", "convergence_study",
     "longtime_study", "plastic_trajectory", "kinematic_trajectory",
     "kinematic_velocity", "write_trajectory_csv"), mock.MagicMock())

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


def test_console_script_is_installed():
    exe = shutil.which("cellroll")
    assert exe is not None
    proc = subprocess.run([exe, "gamma", "--psi", "abs", "--mu", "1",
                           "--v", "1.5"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.5"


def test_module_entry_point():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "cellroll", "gamma", "--mu", "1",
                           "--v", "1.5"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.5"
