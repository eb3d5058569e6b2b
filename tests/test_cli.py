import argparse
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema.validators import validator_for

import nonlocper
from nonlocper import cli

L = math.pi


def write_samples(path, fn=None):
    xs = np.linspace(-L, L, 65)[:-1]
    fn = fn or (lambda x: 1.0 + np.cos(x) + 0.2 * np.sin(2 * x))
    np.savetxt(path, np.column_stack([xs, fn(xs)]), delimiter=",",
               header="x,u", comments="")
    return str(path)


def run_cli(args):
    return cli.main([str(a) for a in args])


def write_config(tmp_path, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return str(path)


# a minimize whose constraint functional is a polynomial, not a power
POLYNOMIAL_MINIMIZE = {
    "command": "minimize", "kernel": {"family": "fraclap", "s": 0.5},
    "grid": {"L": 12.566, "N": 64}, "constraint": 5, "seed": 1,
    "nonlinearity": {"name": "polynomial", "G_coeffs": [0, 0, -0.5],
                     "Gt_coeffs": [0, 0, 1, 1]}}

# a tabulated Laplace kernel, K(t) = sum of e^-r e^(-t^2 r) over a log r grid
_R = np.geomspace(1e-3, 1e3, 60)
LAPLACE = {"kernel": {"family": "laplace", "s": 0.5,
                      "profile": np.column_stack([_R, np.exp(-_R)]).tolist()},
           "grid": {"L": L, "N": 64}}


def load_report(out_dir, command):
    with open(os.path.join(out_dir, f"{command}_report.json")) as fh:
        return json.load(fh)


class TestConfigHandling:
    def test_schema_rejects_bad_s(self, tmp_path):
        code = run_cli(["symbol", "--kernel", "fraclap", "--s", 7.5,
                        "--L", L, "--N", 64, "--out", tmp_path])
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("family", ["nosuch", "custom"])
    def test_schema_rejects_unknown_family(self, tmp_path, family):
        code = run_cli(["symbol", "--kernel", family, "--s", 0.5,
                        "--L", L, "--N", 64, "--out", tmp_path])
        assert code == cli.EXIT_CONFIG

    def test_schema_rejects_extra_keys(self):
        assert cli.run({"command": "symbol", "bogus": 1}) == cli.EXIT_CONFIG

    def test_shipped_schema_is_valid(self):
        # runs validate against the schema without checking the schema itself
        schema = cli.load_schema()
        validator_for(schema).check_schema(schema)

    def test_config_file(self, tmp_path):
        cfg = {"command": "regularity", "s": 0.2, "beta": 0.4}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        code = run_cli(["regularity", "--config", p, "--out", tmp_path])
        assert code == cli.EXIT_OK
        rep = load_report(tmp_path, "regularity")
        assert rep["result"]["case"] == "subcritical_i"

    def test_report_metadata(self, tmp_path):
        code = run_cli(["regularity", "--s", 0.2, "--beta", 0.4,
                        "--out", tmp_path])
        assert code == cli.EXIT_OK
        rep = load_report(tmp_path, "regularity")
        assert set(rep) >= {"command", "version", "config_hash", "timestamp",
                            "result"}
        assert len(rep["config_hash"]) == 64

    def test_version_is_the_package_version(self, tmp_path):
        # a regex, not tomllib: Python 3.10 has no tomllib
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        project = text.split("[project]", 1)[1].split("\n[", 1)[0]
        assert re.search(r'^version = "([^"]+)"', project, re.M)[1] == nonlocper.__version__
        assert run_cli(["regularity", "--s", 0.2, "--beta", 0.4,
                        "--out", tmp_path]) == cli.EXIT_OK
        assert load_report(tmp_path, "regularity")["version"] == nonlocper.__version__

    def test_config_hash_stable(self):
        a = cli.config_hash({"x": 1, "y": [2, 3]})
        b = cli.config_hash({"y": [2, 3], "x": 1})
        assert a == b


class TestFlagsWin:
    """Each flag writes one config path and wins over the file's value there,
    whatever other flags are given."""

    @pytest.mark.parametrize("spec,flags,merged", [
        ({"family": "fraclap", "s": 0.5}, ["--s", 0.2], {"s": 0.2}),
        ({"family": "delaunay", "n": 2, "s": 0.5, "a": 1.0}, ["--n", 3], {"n": 3}),
        ({"family": "delaunay", "n": 2, "s": 0.5, "a": 1.0}, ["--a", 2.0], {"a": 2.0}),
    ], ids=["s", "n", "a"])
    def test_kernel_flag_over_file(self, tmp_path, spec, flags, merged):
        tables = []
        for sub, kernel, extra in (("flag", spec, flags), ("file", {**spec, **merged}, [])):
            p = tmp_path / f"{sub}.json"
            p.write_text(json.dumps({"kernel": kernel, "grid": {"L": L, "N": 64}}))
            assert run_cli(["symbol", "--config", p, *extra,
                            "--out", tmp_path / sub]) == cli.EXIT_OK
            tables.append(np.loadtxt(tmp_path / sub / "symbol.csv", delimiter=",",
                                     skiprows=1))
        assert np.array_equal(tables[0], tables[1])
        if spec["family"] == "fraclap":
            assert np.allclose(tables[0][:, 2], np.abs(tables[0][:, 1]) ** 0.4)

    def test_kernel_class_reads_the_grid_half_period(self, tmp_path):
        # a cutoff in (L, 2L) folds the indicator onto a profile that rises
        # again near L; at the default L = pi the cutoff 2.5 lies below L
        code = run_cli(["kernel-class", "--kernel", "indicator", "--cutoff", 2.5,
                        "--L", 2.0, "--out", tmp_path])
        assert code == cli.EXIT_OK
        assert load_report(tmp_path, "kernel-class")["result"]["wrapped_monotone"] is False

    def test_dtn_check_needs_only_N(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"grid": {"N": 32}}))
        assert run_cli(["dtn-check", "--config", p, "--out", tmp_path]) == cli.EXIT_OK

    def test_kernel_L_is_not_a_key(self, tmp_path, capsys):
        # the half period has one key, grid.L
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"kernel": {"family": "indicator", "cutoff": 2.5,
                                            "L": 2.0}}))
        code = run_cli(["kernel-class", "--config", p, "--out", tmp_path])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("configuration error: $.kernel:")
        assert "L" in err and "(additionalProperties)" in err

    @pytest.mark.parametrize("family, flags, unread", [
        ("fraclap", ["--s", 0.5, "--a", 3.0, "--cutoff", 2.0, "--n", 7], "n, a, cutoff"),
        ("sinetail", ["--s", 0.5, "--n", 3], "n"),
        ("delaunay", ["--s", 0.5, "--cutoff", 2.0], "cutoff"),
        ("indicator", ["--cutoff", 2.0, "--a", 1.0], "a"),
    ])
    def test_keys_the_family_does_not_read_exit_2(self, tmp_path, capsys, family, flags,
                                                   unread):
        code = run_cli(["symbol", "--kernel", family, *flags, "--L", L, "--N", 16,
                        "--out", tmp_path])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err == f"configuration error: $.kernel: unexpected {unread} (additionalProperties)\n"

    def test_power_nonlinearity_defaults_to_p_2(self, tmp_path):
        fpath = write_samples(tmp_path / "u.csv")
        results = []
        for sub, spec in (("bare", {"name": "power"}), ("p2", {"name": "power", "p": 2})):
            p = tmp_path / f"{sub}.json"
            p.write_text(json.dumps({"nonlinearity": spec}))
            assert run_cli(["energy", "--kernel", "fraclap", "--s", 0.5, "--L", L,
                            "--N", 64, "--function", fpath, "--config", p,
                            "--out", tmp_path / sub]) == cli.EXIT_OK
            results.append(load_report(tmp_path / sub, "energy")["result"])
        assert results[0] == results[1]


# the flags each command reads, besides --config and --out
_KERNEL_FLAGS = ["--kernel", "--s", "--n", "--a", "--cutoff"]
_SYMBOL_FLAGS = _KERNEL_FLAGS + ["--L", "--N"]
READS = {
    "symbol": _SYMBOL_FLAGS,
    "apply": _SYMBOL_FLAGS + ["--function", "--mode"],
    "energy": _SYMBOL_FLAGS + ["--function"],
    "rearrange": ["--L", "--N", "--function"],
    "polya-szego": _SYMBOL_FLAGS + ["--function"],
    "riesz": ["--L", "--N", "--seed"],
    "minimize": _SYMBOL_FLAGS + ["--constraint", "--seed", "--max-iters"],
    "maxprinciple": _SYMBOL_FLAGS + ["--function", "--x0"],
    "regularity": ["--s", "--beta"],
    "kernel-class": _KERNEL_FLAGS + ["--L"],
    "dtn-check": ["--N"],
}
FLAG_VALUES = {"--kernel": "fraclap", "--s": 0.5, "--n": 2, "--a": 1.0, "--cutoff": 1.0,
               "--L": 2.0, "--N": 64, "--beta": 0.3, "--function": "u.csv",
               "--mode": "pv", "--constraint": 5, "--x0": 1.0, "--seed": 1,
               "--max-iters": 10}
# a run that each command completes; the unread flag is appended to it
BASE_ARGS = {
    "symbol": ["--kernel", "fraclap", "--s", 0.5, "--L", L, "--N", 64],
    "apply": ["--kernel", "fraclap", "--s", 0.5, "--L", L, "--N", 64,
              "--function", "u.csv"],
    "energy": ["--kernel", "fraclap", "--s", 0.5, "--L", L, "--N", 64,
               "--function", "u.csv"],
    "rearrange": ["--L", L, "--N", 64, "--function", "u.csv"],
    "polya-szego": ["--kernel", "fraclap", "--s", 0.5, "--L", L, "--N", 64,
                    "--function", "u.csv"],
    "riesz": ["--L", L, "--N", 64],
    "minimize": ["--kernel", "fraclap", "--s", 0.5, "--L", 4 * math.pi, "--N", 128,
                 "--constraint", 5],
    "maxprinciple": ["--kernel", "fraclap", "--s", 0.5, "--L", L, "--N", 64],
    "regularity": ["--s", 0.2, "--beta", 0.4],
    "kernel-class": ["--kernel", "sinetail", "--s", 0.5],
    "dtn-check": ["--N", 32],
}
UNREAD = [(cmd, flag) for cmd, reads in READS.items() for flag in FLAG_VALUES
          if flag not in reads]


class TestFlagTable:
    """Each command registers only the flags it reads; any other flag, and
    any other argparse failure, exits 2 through cli.main."""

    def test_parser_registers_exactly_the_read_flags(self):
        parser = cli.build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        registered = {(name, opt) for name, sub in commands.items()
                      for action in sub._actions for opt in action.option_strings
                      if opt not in ("-h", "--help", "--config", "--out")}
        expected = {(cmd, flag) for cmd, reads in READS.items() for flag in reads}
        assert registered == expected
        assert len(registered) == 66 and len(UNREAD) == 88

    @pytest.mark.parametrize("command,flag", UNREAD,
                             ids=[f"{c}{f}" for c, f in UNREAD])
    def test_unread_flag_exits_2(self, tmp_path, capsys, monkeypatch, command, flag):
        write_samples(tmp_path / "u.csv")
        monkeypatch.chdir(tmp_path)
        code = run_cli([command, *BASE_ARGS[command], flag, FLAG_VALUES[flag],
                        "--out", tmp_path])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith(f"configuration error: unrecognized arguments: {flag}")
        assert "Traceback" not in err
        assert not (tmp_path / f"{command}_report.json").exists()

    @pytest.mark.parametrize("args,message", [
        (["dtn-check", "--N", "abc"], "argument --N: invalid int value"),
        (["nosuch", "--N", 32], "argument command: invalid choice"),
        ([], "the following arguments are required: command"),
        # riesz has --seed but no --s: a prefix is not read as the flag
        (["riesz", "--L", L, "--N", 64, "--s", 3], "unrecognized arguments: --s"),
    ], ids=["N-not-an-integer", "unknown-command", "no-command", "no-abbreviation"])
    def test_argparse_failure_returns_2(self, tmp_path, capsys, args, message):
        code = run_cli(args + (["--out", tmp_path] if args else []))
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith(f"configuration error: {message}")
        assert "Traceback" not in err


class TestCommands:
    def test_symbol(self, tmp_path):
        code = run_cli(["symbol", "--kernel", "fraclap", "--s", 0.5,
                        "--L", L, "--N", 64, "--out", tmp_path])
        assert code == cli.EXIT_OK
        rep = load_report(tmp_path, "symbol")
        assert rep["result"]["provenance"] == "exact"
        assert rep["result"]["bounds_hold"]
        table = np.loadtxt(tmp_path / "symbol.csv", delimiter=",", skiprows=1)
        assert table.shape == (33, 3)
        assert np.allclose(table[:, 2], np.abs(table[:, 1]))

    def test_apply_modes_agree(self, tmp_path):
        fpath = write_samples(tmp_path / "u.csv")
        for mode in ("spectral", "pv"):
            out = tmp_path / mode
            code = run_cli(["apply", "--kernel", "fraclap", "--s", 0.5,
                            "--L", L, "--N", 64, "--function", fpath,
                            "--mode", mode, "--out", out])
            assert code == cli.EXIT_OK
        sp = np.loadtxt(tmp_path / "spectral" / "applied.csv",
                        delimiter=",", skiprows=1)
        pv = np.loadtxt(tmp_path / "pv" / "applied.csv",
                        delimiter=",", skiprows=1)
        assert np.max(np.abs(sp[:, 1] - pv[:, 1])) < 1e-8

    def test_apply_pv_at_s_095_matches_spectral(self, tmp_path):
        # the principal-value rule ends its grading toward 0 with one
        # power-substitution panel; when it dropped the sliver below
        # eps 2^-120 instead, this exited 3 (and s = 0.9 was 8.5e-9 off)
        fpath = write_samples(tmp_path / "u.csv", lambda x: np.exp(np.cos(x)))
        for mode in ("spectral", "pv"):
            code = run_cli(["apply", "--mode", mode, "--kernel", "fraclap", "--s", 0.95,
                            "--L", 3.14159, "--N", 64, "--function", fpath,
                            "--out", tmp_path / mode])
            assert code == cli.EXIT_OK
        sp, pv = (np.loadtxt(tmp_path / mode / "applied.csv", delimiter=",", skiprows=1)
                  for mode in ("spectral", "pv"))
        assert np.max(np.abs(sp[:, 1] - pv[:, 1])) < 1e-10

    def test_apply_pv_names_the_unresolved_mode(self, tmp_path, capsys):
        # cos 24x at N = 64 is beyond the rule's resolution: the message gives
        # the spread against PV_STABILITY_TOL and u's highest mode, 24
        fpath = write_samples(tmp_path / "u.csv", lambda x: np.cos(24 * x))
        code = run_cli(["apply", "--mode", "pv", "--kernel", "fraclap", "--s", 0.5,
                        "--L", L, "--N", 64, "--function", fpath, "--out", tmp_path])
        err = capsys.readouterr().err
        assert code == cli.EXIT_NUMERICAL
        assert err.startswith("numerical failure: principal value unstable")
        assert "spread by" in err and "PV_STABILITY_TOL = 1e-06" in err
        assert "u has modes up to k = 24 above COEFF_NOISE_FLOOR" in err

    def test_indicator_whose_growth_bound_overflows_exits_2(self, tmp_path, capsys):
        # Lambda = max K(t) t^(1+2s) is 1e600 at cutoff 1e300: it overflowed
        # with a RuntimeWarning, and the command exited 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["kernel-class", "--kernel", "indicator", "--cutoff", 1e300,
                            "--s", 0.5, "--out", tmp_path])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("configuration error: the bound Lambda")
        assert not (tmp_path / "kernel-class_report.json").exists()

    def test_energy(self, tmp_path):
        fpath = write_samples(tmp_path / "u.csv")
        code = run_cli(["energy", "--kernel", "fraclap", "--s", 0.5,
                        "--L", L, "--N", 64, "--function", fpath,
                        "--out", tmp_path])
        assert code == cli.EXIT_OK
        res = load_report(tmp_path, "energy")["result"]
        assert res["total"] == pytest.approx(res["kinetic"] - res["potential"])

    def test_rearrange_and_polya_szego(self, tmp_path):
        fpath = write_samples(tmp_path / "u.csv")
        assert run_cli(["rearrange", "--L", L, "--N", 64,
                        "--function", fpath, "--out", tmp_path]) == cli.EXIT_OK
        out = np.loadtxt(tmp_path / "rearranged.csv", delimiter=",", skiprows=1)
        assert np.min(out[:, 1]) >= 0
        assert run_cli(["polya-szego", "--kernel", "fraclap", "--s", 0.5,
                        "--L", L, "--N", 64, "--function", fpath,
                        "--out", tmp_path]) == cli.EXIT_OK
        res = load_report(tmp_path, "polya-szego")["result"]
        assert res["inequality_holds"]

    def test_riesz_deterministic_under_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NONLOC_SEED", "7")
        outs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            assert run_cli(["riesz", "--L", L, "--N", 64,
                            "--out", out]) == cli.EXIT_OK
            outs.append(load_report(out, "riesz")["result"])
        assert outs[0] == outs[1]
        assert outs[0]["holds"]

    def test_env_seed_overrides_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NONLOC_SEED", "3")
        out1 = tmp_path / "env"
        assert run_cli(["riesz", "--L", L, "--N", 64, "--seed", 99,
                        "--out", out1]) == cli.EXIT_OK
        monkeypatch.delenv("NONLOC_SEED")
        out2 = tmp_path / "flag"
        assert run_cli(["riesz", "--L", L, "--N", 64, "--seed", 3,
                        "--out", out2]) == cli.EXIT_OK
        assert load_report(out1, "riesz")["result"] == \
            load_report(out2, "riesz")["result"]

    def test_minimize(self, tmp_path):
        code = run_cli(["minimize", "--kernel", "fraclap", "--s", 0.5,
                        "--L", 4 * math.pi, "--N", 128, "--constraint", 5,
                        "--seed", 1, "--out", tmp_path])
        assert code == cli.EXIT_OK
        res = load_report(tmp_path, "minimize")["result"]
        assert res["converged"]
        assert (tmp_path / "minimizer.csv").exists()
        assert (tmp_path / "energy_trace.csv").exists()

    def test_minimize_with_polynomial_constraint(self, tmp_path):
        # Gtilde = u^2 + u^3 is not homogeneous, so every projection solves
        # project_constraint's moment polynomial for its root nearest 1
        code = run_cli(["minimize", "--config", write_config(tmp_path, POLYNOMIAL_MINIMIZE),
                        "--out", tmp_path])
        assert code == cli.EXIT_OK
        res = load_report(tmp_path, "minimize")["result"]
        assert res["converged"] and res["constraint_defect"] < 1e-12
        assert res["diagnostics"]["critical_points"] == 2

    def test_minimize_budget_exhaustion_is_numerical_failure(self, tmp_path):
        code = run_cli(["minimize", "--kernel", "fraclap", "--s", 0.5,
                        "--L", 4 * math.pi, "--N", 128, "--constraint", 5,
                        "--seed", 1, "--max-iters", 2, "--out", tmp_path])
        assert code == cli.EXIT_NUMERICAL

    def test_maxprinciple(self, tmp_path):
        code = run_cli(["maxprinciple", "--kernel", "fraclap", "--s", 0.5,
                        "--L", L, "--N", 64, "--out", tmp_path])
        assert code == cli.EXIT_OK
        res = load_report(tmp_path, "maxprinciple")["result"]
        assert res["strictly_positive"]
        assert res["value"] == pytest.approx(1.5, rel=1e-6)

    def test_pv_at_an_overflowing_half_period_is_numerical_failure(self, tmp_path, capsys):
        # the PV moments overflow at L = 1e99; the NaN values passed the
        # stability check, and the command exited 0 with an all-NaN CSV
        big = 1e99
        xs = np.linspace(-big, big, 65)[:-1]
        fpath = tmp_path / "u.csv"
        np.savetxt(fpath, np.column_stack([xs, np.exp(np.cos(np.pi * xs / big))]),
                   delimiter=",", header="x,u", comments="")
        code = run_cli(["apply", "--mode", "pv", "--kernel", "fraclap", "--s", 0.5,
                        "--L", big, "--N", 64, "--function", fpath, "--out", tmp_path])
        err = capsys.readouterr().err
        assert code == cli.EXIT_NUMERICAL
        assert err.startswith("numerical failure") and "Traceback" not in err
        assert not (tmp_path / "applied.csv").exists()

    def test_non_finite_report_field_is_numerical_failure(self, tmp_path):
        # at L = 1e-300 SineTail's monotonicity_margin is NaN, and the command
        # exited 0 with a bare NaN in its report, which is not JSON.
        # The run warns on the way, so it goes in a fresh process, where
        # RuntimeWarnings stay warnings
        proc = run_fresh(["kernel-class", "--kernel", "sinetail", "--s", 0.5,
                          "--L", 1e-300, "--out", tmp_path])
        assert proc.returncode == cli.EXIT_NUMERICAL
        assert "numerical failure: report field result.monotonicity_margin" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "kernel-class_report.json").exists()

    def test_kernel_class(self, tmp_path):
        code = run_cli(["kernel-class", "--kernel", "sinetail", "--s", 0.5,
                        "--out", tmp_path])
        assert code == cli.EXIT_OK
        res = load_report(tmp_path, "kernel-class")["result"]
        assert res["convex"] and res["sqrt_profile_cm"] is False

    def test_kernel_class_laplace_without_growth_bound(self, tmp_path):
        r = np.geomspace(1e-2, 1e2, 50)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"kernel": {
            "family": "laplace", "s": 0.5,
            "profile": np.column_stack([r, np.exp(-r)]).tolist()}}))
        assert run_cli(["kernel-class", "--config", p, "--out", tmp_path]) == cli.EXIT_OK
        res = load_report(tmp_path, "kernel-class")["result"]
        assert res["wrapped_monotone"] is True
        assert res["monotonicity_margin"] < 0

    def test_regularity_supercritical(self, tmp_path):
        code = run_cli(["regularity", "--s", 0.3, "--beta", 0.5,
                        "--out", tmp_path])
        assert code == cli.EXIT_OK
        res = load_report(tmp_path, "regularity")["result"]
        assert res["case"] == "supercritical_ii"
        assert res["exponent_family"] == pytest.approx(1.1)


class TestExitCodeContract:
    """Configurations that cannot be used exit 2, with a configuration error
    message and no traceback, whichever layer notices the problem."""

    @pytest.mark.parametrize("args", [
        ["symbol", "--kernel", "fraclap", "--s", 0.5, "--L", L, "--N", 100],
        ["maxprinciple", "--kernel", "fraclap", "--s", 0.5, "--L", 3.14, "--N", 64,
         "--x0", 5],
        ["symbol", "--kernel", "fraclap", "--s", 0.5],
        ["symbol", "--kernel", "indicator", "--L", L, "--N", 64],
        ["regularity", "--s", 0.3],
        ["apply", "--kernel", "fraclap", "--s", 0.5, "--L", L, "--N", 64,
         "--function", "/nonexistent.csv"],
        ["regularity", "--kernel", "fraclap", "--s", 0.2, "--beta", 0.4],
        ["riesz", "--L", L, "--N", 64, "--s", 0.3],
    ], ids=["N-not-power-of-two", "x0-outside", "no-grid", "indicator-no-cutoff",
            "regularity-no-beta", "missing-function-file",
            "regularity-s-is-not-the-kernel-s", "s-without-kernel-family"])
    def test_bad_config_exits_2(self, tmp_path, capsys, args):
        code = run_cli(args + ["--out", tmp_path])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("configuration error")
        assert "numerical failure" not in err and "Traceback" not in err

    @pytest.mark.parametrize("text,args", [
        ("[1, 2]", ["symbol"]),
        ('"x"', ["symbol"]),
        ('{"kernel": [1], "grid": {"L": 3.14, "N": 64}}',
         ["symbol", "--kernel", "fraclap", "--s", 0.5]),
        ('{"grid": 5, "kernel": {"family": "fraclap", "s": 0.5}}',
         ["symbol", "--L", L, "--N", 64]),
    ], ids=["top-level-array", "top-level-string", "kernel-not-object",
            "grid-not-object"])
    def test_config_file_entries_that_flags_cannot_merge_into_exit_2(
            self, tmp_path, capsys, text, args):
        p = tmp_path / "cfg.json"
        p.write_text(text)
        code = run_cli(args + ["--config", p, "--out", tmp_path])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("configuration error")
        assert "Traceback" not in err

    def test_config_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_bytes(b'\xff{"s": 0.2, "beta": 0.4}')
        code = run_cli(["regularity", "--config", p, "--out", tmp_path])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("configuration error") and "Traceback" not in err

    def test_schema_violation_names_path_and_keyword(self, tmp_path, capsys):
        code = run_cli(["symbol", "--kernel", "fraclap", "--s", 7.5,
                        "--L", L, "--N", 64, "--out", tmp_path])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("configuration error: $.kernel.s:")
        assert "(exclusiveMaximum)" in err

    def test_tolerances_accepts_only_grad(self, tmp_path, capsys):
        # "symbol" was accepted and then ignored: every CLI kernel family
        # tabulates its symbol without adaptive quadrature
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"tolerances": {"symbol": 1e-9}}))
        code = run_cli(["symbol", "--kernel", "fraclap", "--s", 0.5, "--L", L,
                        "--N", 64, "--config", p, "--out", tmp_path])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("configuration error: $.tolerances:")
        assert "symbol" in err and "(additionalProperties)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text,args,path", [
        ('{"grid": {"L": NaN, "N": 16}, "kernel": {"family": "fraclap", "s": 0.5}}',
         ["symbol"], "$.grid.L"),
        ("{}", ["symbol", "--kernel", "fraclap", "--s", 0.5, "--L", "inf", "--N", 16],
         "$.grid.L"),
        ("{}", ["minimize", "--kernel", "fraclap", "--s", 0.5, "--L", L, "--N", 64,
                "--constraint", "nan"], "$.constraint"),
        ("{}", ["regularity", "--s", 0.2, "--beta", "inf"], "$.beta"),
    ], ids=["file-NaN", "flag-inf", "flag-nan", "regularity-inf"])
    def test_non_finite_numbers_exit_2(self, tmp_path, capsys, text, args, path):
        # json.load and argparse accept NaN and Infinity; JSON has neither
        p = tmp_path / "cfg.json"
        p.write_text(text)
        code = run_cli(args + ["--config", p, "--out", tmp_path])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith(f"configuration error: {path}:")
        assert "(type)" in err and "Traceback" not in err

    @pytest.mark.parametrize("config,args,seed", [
        ({"functions": {"f": "u.csv"}}, ["riesz"], None),
        ({"kernel": {"family": "compact", "profile": []}}, ["symbol"], None),
        ({"kernel": {"family": "laplace", "profile": []}}, ["symbol"], None),
        ({"nonlinearity": {"name": "double_well"}},
         ["minimize", "--kernel", "fraclap", "--s", 0.5, "--constraint", 5], None),
        ({}, ["riesz"], "abc"),
        ({}, ["riesz"], "-1"),
        ({"kernel": {"family": "laplace", "profile": [[1.0, 1.0]]}}, ["symbol"], None),
        ({"nonlinearity": {"name": "power", "q": 3}},
         ["energy", "--kernel", "fraclap", "--s", 0.5, "--function", "u.csv"], None),
        ({"nonlinearity": {"p": 3}},
         ["energy", "--kernel", "fraclap", "--s", 0.5, "--function", "u.csv"], None),
        ({"functions": {"f": "u.csv", "g": "u.csv", "h": "u.csv", "k": "u.csv"}},
         ["riesz"], None),
        ({"grid": {"L": 0.005, "N": 64}},
         ["apply", "--kernel", "fraclap", "--s", 0.5, "--function", "u.csv",
          "--mode", "pv"], None),
        ({"grid": {"L": 0.005, "N": 64}},
         ["maxprinciple", "--kernel", "fraclap", "--s", 0.5], None),
    ], ids=["riesz-functions-without-g-h", "compact-empty-profile",
            "laplace-empty-profile", "constraint-without-gtilde", "seed-not-integer",
            "seed-negative", "laplace-one-node-profile", "nonlinearity-unknown-key",
            "nonlinearity-without-name", "riesz-functions-unknown-key",
            "apply-pv-half-period-below-first-eps",
            "maxprinciple-half-period-below-first-eps"])
    def test_config_inputs_that_reach_the_commands_exit_2(
            self, tmp_path, capsys, monkeypatch, config, args, seed):
        monkeypatch.delenv("NONLOC_SEED", raising=False)
        if seed is not None:
            monkeypatch.setenv("NONLOC_SEED", seed)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"grid": {"L": L, "N": 64}, **config}))
        write_samples(tmp_path / "u.csv")
        monkeypatch.chdir(tmp_path)
        code = run_cli(args + ["--config", p, "--out", tmp_path])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("configuration error")
        assert "numerical failure" not in err and "Traceback" not in err

    @pytest.mark.parametrize("blocker,args", [
        ("symbol.csv", ["symbol", "--kernel", "fraclap", "--s", 0.5, "--L", L, "--N", 64]),
        ("regularity_report.json", ["regularity", "--s", 0.2, "--beta", 0.4]),
    ], ids=["csv-is-a-directory", "report-is-a-directory"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, blocker, args):
        (tmp_path / blocker).mkdir()
        code = run_cli(args + ["--out", tmp_path])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("configuration error") and blocker in err
        assert "numerical failure" not in err and "Traceback" not in err

    def test_output_directory_under_a_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "f").write_text("")
        code = run_cli(["regularity", "--s", 0.2, "--beta", 0.4,
                        "--out", tmp_path / "f" / "out"])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("configuration error") and "Traceback" not in err

    @pytest.mark.parametrize("args", [
        ["symbol", "--kernel", "delaunay", "--s", 0.5, "--a", 1e-200, "--L", 3, "--N", 8],
        ["symbol", "--kernel", "delaunay", "--s", 0.5, "--a", 1e200, "--L", 3, "--N", 8],
        ["kernel-class", "--kernel", "delaunay", "--s", 0.5, "--n", 400],
        ["kernel-class", "--kernel", "fraclap", "--s", 0.5, "--L", 1e300],
        ["polya-szego", "--kernel", "fraclap", "--s", 0.5, "--L", 1e300, "--N", 64,
         "--function", "big.csv"],
    ], ids=["delaunay-a-underflows", "delaunay-a-overflows", "delaunay-gamma-overflows",
            "kernel-class-half-period-overflows", "polya-szego-half-period-overflows"])
    def test_inputs_out_of_floating_point_range_exit_2(
            self, tmp_path, capsys, monkeypatch, args):
        # a^2, a^(1-n-s), Gamma((n+s)/2) or the wrap's (2L)^3 leaves the
        # float range: a configuration the library cannot represent
        xs = np.linspace(-1e300, 1e300, 65)[:-1]
        np.savetxt(tmp_path / "big.csv", np.column_stack([xs, 1.0 + np.cos(xs / 1e300)]),
                   delimiter=",", header="x,u", comments="")
        monkeypatch.chdir(tmp_path)
        code = run_cli(args + ["--out", tmp_path])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("configuration error")
        assert "numerical failure" not in err and "Traceback" not in err

    @pytest.mark.parametrize("args", [
        ["apply", "--kernel", "fraclap", "--s", 0.5, "--mode", "spectral"],
        ["energy", "--kernel", "fraclap", "--s", 0.5],
        ["rearrange"],
        ["polya-szego", "--kernel", "fraclap", "--s", 0.5],
        ["maxprinciple", "--kernel", "fraclap", "--s", 0.5],
    ], ids=["apply", "energy", "rearrange", "polya-szego", "maxprinciple"])
    def test_non_finite_sample_exits_2(self, tmp_path, capsys, args):
        # a NaN sample made reports with bare NaN tokens, which are not JSON,
        # and polya-szego report a false counterexample
        fpath = write_samples(tmp_path / "u.csv", lambda x: np.where(
            np.arange(x.size) == 5, np.nan, 1.0 + np.cos(x)))
        code = run_cli(args + ["--L", L, "--N", 64, "--function", fpath,
                               "--out", tmp_path])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("configuration error") and "non-finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / f"{args[0]}_report.json").exists()

    @pytest.mark.parametrize("args", [
        ["symbol"],
        ["apply", "--function", "u.csv", "--mode", "pv"],
    ], ids=["symbol", "apply-pv"])
    def test_laplace_without_growth_bound_exits_0(self, tmp_path, args):
        # a tabulated Laplace kernel has closed-form symbol, tail and wrap,
        # so no growth constant ("Lambda") is needed
        r = np.geomspace(1e-2, 1e2, 50)
        cfg = {"kernel": {"family": "laplace", "s": 0.5,
                          "profile": np.column_stack([r, np.exp(-r)]).tolist()},
               "grid": {"L": L, "N": 64}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        args = [write_samples(tmp_path / a) if a == "u.csv" else a for a in args]
        assert run_cli(args + ["--config", p, "--out", tmp_path]) == cli.EXIT_OK


SCHEMA = cli.load_schema()
ORACLE = validator_for(SCHEMA)(SCHEMA)

# JSON values that probe where JSON Schema and Python disagree: bools are
# not numbers, 64.0 is an integer, True is not 1 (first, since hypothesis
# favours the start of a list)
_JSON_ODDITIES = [True, False, 64.0, 1.0, 1, 0, None, 7.5, -1, "", "x", "fraclap",
                  [], [1.0, 2.0], {}, {"family": "fraclap"}]


def _from_schema(schema):
    """Instances that mostly satisfy one schema node; _mutated and the
    edge values of each bound supply the violations."""
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema.get("type")
    if kind == "object":
        return _object(schema)
    if kind == "array":
        lo, hi = schema.get("minItems", 0), schema.get("maxItems", 3)
        sizes = st.sampled_from(3 * list(range(lo, hi + 1)) + [max(lo - 1, 0), hi + 1])
        return sizes.flatmap(lambda n: st.lists(_from_schema(schema["items"]),
                                                min_size=n, max_size=n))
    if kind == "string":
        return st.sampled_from(["u.csv", ""])
    candidates = [0.25, 0.5, 2.0, 9.0, 64.0, 100]
    if kind == "integer":
        candidates = [0, 1, 2, 8, 9, 64, 64.0, 100]
    inside = [v for v in candidates if validator_for(schema)(schema).is_valid(v)]
    edges = [schema[k] + d for k in ("minimum", "exclusiveMinimum", "exclusiveMaximum")
             if k in schema for d in (-1, 0, 0.5)]
    return st.sampled_from(3 * inside + edges + [-2.0, 7.5, True])


def _object(schema):
    """Objects with their required properties, some optional ones, and
    mostly the properties that their if/then rules require."""
    props = {k: _from_schema(v) for k, v in schema.get("properties", {}).items()}
    required = schema.get("required", [])
    base = st.fixed_dictionaries(
        {k: props[k] for k in required},
        optional={k: v for k, v in props.items() if k not in required})
    rules = [(validator_for(r["if"])(r["if"]), r["then"]["required"])
             for r in schema.get("allOf", [])]

    @st.composite
    def build(draw):
        out = draw(base)
        for condition, keys in rules:
            # hypothesis favours the bounds of a range, so the rare outcome sits inside it
            if condition.is_valid(out) and draw(st.integers(0, 7)) != 3:
                for k in keys:
                    out.setdefault(k, draw(props[k]))
        return out

    return build()


def _mutated(value, rnd):
    """value with at most one node replaced by an odd JSON value, or one
    object key deleted or added, at a random depth."""
    children = list(value.items() if isinstance(value, dict) else enumerate(value)) \
        if isinstance(value, (dict, list)) else []
    act = rnd.randrange(8)  # hypothesis favours 0: descend, if there is a child
    if children and act < 3:
        key, child = rnd.choice(children)
        value[key] = _mutated(child, rnd)
    elif act == 3 and isinstance(value, dict) and value:
        del value[rnd.choice(sorted(value))]
    elif act == 4 and isinstance(value, dict):
        value[rnd.choice(["bogus", "L", "s", "N", "family", "kernel"])] = \
            rnd.choice(_JSON_ODDITIES)
    elif act == 5:
        return rnd.choice(_JSON_ODDITIES)
    return value


def _accepts(config, schema=None) -> bool:
    try:
        if schema is None:
            cli.validate_config(config)
        else:
            cli.validate(config, schema)
    except cli.ConfigError:
        return False
    return True


class TestSchemaValidator:
    """The built-in validator accepts exactly what jsonschema accepts."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(config=st.builds(_mutated, _from_schema(SCHEMA),
                            st.randoms(use_true_random=False)))
    def test_agrees_with_jsonschema(self, config):
        assert _accepts(config) == ORACLE.is_valid(config)

    @pytest.mark.parametrize("schema,good,bad,keyword", [
        ({"type": "object"}, {}, [], "type"),
        ({"type": "array"}, [], {}, "type"),
        ({"type": "string"}, "a", 1, "type"),
        ({"type": "number"}, 1, True, "type"),
        ({"type": "integer"}, 64.0, 64.5, "type"),
        ({"type": "integer"}, 3, False, "type"),
        ({"properties": {"a": {"type": "number"}}}, {"b": "x"}, {"a": "x"}, "type"),
        ({"required": ["a"]}, {"a": None}, {"b": 1}, "required"),
        ({"properties": {"a": {}}, "additionalProperties": False}, {"a": 1}, {"b": 1},
         "additionalProperties"),
        ({"enum": ["a", 1]}, 1.0, True, "enum"),
        ({"const": 1}, 1.0, True, "const"),
        ({"const": [1, {"a": False}]}, [1.0, {"a": False}], [1, {"a": 0}], "const"),
        ({"minimum": 2}, 2, 1.5, "minimum"),
        ({"exclusiveMinimum": 0}, 1e-300, 0, "exclusiveMinimum"),
        ({"exclusiveMaximum": 1}, 0.5, 1.0, "exclusiveMaximum"),
        ({"items": {"type": "number"}}, [1, 2.5], [1, "2"], "type"),
        ({"minItems": 2}, [1, 2], [1], "minItems"),
        ({"maxItems": 2}, [1, 2], [1, 2, 3], "maxItems"),
        ({"allOf": [{"minimum": 0}, {"exclusiveMaximum": 1}]}, 0, 1, "exclusiveMaximum"),
        ({"if": {"properties": {"a": {"const": 1}}}, "then": {"required": ["b"]}},
         {"a": 2}, {"c": 1}, "required"),
    ], ids=["object", "array", "string", "bool-not-number", "float-integer",
            "bool-not-integer", "properties", "required", "additionalProperties",
            "enum", "const", "const-nested", "minimum", "exclusiveMinimum",
            "exclusiveMaximum", "items", "minItems", "maxItems", "allOf",
            "if-absent-property-holds"])
    def test_each_keyword(self, schema, good, bad, keyword):
        oracle = validator_for(schema)(schema)
        assert oracle.is_valid(good) and _accepts(good, schema)
        assert not oracle.is_valid(bad) and not _accepts(bad, schema)
        with pytest.raises(cli.ConfigError, match=rf"\({keyword}\)$"):
            cli.validate(bad, schema)

    @pytest.mark.parametrize("schema", [
        {"type": "object", "patternProperties": {}},
        {"properties": {"a": {"format": "email"}}},
        {"allOf": [{"if": {"maximum": 1}, "then": {}, "else": {}}]},
        {"type": ["number", "null"]},
        {"additionalProperties": {"type": "number"}},
    ], ids=["top-level", "unreached-property", "else", "type-list",
            "additionalProperties-schema"])
    def test_unsupported_keyword_raises(self, schema):
        with pytest.raises(ValueError, match="not supported"):
            cli.validate({}, schema)


# prints the scipy modules loaded after the CLI (or, without arguments, the
# package import) has run, then exits with the CLI's exit code
_CHILD = """
import sys
if len(sys.argv) > 1:
    from nonlocper import cli
    code = cli.main(sys.argv[1:])
else:
    import nonlocper
    code = 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
sys.exit(code)
"""


# prints which of jsonschema, importlib.metadata and scipy the CLI loaded
_CHILD_WATCH = """
import sys
from nonlocper import cli
code = cli.main(sys.argv[1:])
print(sorted(m for m in ("importlib.metadata", "jsonschema", "scipy") if m in sys.modules))
sys.exit(code)
"""


# prints the scipy modules loaded after the quadrature symbol table of the
# kernel that the argument names, a Python expression in nl
_CHILD_SYMBOL = """
import sys
import nonlocper as nl
kernel = eval(sys.argv[1], {"nl": nl})
nl.symbol_of_kernel(kernel, nl.PeriodicGrid(3.14159, 64), force_quadrature=True)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def run_fresh(args, child=_CHILD):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", child, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)


DELAUNAY = ["--kernel", "delaunay", "--n", 2, "--s", 0.5, "--a", 1.0]


class TestImportCost:
    """Importing the library loads no scipy, nor do the commands that need none."""

    def test_import_loads_no_scipy(self):
        proc = run_fresh([])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("args", [
        ["regularity", "--s", 0.2, "--beta", 0.4],
        ["rearrange", "--L", L, "--N", 64, "--function", "u.csv"],
        ["riesz", "--L", L, "--N", 64, "--seed", 3],
        ["symbol", "--kernel", "fraclap", "--s", 0.5, "--L", L, "--N", 128],
        ["symbol", "--kernel", "indicator", "--cutoff", 2.0, "--L", L, "--N", 128],
        ["dtn-check", "--N", 128],
        ["apply", "--kernel", "fraclap", "--s", 0.5, "--L", L, "--N", 64,
         "--function", "u.csv", "--mode", "pv"],
        ["polya-szego", "--kernel", "fraclap", "--s", 0.5, "--L", L, "--N", 64,
         "--function", "u.csv"],
        ["maxprinciple", "--kernel", "fraclap", "--s", 0.5, "--L", L, "--N", 64],
        ["kernel-class", "--kernel", "sinetail", "--s", 0.5],
        ["kernel-class", "--kernel", "fraclap", "--s", 0.5],
        ["kernel-class", *DELAUNAY],
        ["apply", *DELAUNAY, "--L", L, "--N", 64, "--function", "u.csv", "--mode", "pv"],
        ["polya-szego", *DELAUNAY, "--L", L, "--N", 64, "--function", "u.csv"],
        ["maxprinciple", *DELAUNAY, "--L", L, "--N", 64],
        ["symbol", *DELAUNAY, "--L", L, "--N", 128],
        ["energy", *DELAUNAY, "--L", L, "--N", 64, "--function", "u.csv"],
        ["minimize", *DELAUNAY, "--L", 12.566, "--N", 64, "--constraint", 5, "--seed", 1],
        ["symbol", "--config", LAPLACE],
        ["apply", "--config", LAPLACE, "--function", "u.csv", "--mode", "pv"],
        ["minimize", "--config", POLYNOMIAL_MINIMIZE],
    ], ids=["regularity", "rearrange", "riesz", "symbol-fraclap", "symbol-indicator",
            "dtn-check",
            "apply-pv-fraclap", "polya-szego-fraclap", "maxprinciple-fraclap",
            "kernel-class-sinetail", "kernel-class-fraclap", "kernel-class-delaunay",
            "apply-pv-delaunay", "polya-szego-delaunay", "maxprinciple-delaunay",
            "symbol-delaunay", "energy-delaunay", "minimize-delaunay",
            "symbol-laplace", "apply-pv-laplace", "minimize-polynomial-constraint"])
    def test_command_loads_no_scipy(self, tmp_path, args):
        args = [write_samples(tmp_path / a) if a == "u.csv"
                else write_config(tmp_path, a) if isinstance(a, dict) else a for a in args]
        proc = run_fresh(args + ["--out", tmp_path])
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("kernel", [
        "nl.FractionalKernel(0.5)", "nl.DelaunayKernel(2, 0.5, 1.0)",
        "nl.CompactKernel([0.2, 0.5, 1.0], [2.0, 1.2, 0.0], s=0.5)"],
        ids=["fraclap", "delaunay", "compact"])
    def test_fixed_symbol_rule_loads_no_scipy(self, kernel):
        # force_quadrature takes the fixed rule, not scipy.integrate
        proc = run_fresh([kernel], child=_CHILD_SYMBOL)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("args", [
        ["symbol", "--kernel", "fraclap", "--s", 0.5, "--L", L, "--N", 128],
        ["apply", "--kernel", "fraclap", "--s", 0.5, "--L", L, "--N", 64,
         "--function", "u.csv", "--mode", "pv"],
        ["energy", "--kernel", "delaunay", "--n", 2, "--s", 0.5, "--a", 1.0,
         "--L", L, "--N", 64, "--function", "u.csv"],
        ["rearrange", "--L", L, "--N", 64, "--function", "u.csv"],
        ["polya-szego", "--kernel", "fraclap", "--s", 0.5, "--L", L, "--N", 64,
         "--function", "u.csv"],
        ["riesz", "--L", L, "--N", 64, "--seed", 7],
        ["minimize", "--kernel", "fraclap", "--s", 0.5, "--L", 12.566, "--N", 256,
         "--constraint", 5, "--seed", 1],
        ["maxprinciple", "--kernel", "fraclap", "--s", 0.5, "--L", L, "--N", 64],
        ["kernel-class", "--kernel", "sinetail", "--s", 0.5],
        ["regularity", "--s", 0.2, "--beta", 0.4],
        ["dtn-check", "--N", 128],
    ], ids=["symbol", "apply", "energy", "rearrange", "polya-szego", "riesz",
            "minimize", "maxprinciple", "kernel-class", "regularity", "dtn-check"])
    def test_readme_command_loads_no_jsonschema(self, tmp_path, args):
        # the validator is built in, the report version is a constant, and
        # no README command loads scipy, which would load importlib.metadata
        args = [write_samples(tmp_path / a) if a == "u.csv" else a for a in args]
        proc = run_fresh(args + ["--out", tmp_path], child=_CHILD_WATCH)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
