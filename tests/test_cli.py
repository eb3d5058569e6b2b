import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from jsonschema.validators import validator_for

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

    def test_config_hash_stable(self):
        a = cli.config_hash({"x": 1, "y": [2, 3]})
        b = cli.config_hash({"y": [2, 3], "x": 1})
        assert a == b


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

    def test_kernel_class(self, tmp_path):
        code = run_cli(["kernel-class", "--kernel", "sinetail", "--s", 0.5,
                        "--out", tmp_path])
        assert code == cli.EXIT_OK
        res = load_report(tmp_path, "kernel-class")["result"]
        assert res["convex"] and res["sqrt_profile_cm"] is False

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
    ], ids=["N-not-power-of-two", "x0-outside", "no-grid", "indicator-no-cutoff",
            "regularity-no-beta", "missing-function-file"])
    def test_bad_config_exits_2(self, tmp_path, capsys, args):
        code = run_cli(args + ["--out", tmp_path])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("configuration error")
        assert "numerical failure" not in err and "Traceback" not in err

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


def run_fresh(args):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", _CHILD, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)


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
    ], ids=["regularity", "rearrange", "riesz", "symbol-fraclap", "symbol-indicator",
            "dtn-check",
            "apply-pv-fraclap", "polya-szego-fraclap", "maxprinciple-fraclap",
            "kernel-class-sinetail"])
    def test_command_loads_no_scipy(self, tmp_path, args):
        args = [write_samples(tmp_path / a) if a == "u.csv" else a for a in args]
        proc = run_fresh(args + ["--out", tmp_path])
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
