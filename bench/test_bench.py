"""Tests of the benchmark's own parts: the closed-form oracles against the
library's quadrature, the tracer's patching, and the BENCHMARK.json
self-check.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import importlib
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import nonlocper as nl  # noqa: E402
import oracles as o  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def quad_table(kernel, n=64, L=math.pi):
    grid = nl.PeriodicGrid(L, n)
    return grid.frequencies(), nl.symbol_of_kernel(kernel, grid, force_quadrature=True).values


def assert_rel(values, exact, tol=1e-8):
    pos = exact != 0
    assert np.max(np.abs(values[pos] - exact[pos]) / np.abs(exact[pos])) < tol
    assert np.all(values[~pos] == 0.0)


@pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
def test_fraclap_oracle(s):
    xi, q = quad_table(nl.FractionalKernel(s), n=32)
    assert_rel(q, o.fraclap_symbol(s, xi))


@pytest.mark.parametrize("n, s, a", [(2, 0.5, 1.0), (3, 0.2, 0.5), (2, 0.8, 2.0)])
def test_delaunay_oracle(n, s, a):
    xi, q = quad_table(nl.DelaunayKernel(n, s, a))
    assert_rel(q, o.delaunay_symbol(n, s, a, xi))


LINEAR_T = np.linspace(1e-3, 0.6 * math.pi, 64)


@pytest.mark.parametrize("t, k", [
    (LINEAR_T, 1.0 - LINEAR_T / (0.6 * math.pi)),
    ([0.2, 0.5, 1.0], [2.0, 1.2, 0.0]),
])
def test_piecewise_linear_oracle(t, k):
    xi, q = quad_table(nl.CompactKernel(t, k, s=0.5))
    assert_rel(q, o.piecewise_linear_symbol(t, k, xi))


def test_indicator_oracle():
    xi, q = quad_table(nl.indicator_kernel(1.3 * math.pi))
    assert_rel(q, o.indicator_symbol(1.3 * math.pi, xi))


def test_laplace_measure_of_delaunay_matches_closed_form():
    xi, q = quad_table(nl.laplace_measure_of(nl.DelaunayKernel(2, 0.5, 1.0)), n=32)
    assert_rel(q, o.delaunay_symbol(2, 0.5, 1.0, xi))


def test_spectral_helpers_match_library():
    L = 2.5
    grid = nl.PeriodicGrid(L, 64)
    rng = np.random.default_rng(0)
    u = nl.PeriodicFunction(grid, workloads.band_limited(64, L, rng))
    sym = nl.symbol_of_kernel(nl.FractionalKernel(0.3), grid)
    assert np.allclose(o.coefficients(u.samples), u.coeffs(), atol=1e-14)
    applied = o.apply_multiplier(u.samples, sym.values)
    assert np.allclose(applied, nl.apply_spectral(sym, u).samples, atol=1e-12)
    x = rng.uniform(-L, L, 7)
    assert np.allclose(o.eval_band_limited(u.samples, L, x), u.eval(x), atol=1e-12)
    assert o.seminorm_sq(u.samples, L, sym.values) == pytest.approx(
        nl.seminorm_sq_fourier(sym, u), rel=1e-13)


def test_digits_capped_at_rounding():
    assert o.digits(0.0, 1.0) == pytest.approx(16.0)
    assert o.digits(1e-9, 10.0) == pytest.approx(10.0)


def test_tracer_patches_every_binding_and_restores():
    # `nonlocper.minimize` is shadowed by the function of the same name
    cli, minimize_mod, operator_mod, rearrange_mod = (
        importlib.import_module(f"nonlocper.{m}")
        for m in ("cli", "minimize", "operator", "rearrange"))

    originals = (nl.wrap_kernel, operator_mod.wrap_kernel, rearrange_mod.wrap_kernel,
                 minimize_mod.apply_pv, cli.validate_config, nl.PeriodicFunction.eval)
    tracer = tracing.Tracer()
    tracer.pass_no, tracer.task = 1, (1, "test")
    tracer.install()
    try:
        assert operator_mod.wrap_kernel is rearrange_mod.wrap_kernel is nl.wrap_kernel
        assert nl.wrap_kernel is not originals[0]
        assert minimize_mod.apply_pv is nl.apply_pv is not originals[3]
        assert cli.validate_config is not originals[4]
        grid = nl.PeriodicGrid(math.pi, 32)
        u = nl.PeriodicFunction.from_callable(grid, np.cos)
        nl.polya_szego_check(nl.FractionalKernel(0.5), u)  # wraps internally
        nl.apply_pv(nl.FractionalKernel(0.5), u, 0.3)
    finally:
        tracer.uninstall()
    assert (nl.wrap_kernel, operator_mod.wrap_kernel, rearrange_mod.wrap_kernel,
            minimize_mod.apply_pv, cli.validate_config, nl.PeriodicFunction.eval) == originals
    summary = tracing.summarize(tracer.spans, 1)
    tracing.check_fired(summary, {"kernels.wrap_kernel": 2, "operator.apply_pv": 1,
                                  "rearrange.polya_szego_check": 1, "grids.eval": None})
    with pytest.raises(RuntimeError):
        tracing.check_fired(summary, {"minimize.minimize": None})
    counts = tracer.counts[1]
    assert counts["operator.apply_pv.eval_points"] > 0
    assert counts["grids.eval.points"] >= counts["operator.apply_pv.eval_points"]
    by_name = summary["by_name"]
    apply_pv = by_name["operator.apply_pv"]
    assert 0.0 <= apply_pv["self"] <= apply_pv["total"]


def test_integration_warning_attribution():
    from scipy.integrate import IntegrationWarning

    def warning(category, path):
        return warnings.WarningMessage("m", category, str(path), 1)

    kernels_py = ROOT / "src" / "nonlocper" / "kernels.py"
    assert tracing.is_kernel_integration_warning(warning(IntegrationWarning, kernels_py))
    assert not tracing.is_kernel_integration_warning(warning(RuntimeWarning, kernels_py))
    assert not tracing.is_kernel_integration_warning(
        warning(IntegrationWarning, ROOT / "src" / "nonlocper" / "operator.py"))


def test_scipy_import_parser():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |        400 | scipy.special",
        "import time:        10 |         10 |   numpy.core",
        "import time:        20 |         30 | numpy",
    ])
    assert run.scipy_import_s(log) == pytest.approx(400e-6)


def test_benchmark_json_matches_the_metrics_printed():
    run.check_spec(ROOT / "BENCHMARK.json", workloads.WORKLOADS, tracing.LAYER_METRICS)
    names = {m[0] for m in tracing.LAYER_METRICS}
    pass_keys = set(tracing.pass_metrics(tracing.summarize([], 1), tracing.Counter()))
    added = {"cli.import_s", "cli.import.scipy_s", "bench.trace_overhead"} | {
        f"cli.{c}.s" for c in tracing.CLI_COMMANDS}
    assert pass_keys | added == names
