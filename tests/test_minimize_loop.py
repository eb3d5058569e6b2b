"""minimize's line search, which evaluates only the energy of a rejected
candidate, against the loop that takes every candidate through
multiplier_and_residual (tests/_oracles.py); and MinimizeConfig's checks of
inputs that the descent cannot honour."""

import importlib
import json
import math

import numpy as np
import pytest
from _oracles import minimize_loop

import nonlocper as nl
from nonlocper import cli

minimize_mod = importlib.import_module("nonlocper.minimize")
frac = nl.FractionalKernel(0.5)


def bench_bo_starts(seed=1):
    """The three Benjamin-Ono starts of the benchmark's variational workload
    at a seed."""
    rng = np.random.default_rng([seed, 3])
    g = nl.PeriodicGrid(4.0 * math.pi, 256)
    sym = nl.symbol_of_kernel(frac, g)
    base = 1.0 + np.cos(np.pi * g.nodes / g.half_period)
    return [nl.MinimizeConfig(sym=sym, nl=nl.benjamin_ono_type(2.0), c=5.0,
                              initial=nl.PeriodicFunction(g, base + 0.1 * rng.standard_normal(g.size)))
            for _ in range(3)]


def double_well():
    g = nl.PeriodicGrid(math.pi, 128)
    rng = np.random.default_rng(2)
    u0 = nl.PeriodicFunction(g, 0.5 + 0.3 * np.cos(g.nodes) + 0.05 * rng.standard_normal(g.size))
    return nl.MinimizeConfig(sym=nl.symbol_of_kernel(frac, g), nl=nl.double_well(), initial=u0)


def polynomial(gt_coeffs, c, L=math.pi, amplitude=1.0, **kw):
    g = nl.PeriodicGrid(L, 64)
    u0 = nl.PeriodicFunction.from_callable(
        g, lambda x: amplitude * (1.0 + 0.5 * np.cos(np.pi * x / L)))
    poly = nl.polynomial_nonlinearity([0.0, 0.0, 0.5], Gt_coeffs=gt_coeffs)
    return nl.MinimizeConfig(sym=nl.symbol_of_kernel(frac, g), nl=poly, initial=u0,
                             c=c, **kw)


def sign_changing():
    g = nl.PeriodicGrid(math.pi, 64)
    values = np.arange(g.size // 2 + 1, dtype=float)
    values[-4:] *= -0.01
    u0 = nl.PeriodicFunction.from_callable(g, lambda x: 1.0 + np.cos(x))
    return nl.MinimizeConfig(sym=nl.symbol_from_values(g, values),
                             nl=nl.benjamin_ono_type(2.0), initial=u0, c=5.0, max_iters=30)


def budget():
    cfg = bench_bo_starts()[0]
    return nl.MinimizeConfig(sym=cfg.sym, nl=cfg.nl, initial=cfg.initial, c=5.0, max_iters=12)


# name -> (config, converges, some candidate cannot be projected)
CASES = {
    **{f"benjamin-ono-start-{i}": (lambda i=i: bench_bo_starts()[i], True, False)
       for i in range(3)},
    "double-well": (double_well, True, False),
    # Gtilde = u^2 + u^3 at L = 4 pi: the non-homogeneous projection converges
    "polynomial": (lambda: polynomial([0, 0, 1, 1], 5.0, L=4 * math.pi), True, False),
    # Gtilde = u^2 - u^4 near its largest reachable level: some candidates
    # cannot reach it (no positive root), and the descent runs out its budget
    "polynomial-unreachable-candidates": (
        lambda: polynomial([0, 0, 1, 0, -1], 0.9, amplitude=0.3, max_iters=10), False, True),
    "budget": (budget, False, False),
    "sign-changing-symbol": (sign_changing, False, False),
}


@pytest.mark.parametrize("make,converges,unprojectable", CASES.values(), ids=CASES.keys())
def test_line_search_matches_the_full_evaluation_loop(make, converges, unprojectable,
                                                      monkeypatch):
    cfg = make()
    projected, failures = minimize_mod._projected, []

    def counting(*args):
        try:
            return projected(*args)
        except nl.ProjectionError:
            failures.append(args)
            raise

    monkeypatch.setattr(minimize_mod, "_projected", counting)
    res = nl.minimize(cfg)
    monkeypatch.undo()
    want = minimize_loop(cfg)
    assert np.array_equal(res.u.samples, want.u.samples)
    assert np.array_equal(res.energy_trace, want.energy_trace)
    assert res.iterations == want.iterations
    assert res.converged == want.converged == converges
    assert res.multiplier == want.multiplier
    assert res.residual_norm == want.residual_norm
    assert res.constraint_defect == want.constraint_defect
    assert res.diagnostics == want.diagnostics
    assert res.flags == want.flags
    assert bool(failures) == unprojectable
    assert bool(res.flags) == bool(np.any(cfg.sym.values < 0))


@pytest.mark.parametrize("change,message", [
    ({"grad_tol": math.nan}, "grad_tol"),
    ({"grad_tol": 0.0}, "grad_tol"),
    ({"max_iters": 0}, "max_iters"),
    ({"max_iters": -3}, "max_iters"),
    ({"c": math.nan}, "finite"),
    ({"c": math.inf}, "finite"),
    ({"c": 0.0}, "positive level"),
    ({"c": -1.0}, "positive level"),
])
def test_config_rejects_what_the_descent_cannot_honour(change, message):
    cfg = bench_bo_starts()[0]
    kw = {"sym": cfg.sym, "nl": cfg.nl, "initial": cfg.initial, "c": 5.0, **change}
    with pytest.raises(nl.DomainError, match=message):
        nl.MinimizeConfig(**kw)


@pytest.mark.parametrize("ell", [-1.0, -1.5])
def test_config_rejects_a_symbol_the_preconditioner_cannot_divide_by(ell):
    # at ell = -1 the preconditioner divides by zero; below it, the slope
    # sum |pg_k|^2/(1 + ell_k) may turn negative and Armijo admit increases
    g = nl.PeriodicGrid(math.pi, 64)
    values = np.arange(g.size // 2 + 1, dtype=float)
    values[-1] = ell
    u0 = nl.PeriodicFunction.from_callable(g, lambda x: 1.0 + np.cos(x))
    with pytest.raises(nl.DomainError, match="preconditioner"):
        nl.MinimizeConfig(sym=nl.symbol_from_values(g, values),
                          nl=nl.benjamin_ono_type(2.0), initial=u0, c=5.0)


def test_level_sign_is_checked_for_homogeneous_constraints_only():
    # a polynomial Gtilde may be negative, so MinimizeConfig leaves its
    # levels to project_constraint
    assert polynomial([0, 0, 1, 0, -1], -1.0).c == -1.0


def test_unreachable_homogeneous_level_exits_2(tmp_path, capsys):
    code = cli.main(["minimize", "--kernel", "fraclap", "--s", "0.5", "--L", "12.566",
                     "--N", "64", "--constraint", "-1", "--seed", "1",
                     "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert err.startswith("configuration error")
    assert "numerical failure" not in err and "Traceback" not in err


# Each iteration's first trial step is the preconditioned Barzilai-Borwein
# step.  The bounds below are the iterations of the slowest cases of the
# plain 1.5x step rule, which the spectral step cuts; the energies are that
# rule's, which the new step must reach or undercut.

@pytest.mark.parametrize("seed", range(1, 41))
def test_bench_starts_converge_in_few_iterations(seed):
    # the 1.5x step rule took up to 81 iterations per start
    for cfg in bench_bo_starts(seed):
        res = nl.minimize(cfg)
        assert res.converged and res.iterations <= 32
        assert res.energy_trace[-1] == pytest.approx(6.37881626632055, rel=1e-12)


@pytest.mark.parametrize("c,parent_energy", [(5, 5.68064931405029), (20, 14.941807502507508)])
def test_polynomial_constraint_cli_case_converges(tmp_path, c, parent_energy):
    # the 1.5x step rule took 14056 (c = 5) and 11054 (c = 20) iterations
    config = {"command": "minimize", "kernel": {"family": "fraclap", "s": 0.5},
              "grid": {"L": 12.566, "N": 64}, "constraint": c, "seed": 1,
              "nonlinearity": {"name": "polynomial", "G_coeffs": [0, 0, -0.5],
                               "Gt_coeffs": [0, 0, 0.1, 1 / 3]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(["minimize", "--config", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "minimize_report.json").read_text())["result"]
    assert report["converged"] and report["iterations"] <= 1000
    assert report["final_energy"] == pytest.approx(parent_energy, rel=1e-10)


def test_readme_quick_start_converges_in_few_iterations():
    # the 1.5x step rule took 33008 iterations along the degenerate
    # direction cos x (the second variation there is 0)
    g = nl.PeriodicGrid(math.pi, 256)
    u = nl.PeriodicFunction.from_callable(g, np.cos)
    res = nl.minimize(nl.MinimizeConfig(sym=nl.symbol_of_kernel(frac, g),
                                        nl=nl.benjamin_ono_type(2.0), initial=u + 1.0, c=5.0))
    assert res.converged and res.iterations <= 2000
    assert res.energy_trace[-1] <= 5.611652890759811


@pytest.mark.parametrize("s", [0.05, 0.2])
@pytest.mark.parametrize("start", ["noise", "cos2"])
def test_small_s_starts_stay_within_their_recorded_cost(s, start):
    # the spectral step's slow cases, with no grid-converged minimizer to
    # reach: 13 and 273 iterations at s = 0.05, 94 and 61 at s = 0.2 (the
    # 1.5x step rule took 23-30)
    g = nl.PeriodicGrid(4.0 * math.pi, 256)
    base = 1.0 + np.cos(np.pi * g.nodes / g.half_period)
    bump = (0.1 * np.random.default_rng(1).standard_normal(g.size) if start == "noise"
            else 0.3 * np.cos(2.0 * np.pi * g.nodes / g.half_period))
    res = nl.minimize(nl.MinimizeConfig(sym=nl.symbol_of_kernel(nl.FractionalKernel(s), g),
                                        nl=nl.benjamin_ono_type(2.0), c=5.0,
                                        initial=nl.PeriodicFunction(g, base + bump)))
    assert res.converged and res.iterations <= 400


def test_step_falls_back_where_a_curvature_is_not_positive(monkeypatch):
    # after each accepted step's _multiplier (whose <g~, g~> and <r, g~> are
    # _dot calls too), the next two _dot calls are the spectral step's
    # <s, y> and <y, P y>; where one is <= 0 the 1.5x rule takes over
    dot, multiplier, values, marks = minimize_mod._dot, minimize_mod._multiplier, [], []

    def recording(*args):
        values.append(dot(*args))
        return values[-1]

    def marking(*args):
        out = multiplier(*args)
        marks.append(len(values))
        return out

    monkeypatch.setattr(minimize_mod, "_dot", recording)
    monkeypatch.setattr(minimize_mod, "_multiplier", marking)
    cfg = sign_changing()
    res = nl.minimize(cfg)
    curvatures = [values[i:i + 2] for i in marks[1:]]  # marks[0]: the start's multiplier
    assert len(curvatures) == len(res.energy_trace) - 1
    assert any(sy <= 0 or ypy <= 0 for sy, ypy in curvatures)
    assert res.iterations == cfg.max_iters and not res.converged
    assert res.flags == ("sign-changing symbol: no convergence guarantee",)
