"""minimize's line search, which evaluates only the energy of a rejected
candidate, against the loop that takes every candidate through
multiplier_and_residual (tests/_oracles.py); and MinimizeConfig's checks of
inputs that the descent cannot honour."""

import importlib
import math

import numpy as np
import pytest
from _oracles import minimize_loop

import nonlocper as nl
from nonlocper import cli

minimize_mod = importlib.import_module("nonlocper.minimize")
frac = nl.FractionalKernel(0.5)


def bench_bo_starts():
    """The three Benjamin-Ono starts of the benchmark's variational workload
    at seed 1."""
    rng = np.random.default_rng([1, 3])
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
