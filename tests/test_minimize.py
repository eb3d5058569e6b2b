import math

import numpy as np
import pytest

import nonlocper as nl


def bo_setup(L=4 * math.pi, N=256, s=0.5):
    g = nl.PeriodicGrid(L, N)
    sym = nl.symbol_of_kernel(nl.FractionalKernel(s), g)
    nlty = nl.benjamin_ono_type(2.0)
    return g, sym, nlty


class TestProjection:
    def test_homogeneous_closed_form(self):
        g = nl.PeriodicGrid(math.pi, 64)
        nlty = nl.power_constraint(2.0)
        u = nl.PeriodicFunction.from_callable(g, lambda x: 1.0 + 0.3 * np.cos(x))
        v = nl.project_constraint(u, nlty, 5.0)
        assert nl.energy_module_constraint(v, nlty) == pytest.approx(5.0, abs=1e-12) \
            if hasattr(nl, "energy_module_constraint") else True
        val, _ = nl.constraint_value(v, nlty)
        assert val == pytest.approx(5.0, abs=1e-11)

    def test_polynomial_grows_its_bracket(self):
        # Gtilde = u^2 + u^4 is not homogeneous; at c = 1000 the root sigma
        # lies beyond the starting bracket [1e-8, 1]
        from scipy.optimize import brentq

        g = nl.PeriodicGrid(math.pi, 64)
        nlty = nl.polynomial_nonlinearity([0.0], Gt_coeffs=[0.0, 0.0, 1.0, 0.0, 1.0])
        u = nl.PeriodicFunction.from_callable(g, lambda x: 1.0 + 0.3 * np.cos(x))
        c = 1000.0
        v = nl.project_constraint(u, nlty, c)
        val, _ = nl.constraint_value(v, nlty)
        assert abs(val - c) < 1e-12 * c
        sigma = brentq(lambda x: nl.potential_integral(x * u, nlty.Gt) - c, 1e-8, 4.0,
                       xtol=1e-15, rtol=8.9e-16)
        assert sigma > 1.0
        # v = sigma u, read back at the largest sample
        i = int(np.argmax(u.samples))
        assert v.samples[i] / u.samples[i] == pytest.approx(sigma, rel=4 * np.finfo(float).eps)

    def test_unreachable_level(self):
        g = nl.PeriodicGrid(math.pi, 64)
        nlty = nl.power_constraint(2.0)
        u = nl.PeriodicFunction.from_callable(g, lambda x: 1.0 + 0.3 * np.cos(x))
        with pytest.raises(nl.ProjectionError):
            nl.project_constraint(u, nlty, -1.0)

    def test_constraint_requires_gtilde(self):
        g, sym, _ = bo_setup()
        nlty = nl.polynomial_nonlinearity([0.0, 0.0, -0.5])
        u = nl.PeriodicFunction.from_callable(g, np.cos)
        with pytest.raises(nl.DomainError):
            nl.MinimizeConfig(sym=sym, nl=nlty, initial=u, c=3.0)


class TestSymmetryDiagnostics:
    def test_even_monotone_profile(self):
        g = nl.PeriodicGrid(math.pi, 128)
        z0 = 0.9
        u = nl.PeriodicFunction.from_callable(
            g, lambda x: 2.0 + np.cos(x - z0) + 0.2 * np.cos(2 * (x - z0)))
        d = nl.symmetry_diagnostics(u)
        assert not d.degenerate
        assert d.center == pytest.approx(z0, abs=1e-8)
        assert d.evenness_defect < 1e-10
        assert d.monotonicity_defect < 1e-10
        assert d.critical_points == 2

    def test_two_interior_extrema(self):
        g = nl.PeriodicGrid(math.pi, 128)
        u = nl.PeriodicFunction.from_callable(
            g, lambda x: np.cos(x) + 0.8 * np.cos(2 * x))
        d = nl.symmetry_diagnostics(u)
        assert d.critical_points > 2  # interior extremum appears

    def test_constant_degenerate(self):
        g = nl.PeriodicGrid(math.pi, 64)
        u = nl.PeriodicFunction(g, np.full(g.size, 1.3))
        assert nl.symmetry_diagnostics(u).degenerate


class TestMinimize:
    def test_bo_constrained_symmetric(self):
        g, sym, nlty = bo_setup()
        rng = np.random.default_rng(0)
        u0 = nl.PeriodicFunction(
            g, 1.0 + np.cos(math.pi * g.nodes / g.half_period)
            + 0.1 * rng.standard_normal(g.size))
        cfg = nl.MinimizeConfig(sym=sym, nl=nlty, initial=u0, c=5.0)
        res = nl.minimize(cfg)
        assert res.converged
        # constraint maintained
        val, _ = nl.constraint_value(res.u, nlty)
        assert val == pytest.approx(5.0, abs=1e-9)
        # Euler-Lagrange residual small and multiplier recovered
        assert res.multiplier is not None
        d = nl.symmetry_diagnostics(res.u)
        assert not d.degenerate
        assert d.evenness_defect < 1e-6
        assert d.monotonicity_defect < 1e-6
        assert d.critical_points == 2

    def test_el_residual(self):
        g, sym, nlty = bo_setup()
        rng = np.random.default_rng(1)
        u0 = nl.PeriodicFunction(
            g, 1.0 + np.cos(math.pi * g.nodes / g.half_period)
            + 0.1 * rng.standard_normal(g.size))
        res = nl.minimize(nl.MinimizeConfig(sym=sym, nl=nlty, initial=u0, c=5.0))
        lam, resid = nl.minimize_module_residual(res, sym, nlty) \
            if hasattr(nl, "minimize_module_residual") else (None, None)
        # recompute the EL residual directly: L u - g(u) - lambda gtilde(u)
        lhs = nl.apply_spectral(sym, res.u).samples
        rhs = (np.asarray(nlty.g(res.u.samples))
               + res.multiplier * np.asarray(nlty.gt(res.u.samples)))
        assert np.max(np.abs(lhs - rhs)) < 1e-6

    def test_unconstrained_reaches_constant(self):
        g, sym, _ = bo_setup(L=math.pi, N=128)
        nlty = nl.double_well()
        rng = np.random.default_rng(2)
        u0 = nl.PeriodicFunction(g, 1.0 + 0.2 * rng.standard_normal(g.size))
        res = nl.minimize(nl.MinimizeConfig(sym=sym, nl=nlty, initial=u0,
                                            grad_tol=1e-11))
        assert res.converged
        assert np.ptp(res.u.samples) < 1e-6  # constant profile
        rep = nl.energy(res.u, sym, nlty)
        assert rep.gradient.l2_norm() < 1e-8

    def test_budget_exhaustion_not_converged(self):
        g, sym, nlty = bo_setup()
        u0 = nl.PeriodicFunction.from_callable(
            g, lambda x: 1.0 + np.cos(math.pi * x / g.half_period))
        res = nl.minimize(nl.MinimizeConfig(sym=sym, nl=nlty, initial=u0,
                                            c=5.0, max_iters=2))
        assert not res.converged

    def test_unconstrained_with_gtilde_descends(self):
        # the nonlinearity carries a Gtilde, but an unconstrained run must use
        # the full gradient; the minimizer of (1/2)[u]^2 + int u^2/2 is u = 0
        g, sym, nlty = bo_setup(L=3.14, N=64)
        rng = np.random.default_rng(0)
        u0 = nl.PeriodicFunction(
            g, 1.0 + np.cos(math.pi * g.nodes / g.half_period)
            + 0.1 * rng.standard_normal(g.size))
        res = nl.minimize(nl.MinimizeConfig(sym=sym, nl=nlty, initial=u0,
                                            max_iters=20))
        assert res.converged
        assert res.multiplier is None
        assert res.u.l2_norm() < 1e-8


class TestMaxPrinciple:
    def test_positive_at_interior_zero(self):
        g = nl.PeriodicGrid(math.pi, 128)
        L = g.half_period
        v = nl.PeriodicFunction.from_callable(
            g, lambda x: -np.sin(2 * np.pi * x / L) ** 2 * np.sin(np.pi * x / L))
        for kernel in (nl.FractionalKernel(0.5), nl.DelaunayKernel(2, 0.5, 1.0)):
            val = nl.max_principle_probe(kernel, v, L / 2)
            assert val > 0

    def test_exact_value_half_laplacian(self):
        # for L = pi the probe function is -sin^2(2x) sin(x); at x0 = pi/2
        # (-Delta)^(1/2) v = sum ell(k) v_k e^{ikx} evaluates to exactly 3/2
        g = nl.PeriodicGrid(math.pi, 128)
        v = nl.PeriodicFunction.from_callable(
            g, lambda x: -np.sin(2 * x) ** 2 * np.sin(x))
        val = nl.max_principle_probe(nl.FractionalKernel(0.5), v, math.pi / 2)
        assert val == pytest.approx(1.5, rel=1e-9)

    def test_hypothesis_violations(self):
        g = nl.PeriodicGrid(math.pi, 128)
        k = nl.FractionalKernel(0.5)
        not_odd = nl.PeriodicFunction.from_callable(g, lambda x: -np.cos(x) ** 2)
        with pytest.raises(nl.HypothesisViolationError):
            nl.max_principle_probe(k, not_odd, math.pi / 2)
        positive_somewhere = nl.PeriodicFunction.from_callable(g, np.sin)
        with pytest.raises(nl.HypothesisViolationError):
            nl.max_principle_probe(k, positive_somewhere, math.pi / 2)
        odd_ok = nl.PeriodicFunction.from_callable(
            g, lambda x: -np.sin(2 * x) ** 2 * np.sin(x))
        with pytest.raises(nl.HypothesisViolationError):
            nl.max_principle_probe(k, odd_ok, 0.3)  # v(x0) != 0
