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
        # of the moment polynomial lies above 1
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


def cos_start(g, amplitude=1.0):
    return nl.PeriodicFunction.from_callable(g, lambda x: amplitude * (1.0 + 0.3 * np.cos(x)))


def two_root_constraint(u, lo, hi):
    """Gtilde = u^2 + g3 u^3 and the level c at which int Gtilde(sigma u) = c
    has its positive roots at sigma = lo and hi (with the grid's moments)."""
    m2, m3 = (nl.potential_integral(u, lambda v, j=j: v**j) for j in (2, 3))
    g3 = -m2 * (hi**2 - lo**2) / (m3 * (hi**3 - lo**3))
    return [0.0, 0.0, 1.0, g3], m2 * lo**2 + g3 * m3 * lo**3


class TestPolynomialProjection:
    """project_constraint on a polynomial Gtilde: sigma is the root of the
    moment polynomial nearest 1, checked against brentq on the trapezoid
    integral of Gtilde(sigma u) near the root it must pick."""

    @staticmethod
    def check_sigma(u, nlty, c, near):
        from scipy.optimize import brentq

        v = nl.project_constraint(u, nlty, c)
        val, _ = nl.constraint_value(v, nlty)
        assert abs(val - c) <= 1e-12 * max(1.0, abs(c))
        sigma = brentq(lambda x: nl.potential_integral(x * u, nlty.Gt) - c,
                       0.95 * near, 1.05 * near, xtol=1e-15, rtol=8.9e-16)
        i = int(np.argmax(u.samples))
        assert v.samples[i] / u.samples[i] == pytest.approx(sigma, rel=4 * np.finfo(float).eps)
        return v

    @pytest.mark.parametrize("lo,hi,nearest", [(0.9, 2.0, 0.9), (0.5, 1.2, 1.2),
                                               (1.1, 3.0, 1.1), (0.2, 0.7, 0.7)])
    def test_two_positive_roots_take_the_one_nearest_1(self, lo, hi, nearest):
        g = nl.PeriodicGrid(math.pi, 64)
        u = cos_start(g)
        coeffs, c = two_root_constraint(u, lo, hi)
        self.check_sigma(u, nl.polynomial_nonlinearity([0.0], Gt_coeffs=coeffs), c, nearest)

    @pytest.mark.parametrize("coeffs,c,near", [
        ([-1.0, 0.0, 1.0], 3.0, 1.189),  # a constant term; the other root is -1.189
        ([0.0, 0.0, 1.0, -1.0], -20.0, 1.793),  # below zero: only the falling branch
        ([0.0, 2.0, 0.0, 0.0, 0.5], 40.0, 1.513),  # one negative, two complex roots
    ])
    def test_one_positive_root(self, coeffs, c, near):
        g = nl.PeriodicGrid(math.pi, 64)
        self.check_sigma(cos_start(g), nl.polynomial_nonlinearity([0.0], Gt_coeffs=coeffs),
                         c, near)

    @pytest.mark.parametrize("coeffs,c", [
        ([0.0, 0.0, 1.0, 0.0, 1.0], -1.0),  # positive for sigma > 0
        ([0.0, 0.0, 1.0, 0.0, -1.0], 5.0),  # above the largest reachable level
        ([2.0], 1.0),  # a constant integral
    ])
    def test_no_positive_root_raises(self, coeffs, c):
        g = nl.PeriodicGrid(math.pi, 64)
        with pytest.raises(nl.ProjectionError, match="no sigma"):
            nl.project_constraint(cos_start(g),
                                  nl.polynomial_nonlinearity([0.0], Gt_coeffs=coeffs), c)

    def test_trailing_zero_coefficients(self):
        g = nl.PeriodicGrid(math.pi, 64)
        u = cos_start(g)
        plain = nl.polynomial_nonlinearity([0.0], Gt_coeffs=[0.0, 0.0, 1.0, 0.0, 1.0])
        padded = nl.polynomial_nonlinearity([0.0], Gt_coeffs=[0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0])
        want = self.check_sigma(u, plain, 30.0, 1.2)
        assert np.array_equal(self.check_sigma(u, padded, 30.0, 1.2).samples, want.samples)
        # the zeros do not meet moments that overflow: u^6 does, u^4 does not
        big = cos_start(g, 1e60)
        c = 1e240
        assert np.array_equal(nl.project_constraint(big, padded, c).samples,
                              nl.project_constraint(big, plain, c).samples)

    def test_polynomial_with_a_non_default_domain(self):
        g = nl.PeriodicGrid(math.pi, 64)
        u = cos_start(g)
        Gt = np.polynomial.Polynomial([0.5, -1.0, 2.0], domain=[-2.0, 3.0])
        assert not np.array_equal(Gt.coef, Gt.convert().coef)
        nlty = nl.Nonlinearity(Gt=Gt, gt=Gt.deriv())
        # 0.78 - 0.72 u + 0.32 u^2 in u: roots 0.222 and 1.93, the first nearer 1
        self.check_sigma(u, nlty, 4.0, 0.222)

    @pytest.mark.parametrize("broken", ["nan", "overflow"])
    def test_moments_that_are_not_finite_raise_projection_error(self, broken):
        g = nl.PeriodicGrid(math.pi, 64)
        if broken == "nan":
            samples = cos_start(g).samples.copy()
            samples[5] = np.nan
            u = nl.PeriodicFunction(g, samples)
        else:
            u = cos_start(g, 1e80)  # u^2 is finite, u^4 is not
        nlty = nl.polynomial_nonlinearity([0.0], Gt_coeffs=[0.0, 0.0, 1.0, 0.0, 1.0])
        with pytest.raises(nl.ProjectionError, match="not finite"):
            nl.project_constraint(u, nlty, 5.0)

    def test_companion_matrix_overflow_raises_projection_error(self):
        # finite moments whose ratio overflows: M_2/M_4 ~ 1e312
        g = nl.PeriodicGrid(math.pi, 64)
        nlty = nl.polynomial_nonlinearity([0.0], Gt_coeffs=[0.0, 0.0, 1.0, 0.0, 1.0])
        with pytest.raises(nl.ProjectionError, match="overflow"):
            nl.project_constraint(cos_start(g, 1e-78), nlty, 5.0)

    def test_homogeneous_nan_sample_raises_projection_error(self):
        g = nl.PeriodicGrid(math.pi, 64)
        samples = cos_start(g).samples.copy()
        samples[5] = np.nan
        with pytest.raises(nl.ProjectionError):
            nl.project_constraint(nl.PeriodicFunction(g, samples), nl.power_constraint(2.0), 5.0)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("family", ["power", "polynomial"])
    def test_level_that_is_not_finite_raises_domain_error(self, family, c):
        g = nl.PeriodicGrid(math.pi, 64)
        nlty = (nl.power_constraint(2.0) if family == "power" else
                nl.polynomial_nonlinearity([0.0], Gt_coeffs=[0.0, 0.0, 1.0, -1.0]))
        with pytest.raises(nl.DomainError, match="finite"):
            nl.project_constraint(cos_start(g), nlty, c)

    def test_gtilde_neither_homogeneous_nor_polynomial_is_rejected(self):
        with pytest.raises(nl.DomainError, match="Polynomial"):
            nl.Nonlinearity(Gt=lambda u: u**2 - u**3, gt=lambda u: 2 * u - 3 * u**2)
        # the same callables with a homogeneity, or no Gtilde at all, are accepted
        nl.Nonlinearity(Gt=lambda u: u**2, gt=lambda u: 2 * u, homogeneity=2.0)
        nl.Nonlinearity(G=lambda u: u**2, g=lambda u: 2 * u)


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

    @staticmethod
    def counted_center(monkeypatch, u):
        calls = []
        eval_ = nl.PeriodicFunction.eval
        monkeypatch.setattr(nl.PeriodicFunction, "eval",
                            lambda self, x: calls.append(x) or eval_(self, x))
        return nl.symmetry_diagnostics(u).center, len(calls)

    def test_newton_that_finds_no_maximum_reports_the_argmax(self, monkeypatch):
        # a large Nyquist cosine over noise: Newton from the fine-grid argmax
        # heads for a minimum of u (u'' > 0 there); it used to wander for all
        # 60 steps and return z = 0.345, seven step widths away, at u' = -2.56
        g = nl.PeriodicGrid(math.pi, 64)
        rng = np.random.default_rng(95)
        u = nl.PeriodicFunction(g, 0.7 + np.cos(g.nodes) + 0.5 * np.cos(32 * g.nodes)
                                + 0.1 * rng.standard_normal(g.size))
        fine = u.refine(8 * g.size)
        argmax = float(fine.grid.nodes[int(np.argmax(fine.samples))])
        center, evals = self.counted_center(monkeypatch, u)
        assert center == argmax
        assert evals <= 20

    def test_newton_converges_with_a_nyquist_mode(self, monkeypatch):
        # u' and u'' both drop the Nyquist cosine, so Newton converges; with
        # u'' keeping it the loop ran all 60 steps (120 evals)
        g = nl.PeriodicGrid(math.pi, 64)
        u = nl.PeriodicFunction.from_callable(
            g, lambda x: np.cos(x) + 0.3 * np.cos(3 * x + 0.2) + 0.1 * np.cos(32 * x))
        center, evals = self.counted_center(monkeypatch, u)
        assert evals <= 20
        assert abs(u.derivative().eval(center)) < 1e-13
        assert center == pytest.approx(-0.048647430738, abs=1e-11)


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


    def test_non_monotone_polynomial_constraint_converges(self):
        # Gtilde = u^2 - u^3 falls for large sigma, so int Gtilde(sigma u) = c
        # may have two positive roots; projecting onto the one nearest 1
        # takes both writings of this start to the same constant minimizer
        g = nl.PeriodicGrid(math.pi, 64)
        sym = nl.symbol_of_kernel(nl.FractionalKernel(0.5), g)
        nlty = nl.polynomial_nonlinearity([0.0, 0.0, 0.5], Gt_coeffs=[0.0, 0.0, 1.0, -1.0])
        energies = []
        for start in (lambda x: 0.2 * (1.0 + 0.5 * np.cos(x)),
                      lambda x: 0.2 * (1.0 + 0.5 * np.cos(np.pi * x / math.pi))):
            res = nl.minimize(nl.MinimizeConfig(
                sym=sym, nl=nlty, c=0.5, max_iters=400,
                initial=nl.PeriodicFunction.from_callable(g, start)))
            assert res.converged
            assert np.ptp(res.u.samples) <= 1e-8  # the constant minimizer
            assert res.constraint_defect < 1e-12
            energies.append(res.energy_trace[-1])
        assert energies[1] == pytest.approx(energies[0], rel=1e-12)
        assert energies[0] == pytest.approx(-2.55739749481477, rel=1e-12)


class TestBenjaminOnoWave:
    """For fraclap 1/2 and benjamin_ono_type(2) the minimizer at level c is
    the exact periodic wave for L > pi (Amick & Toland, Acta Math. 167,
    1991) and the constant (3c/2L)^(1/3) below."""

    @staticmethod
    def run(L, n, start):
        g = nl.PeriodicGrid(L, n)
        sym = nl.symbol_of_kernel(nl.FractionalKernel(0.5), g)
        u0 = 1.0 + np.cos(math.pi * g.nodes / L)
        if start == "noisy":
            u0 = u0 + 0.1 * np.random.default_rng(1).standard_normal(n)
        res = nl.minimize(nl.MinimizeConfig(sym=sym, nl=nl.benjamin_ono_type(2.0),
                                            initial=nl.PeriodicFunction(g, u0), c=5.0))
        assert res.converged
        return res

    # measured: profile 2.5e-9 to 1.3e-8 of max(wave), multiplier 1.4e-10 to
    # 1.1e-9; the grad_tol of the descent sets both
    @pytest.mark.parametrize("start", ["smooth", "noisy"])
    @pytest.mark.parametrize("n", [256, 1024])
    @pytest.mark.parametrize("periods", [1.2, 2.0, 4.0])
    def test_matches_the_exact_wave(self, periods, n, start):
        from _oracles import bo_wave

        res = self.run(periods * math.pi, n, start)
        wave, lam = bo_wave(res.u.grid, 5.0, res.diagnostics.center)
        err = np.max(np.abs(res.u.samples - wave.samples)) / np.max(wave.samples)
        assert err <= 5e-8
        assert abs(res.multiplier - lam) <= 1e-8

    @pytest.mark.parametrize("start", ["smooth", "noisy"])
    @pytest.mark.parametrize("n", [256, 1024])
    def test_below_pi_is_the_constant(self, n, start):
        # measured 4.2e-8 to 5.1e-8 off the constant
        L = 0.8 * math.pi
        res = self.run(L, n, start)
        assert np.max(np.abs(res.u.samples - (1.5 * 5.0 / L) ** (1.0 / 3.0))) <= 1e-6


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

    @pytest.mark.parametrize("x0", [0.0, math.pi, -1.0, 5.0, math.nan])
    def test_probe_point_outside_raises_domain_error(self, x0):
        # the probe point is checked first, even on a v that breaks the hypotheses
        g = nl.PeriodicGrid(math.pi, 128)
        not_odd = nl.PeriodicFunction.from_callable(g, lambda x: -np.cos(x) ** 2)
        with pytest.raises(nl.DomainError, match="x0"):
            nl.max_principle_probe(nl.FractionalKernel(0.5), not_odd, x0)

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
