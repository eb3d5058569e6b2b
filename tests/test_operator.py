import math

import numpy as np
import pytest
from scipy import integrate

import nonlocper as nl
from nonlocper import operator as op
from nonlocper.grids import EVAL_BLOCK


def band_limited(grid, rng, k_max=8):
    c = np.zeros(grid.size, complex)
    for k in range(1, k_max + 1):
        z = rng.standard_normal() + 1j * rng.standard_normal()
        c[k] = z
        c[-k] = np.conj(z)
    return nl.PeriodicFunction.from_coeffs(grid, c)


class TestSymbol:
    def test_fraclap_exact_table(self):
        g = nl.PeriodicGrid(math.pi, 64)
        sym = nl.symbol_of_kernel(nl.FractionalKernel(0.5), g)
        assert sym.provenance == "exact"
        assert np.allclose(sym.values, np.abs(g.frequencies()))

    @pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
    def test_quadrature_matches_closed_form(self, s):
        # independent oracle: the closed-form multiplier |xi|^(2s)
        g = nl.PeriodicGrid(math.pi, 32)
        sym = nl.symbol_of_kernel(nl.FractionalKernel(s), g,
                                  force_quadrature=True)
        exact = np.abs(g.frequencies()) ** (2 * s)
        rel = np.abs(sym.values[1:] - exact[1:]) / exact[1:]
        assert np.max(rel) < 1e-6
        assert sym.values[0] == 0.0

    def test_symbol_vs_direct_quad_delaunay(self):
        # brute oracle: single adaptive quad of 2 int (1-cos(xi t)) K(t) dt
        # truncated at T with the tail handled by |1 - cos| <= 2
        k = nl.DelaunayKernel(2, 0.5, 1.0)
        xi = 3.0
        T = 5000.0
        brute, _ = integrate.quad(
            lambda t: 2 * (1 - math.cos(xi * t)) * k(t), 0, T,
            limit=2000, epsabs=1e-12)
        # truncation tail: (1 - cos) averages to 1 against the decaying kernel
        brute += 2.0 * k.tail_integral(T)
        assert abs(nl.operator.symbol_value(k, xi) - brute) < 1e-7 * brute

    def test_even_in_xi(self):
        k = nl.DelaunayKernel(2, 0.5, 1.0)
        assert nl.operator.symbol_value(k, -2.0) == pytest.approx(
            nl.operator.symbol_value(k, 2.0), rel=1e-12)

    def test_compact_kernel_symbol(self):
        # indicator of [0,1]: ell(xi) = 2 int_0^1 (1 - cos(xi t)) dt
        #                            = 2 (1 - sin(xi)/xi)
        k = nl.indicator_kernel(1.0)
        for xi in (1.0, 4.0, 10.0):
            exact = 2.0 * (1.0 - math.sin(xi) / xi)
            assert nl.operator.symbol_value(k, xi) == pytest.approx(exact, rel=1e-8)

    def test_user_symbol(self):
        g = nl.PeriodicGrid(math.pi, 32)
        vals = np.arange(17, dtype=float)
        sym = nl.symbol_from_values(g, vals)
        assert sym.provenance == "user"
        assert sym.value_at(-5) == 5.0

    def test_bounds_hold(self):
        g = nl.PeriodicGrid(math.pi, 32)
        k = nl.FractionalKernel(0.5)
        sym = nl.symbol_of_kernel(k, g)
        assert nl.operator.symbol_bounds_hold(sym, k)



def _symbol_routes(kernel, n=32, L=math.pi):
    grid = nl.PeriodicGrid(L, n)
    return (nl.symbol_of_kernel(kernel, grid),
            nl.symbol_of_kernel(kernel, grid, force_quadrature=True))


def _max_rel(a, b):
    return float(np.max(np.abs(a[1:] - b[1:]) / np.abs(b[1:])))


class TestClosedFormSymbols:
    """Each closed form against the adaptive per-frequency quadrature."""

    @pytest.mark.parametrize("n,s,a", [(2, 0.5, 1.0), (3, 0.2, 0.5), (2, 0.8, 2.0)])
    def test_delaunay(self, n, s, a):
        exact, quad = _symbol_routes(nl.DelaunayKernel(n, s, a))
        assert exact.provenance == "exact"
        assert exact.values[0] == 0.0
        assert _max_rel(exact.values, quad.values) < 1e-8

    @pytest.mark.parametrize("t_table,k_table", [
        (np.linspace(1e-3, 0.6 * math.pi, 64), 1.0 - np.linspace(1e-3, 0.6 * math.pi, 64)
         / (0.6 * math.pi)),
        ([0.2, 0.5, 1.0], [2.0, 1.2, 0.0]),
        ([1e-3, 0.5, 1.5], [1.0, 0.6, 0.0]),  # interior kink
    ])
    def test_compact(self, t_table, k_table):
        exact, quad = _symbol_routes(nl.CompactKernel(t_table, k_table, s=0.5))
        assert exact.provenance == "exact"
        assert exact.values[0] == 0.0
        assert _max_rel(exact.values, quad.values) < 1e-8

    def test_laplace_of_delaunay(self):
        exact, quad = _symbol_routes(nl.laplace_measure_of(nl.DelaunayKernel(2, 0.5, 1.0)))
        assert exact.provenance == "exact"
        assert _max_rel(exact.values, quad.values) < 1e-8

    def test_laplace_exponential_density(self):
        # K(t) = int e^-r e^(-t^2 r) dr = 1/(1 + t^2), tabulated on r in
        # [1e-14, 1e8]: the grid cuts the t^-2 tail near t = 1e7, which
        # lowers the symbol by 1.8e-7 relative.  Adaptive quadrature misses
        # the cut, so the oracle here is a split quadrature of the profile.
        r = nl.kernels.DEFAULT_R_GRID
        lk = nl.LaplaceKernel(r, np.exp(-r), s=0.5, Lambda_hi=1.0)
        grid = nl.PeriodicGrid(math.pi, 8)
        exact = nl.symbol_of_kernel(lk, grid)
        assert exact.provenance == "exact"
        xi = grid.frequencies()[2]
        near = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 60)])
        far = np.geomspace(1e3, 1e10, 60)
        brute = sum(integrate.quad(lambda t: 2 * (1 - math.cos(xi * t)) * lk(t), lo, hi,
                                   epsabs=1e-16, epsrel=1e-11, limit=200)[0]
                    for lo, hi in zip(near[:-1], near[1:]))
        brute += sum(2 * integrate.quad(lk, lo, hi, epsabs=1e-16, epsrel=1e-11, limit=200)[0]
                     for lo, hi in zip(far[:-1], far[1:]))
        brute -= 2 * integrate.quad(lk, 1e3, np.inf, weight="cos", wvar=xi, limit=400)[0]
        assert exact.values[2] == pytest.approx(brute, rel=1e-10)
        assert exact.values[2] == pytest.approx(math.pi * (1 - math.exp(-xi)), rel=1e-6)

    def test_indicator(self):
        # ell = 2 (c - sin(xi c)/xi) from the compact closed form, no quad
        exact, quad = _symbol_routes(nl.indicator_kernel(1.3 * math.pi))
        assert exact.provenance == "exact"
        assert _max_rel(exact.values, quad.values) < 1e-14

    def test_sinetail_batch_vs_adaptive(self):
        batch, quad = _symbol_routes(nl.SineTailKernel(0.5), n=16)
        assert batch.provenance == "quadrature"
        # the adaptive route itself is off by up to 7.6e-9 here (against a
        # split quadrature, which the batch matches to 2e-12)
        assert _max_rel(batch.values, quad.values) < 2e-8


class TestNormalization:
    @pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
    def test_equals_reciprocal_constant(self, s):
        assert nl.cosine_normalization(s) == pytest.approx(
            1.0 / nl.frac_lap_constant(s), rel=1e-10)


class TestApplySpectral:
    def test_single_mode(self):
        # L cos(kx) = ell(k) cos(kx) on L = pi
        g = nl.PeriodicGrid(math.pi, 64)
        sym = nl.symbol_of_kernel(nl.FractionalKernel(0.5), g)
        u = nl.PeriodicFunction.from_callable(g, lambda x: np.cos(3 * x))
        v = nl.apply_spectral(sym, u)
        assert np.allclose(v.samples, 3.0 * u.samples, atol=1e-12)

    def test_annihilates_constants(self):
        g = nl.PeriodicGrid(math.pi, 64)
        sym = nl.symbol_of_kernel(nl.FractionalKernel(0.5), g)
        u = nl.PeriodicFunction(g, np.full(g.size, 2.5))
        assert np.max(np.abs(nl.apply_spectral(sym, u).samples)) < 1e-13

    def test_grid_mismatch(self):
        sym = nl.symbol_of_kernel(nl.FractionalKernel(0.5),
                                  nl.PeriodicGrid(math.pi, 64))
        u = nl.PeriodicFunction.from_callable(nl.PeriodicGrid(math.pi, 32), np.cos)
        with pytest.raises(nl.GridMismatchError):
            nl.apply_spectral(sym, u)
        # a kernel wrapped over another period must not be applied to u
        kernel = nl.FractionalKernel(0.5)
        wk = nl.wrap_kernel(kernel, 2 * math.pi, tol=1e-12)
        with pytest.raises(nl.GridMismatchError):
            nl.apply_pv(kernel, u, 0.3, wrapped=wk)
        with pytest.raises(nl.GridMismatchError):
            nl.polya_szego_check(kernel, u, wrapped=wk)
        with pytest.raises(nl.GridMismatchError):
            nl.seminorm_sq_realspace(wk, u)


class TestApplyPV:
    @pytest.mark.parametrize("kernel", [
        nl.FractionalKernel(0.5), nl.FractionalKernel(0.2),
        nl.DelaunayKernel(2, 0.5, 1.0),
        # interior kinks at 1e-3 and 0.5 need their own panel breakpoints
        nl.CompactKernel([1e-3, 0.5, 1.5], [1.0, 0.6, 0.0], s=0.5)])
    def test_matches_spectral(self, kernel):
        g = nl.PeriodicGrid(math.pi, 64)
        rng = np.random.default_rng(1)
        u = band_limited(g, rng)
        sym = nl.symbol_of_kernel(kernel, g)
        spec = nl.apply_spectral(sym, u)
        wk = nl.wrap_kernel(kernel, g.half_period, tol=1e-12)
        tol = 1e-8 * max(1.0, np.max(np.abs(spec.samples)))
        for x in (-2.0, 0.3, 1.7):
            pv = nl.apply_pv(kernel, u, x, wrapped=wk)
            assert pv == pytest.approx(spec.eval(x), abs=tol)
        grid_pv = nl.apply_pv_grid(kernel, u)
        assert np.max(np.abs(grid_pv.samples - spec.samples)) <= tol

    def test_half_laplacian_of_cos(self):
        # (-Delta)^(1/2) cos x = cos x
        g = nl.PeriodicGrid(math.pi, 64)
        u = nl.PeriodicFunction.from_callable(g, np.cos)
        k = nl.FractionalKernel(0.5)
        assert nl.apply_pv(k, u, 0.7) == pytest.approx(math.cos(0.7), abs=1e-9)

    def test_bad_eps_seq(self):
        g = nl.PeriodicGrid(math.pi, 64)
        u = nl.PeriodicFunction.from_callable(g, np.cos)
        with pytest.raises(nl.DomainError):
            nl.apply_pv(nl.FractionalKernel(0.5), u, 0.0, eps_seq=(1e-3, 1e-2))
        with pytest.raises(nl.DomainError):
            nl.apply_pv(nl.FractionalKernel(0.5), u, 0.0, eps_seq=(10.0, 1.0))

    @pytest.mark.parametrize("eps_seq", [
        (1e-2, 0.0), (1e-2, -1e-3), (0.0,), (-1e-3,),
        (1e-2, math.nan), (math.nan,), (1e-2, math.inf), (math.inf, 1e-3)],
        ids=["zero", "negative", "only-zero", "only-negative",
             "nan", "only-nan", "inf", "leading-inf"])
    def test_eps_seq_entries_must_be_finite_and_positive(self, eps_seq):
        # the panels double up from each eps, which never reaches L from a
        # zero or negative eps, and a NaN eps makes every value NaN
        g = nl.PeriodicGrid(math.pi, 64)
        u = nl.PeriodicFunction.from_callable(g, np.cos)
        with pytest.raises(nl.DomainError):
            nl.apply_pv(nl.FractionalKernel(0.5), u, 0.3, eps_seq=eps_seq)

    def test_indicator_kernel_breakpoint_handling(self):
        # bounded kernel with a wrap jump inside (0, L): PV must still agree
        # with the spectral route
        g = nl.PeriodicGrid(math.pi, 64)
        u = nl.PeriodicFunction.from_callable(g, lambda x: np.cos(x) + 0.4 * np.sin(2 * x))
        k = nl.indicator_kernel(1.3 * math.pi)
        sym = nl.symbol_of_kernel(k, g)
        spec = nl.apply_spectral(sym, u)
        for x in (0.0, 1.1):
            assert nl.apply_pv(k, u, x) == pytest.approx(spec.eval(x), abs=1e-7)


    def test_sinetail_panels_end_at_the_switch_fold(self):
        # the profile jumps at its t = 10 switch, which folds to 4 pi - 10;
        # a panel straddling that point reads 7.2e-9 of the scale
        g = nl.PeriodicGrid(math.pi, 64)
        u = nl.PeriodicFunction.from_callable(
            g, lambda x: np.exp(np.cos(x)) + 0.3 * np.sin(3 * x))
        k = nl.SineTailKernel(0.5)
        wk = nl.wrap_kernel(k, math.pi)
        assert wk.breakpoints == pytest.approx((4 * math.pi - 10,))
        spec = nl.apply_spectral(nl.symbol_of_kernel(k, g), u)
        tol = 1e-9 * np.max(np.abs(spec.samples))
        for x in (0.0, 0.7, 2.0, -1.3):
            assert nl.apply_pv(k, u, x, wrapped=wk) == pytest.approx(spec.eval(x), abs=tol)


class TestPVRule:
    """The panels and cos table that _pv_fold caches per
    (L, N/2 + 1, eps_seq, breakpoints)."""

    @staticmethod
    def setup_case():
        g = nl.PeriodicGrid(math.pi, 64)
        u = band_limited(g, np.random.default_rng(3))
        kernel = nl.CompactKernel([1e-3, 0.5, 1.5], [1.0, 0.6, 0.0], s=0.5)
        return u, kernel, nl.wrap_kernel(kernel, math.pi)

    @staticmethod
    def clear():
        op._pv_rule.cache_clear()
        op._pv_panels.cache_clear()

    def test_cold_and_warm_cache_agree_bitwise(self):
        u, kernel, wk = self.setup_case()
        nl.apply_pv(kernel, u, 0.3, wrapped=wk)
        warm = [nl.apply_pv(kernel, u, x, wrapped=wk) for x in (-2.0, 0.3, 1.7)]
        warm_grid = op._pv_fold(u, u.grid.nodes, wk, wk.breakpoints, op.DEFAULT_EPS_SEQ)
        cold = []
        for x in (-2.0, 0.3, 1.7):
            self.clear()
            cold.append(nl.apply_pv(kernel, u, x, wrapped=wk))
        self.clear()
        cold_grid = op._pv_fold(u, u.grid.nodes, wk, wk.breakpoints, op.DEFAULT_EPS_SEQ)
        assert warm == cold
        assert np.array_equal(warm_grid, cold_grid)

    def test_list_eps_seq_matches_tuple(self):
        u, kernel, wk = self.setup_case()
        eps = [2e-2, 2e-3, 2e-4]
        assert (nl.apply_pv(kernel, u, 0.3, eps_seq=eps, wrapped=wk)
                == nl.apply_pv(kernel, u, 0.3, eps_seq=tuple(eps), wrapped=wk))

    def test_cached_arrays_are_read_only(self):
        zs, w, cuts, cos_large = op._pv_rule(math.pi, 33, op.DEFAULT_EPS_SEQ, (0.5,))
        for a in (zs, w, cos_large):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
        # each rule's nodes ascend, and its small-z prefix ends at z_switch
        assert [c[0] for c in cuts] == [0, *(c[2] for c in cuts[:-1])]
        assert cuts[-1][2] == zs.size
        large = np.concatenate([zs[b:c] for _, b, c in cuts])
        assert cos_large.shape == (large.size, 33)
        for start, switch, stop in cuts:
            assert np.all(np.diff(zs[start:stop]) > 0)
            assert zs[switch - 1] < 1e-3 * math.pi <= zs[switch]

    def test_cache_is_bounded(self):
        for i in range(op.PV_RULE_CACHE + 5):
            op._pv_rule(math.pi, 17, (1e-2 / (i + 1),), ())
        for fn in (op._pv_rule, op._pv_panels):
            info = fn.cache_info()
            assert info.maxsize == op.PV_RULE_CACHE
            assert info.currsize <= info.maxsize

    def test_kbar_called_once_per_block(self):
        u, kernel, wk = self.setup_case()
        sizes = []

        def counting(z):
            sizes.append(np.size(z))
            return wk(z)

        op._pv_fold(u, [0.3], counting, wk.breakpoints, op.DEFAULT_EPS_SEQ)
        assert len(sizes) == 1
        xs = np.linspace(-math.pi, math.pi, 2 * EVAL_BLOCK + 1, endpoint=False)
        sizes.clear()
        op._pv_fold(u, xs, counting, wk.breakpoints, op.DEFAULT_EPS_SEQ)
        # every call takes the nodes of all three eps rules at once
        zs = op._pv_rule(math.pi, 33, op.DEFAULT_EPS_SEQ, wk.breakpoints)[0]
        assert sizes == [zs.size] * 3

    def test_circle_half_laplacian_shares_the_plan(self):
        # the chord kernel has no breakpoints, like the fractional kernel
        g = nl.PeriodicGrid(math.pi, 64)
        u = nl.PeriodicFunction.from_callable(g, np.cos)
        nl.apply_pv(nl.FractionalKernel(0.5), u, 0.3)
        hits = op._pv_rule.cache_info().hits
        nl.half_lap_pv_circle(u, 0.3)
        assert op._pv_rule.cache_info().hits == hits + 1


class TestBilinearForm:
    def test_symmetry_and_consistency(self):
        g = nl.PeriodicGrid(math.pi, 64)
        rng = np.random.default_rng(2)
        u, psi = band_limited(g, rng), band_limited(g, rng)
        sym = nl.symbol_of_kernel(nl.FractionalKernel(0.5), g)
        assert nl.bilinear_fourier(sym, u, psi) == pytest.approx(
            nl.bilinear_fourier(sym, psi, u), rel=1e-12)

    def test_integrate_by_parts(self):
        # lhs int u (L psi) via PV quadrature vs rhs Fourier bilinear form
        g = nl.PeriodicGrid(math.pi, 32)
        u = nl.PeriodicFunction.from_callable(g, lambda x: np.cos(x) + 0.3 * np.sin(2 * x))
        psi = nl.PeriodicFunction.from_callable(g, lambda x: np.sin(x) - 0.2 * np.cos(3 * x))
        gap = nl.integrate_by_parts_check(nl.FractionalKernel(0.5), u, psi)
        assert gap < 1e-8


def test_no_adaptive_quadrature_outside_custom_kernels(monkeypatch):
    # every shipped family but custom/indicator tabulates its symbol, and
    # SineTail wraps and classifies, without a single scipy quad call
    def refuse(*args, **kwargs):
        raise AssertionError("adaptive quadrature called")

    monkeypatch.setattr(nl.kernels.integrate, "quad", refuse)
    grid = nl.PeriodicGrid(math.pi, 64)
    dk = nl.DelaunayKernel(2, 0.5, 1.0)
    st = nl.SineTailKernel(0.5)
    for k in (nl.FractionalKernel(0.5), dk,
              nl.CompactKernel([1e-3, 0.5, 1.5], [1.0, 0.6, 0.0], s=0.5),
              nl.laplace_measure_of(dk), st):
        nl.symbol_of_kernel(k, grid)
    for k in (dk, st):
        nl.wrap_kernel(k, math.pi)
        nl.classify_kernel(k)
