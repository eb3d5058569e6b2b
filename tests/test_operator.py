import math

import numpy as np
import pytest
from scipy import integrate

import nonlocper as nl


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
        for x in (-2.0, 0.3, 1.7):
            pv = nl.apply_pv(kernel, u, x, wrapped=wk)
            assert pv == pytest.approx(spec.eval(x), abs=1e-8 * max(
                1.0, np.max(np.abs(spec.samples))))

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
