import math
import warnings

import numpy as np
import pytest
from scipy import integrate

import nonlocper as nl
from _oracles import cosine_normalization
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
        assert sym.values[5] == 5.0

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
    """Each closed form against the quadrature route of symbol_value."""

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

    @pytest.mark.parametrize("n", [16, 64])
    def test_custom_on_a_support(self, n):
        # the bench's 64-knot compact profile as a custom kernel: symbol_value
        # integrates it adaptively on its support, against the closed form
        tt = np.linspace(1e-3, 0.6 * math.pi, 64)
        compact = nl.CompactKernel(tt, 1.0 - tt / (0.6 * math.pi), s=0.5)
        custom = nl.CustomKernel(compact.profile, s=0.5, support=compact.support)
        grid = nl.PeriodicGrid(math.pi, n)
        quad = nl.symbol_of_kernel(custom, grid)
        assert quad.provenance == "quadrature"
        assert _max_rel(quad.values, nl.symbol_of_kernel(compact, grid).values) < 1e-10

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


_LINEAR_T = np.linspace(1e-3, 0.6 * math.pi, 64)
_SMOOTH = {
    "fraclap": nl.FractionalKernel(0.5),
    "delaunay": nl.DelaunayKernel(2, 0.5, 1.0),
    "laplace-of-delaunay": nl.laplace_measure_of(nl.DelaunayKernel(2, 0.5, 1.0)),
    "compact": nl.CompactKernel(_LINEAR_T, 1.0 - _LINEAR_T / (0.6 * math.pi), s=0.5),
    "indicator": nl.indicator_kernel(1.3 * math.pi),
}


class TestFixedSymbolRule:
    """symbol_value takes one fixed rule for the families with a smooth,
    non-oscillating profile, and adaptive quadrature for the rest."""

    @staticmethod
    def adaptive_calls(monkeypatch):
        calls = []
        monkeypatch.setattr(op, "_adaptive_value", lambda kernel, xi: calls.append(xi) or 1.0)
        return calls

    @pytest.mark.parametrize("kernel", [
        nl.SineTailKernel(0.5),
        nl.CustomKernel(lambda t: 1.0 / (1.0 + t * t), s=0.5, Lambda_hi=1.0)],
        ids=["sinetail", "custom"])
    def test_other_families_integrate_every_frequency_adaptively(self, kernel, monkeypatch):
        # the fixed rule's error estimate cannot see a profile that oscillates
        calls = self.adaptive_calls(monkeypatch)
        grid = nl.PeriodicGrid(math.pi, 64)
        nl.symbol_of_kernel(kernel, grid, force_quadrature=True)
        assert calls == list(grid.frequencies()[1:])

    @pytest.mark.parametrize("n", [64, 1024])
    @pytest.mark.parametrize("name", _SMOOTH)
    def test_smooth_families_take_the_fixed_rule(self, name, n, monkeypatch):
        calls = self.adaptive_calls(monkeypatch)
        kernel = _SMOOTH[name]
        exact, quad = _symbol_routes(kernel, n=n)
        assert calls == []
        assert _max_rel(quad.values, exact.values) < 1e-12

    def test_scalar_and_even(self):
        k = nl.DelaunayKernel(2, 0.5, 1.0)
        v = op.symbol_value(k, 3.0)
        assert type(v) is float
        assert op.symbol_value(k, -3.0) == v
        table = op.symbol_value(k, np.array([[-3.0, 0.0, 3.0]]))
        assert table.shape == (1, 3)
        assert table[0, 0] == table[0, 2] == pytest.approx(v, rel=1e-14)
        assert table[0, 1] == 0.0


class TestNormalization:
    @pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
    def test_equals_reciprocal_constant(self, s):
        assert cosine_normalization(s) == pytest.approx(
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


def _tabulated_laplace():
    r = np.geomspace(1e-2, 1e2, 50)
    return nl.LaplaceKernel(r, np.exp(-r), s=0.5)


def _lorentzian(height):
    """A custom kernel height/(1 + t^2) whose growth data do not depend on
    the height: two heights differ only in their profiles."""
    return lambda: nl.CustomKernel(lambda t: height / (1.0 + t * t), s=0.5, Lambda_hi=5.0)


class TestWrappedMustWrapTheKernel:
    """apply_pv and polya_szego_check take a kernel and its wrap; a wrap of
    another kernel is rejected instead of silently used."""

    @pytest.mark.parametrize("check", ["apply_pv", "polya_szego_check"])
    @pytest.mark.parametrize("given,wrapped", [
        (lambda: nl.FractionalKernel(0.2), lambda: nl.FractionalKernel(0.8)),
        (lambda: nl.FractionalKernel(0.5), lambda: nl.DelaunayKernel(2, 0.5, 1.0)),
        # two LaplaceKernels built alike: their == raises on the array fields
        (_tabulated_laplace, _tabulated_laplace),
        # equal s, bounds and support: only the profiles tell them apart
        (_lorentzian(1.0), _lorentzian(5.0)),
    ], ids=["fraclap-other-s", "other-family", "equality-raises", "custom-other-profile"])
    def test_mismatch_raises(self, check, given, wrapped):
        u = nl.PeriodicFunction.from_callable(nl.PeriodicGrid(math.pi, 32),
                                              lambda x: 1.0 + np.cos(x))
        wk = nl.wrap_kernel(wrapped(), math.pi)
        args = (u, 0.3) if check == "apply_pv" else (u,)
        with pytest.raises(nl.DomainError, match="wrapped="):
            getattr(nl, check)(given(), *args, wrapped=wk)

    @pytest.mark.parametrize("check", ["apply_pv", "polya_szego_check"])
    def test_same_or_equal_kernel_accepted(self, check):
        u = nl.PeriodicFunction.from_callable(nl.PeriodicGrid(math.pi, 32),
                                              lambda x: 1.0 + np.cos(x))
        args = (u, 0.3) if check == "apply_pv" else (u,)
        laplace = _tabulated_laplace()
        custom = _lorentzian(1.0)()
        for given, wrapped in ((laplace, laplace), (custom, custom),
                               (nl.FractionalKernel(0.2), nl.FractionalKernel(0.2))):
            wk = nl.wrap_kernel(wrapped, math.pi)
            assert getattr(nl, check)(given, *args, wrapped=wk) == \
                getattr(nl, check)(given, *args)


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

    def test_half_period_below_the_first_eps(self):
        # the pivots scale with L: at L = 5e-3 the first rule starts at
        # 1e-2 L/pi, and (-Delta)^(1/2) cos(pi x/L) = (pi/L) cos(pi x/L)
        L = 5e-3
        g = nl.PeriodicGrid(L, 64)
        u = nl.PeriodicFunction.from_callable(g, lambda x: np.cos(np.pi * x / L))
        for x in (0.0, 0.3 * L):
            assert nl.apply_pv(nl.FractionalKernel(0.5), u, x) == pytest.approx(
                np.pi / L * math.cos(np.pi * x / L), rel=1e-12, abs=1e-12 * np.pi / L)

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


    @pytest.mark.parametrize("L", [1e65, 1e99])
    def test_overflowing_moments_raise(self, L):
        # the moments sum wk z^6 below z_switch = 1e-3 L overflow; a NaN
        # spread passed the stability check, and the value came back NaN
        g = nl.PeriodicGrid(L, 64)
        u = nl.PeriodicFunction.from_callable(g, lambda x: np.exp(np.cos(np.pi * x / L)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(nl.IntegrationError, match="moments overflow"):
                nl.apply_pv(nl.FractionalKernel(0.5), u, 0.3 * L)

    def test_non_finite_value_raises(self):
        # finite moments, yet an infinite kbar beyond z = 1 leaves every
        # estimate inf or NaN, whose spread no comparison rejects
        g = nl.PeriodicGrid(math.pi, 64)
        u = nl.PeriodicFunction.from_callable(g, np.cos)
        kbar = lambda z: np.where(z > 1.0, np.inf, 1.0)  # noqa: E731
        with np.errstate(invalid="ignore"):
            with pytest.raises(nl.IntegrationError, match="unstable"):
                op._pv_fold(u, [0.3], kbar, (), 0.5)

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


# |PV - spectral| / max|spectral| at the grid nodes of L = pi, N = 64 and
# 256, for u = cos x + 0.3 sin 2x + 0.2 cos 5x + 0.1 sin 8x.  The bounds sit
# above what the rule reads (1.8e-14 at fraclap 0.05, 5.4e-14 at 0.5, 4.5e-13
# at 0.8, 5.7e-13 at 0.9, 4.6e-13 at 0.95, 2.3e-15 for Delaunay, 1.5e-15 for
# the compact table, 8.7e-16 for the indicator, 2.1e-10 for SineTail, whose
# wrap sets it).  The rule that graded 120 levels toward 0 and dropped the
# rest read 1.1e-8 at s = 0.9 and raised IntegrationError at s = 0.95.
_BENCH_T = np.linspace(1e-3, 0.6 * math.pi, 64)
PV_ACCURACY = {
    "fraclap-0.05": (nl.FractionalKernel(0.05), 1e-13),
    "fraclap-0.2": (nl.FractionalKernel(0.2), 1e-13),
    "fraclap-0.5": (nl.FractionalKernel(0.5), 2e-13),
    "fraclap-0.8": (nl.FractionalKernel(0.8), 1e-12),
    "fraclap-0.9": (nl.FractionalKernel(0.9), 1e-12),
    "fraclap-0.95": (nl.FractionalKernel(0.95), 1e-12),
    "delaunay": (nl.DelaunayKernel(2, 0.5, 1.0), 1e-14),
    "compact": (nl.CompactKernel(_BENCH_T, 1.0 - _BENCH_T / (0.6 * math.pi), s=0.5), 1e-14),
    "indicator": (nl.indicator_kernel(1.3 * math.pi), 1e-14),
    "sinetail": (nl.SineTailKernel(0.5), 5e-10),
}


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("name", list(PV_ACCURACY))
def test_pv_accuracy_matrix(name, n):
    kernel, bound = PV_ACCURACY[name]
    g = nl.PeriodicGrid(math.pi, n)
    u = nl.PeriodicFunction.from_callable(
        g, lambda x: np.cos(x) + 0.3 * np.sin(2 * x) + 0.2 * np.cos(5 * x) + 0.1 * np.sin(8 * x))
    spec = nl.apply_spectral(nl.symbol_of_kernel(kernel, g), u).samples
    pv = nl.apply_pv_grid(kernel, u).samples
    assert np.max(np.abs(pv - spec)) / np.max(np.abs(spec)) <= bound


def test_pv_names_the_order_and_node_where_the_kernel_overflows():
    # at s = 0.99 the power-substitution panel's smallest node is about
    # 1.5e-131, where z^(-1-2s) overflows; the half period is not to blame
    g = nl.PeriodicGrid(math.pi, 64)
    u = nl.PeriodicFunction.from_callable(g, np.cos)
    with pytest.raises(nl.IntegrationError, match=r"order s = 0\.99 .* node z = 1\.5\de-131"):
        nl.apply_pv(nl.FractionalKernel(0.99), u, 0.3)
    assert nl.apply_pv(nl.FractionalKernel(0.98), u, 0.3) == pytest.approx(
        math.cos(0.3), abs=1e-12)


def scaled_compact(L):
    t = np.array([1e-3, 0.5, 1.5]) * (L / math.pi)
    return nl.CompactKernel(t, [1.0, 0.6, 0.0], s=0.5)


# |PV - spectral| / max|spectral| at N = 64 for modes <= 6 reads 2e-16 to
# 7.8e-14 at every half period: the plan has no preferred length
@pytest.mark.parametrize("L", [1e-6, 1e-3, 5e-3, 0.5, math.pi, 50.0, 1e4])
@pytest.mark.parametrize("name", ["fraclap-0.3", "fraclap-0.8", "delaunay", "compact"])
def test_pv_matches_spectral_at_every_half_period(name, L):
    kernel = {"fraclap-0.3": nl.FractionalKernel(0.3), "fraclap-0.8": nl.FractionalKernel(0.8),
              "delaunay": nl.DelaunayKernel(2, 0.5, 1.0), "compact": scaled_compact(L)}[name]
    g = nl.PeriodicGrid(L, 64)
    rng = np.random.default_rng(1)
    u = band_limited(g, rng, k_max=6)
    spec = nl.apply_spectral(nl.symbol_of_kernel(kernel, g), u)
    tol = 5e-13 * np.max(np.abs(spec.samples))
    assert np.max(np.abs(nl.apply_pv_grid(kernel, u).samples - spec.samples)) <= tol
    wk = nl.wrap_kernel(kernel, L)
    xs = rng.uniform(-L, L, 4)
    pts = [nl.apply_pv(kernel, u, x, wrapped=wk) for x in xs]
    assert np.max(np.abs(pts - spec.eval(xs))) <= tol


@pytest.mark.parametrize("L", [1e-3, 0.05, 2.0, 40.0])
@pytest.mark.parametrize("s", [0.3, 0.8])
def test_fractional_pv_scales_with_the_half_period(s, L):
    # u(x) = f(pi x/L) on (-L, L): the operator of order s gives
    # (pi/L)^(2s) times its value for f on (-pi, pi) at the mapped point
    def f(y):
        return np.cos(y) + 0.3 * np.sin(2 * y) + 0.2 * np.cos(5 * y)

    kernel = nl.FractionalKernel(s)
    ys = np.array([-2.0, 0.3, 1.7, 2.9])
    ref = nl.PeriodicFunction.from_callable(nl.PeriodicGrid(math.pi, 64), f)
    u = nl.PeriodicFunction.from_callable(nl.PeriodicGrid(L, 64), lambda x: f(np.pi * x / L))
    want = (math.pi / L) ** (2 * s) * np.array([nl.apply_pv(kernel, ref, y) for y in ys])
    got = np.array([nl.apply_pv(kernel, u, y * L / math.pi) for y in ys])
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


class TestPVRule:
    """The PV plan in two tiers, in one store capped in bytes: the s-free
    tier (Taylor columns and cos table) per (L, N/2 + 1, breakpoints) and
    the s tier (nodes, weights, moment powers) per (L, breakpoints, s)."""

    @staticmethod
    def setup_case():
        g = nl.PeriodicGrid(math.pi, 64)
        u = band_limited(g, np.random.default_rng(3))
        kernel = nl.CompactKernel([1e-3, 0.5, 1.5], [1.0, 0.6, 0.0], s=0.5)
        return u, kernel, nl.wrap_kernel(kernel, math.pi)

    @staticmethod
    def clear():
        op._PV_PLANS.clear()

    @staticmethod
    def plan_kinds():
        return sorted(key[0].__name__ for key in op._PV_PLANS)

    def test_cold_and_warm_cache_agree_bitwise(self):
        u, kernel, wk = self.setup_case()
        nl.apply_pv(kernel, u, 0.3, wrapped=wk)
        warm = [nl.apply_pv(kernel, u, x, wrapped=wk) for x in (-2.0, 0.3, 1.7)]
        warm_grid = op._pv_fold(u, u.grid.nodes, wk, wk.breakpoints, kernel.s)
        cold = []
        for x in (-2.0, 0.3, 1.7):
            self.clear()
            cold.append(nl.apply_pv(kernel, u, x, wrapped=wk))
        self.clear()
        cold_grid = op._pv_fold(u, u.grid.nodes, wk, wk.breakpoints, kernel.s)
        assert warm == cold
        assert np.array_equal(warm_grid, cold_grid)

    def test_cached_arrays_are_read_only(self):
        taylor, cos_large = op._pv_plan(op._pv_free, math.pi, 33, (0.5,))
        zs, weights, n_small, powers = op._pv_plan(op._pv_rule, math.pi, (0.5,), 0.5)
        for a in (taylor, cos_large, zs, weights, powers):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
        # the nodes below z_switch, then the direct ones, each part rule
        # after rule; one row of weights per rule, nonzero on its nodes alone
        direct = zs[n_small:]
        assert weights.shape == (len(op.PV_EPS_SEQ), zs.size)
        assert np.all(np.count_nonzero(weights, axis=0) == 1)
        rule = np.argmax(weights != 0.0, axis=0)
        assert np.all(np.diff(rule[:n_small]) >= 0) and np.all(np.diff(rule[n_small:]) >= 0)
        assert taylor.shape == (33, 3) and cos_large.shape == (direct.size, 33)
        assert np.all(zs[:n_small] < 1e-3 * math.pi) and np.all(direct >= 1e-3 * math.pi)
        # each rule's nodes ascend in both parts
        for row in weights != 0.0:
            for part in (zs[:n_small][row[:n_small]], direct[row[n_small:]]):
                assert part.size and np.all(np.diff(part) > 0)
        # one row per node below z_switch, one column per power 1, z^2, z^4
        z2 = zs[:n_small] ** 2
        assert powers.shape == (n_small, 3)
        assert np.array_equal(powers, np.column_stack([np.ones(n_small), z2, z2 * z2]))

    @pytest.mark.parametrize("L", [1e-6, 5e-3, 2.0, 1e4])
    def test_plan_without_breakpoints_is_a_dilation(self, L):
        # the pivots eps L/pi scale with L like z_switch and the panels
        # above them, so the nodes and weights are those at L = pi, times L/pi
        zs, weights, n_small, _ = op._pv_rule(L, (), 0.5)
        zp, wp, n_pi, _ = op._pv_rule(math.pi, (), 0.5)
        assert n_small == n_pi and zs.size == zp.size == 924
        assert np.allclose(zs, zp * (L / math.pi), rtol=1e-13, atol=0.0)
        assert np.allclose(weights, wp * (L / math.pi), rtol=1e-13, atol=0.0)

    def test_cache_is_bounded(self, monkeypatch):
        # at N = 256 the s-free tier takes 0.39 MB and an s tier 43 kB: the
        # cap holds the s-free tier, in use on every call, and the newest 11 orders
        self.clear()
        free = sum(a.nbytes for a in op._pv_free(math.pi, 129, ()))
        tier = sum(a.nbytes for a in op._pv_rule(math.pi, (), 0.5) if isinstance(a, np.ndarray))
        monkeypatch.setattr(op, "PV_PLAN_BYTES", free + 11 * tier + tier // 2)
        u = nl.PeriodicFunction.from_callable(nl.PeriodicGrid(math.pi, 256), np.cos)
        for s in np.linspace(0.1, 0.9, 13):
            op._pv_fold(u, [0.3], nl.FractionalKernel(s), (), s)
            sizes = [a.nbytes for plan in op._PV_PLANS.values() for a in plan
                     if isinstance(a, np.ndarray)]
            assert sum(sizes) <= op.PV_PLAN_BYTES
        assert self.plan_kinds().count("_pv_free") == 1
        assert len(op._PV_PLANS) == 12
        # the newest order is kept, the first is gone
        assert (op._pv_rule, math.pi, (), 0.9) in op._PV_PLANS
        assert (op._pv_rule, math.pi, (), 0.1) not in op._PV_PLANS
        # a plan over the cap is kept, alone
        monkeypatch.setattr(op, "PV_PLAN_BYTES", 1 << 16)
        op._pv_plan(op._pv_free, math.pi, 257, ())
        assert list(op._PV_PLANS) == [(op._pv_free, math.pi, 257, ())]
        self.clear()

    def test_sixteen_orders_build_one_s_free_tier(self, monkeypatch):
        # with one plan per (L, N, breakpoints, s) in 8 slots, a ninth order
        # in a loop missed on every call and rebuilt its cos table
        self.clear()
        builds = []
        for name in ("_pv_free", "_pv_rule"):
            def counting(*key, build=getattr(op, name)):
                builds.append(build.__name__)
                return build(*key)
            monkeypatch.setattr(op, name, counting)
        g = nl.PeriodicGrid(math.pi, 256)
        u = band_limited(g, np.random.default_rng(4))
        kernels = [nl.FractionalKernel(s) for s in np.linspace(0.1, 0.85, 16)]
        wrapped = [nl.wrap_kernel(k, math.pi) for k in kernels]
        for _ in range(3):
            for k, wk in zip(kernels, wrapped):
                nl.apply_pv(k, u, 0.3, wrapped=wk)
        # built once each, and nothing evicted
        assert builds.count("_pv_free") == 1 and builds.count("_pv_rule") == 16
        assert len(op._PV_PLANS) == 17
        self.clear()

    def test_kbar_called_once_per_call(self):
        u, kernel, wk = self.setup_case()
        sizes = []

        def counting(z):
            sizes.append(np.size(z))
            return wk(z)

        op._pv_fold(u, [0.3], counting, wk.breakpoints, kernel.s)
        assert len(sizes) == 1
        xs = np.linspace(-math.pi, math.pi, 2 * EVAL_BLOCK + 1, endpoint=False)
        sizes.clear()
        op._pv_fold(u, xs, counting, wk.breakpoints, kernel.s)
        # one call for all three blocks, on the nodes of all three eps rules
        zs = op._pv_rule(math.pi, wk.breakpoints, kernel.s)[0]
        assert sizes == [zs.size]
        sizes.clear()
        op._pv_fold_grid(u, counting, wk.breakpoints, kernel.s)
        assert sizes == [zs.size]

    def test_kbar_sees_924_nodes_per_call(self):
        # 20 nodes on (0, eps 2^-12) and 12 per graded panel above, for each
        # of the three eps rules: 924 at L = pi; 120 levels of grading took 4752
        u = self.setup_case()[0]
        for kern in (nl.FractionalKernel(0.5), nl.FractionalKernel(0.95)):
            wk = nl.wrap_kernel(kern, math.pi)
            sizes = []

            def counting(z):
                sizes.append(np.size(z))
                return wk(z)

            op._pv_fold(u, [0.3], counting, wk.breakpoints, kern.s)
            assert sizes == [924]

    def test_kernel_orders_get_their_own_plans(self):
        g = nl.PeriodicGrid(math.pi, 64)
        u = nl.PeriodicFunction.from_callable(g, np.cos)
        self.clear()
        for s in (0.3, 0.7, 0.3):
            nl.apply_pv(nl.FractionalKernel(s), u, 0.3)
        # one s-free tier, one s tier per order
        assert self.plan_kinds() == ["_pv_free", "_pv_rule", "_pv_rule"]
        z3 = op._pv_rule(math.pi, (), 0.3)[0]
        z7 = op._pv_rule(math.pi, (), 0.7)[0]
        assert z3.size == z7.size and z3[0] != z7[0]

    def test_circle_half_laplacian_shares_the_plan(self):
        # the chord kernel has no breakpoints, like the fractional kernel
        g = nl.PeriodicGrid(math.pi, 64)
        u = nl.PeriodicFunction.from_callable(g, np.cos)
        nl.apply_pv(nl.FractionalKernel(0.5), u, 0.3)
        keys = list(op._PV_PLANS)
        nl.half_lap_pv_circle(u, 0.3)
        assert sorted(op._PV_PLANS, key=keys.index) == keys


class TestPVGrid:
    """apply_pv_grid evaluates u(x + z) + u(x - z) at every node by inverse
    FFTs, on the point route's plan, moments and checks."""

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("name", ["fraclap-0.2", "fraclap-0.5", "delaunay", "compact",
                                      "indicator"])
    def test_equals_apply_pv_at_every_node(self, name, n):
        kernel = PV_ACCURACY[name][0]
        g = nl.PeriodicGrid(math.pi, n)
        u = band_limited(g, np.random.default_rng(n))
        wk = nl.wrap_kernel(kernel, math.pi)
        spec = nl.apply_spectral(nl.symbol_of_kernel(kernel, g), u).samples
        grid = nl.apply_pv_grid(kernel, u).samples
        points = np.array([nl.apply_pv(kernel, u, x, wrapped=wk) for x in g.nodes])
        assert np.max(np.abs(grid - points)) <= 1e-13 * np.max(np.abs(spec))

    def test_n4096_agrees_with_spectral_in_bounded_memory(self):
        # README: an N = 4096 call at L = pi holds the 6.2 MB plan and one
        # node block; with the wrap it peaks below 7.5 MB (6.8 MB measured)
        import tracemalloc

        g = nl.PeriodicGrid(math.pi, 4096)
        u = band_limited(g, np.random.default_rng(7))
        kernel = nl.FractionalKernel(0.3)
        spec = nl.apply_spectral(nl.symbol_of_kernel(kernel, g), u).samples
        op._PV_PLANS.clear()
        tracemalloc.start()
        try:
            pv = nl.apply_pv_grid(kernel, u).samples
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.max(np.abs(pv - spec)) <= 1e-12 * np.max(np.abs(spec))
        assert peak < 7.5e6
        op._PV_PLANS.clear()

    def test_unresolved_mode_is_named(self):
        # cos 24x at N = 64: the panels above z_switch do not resolve it
        g = nl.PeriodicGrid(math.pi, 64)
        u = nl.PeriodicFunction.from_callable(g, lambda x: np.cos(24 * x))
        for apply in (lambda k: nl.apply_pv_grid(k, u), lambda k: nl.apply_pv(k, u, 0.3)):
            with pytest.raises(nl.IntegrationError,
                               match=r"unstable .* spread by .* PV_STABILITY_TOL = 1e-06; "
                                     r"u has modes up to k = 24 "):
                apply(nl.FractionalKernel(0.5))


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
        kernel = nl.FractionalKernel(0.5)
        lhs = g.spacing * float(np.sum(u.samples * nl.apply_pv_grid(kernel, psi).samples))
        rhs = nl.bilinear_fourier(nl.symbol_of_kernel(kernel, g), u, psi)
        assert abs(lhs - rhs) < 1e-8


def test_no_adaptive_quadrature_outside_custom_kernels(monkeypatch):
    # every shipped family but custom/indicator tabulates its symbol, and
    # Delaunay, SineTail and a custom kernel wrap and classify, without a
    # single scipy quad call
    def refuse(*args, **kwargs):
        raise AssertionError("adaptive quadrature called")

    monkeypatch.setattr(integrate, "quad", refuse)
    grid = nl.PeriodicGrid(math.pi, 64)
    dk = nl.DelaunayKernel(2, 0.5, 1.0)
    st = nl.SineTailKernel(0.5)
    for k in (nl.FractionalKernel(0.5), dk,
              nl.CompactKernel([1e-3, 0.5, 1.5], [1.0, 0.6, 0.0], s=0.5),
              nl.laplace_measure_of(dk), st):
        nl.symbol_of_kernel(k, grid)
    for k in (dk, st, nl.CustomKernel(dk.profile, s=0.5, Lambda_hi=dk.Lambda_hi)):
        nl.wrap_kernel(k, math.pi)
        nl.classify_kernel(k)
