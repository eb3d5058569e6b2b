import functools
import math

import numpy as np
import pytest
from scipy import integrate

import nonlocper as nl
from nonlocper.energy import _cell_weights, _diagonal_cell


def grid(N=256, L=math.pi):
    return nl.PeriodicGrid(L, N)


class TestNonlinearities:
    def test_polynomial_consistency(self):
        # g = G' against central finite differences at random points
        nlty = nl.polynomial_nonlinearity([0.0, 0.0, 0.5, 1.0 / 3.0])
        pts = np.random.default_rng(0).uniform(-3.0, 3.0, 100)
        eh = 1e-6
        fd = (nlty.G(pts + eh) - nlty.G(pts - eh)) / (2 * eh)
        assert np.max(np.abs(fd - nlty.g(pts))) < 1e-7

    def test_benjamin_ono_values(self):
        nlty = nl.benjamin_ono_type(2.0)
        # G(u) = -u^2/2, Gtilde(u) = |u|^(p+1)/(p+1) with p = 2
        assert nlty.G(2.0) == pytest.approx(-2.0)
        assert nlty.g(2.0) == pytest.approx(-2.0)
        assert nlty.Gt(2.0) == pytest.approx(8.0 / 3.0)
        assert nlty.gt(-2.0) == pytest.approx(-4.0)
        assert nlty.has_constraint()

    def test_power_constraint_requires_p_geq_1(self):
        with pytest.raises(nl.DomainError):
            nl.power_constraint(0.5)

    def test_double_well(self):
        nlty = nl.double_well()
        assert nlty.G(1.0) == pytest.approx(0.25)
        assert nlty.g(1.0) == pytest.approx(0.0)  # critical point of the well
        # -G (the effective potential) has its minima at u = +-1
        assert -nlty.G(1.0) < -nlty.G(0.0)
        assert -nlty.G(1.0) < -nlty.G(2.0)


class TestSeminorm:
    def test_cos_hand_value(self):
        # [cos]_K^2 = pi at L = pi, s = 1/2: 2L sum ell(k)|u_k|^2
        #           = 2 pi * 1 * (1/4 + 1/4) = pi
        g = grid()
        sym = nl.symbol_of_kernel(nl.FractionalKernel(0.5), g)
        u = nl.PeriodicFunction.from_callable(g, np.cos)
        assert nl.seminorm_sq_fourier(sym, u) == pytest.approx(math.pi, rel=1e-12)

    def test_realspace_matches_fourier(self):
        g = grid(N=1024)
        k = nl.FractionalKernel(0.5)
        sym = nl.symbol_of_kernel(k, g)
        wk = nl.wrap_kernel(k, g.half_period, tol=1e-12)
        u = nl.PeriodicFunction.from_callable(
            g, lambda x: np.cos(x) + 0.5 * np.sin(2 * x) + 0.1 * np.cos(5 * x))
        four = nl.seminorm_sq_fourier(sym, u)
        real = nl.seminorm_sq_realspace(wk, u)
        assert abs(real - four) / four < 1e-2

    def test_diagonal_correction_improves(self):
        g = grid(N=512)
        k = nl.FractionalKernel(0.5)
        sym = nl.symbol_of_kernel(k, g)
        wk = nl.wrap_kernel(k, g.half_period, tol=1e-12)
        u = nl.PeriodicFunction.from_callable(g, np.cos)
        four = nl.seminorm_sq_fourier(sym, u)
        with_corr = nl.seminorm_sq_realspace(wk, u)
        without = nl.seminorm_sq_offdiag(wk.grid_values(g.spacing * np.arange(1, g.size)), u)
        assert abs(with_corr - four) < abs(without - four)

    def test_two_bump_exact_finite_sum(self):
        # step input against a bounded kernel: the off-diagonal double sum
        # is a finite sum computable by hand-style brute force
        g = grid(N=64)
        k = nl.indicator_kernel(1.3 * math.pi)
        wk = nl.wrap_kernel(k, g.half_period, tol=1e-12)
        rng = np.random.default_rng(3)
        u = nl.PeriodicFunction(g, rng.uniform(0, 1, g.size))
        kbar = wk.grid_values(g.spacing * np.arange(1, g.size))
        h = g.spacing
        brute = 0.0
        for i in range(g.size):
            for j in range(g.size):
                if i != j:
                    d = abs(i - j)
                    d = min(d, g.size - d)
                    brute += 0.5 * h * h * (u.samples[i] - u.samples[j]) ** 2 \
                        * kbar[d - 1]
        assert nl.rearrange.seminorm_sq_offdiag(kbar, u) == pytest.approx(
            brute, rel=1e-12)


_TT = np.linspace(1e-3, 0.6 * math.pi, 64)


class TestDiagonalCell:
    @pytest.mark.parametrize("kernel", [
        nl.FractionalKernel(0.1), nl.FractionalKernel(0.5), nl.FractionalKernel(0.9),
        nl.DelaunayKernel(2, 0.5, 1.0),
        nl.DelaunayKernel(3, 0.2, 0.5), nl.DelaunayKernel(2, 0.95, 1.0),
        nl.CompactKernel(_TT, 1.0 - _TT / (0.6 * math.pi), s=0.5),
        nl.indicator_kernel(1.3 * math.pi), nl.SineTailKernel(0.5)],
        ids=["fraclap-0.1", "fraclap-0.5", "fraclap-0.9", "delaunay-2-0.5-1",
             "delaunay-3-0.2-0.5", "delaunay-2-0.95-1", "compact", "indicator", "sinetail"])
    def test_vs_adaptive_quadrature(self, kernel):
        # the compact table's first knot, 1e-3, is a breakpoint inside the
        # cell; quad is told about it, as the rule is
        wk = nl.wrap_kernel(kernel, math.pi)
        for n in (64, 1024):
            h = 2.0 * math.pi / n
            knots = [b for b in wk.breakpoints if 0.0 < b < h]
            ref, _ = integrate.quad(lambda z: z * z * float(wk(z)), 0.0, h, limit=400,
                                    epsabs=0.0, epsrel=1e-13, points=knots or None)
            assert _diagonal_cell(wk, h) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("s", [0.97, 0.99, 0.999])
    def test_fraclap_near_one(self, s):
        # most of the cell lies at z far below h; the power c z^(1-2s) is
        # integrated in closed form and only the image sum by quadrature
        k = nl.FractionalKernel(s)
        wk = nl.wrap_kernel(k, math.pi)
        for n in (64, 1024):
            h = 2.0 * math.pi / n
            power = k.constant * h ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
            images, _ = integrate.quad(lambda z: z * z * (float(wk(z)) - k(z)), 0.0, h,
                                       epsabs=1e-16 * power, epsrel=1e-13)
            ref = power + images
            assert _diagonal_cell(wk, h) == pytest.approx(ref, rel=1e-13)


class TestEnergyReport:
    def test_total_invariant(self):
        g = grid(N=128)
        sym = nl.symbol_of_kernel(nl.FractionalKernel(0.5), g)
        nlty = nl.benjamin_ono_type(2.0)
        u = nl.PeriodicFunction.from_callable(g, lambda x: 1.0 + np.cos(x))
        rep = nl.energy(u, sym, nlty)
        assert rep.total == pytest.approx(rep.kinetic - rep.potential, rel=1e-13)
        assert rep.constraint_value is not None

    def test_potential_integral_oracle(self):
        g = grid(N=256)
        u = nl.PeriodicFunction.from_callable(g, lambda x: 1.0 + 0.5 * np.cos(x))
        val = nl.potential_integral(u, lambda v: v ** 3)
        brute, _ = integrate.quad(lambda x: (1 + 0.5 * math.cos(x)) ** 3,
                                  -math.pi, math.pi, limit=200)
        assert val == pytest.approx(brute, rel=1e-12)

    def test_gradient_is_el_operator(self):
        # gradient of the Lagrangian is L_K u - g(u)
        g = grid(N=128)
        sym = nl.symbol_of_kernel(nl.FractionalKernel(0.5), g)
        nlty = nl.benjamin_ono_type(2.0)
        u = nl.PeriodicFunction.from_callable(g, lambda x: np.cos(x))
        rep = nl.energy(u, sym, nlty)
        expected = nl.apply_spectral(sym, u).samples + u.samples  # g(u) = -u
        assert np.allclose(rep.gradient.samples, expected, atol=1e-12)

    def test_constraint_value(self):
        g = grid(N=256)
        nlty = nl.power_constraint(2.0)
        u = nl.PeriodicFunction.from_callable(g, np.cos)
        val, var = nl.constraint_value(u, nlty)
        brute, _ = integrate.quad(lambda x: abs(math.cos(x)) ** 3 / 3.0,
                                  -math.pi, math.pi, limit=200)
        assert val == pytest.approx(brute, rel=1e-6)
        assert np.allclose(var.samples,
                           np.abs(u.samples) * u.samples, atol=1e-14)

    def test_no_constraint_raises(self):
        g = grid(N=64)
        u = nl.PeriodicFunction.from_callable(g, np.cos)
        nlty = nl.polynomial_nonlinearity([0.0, 0.0, 1.0])
        with pytest.raises(nl.DomainError):
            nl.constraint_value(u, nlty)


_WEIGHT_KERNELS = {
    "fraclap-0.1": nl.FractionalKernel(0.1), "fraclap-0.5": nl.FractionalKernel(0.5),
    "fraclap-0.9": nl.FractionalKernel(0.9), "delaunay-2-0.5-1": nl.DelaunayKernel(2, 0.5, 1.0),
    "laplace-of-delaunay": nl.laplace_measure_of(nl.DelaunayKernel(2, 0.5, 1.0)),
    "sinetail-0.1": nl.SineTailKernel(0.1), "sinetail-0.5": nl.SineTailKernel(0.5)}
_WEIGHT_PERIODS = {"pi": math.pi, "2": 2.0, "10/3": 10.0 / 3.0}
_WEIGHT_SIZES = (64, 256, 1024, 4096)


@functools.cache
def _wrapped(name: str, period: str) -> nl.WrappedKernel:
    return nl.wrap_kernel(_WEIGHT_KERNELS[name], _WEIGHT_PERIODS[period])


def _sinetail_switch_cell(name: str, period: str, n: int) -> int | None:
    """The distance index d = N/2 (d h = L) where an image (2k+1)L of SineTail
    lands on its t = 10 switch, for L = 2 (k = 2) and L = 10/3 (k = 1)."""
    return n // 2 if name.startswith("sinetail") and period in ("2", "10/3") else None


class TestCellWeights:
    """_cell_weights (the wrap's call table) against grid_values (128 images
    and the Euler-Maclaurin tail summed per distance)."""

    @pytest.mark.parametrize("period", _WEIGHT_PERIODS)
    @pytest.mark.parametrize("name", _WEIGHT_KERNELS)
    def test_within_5e_15_of_the_image_sum(self, name, period):
        wk = _wrapped(name, period)
        for n in _WEIGHT_SIZES:
            g = nl.PeriodicGrid(wk.half_period, n)
            d = np.arange(1, n)
            # the Laplace-of-Delaunay image sum costs about 1 ms a distance,
            # so its reference takes at most 128 distances of each grid
            if name == "laplace-of-delaunay":
                d = d[:: max(1, n // 128)]
            got = _cell_weights(wk, g)[d - 1]
            want = wk.grid_values(g.spacing * d)
            rel = np.abs(got - want) / want
            skip = _sinetail_switch_cell(name, period, n)
            if skip is not None:
                rel = rel[d != skip]
            assert np.max(rel) <= 5e-15, (n, int(d[np.argmax(rel)]))

    @pytest.mark.parametrize("name", ["sinetail-0.1", "sinetail-0.5"])
    @pytest.mark.parametrize("period", ["2", "10/3"])
    def test_sinetail_switch_is_the_one_exception(self, name, period):
        # at d h = L an image (2k+1)L is exactly 10, where the profile jumps
        # by 2e-7 K(10): the image sum and the table take different sides of
        # the jump there; a continuous switch would remove this exception
        wk = _wrapped(name, period)
        rng = np.random.default_rng(28)
        for n in _WEIGHT_SIZES:
            g = nl.PeriodicGrid(wk.half_period, n)
            d = _sinetail_switch_cell(name, period, n)
            got = _cell_weights(wk, g)
            want = wk.grid_values(g.spacing * np.arange(1, n))
            assert 1e-9 < abs(got[d - 1] / want[d - 1] - 1.0) < 1e-8
            u = nl.PeriodicFunction(g, rng.standard_normal(n))
            exact = nl.seminorm_sq_offdiag(want, u)
            assert abs(nl.seminorm_sq_offdiag(got, u) - exact) <= 5e-11 * exact

    @pytest.mark.parametrize("period", _WEIGHT_PERIODS.values(), ids=_WEIGHT_PERIODS.keys())
    @pytest.mark.parametrize("kernel", [
        nl.CompactKernel(_TT, 1.0 - _TT / (0.6 * math.pi), s=0.5),
        nl.indicator_kernel(1.3 * math.pi)], ids=["compact", "indicator"])
    def test_bitwise_the_exact_sum_with_a_support(self, kernel, period):
        wk = nl.wrap_kernel(kernel, period)
        for n in _WEIGHT_SIZES:
            g = nl.PeriodicGrid(period, n)
            assert np.array_equal(_cell_weights(wk, g),
                                  wk.grid_values(g.spacing * np.arange(1, n)))
