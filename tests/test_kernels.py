import functools
import math
import time
import warnings

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebder, chebval
from scipy import integrate
from scipy.integrate import IntegrationWarning

import nonlocper as nl
from _oracles import (delaunay_tail, exact_remainder, fraclap_tail, grid_values,
                      sinetail_profile)
from nonlocper import kernels


class TestFracLapConstant:
    def test_half(self):
        # closed form at s = 1/2 is 1/pi
        assert nl.frac_lap_constant(0.5) == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_quarter(self):
        # s 4^s Gamma(1/2+s)/(sqrt(pi) Gamma(1-s)) at s = 1/4:
        # (1/4) sqrt(2) Gamma(3/4) / (sqrt(pi) Gamma(3/4)) = sqrt(2)/(4 sqrt(pi))
        assert nl.frac_lap_constant(0.25) == pytest.approx(
            math.sqrt(2.0) / (4.0 * math.sqrt(math.pi)), rel=1e-14)

    def test_stdlib_gamma_matches_scipy_gamma(self):
        from scipy.special import gamma

        def ref(s):
            return s * 4.0**s * gamma(0.5 + s) / (math.sqrt(math.pi) * gamma(1.0 - s))

        assert nl.frac_lap_constant(0.5) == ref(0.5)
        for s in np.linspace(0.0, 1.0, 2001)[1:-1]:
            assert nl.frac_lap_constant(s) == pytest.approx(ref(s), rel=2e-15, abs=0)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(nl.DomainError):
                nl.frac_lap_constant(bad)


class TestKernelFamilies:
    def test_fraclap_profile(self):
        k = nl.FractionalKernel(0.5)
        t = 2.0
        assert k(t) == pytest.approx(k.constant * t ** -2.0, rel=1e-14)

    def test_positive_argument_required(self):
        k = nl.FractionalKernel(0.5)
        with pytest.raises(nl.DomainError):
            k(0.0)
        with pytest.raises(nl.DomainError):
            k(-1.0)

    def test_fraclap_tail_closed_form(self):
        k = nl.FractionalKernel(0.3)
        a = 1.7
        brute, _ = integrate.quad(lambda t: k(t), a, np.inf)
        assert k.tail_integral(a) == pytest.approx(brute, rel=1e-9)

    def test_delaunay_profile_and_tail(self):
        k = nl.DelaunayKernel(2, 0.5, 1.5)
        assert k(1.0) == pytest.approx((1.0 + 1.5**2) ** -1.25, rel=1e-14)
        brute, _ = integrate.quad(lambda t: k(t), 0.8, np.inf)
        assert k.tail_integral(0.8) == pytest.approx(brute, rel=1e-8)

    def test_delaunay_validation(self):
        with pytest.raises(nl.DomainError):
            nl.DelaunayKernel(1, 0.5, 1.0)
        with pytest.raises(nl.DomainError):
            nl.DelaunayKernel(2, 0.5, -1.0)

    def test_compact_kernel(self):
        tt = np.linspace(0.1, 1.0, 10)
        kk = np.linspace(1.0, 0.0, 10)
        k = nl.CompactKernel(tt, kk, s=0.5)
        assert k.support == pytest.approx(1.0)
        assert k(2.0) == 0.0
        assert k.tail_integral(1.5) == 0.0
        with pytest.raises(nl.DomainError):
            nl.CompactKernel(tt, kk[::-1], s=0.5)  # increasing profile

    def test_indicator_kernel(self):
        k = nl.indicator_kernel(0.7, s=0.5)
        assert k(0.5) == 1.0
        assert k(0.8) == 0.0
        assert k.support == pytest.approx(0.7)

    def test_growth_bounds_respected(self):
        grid = np.geomspace(1e-2, 50.0, 200)
        for k in (nl.FractionalKernel(0.3), nl.SineTailKernel(0.5)):
            env = grid ** (-1.0 - 2.0 * k.s)
            vals = np.array([k(t) for t in grid])
            assert np.all(vals <= k.Lambda_hi * env * (1 + 1e-9))
            assert np.all(vals >= k.lambda_lo * env * (1 - 1e-9))


class TestSineTailKernel:
    """Oracle: sum of exact per-period chunks of the single-integral
    reduction  K(t) = 2 a^{2-p}/((p-1)(p-2)) + int_a^inf (x-a) x^-p sin x dx,
    a = t^2, p = s + 5/2."""

    @staticmethod
    def oracle(s, t, chunks=3000):
        p = s + 2.5
        a = t * t
        tot = 2.0 * a ** (2.0 - p) / ((p - 1.0) * (p - 2.0))
        for k in range(chunks):
            lo = a + 2 * math.pi * k
            v, _ = integrate.quad(
                lambda x: (x - a) * x ** (-p) * math.sin(x),
                lo, lo + 2 * math.pi, limit=50, epsabs=1e-14)
            tot += v
        return tot

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_profile_vs_chunked_oracle(self, s):
        k = nl.SineTailKernel(s)
        for t in (0.5, 1.0, 2.0):
            assert k(t) == pytest.approx(self.oracle(s, t), rel=1e-7)

    def test_large_argument_asymptotic_branch(self):
        # a = t^2 >= 100 uses the closed asymptotic form; the chunked oracle
        # still applies there
        k = nl.SineTailKernel(0.5)
        t = 10.2
        assert k(t) == pytest.approx(self.oracle(0.5, t, chunks=2000), rel=1e-6)

    def test_overflowing_power_part_gives_inf(self):
        # K overflows before t^2 underflows: the sine part is then not added,
        # which would make inf - inf = NaN
        t = np.array([1e-170, 1e-150, 1e-120, 1e-111, 1e-100, 1e-50])
        with np.errstate(over="ignore", divide="ignore"):
            vals = nl.SineTailKernel(0.9).profile(t)
        assert np.all(vals[:4] == np.inf)
        assert np.all(np.isfinite(vals[4:]))

    def test_third_derivative_oscillates(self):
        k = nl.SineTailKernel(0.5)
        tau = np.linspace(1.0, 100.0, 4000)
        signs = np.sign(k.sqrt_profile_third_derivative(tau))
        assert np.count_nonzero(np.diff(signs) != 0) >= 2


class TestLaplaceRepresentations:
    @pytest.mark.parametrize("kernel", [
        nl.FractionalKernel(0.3), nl.FractionalKernel(0.5),
        nl.FractionalKernel(0.7), nl.DelaunayKernel(2, 0.5, 1.0),
        nl.DelaunayKernel(3, 0.25, 0.5)])
    def test_reconstruction(self, kernel):
        lk = nl.laplace_measure_of(kernel)
        ts = np.geomspace(1e-2, 10.0, 40)
        rec = np.array([lk(t) for t in ts])
        ref = np.array([kernel(t) for t in ts])
        assert np.max(np.abs(rec - ref) / np.abs(ref)) < 1e-6

    def test_unsupported(self):
        with pytest.raises(nl.UnsupportedKernelError):
            nl.laplace_measure_of(nl.SineTailKernel(0.5))

    def test_one_node_profile_rejected(self):
        # one node has zero trapezoid weight, so the kernel would vanish
        with pytest.raises(nl.DomainError, match="two r nodes"):
            nl.LaplaceKernel([1.0], [1.0], s=0.5)

    def test_laplace_kernel_direct_oracle(self):
        # K(t) = int e^-r e^{-t^2 r} dr = 1/(1 + t^2), density kappa = e^-r
        r = nl.kernels.DEFAULT_R_GRID
        lk = nl.LaplaceKernel(r, np.exp(-r), s=0.5)
        for t in (0.3, 1.0, 4.0):
            assert lk(t) == pytest.approx(1.0 / (1.0 + t * t), rel=1e-8)


@functools.cache
def _delaunay_and_measure(n, s, a):
    kernel = nl.DelaunayKernel(n, s, a)
    return kernel, nl.laplace_measure_of(kernel)


def _rel(got, ref):
    return float(np.max(np.abs(got - ref) / np.abs(ref)))


@pytest.mark.parametrize("n,s,a", [(2, 0.5, 1.0), (3, 0.2, 0.5), (2, 0.8, 2.0),
                                   (5, 0.9, 0.3), (2, 0.05, 1.0)])
class TestLaplaceOfDelaunay:
    """laplace_measure_of(DelaunayKernel) against the kernel it represents:
    its r grid must reach below the symbol at xi = 1e-5 and the profile at
    t = 1e7, where a cut at r = 1e-14 is 8.8e-3 and 0.62 off."""

    def test_symbol(self, n, s, a):
        kernel, lk = _delaunay_and_measure(n, s, a)
        xi = np.geomspace(1e-5, 3000.0, 200)
        assert _rel(lk.symbol(xi), kernel.symbol(xi)) <= 1e-15

    def test_profile(self, n, s, a):
        kernel, lk = _delaunay_and_measure(n, s, a)
        near = np.geomspace(1e-3, 1e4, 200)
        assert _rel(lk.profile(near), kernel.profile(near)) <= 4e-15
        far = np.geomspace(1e4, 1e7, 100)
        assert _rel(lk.profile(far), kernel.profile(far)) <= 1e-12

    def test_tail_integral(self, n, s, a):
        kernel, lk = _delaunay_and_measure(n, s, a)
        for start in (0.1, 1.0, 10.0, 100.0):
            assert lk.tail_integral(start) == pytest.approx(kernel.tail_integral(start),
                                                            rel=1e-15)

    @pytest.mark.parametrize("L", [math.pi, 2.0, 4.0 * math.pi])
    def test_wrap(self, n, s, a, L):
        kernel, lk = _delaunay_and_measure(n, s, a)
        ts = np.linspace(0.0, L, 1002)[1:]
        assert _rel(nl.wrap_kernel(lk, L)(ts), nl.wrap_kernel(kernel, L)(ts)) <= 4e-15


class TestHeatKernelPhi:
    def test_against_brute_sum(self):
        L, r = math.pi, 0.7
        ks = np.arange(-200, 201)
        for t in (0.2, 1.5, 3.0):
            brute = np.sum(np.exp(-(t + 2 * L * ks) ** 2 * r))
            assert nl.heat_kernel_phi(L, r, t) == pytest.approx(brute, abs=1e-13)

    def test_even_periodic_decreasing(self):
        L, r = 2.0, 0.4
        assert nl.heat_kernel_phi(L, r, 0.9) == pytest.approx(
            nl.heat_kernel_phi(L, r, -0.9), rel=1e-14)
        assert nl.heat_kernel_phi(L, r, 0.9) == pytest.approx(
            nl.heat_kernel_phi(L, r, 0.9 + 2 * L), rel=1e-12)
        ts = np.linspace(1e-3, L, 50)
        vals = nl.heat_kernel_phi(L, r, ts)
        assert np.all(np.diff(vals) < 0)

    @pytest.mark.parametrize("L", [0.3, 2.0, math.pi, 50.0])
    def test_image_sum_and_dual_series_agree_at_the_switch(self, L):
        # r = pi/(2L^2) takes the image sum, the float below it the dual
        r = 0.5 * math.pi / (L * L)
        ts = np.linspace(-3 * L, 3 * L, 201)
        ks = np.arange(-400, 401)
        brute = np.exp(-np.add.outer(ts, 2 * L * ks) ** 2 * r).sum(axis=1)
        for rate in (r, np.nextafter(r, 0.0)):
            vals = nl.heat_kernel_phi(L, rate, ts)
            assert np.max(np.abs(vals - brute) / brute) < 1e-14

    def test_small_rate_stays_small(self):
        # an image sum would take sqrt(log(1e16)/r)/L terms per point here,
        # 1.9e6 (15 GB for these points); the dual series takes one term,
        # and Phi is flat to 1e-14
        ts = np.linspace(-math.pi, math.pi, 1000)
        vals = nl.heat_kernel_phi(math.pi, 1e-12, ts)
        ref = math.sqrt(math.pi / 1e-12) / (2 * math.pi)
        assert np.max(np.abs(vals - ref)) < 1e-14 * ref


class TestWrappedKernel:
    @staticmethod
    def brute_wrap(kernel, L, t, k_max=2 * 10**5):
        """Direct sum plus an integral tail correction from the closed-form
        tail, not from the rule that wrap_kernel uses (the raw sum at this
        k_max is only ~1e-8 accurate for s = 0.5)."""
        tail = {nl.FractionalKernel: fraclap_tail, nl.DelaunayKernel: delaunay_tail}[type(kernel)]
        ks = np.arange(1, k_max + 1)
        tot = kernel(t) if t > 0 else 0.0
        tot += float(np.sum(kernel(2 * ks * L + t)))
        tot += float(np.sum(kernel(np.abs(2 * ks * L - t))))
        edge = 2 * (k_max + 0.5) * L
        tot += (tail(kernel, edge + t) + tail(kernel, edge - t)) / (2 * L)
        return tot

    @pytest.mark.parametrize("kernel", [
        nl.FractionalKernel(0.5), nl.DelaunayKernel(2, 0.5, 1.0)])
    def test_values_vs_brute_sum(self, kernel):
        L = math.pi
        wk = nl.wrap_kernel(kernel, L, tol=1e-12)
        for t in (0.3, 1.2, 2.8):
            # the brute sum's own tail correction limits agreement to ~1e-9
            assert wk(t) == pytest.approx(self.brute_wrap(kernel, L, t), rel=5e-9)

    def test_even_and_periodic(self):
        wk = nl.wrap_kernel(nl.FractionalKernel(0.4), 2.0, tol=1e-12)
        assert wk(0.7) == pytest.approx(wk(-0.7), rel=1e-12)
        assert wk(0.7) == pytest.approx(wk(0.7 + 4.0), rel=1e-10)

    def test_indicator_wrap_values(self):
        # cutoff L + eps: Kbar = 2 on [L-eps, L], 1 on (0, L-eps)
        L = math.pi
        eps = 0.3 * L
        wk = nl.wrap_kernel(nl.indicator_kernel(L + eps), L, tol=1e-12)
        assert wk(0.5 * L) == pytest.approx(1.0, abs=1e-12)
        assert wk(L - 0.5 * eps) == pytest.approx(2.0, abs=1e-12)
        assert wk(L) == pytest.approx(2.0, abs=1e-12)
        assert wk.breakpoints == pytest.approx((L - eps,))

    @pytest.mark.parametrize("support", [0.6, 1.0])
    def test_support_within_half_period_has_no_images(self, support):
        # every image |t +- 2kL| of t in (0, L] is at least L, outside the
        # support, so Kbar is K itself, both from the table and the exact sum
        L = math.pi
        tt = np.linspace(1e-3, support * L, 64)
        kernel = nl.CompactKernel(tt, 1.0 - tt / (support * L), s=0.5)
        wk = nl.wrap_kernel(kernel, L)
        ts = np.linspace(0.0, L, 3001)[1:]
        assert np.array_equal(wk(ts), kernel(ts))
        assert np.array_equal(wk.grid_values(ts), kernel(ts))

    @pytest.mark.parametrize("support, columns", [(1.3, 1), (2.7, 2), (5.5, 5)])
    def test_remainder_profiles_only_images_inside_support(self, monkeypatch,
                                                           support, columns):
        # over t in [0, L], t + 2kL reaches the support only if 2kL < support
        # and 2kL - t only if (2k - 1)L < support: one profile point per such
        # image and remainder point
        L = math.pi
        kernel = nl.indicator_kernel(support * L)
        remainder = nl.kernels._exact_remainder(kernel, L)
        ts = np.linspace(0.0, L, 101)
        brute = sum(kernel(np.abs(ts + 2 * k * L)) for k in (*range(-4, 0), *range(1, 5)))
        points = []
        profile = type(kernel).profile
        monkeypatch.setattr(type(kernel), "profile",
                            lambda self, t: points.append(np.size(t)) or profile(self, t))
        assert np.allclose(remainder(ts), brute, rtol=0.0, atol=1e-15)
        assert sum(points) == columns * ts.size

    def test_monotone_for_fraclap(self):
        wk = nl.wrap_kernel(nl.FractionalKernel(0.5), math.pi, tol=1e-12)
        ts = np.linspace(0.05, math.pi, 200)
        vals = wk.grid_values(ts)
        assert np.all(np.diff(vals) < 0)

    @pytest.mark.parametrize("kernel, L, rtol", [
        (nl.FractionalKernel(0.1), math.pi, 1e-13),
        (nl.FractionalKernel(0.5), math.pi, 1e-13),
        (nl.FractionalKernel(0.9), math.pi, 1e-13),
        (nl.DelaunayKernel(2, 0.5, 1.0), math.pi, 1e-13),
        (nl.DelaunayKernel(3, 0.2, 0.5), 12.566, 1e-13),
        (nl.laplace_measure_of(nl.DelaunayKernel(2, 0.5, 1.0)), math.pi, 1e-13),
        # the profile switches formula at t = 10, so the exact sum itself
        # jumps by about 2e-9 where an image crosses it (t = 4 pi - 10)
        (nl.SineTailKernel(0.5), math.pi, 1e-8),
    ], ids=["fraclap-0.1", "fraclap-0.5", "fraclap-0.9", "delaunay-2", "delaunay-3",
            "laplace-of-delaunay", "sinetail"])
    def test_table_matches_exact_sum(self, kernel, L, rtol):
        wk = nl.wrap_kernel(kernel, L, tol=1e-12)
        ts = np.linspace(0.0, L, 1002)[1:]
        exact = wk.grid_values(ts)
        assert np.max(np.abs(wk(ts) - exact) / exact) < rtol

    @pytest.mark.parametrize("L", [2.0, 10.0 / 3.0, 2.5, 5.0])
    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_sinetail_switch_folds_onto_an_end(self, s, L):
        # the profile's t = 10 switch folds onto t = L (L = 2, and L = 10/3
        # up to rounding) or onto t = 0 (L = 2.5, 5).  At t = L itself the
        # exact sum takes the other branch of the switch's jump, so only
        # interior points are compared, densely enough to reach every cell
        wk = nl.wrap_kernel(nl.SineTailKernel(s), L)
        ts = np.linspace(0.0, L, 30003)[1:-1]
        exact = wk.grid_values(ts)
        assert np.max(np.abs(wk(ts) - exact) / exact) < 1e-11

    def test_laplace_wrap_builds_fast(self):
        # the remainder is summed exactly at a few dozen Chebyshev points,
        # not at every table node: each sum costs 128 images x 401 r-nodes
        kernel = nl.laplace_measure_of(nl.DelaunayKernel(2, 0.5, 1.0))
        start = time.perf_counter()
        nl.wrap_kernel(kernel, math.pi)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("L", [math.pi, 2.0])
    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_fraclap_matches_hurwitz_zeta(self, s, L):
        # sum_k |t + 2kL|^(-1-2s) = (2L)^(-1-2s) [zeta(1+2s, x) + zeta(1+2s, 1-x)]
        # with x = t/2L; without the third-derivative Euler-Maclaurin term
        # the tail is 3.6e-11 off at s = 0.1
        from scipy.special import zeta

        wk = nl.wrap_kernel(nl.FractionalKernel(s), L)
        ts = np.linspace(0.0, L, 401)[1:]
        x = ts / (2 * L)
        ref = nl.frac_lap_constant(s) * (2 * L) ** (-1 - 2 * s) * (
            zeta(1 + 2 * s, x) + zeta(1 + 2 * s, 1 - x))
        for vals in (wk.grid_values(ts), wk(ts)):
            assert np.max(np.abs(vals - ref) / ref) < 1e-13

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_sinetail_tail_vs_long_direct_sum(self, s):
        # 20000 images on each side, then the tail integral and the (h/24) K'
        # term, at an edge where the next term is below 1e-20
        L, m = math.pi, 20000
        k = nl.SineTailKernel(s)
        wk = nl.wrap_kernel(k, L)
        ts = np.linspace(L / 512, L, 32)
        shifts = 2 * L * np.arange(1, m + 1)
        ref = []
        for t in ts:
            images = k.profile(np.concatenate([shifts + t, shifts - t]))
            edges = 2 * (m + 0.5) * L + np.array([t, -t])
            slopes = (k.profile(1.001 * edges) - k.profile(0.999 * edges)) / (0.002 * edges)
            ref.append(k.profile(np.array([t]))[0] + math.fsum(images)
                       + sum(k.tail_integral(a) for a in edges) / (2 * L)
                       + (2 * L / 24) * slopes.sum())
        ref = np.array(ref)
        assert np.max(np.abs(wk.grid_values(ts) - ref) / ref) < 1e-13

    def test_laplace_wrap_matches_heat_kernel_sum(self):
        # K = sum_j w_j exp(-t^2 r_j) with trapezoid-in-log-r weights, so
        # Kbar = sum_j w_j Phi(t, r_j), the periodized Gaussians
        L = math.pi
        r = np.geomspace(1e-2, 1e3, 200)
        density = r ** -0.3 * np.exp(-r / 50)
        wk = nl.wrap_kernel(nl.LaplaceKernel(r, density, s=0.5, Lambda_hi=10.0), L)
        dw = np.diff(np.log(r))
        weights = 0.5 * (np.r_[dw, 0.0] + np.r_[0.0, dw]) * density * r
        ts = np.linspace(0.0, L, 301)[1:]
        ref = sum(w * nl.heat_kernel_phi(L, rj, ts) for w, rj in zip(weights, r))
        for vals in (wk.grid_values(ts), wk(ts)):
            assert np.max(np.abs(vals - ref) / ref) < 1e-13

    @pytest.mark.parametrize("kernel", [
        nl.FractionalKernel(0.3), nl.DelaunayKernel(2, 0.5, 1.0),
        nl.CompactKernel([1e-3, 0.5, 7.0], [1.0, 0.6, 0.0], s=0.5),
        nl.indicator_kernel(1.3 * math.pi),
        nl.laplace_measure_of(nl.DelaunayKernel(2, 0.5, 1.0)), nl.SineTailKernel(0.5),
        nl.CustomKernel(lambda t: t ** -1.2, s=0.1, Lambda_hi=1.0)],
        ids=["fraclap", "delaunay", "compact", "indicator", "laplace-of-delaunay",
             "sinetail", "custom"])
    def test_one_stencil_call_is_bitwise_the_four(self, kernel):
        # the Euler-Maclaurin stencil at a +- d and a +- 2d takes one profile
        # call on the four offsets together, which moves no bit of the image
        # sum (checked alone, since K(t) can round its last bits away) or of
        # the wrap
        wk = nl.wrap_kernel(kernel, math.pi)
        ts = np.linspace(0.0, 2.0 * math.pi, 257)[1:]
        tf = wk.fold(ts)
        assert np.array_equal(wk._exact(tf), exact_remainder(kernel, math.pi, tf))
        assert np.array_equal(wk.grid_values(ts), grid_values(wk, ts))

    def test_grid_value_does_not_depend_on_the_batch(self):
        # the Euler-Maclaurin tail integral is read from one fit for every
        # call; an exact value per limit for small calls moved the last bits
        # of 6 of these 40 points, whose tail is comparable to the sum
        L = math.pi
        wk = nl.wrap_kernel(nl.CustomKernel(lambda t: t ** -1.2, s=0.1, Lambda_hi=1.0), L)
        ts = np.linspace(0.05, L, 40)
        alone = np.array([wk.grid_values(np.array([t]))[0] for t in ts])
        assert np.array_equal(wk.grid_values(ts), alone)

    @pytest.mark.parametrize("n", [1, 7, 40, 333])
    def test_laplace_grid_value_does_not_depend_on_the_batch(self, n):
        # LaplaceKernel.profile reduces each row on its own; a matvec over a
        # block of rows moved the last bits of 16 of the 40 points
        wk = nl.wrap_kernel(nl.laplace_measure_of(nl.DelaunayKernel(2, 0.5, 1.0)), math.pi)
        ts = np.linspace(0.01, math.pi, n)
        alone = np.array([wk.grid_values(np.array([t]))[0] for t in ts])
        assert np.array_equal(wk.grid_values(ts), alone)

    @pytest.mark.parametrize("n", [1, 7, 40, 333])
    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_sinetail_value_does_not_depend_on_the_batch(self, s, n):
        # each point cuts its own steepest-descent nodes; a cut by the
        # block's smallest argument moved the last bits of up to 26 of the
        # 333 grid values and 9 of the 333 profile values
        k = nl.SineTailKernel(s)
        wk = nl.wrap_kernel(k, math.pi)
        ts = np.linspace(0.01, math.pi, n)
        alone = np.array([wk.grid_values(np.array([t]))[0] for t in ts])
        assert np.array_equal(wk.grid_values(ts), alone)
        # both branches of the profile, which switches at t = 10
        ts = np.linspace(0.01, 4.0 * math.pi, n)
        alone = np.array([k.profile(np.array([t]))[0] for t in ts])
        assert np.array_equal(k.profile(ts), alone)

    @pytest.mark.parametrize("L", [math.pi, 2.0, 10.0 / 3.0, 5.0])
    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_sinetail_image_table_matches_flat_profile(self, s, L):
        # the image sum's table takes its phases from products of
        # e^(i (2kL)^2), e^(i t^2) and powers of e^(4iLt); entry by entry it
        # is the profile at |t + 2kL|.  The profile jumps by at least 7.5e-8
        # of K(10) at its t = 10 switch, so agreement to 2e-15 also says that
        # both split near and far alike; with L = 2 and 10/3 the switch
        # folds onto t = L, and with L = 5 onto t = 0
        kern = nl.SineTailKernel(s)
        m = nl.kernels.K_DIRECT
        k = np.repeat(np.arange(1, m + 1), 2) * np.tile([1, -1], m)
        ts = np.linspace(0.0, L, 301)
        table = kern.image_profile(ts, L, k)
        args = np.abs(ts[:, None] + 2.0 * L * k)
        flat = kern.profile(args.ravel()).reshape(args.shape)
        assert np.count_nonzero(args * args < 100.0) > 0
        assert np.all(np.abs(table - flat) <= 2e-15 * np.abs(flat))

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_sinetail_table_at_nodes_and_midpoints(self, s):
        # the pieces of 1025-2049 (s = 0.1) and 257-513 points are summed by
        # baby-step giant-step products; away from the fold of the profile's
        # t = 10 switch, whose jump the exact sum carries, the table is
        # within rounding of the exact sum
        L = math.pi
        h = L / nl.kernels._TABLE_CELLS
        wk = nl.wrap_kernel(nl.SineTailKernel(s), L)
        nodes = np.linspace(0.0, L, nl.kernels._TABLE_CELLS + 1)
        ts = np.concatenate([nodes[1:], nodes[:-1] + 0.5 * h])
        ts = ts[np.abs(ts - (4.0 * math.pi - 10.0)) > 2.0 * h]
        exact = wk.grid_values(ts)
        assert np.max(np.abs(wk(ts) - exact) / exact) < 5e-14

    @pytest.mark.parametrize("kernel", [nl.FractionalKernel(0.5), nl.DelaunayKernel(2, 0.5, 1.0)],
                             ids=["fraclap", "delaunay"])
    def test_short_pieces_keep_clenshaw(self, kernel):
        # one piece of 65 points: its table is chebval's, bit for bit
        K = nl.kernels
        L = math.pi
        a, b = 1e-12 * L, L - 1e-12 * L
        c = K._cheb_fit(K._exact_remainder(kernel, L), a, b)
        assert c.size <= K._CLENSHAW_MAX
        x = (2.0 * np.linspace(0.0, L, K._TABLE_CELLS + 1) - a - b) / (b - a)
        y0, d0 = nl.wrap_kernel(kernel, L)._remainder.coeffs[:2]
        assert np.array_equal(y0, chebval(x, c)[:-1])
        slopes = chebval(x, chebder(c)) * (2.0 / (b - a))
        assert np.array_equal(d0, (L / K._TABLE_CELLS) * slopes[:-1])

    def test_requires_growth_bound(self):
        k = nl.CustomKernel(lambda t: t ** -2.0, s=0.5)  # no Lambda declared
        with pytest.raises(nl.DomainError):
            nl.wrap_kernel(k, math.pi)


class TestChebValueSlope:
    """The evaluator of a Chebyshev series and its derivative that fills the
    wrap's Hermite table, against numpy's Clenshaw recurrence."""

    @pytest.mark.parametrize("n", [129, 257, 1025, 4097])
    def test_matches_clenshaw(self, n):
        rng = np.random.default_rng(n)
        # decaying to 1e-14, as a chopped interpolant does
        c = rng.standard_normal(n) * 10.0 ** (-14.0 * np.arange(n) / n)
        # second-kind points (both ends included), random points, and table
        # nodes just past a piece's ends
        x = np.concatenate([np.cos(np.linspace(0.0, math.pi, 1001)),
                            rng.uniform(-1.0, 1.0, 500),
                            [-1.0 - 1e-12, 1.0 + 1e-12, -1.0 - 3e-12, 1.0 + 3e-12]])
        values, slopes = nl.kernels._cheb_value_slope(x, c)
        d = chebder(c)
        ref_values, ref_slopes = chebval(x, c), chebval(x, d)
        # Clenshaw's own rounding grows with n: 7e-14 of the largest value
        # and 2.3e-13 of the largest slope at n = 4097
        tol = 2.5e-16 * n
        assert np.max(np.abs(values - ref_values)) <= tol * np.max(np.abs(ref_values))
        # past +-1 the slope is the one at the end, which differs from the
        # extrapolated slope by the curvature times the step
        ends = np.clip(x, -1.0, 1.0)
        lag = 1.1 * np.abs(chebval(ends, chebder(d))) * np.abs(x - ends)
        assert np.all(np.abs(slopes - ref_slopes) <= tol * np.max(np.abs(ref_slopes)) + lag)

    @pytest.mark.parametrize("n", [129, 1025, 4097])
    def test_derivative_matches_chebder(self, n):
        # the long series' derivative by reversed cumulative sums
        c = np.random.default_rng(n).standard_normal(n) * 10.0 ** (-14.0 * np.arange(n) / n)
        ref = chebder(c)
        d = nl.kernels._cheb_derivative(c)
        assert d.shape == ref.shape
        assert np.max(np.abs(d - ref)) <= 1e-15 * n * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [16, 17, 65])
    def test_batched_coefficients_are_bitwise_the_rows(self, n):
        # _cheb_coeffs transforms along the last axis, each row on its own
        vals = np.random.default_rng(n).standard_normal((5, 3, n))
        rows = np.array([[nl.kernels._cheb_coeffs(r) for r in block] for block in vals])
        assert np.array_equal(nl.kernels._cheb_coeffs(vals), rows)


class TestClassification:
    def test_fraclap(self):
        rep = nl.classify_kernel(nl.FractionalKernel(0.5))
        assert rep.convex and rep.wrapped_monotone
        assert rep.laplace_consistent and rep.laplace_error < 1e-6
        assert rep.sqrt_profile_cm is True

    def test_sinetail_convex_not_cm(self):
        rep = nl.classify_kernel(nl.SineTailKernel(0.5))
        assert rep.convex
        assert rep.sqrt_profile_cm is False
        assert "sign" in rep.notes

    def test_indicator_not_convex(self):
        rep = nl.classify_kernel(nl.indicator_kernel(0.7 * math.pi))
        assert not rep.convex

    def test_wrapped_monotonicity_fails_for_counterexample(self):
        # indicator of [0, L + eps]: the wrap jumps up near t = L
        L = math.pi
        rep = nl.classify_kernel(nl.indicator_kernel(1.3 * L), L=L)
        assert not rep.wrapped_monotone

    def test_laplace_without_growth_bound_is_wrapped(self):
        # a tabulated Laplace kernel wraps in closed form with no Lambda; its
        # periodization, a sum of periodized Gaussians, decreases on (0, L)
        r = np.geomspace(1e-2, 1e2, 50)
        k = nl.kernel_from_spec({"family": "laplace", "s": 0.5,
                                 "profile": np.column_stack([r, np.exp(-r)]).tolist()})
        assert not math.isfinite(k.Lambda_hi)
        rep = nl.classify_kernel(k)
        assert rep.wrapped_monotone
        assert math.isfinite(rep.monotonicity_margin) and rep.monotonicity_margin < 0

    def test_custom_without_growth_bound_is_not_wrapped(self):
        rep = nl.classify_kernel(nl.CustomKernel(lambda t: t ** -2.0, s=0.5))
        assert math.isnan(rep.monotonicity_margin)
        assert rep.wrapped_monotone is False

    @pytest.mark.parametrize("kernel", [
        nl.FractionalKernel(0.5), nl.CustomKernel(lambda t: t ** -2.0, s=0.5)],
        ids=["fraclap", "custom-without-bound"])
    def test_nonpositive_half_period_raises(self, kernel):
        with pytest.raises(nl.DomainError, match="half period"):
            nl.classify_kernel(kernel, L=-1.0)

    @pytest.mark.parametrize("kernel", [
        nl.FractionalKernel(0.2), nl.DelaunayKernel(2, 0.5, 1.0), nl.SineTailKernel(0.5),
        nl.CompactKernel([0.5, 1.0, 2.5], [2.0, 1.0, 0.3], s=0.5),
        nl.indicator_kernel(2.0), nl.laplace_measure_of(nl.DelaunayKernel(2, 0.5, 1.0))],
        ids=["fraclap", "delaunay", "sinetail", "compact", "indicator",
             "laplace-of-delaunay"])
    def test_monotonicity_reads_the_exact_sum_without_a_wrap(self, kernel, monkeypatch):
        # the margin is that of wrap_kernel(kernel, L).grid_values, bitwise,
        # but classify_kernel builds no call table to get it
        L = 2.0
        vals = nl.wrap_kernel(kernel, L).grid_values(np.linspace(L / 512, L, 512))

        def no_wrap(*args, **kwargs):
            raise AssertionError("classify_kernel wrapped the kernel")

        monkeypatch.setattr(nl.kernels, "wrap_kernel", no_wrap)
        rep = nl.classify_kernel(kernel, L=L)
        assert rep.monotonicity_margin == float(np.max(np.diff(vals)))


class TestKernelFromSpec:
    def test_families(self):
        assert isinstance(nl.kernel_from_spec({"family": "fraclap", "s": 0.5}),
                          nl.FractionalKernel)
        assert isinstance(nl.kernel_from_spec(
            {"family": "delaunay", "s": 0.5, "n": 2, "a": 1.0}), nl.DelaunayKernel)
        assert isinstance(nl.kernel_from_spec(
            {"family": "sinetail", "s": 0.5}), nl.SineTailKernel)
        k = nl.kernel_from_spec({"family": "indicator", "cutoff": 2.0})
        assert k.support == pytest.approx(2.0)

    def test_unknown_family(self):
        with pytest.raises(nl.UnsupportedKernelError):
            nl.kernel_from_spec({"family": "nosuch"})


class TestDelaunayGrowthConstant:
    @pytest.mark.parametrize("n,s,a", [(2, 0.5, 1.0), (3, 0.2, 0.5), (2, 0.8, 2.0),
                                       (5, 0.1, 3.0)])
    def test_lambda_hi_is_the_sup(self, n, s, a):
        k = nl.DelaunayKernel(n, s, a)
        t = np.geomspace(1e-6, 1e8, 200001)
        scaled = t ** (1.0 + 2.0 * s) * k(t)
        assert np.all(scaled <= k.Lambda_hi * (1 + 1e-12))
        # the dense grid comes within its own spacing of the peak
        assert np.max(scaled) == pytest.approx(k.Lambda_hi, rel=1e-8)

    @pytest.mark.parametrize("n,a", [(2, 1e-200), (2, 1e200), (400, 1.0)])
    def test_constants_out_of_range_rejected(self, n, a):
        # Lambda_hi, a^(-2 nu) and Gamma((n+s)/2) must be finite and positive
        with pytest.raises(nl.DomainError, match="floating-point range"):
            nl.DelaunayKernel(n, 0.5, a)


def test_wrap_rejects_a_half_period_whose_tail_overflows():
    # the Euler-Maclaurin tail's last term carries (2L)^3
    k = nl.FractionalKernel(0.5)
    for call in (nl.wrap_kernel, nl.classify_kernel):
        with pytest.raises(nl.DomainError, match="Euler-Maclaurin"):
            call(k, 1e300)
    # a support within the direct images leaves no tail to overflow
    wk = nl.wrap_kernel(nl.indicator_kernel(1.0), 1e300)
    assert wk.grid_values(np.array([0.5])) == pytest.approx([1.0])


class TestSineTailBatched:
    """The vectorised steepest-descent profile, the closed tail integral and
    the one-batch symbol."""

    oracle = staticmethod(TestSineTailKernel.oracle)
    # both sides of every switch: block trimming near a = 0, the a = 100 branch
    POINTS = (0.05, 0.3, 3.0, 9.9)

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_profile_vs_chunked_oracle(self, s):
        k = nl.SineTailKernel(s)
        vals = k.profile(np.array(self.POINTS))
        for t, v in zip(self.POINTS, vals):
            # the oracle stops after 3000 periods, 2e-7 short at t = 9.9
            assert v == pytest.approx(self.oracle(s, t), rel=1e-6)

    def test_profile_vs_high_precision(self):
        mp = pytest.importorskip("mpmath")
        s, p = 0.5, 3.0
        k = nl.SineTailKernel(s)
        with mp.workdps(20):
            for t in (3.0, 9.9):
                a = mp.mpf(t) ** 2
                sine = mp.quadosc(lambda x: (x - a) * x ** -p * mp.sin(x),
                                  [a, mp.inf], omega=1)
                ref = float(2 * a ** (2 - p) / ((p - 1) * (p - 2)) + sine)
                assert k(t) == pytest.approx(ref, rel=1e-13)

    def test_vector_call_equals_pointwise(self):
        k = nl.SineTailKernel(0.5)
        ts = np.concatenate([np.geomspace(1e-3, 9.99, 300), [10.0, 12.5, 40.0]])
        pointwise = np.array([k(t) for t in ts])
        assert k(ts) == pytest.approx(pointwise, rel=1e-14)

    @pytest.mark.parametrize("A", [0.5, 3.0, 12.0])
    def test_tail_integral_vs_brute_quad(self, A):
        s = 0.5
        k = nl.SineTailKernel(s)
        # pieces end at t = 10, where the profile switches branch, and stay
        # short beyond, where the sine part oscillates like sin(t^2)
        edges = np.union1d(np.geomspace(A, 10.0, 30), np.geomspace(10.0, 1e3, 400))
        edges = edges[edges >= A]
        brute = sum(integrate.quad(k, lo, hi, epsabs=1e-16, epsrel=1e-10, limit=200)[0]
                    for lo, hi in zip(edges[:-1], edges[1:]))
        # beyond 1e3 the sine part is below 1e-12 of the power part
        power = 2.0 / ((s + 1.5) * (s + 0.5))
        brute += power * 1e3 ** (-2 * s) / (2 * s)
        # the asymptotic branch (t >= 10) is good to about 1e-8
        assert k.tail_integral(A) == pytest.approx(brute, rel=1e-8)

    @pytest.mark.parametrize("s", [0.005, 0.1, 0.5, 0.9, 0.995])
    def test_near_table_matches_the_trapezoid_rule(self, s):
        # the table against the trapezoid sum at every point, from below the
        # table's first panel (t = 1e-150, a = 1e-300) to both sides of the
        # t = 10 switch; for s > 0.5, K itself overflows at the smallest t
        ts = np.concatenate([np.geomspace(1e-150, 12.0, 4001), np.linspace(0.01, 12.0, 4001),
                             [np.nextafter(10.0, 0.0), 10.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            ref = sinetail_profile(s, ts)
            vals = nl.SineTailKernel(s).profile(ts)
        keep = np.isfinite(ref)
        assert np.min(ts[keep]) < 1e-100
        assert np.all(np.abs(vals[keep] - ref[keep]) <= 2e-15 * np.abs(ref[keep]))

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_near_table_does_not_depend_on_the_fill_order(self, s):
        # each point reads its own panel's row: points one by one give the
        # values of the batch bitwise
        ts = np.geomspace(1e-20, 9.99, 333)
        alone = np.array([nl.SineTailKernel(s).profile(ts[i:i + 1])[0]
                          for i in range(ts.size - 1, -1, -1)])[::-1]
        assert np.array_equal(nl.SineTailKernel(s).profile(ts), alone)

    @pytest.mark.parametrize("tol, message", [
        ("_DESCENT_TOL", "quadrature error"), ("_SINE_FIT_TOL", "table coefficient")])
    def test_failed_table_check_raises(self, tol, message, monkeypatch):
        # the step-2h estimate at every node and each panel's last Chebyshev
        # coefficient are checked as the table is fitted; a table that fails
        # is not cached
        table = functools.lru_cache(kernels._sine_table.__wrapped__)
        monkeypatch.setattr(kernels, "_sine_table", table)
        monkeypatch.setattr(kernels, tol, 0.0)
        k = nl.SineTailKernel(0.5)
        with pytest.raises(nl.IntegrationError, match=message):
            k.profile(np.array([2.0]))
        assert table.cache_info().currsize == 0
        monkeypatch.undo()
        assert k.profile(np.array([2.0]))[0] == pytest.approx(sinetail_profile(0.5, [2.0])[0],
                                                              rel=2e-15)

    def test_near_table_is_read_only(self):
        table = kernels._sine_table(3.0)
        assert table.shape == (kernels._SINE_PANELS, 2, kernels._SINE_NODES)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0, 0] = 0.0

    @pytest.mark.parametrize("s", [0.005, 0.5, 0.995])
    def test_adjacent_panels_meet_at_their_shared_node(self, s):
        # panel i ends (y = 1) at the node where panel i + 1 starts (y = -1);
        # both interpolate F there, so they agree to rounding
        p = s + 2.5
        table = kernels._sine_table(p)
        ends = table.sum(axis=-1)
        starts = table @ (-1.0) ** np.arange(kernels._SINE_NODES)
        power = 2.0 / ((p - 1.0) * (p - 2.0))
        assert np.max(np.abs(ends[:-1] - starts[1:])) <= 1e-15 * power

    def test_no_integration_warnings(self):
        k = nl.SineTailKernel(0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            nl.symbol_of_kernel(k, nl.PeriodicGrid(math.pi, 16))
            nl.wrap_kernel(k, math.pi, tol=1e-10)
            nl.classify_kernel(k)


class TestClosedFormTails:
    @pytest.mark.parametrize("n,s,a", [(2, 0.5, 1.0), (3, 0.2, 0.5), (2, 0.8, 2.0)])
    def test_delaunay_vs_high_precision(self, n, s, a):
        # far limits are where the wrapped kernel's Euler-Maclaurin tail
        # starts (about 129 L); adaptive quadrature lost 97 % at 1e5
        mp = pytest.importorskip("mpmath")
        k = nl.DelaunayKernel(n, s, a)
        mu = (n + s) / 2
        for A in (0.1, 1.0, 400.0, 1e5):
            with mp.workdps(25):
                ref = mp.quad(lambda t: (t * t + mp.mpf(a) ** 2) ** -mu,
                              [A, 10 * A, 1000 * A, mp.inf])
            assert k.tail_integral(A) == pytest.approx(float(ref), rel=1e-13)

    @pytest.mark.parametrize("n,s,a", [(2, 0.5, 1.0), (3, 0.2, 0.5)])
    def test_custom_kernel_tail_at_far_limits(self, n, s, a):
        # the generic quadrature, as a custom kernel gets it, against the
        # closed form; wrap_kernel asks for the tail from about 129 L
        dk = nl.DelaunayKernel(n, s, a)
        ck = nl.CustomKernel(dk.profile, s=s, Lambda_hi=dk.Lambda_hi)
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            for A in (1.0, 400.0, 1e5):
                assert ck.tail_integral(A) == pytest.approx(dk.tail_integral(A), rel=1e-10)

    @pytest.mark.parametrize("kernel,oracle", [
        *[(nl.FractionalKernel(s), fraclap_tail) for s in (0.05, 0.1, 0.5, 0.95)],
        *[(nl.DelaunayKernel(n, s, a), delaunay_tail)
          for n, s, a in [(2, 0.5, 1.0), (3, 0.2, 0.5), (2, 0.8, 2.0)]],
    ], ids=["fraclap-0.05", "fraclap-0.1", "fraclap-0.5", "fraclap-0.95",
            "delaunay-2-0.5-1", "delaunay-3-0.2-0.5", "delaunay-2-0.8-2"])
    def test_rule_vs_closed_form(self, kernel, oracle):
        # the double-exponential rule against closed forms outside it
        for A in np.geomspace(1e-3, 1e5, 33):
            assert kernel.tail_integral(A) == pytest.approx(oracle(kernel, A), rel=1e-13)

    @pytest.mark.parametrize("s", [0.005, 0.01, 0.02])
    def test_rule_past_overflow(self, s):
        # below s = 0.0284 the rule ends beyond t = 1e300, where its nodes
        # overflow; dropping that part left 1.1e-3 of the tail at s = 0.005
        k = nl.FractionalKernel(s)
        for A in (1e-3, 1.0, 400.0):
            assert k.tail_integral(A) == pytest.approx(fraclap_tail(k, A), rel=1e-13)

    def test_delaunay_whole_line(self):
        # a = 0 is tanh-sinh on [0, 1] plus the tail from 1
        k = nl.DelaunayKernel(2, 0.5, 1.0)
        assert k.tail_integral(0.0) == pytest.approx(delaunay_tail(k, 0.0), rel=1e-13)

    def test_custom_kernel_with_support_is_exact(self):
        # K = (b - t)^2 on a support beyond the wrap's tail fit (128 L to 130 L)
        L = math.pi
        b = 135.0 * L
        k = nl.CustomKernel(lambda t: (b - t) ** 2, s=0.5, Lambda_hi=1e12, support=b)
        for A in (0.0, 1.0, L, *np.linspace(128.0 * L, 130.0 * L, 5), 134.0 * L):
            assert k.tail_integral(A) == pytest.approx((b - A) ** 3 / 3.0, rel=1e-13)
        assert k.tail_integral(b) == 0.0

    @pytest.mark.parametrize("kernel", [
        nl.FractionalKernel(0.5), nl.DelaunayKernel(2, 0.5, 1.0),
        nl.CustomKernel(lambda t: 1.0 / (1.0 + t * t), s=0.5, Lambda_hi=1.0),
        nl.CustomKernel(lambda t: 1.0 - t, s=0.5, Lambda_hi=1.0, support=1.0)],
        ids=["fraclap", "delaunay", "custom", "custom-support"])
    def test_negative_start_raises(self, kernel):
        with pytest.raises(nl.DomainError):
            kernel.tail_integral(-1.0)

    def test_compact_is_exact_area(self):
        # flat 1 on (0, 0.5], then linear down to 0.6 at 1.5, where it drops to 0
        k = nl.CompactKernel([0.5, 1.5], [1.0, 0.6], s=0.5)
        assert k.tail_integral(0.25) == pytest.approx(0.25 + 0.8, rel=1e-15)
        assert k.tail_integral(1.0) == pytest.approx(0.5 * (0.8 + 0.6) / 2, rel=1e-15)
        assert k.tail_integral(2.0) == 0.0

    @pytest.mark.parametrize("kernel", [
        nl.laplace_measure_of(nl.DelaunayKernel(2, 0.5, 1.0)),
        nl.LaplaceKernel(np.geomspace(1e-3, 1e3, 60), np.exp(-np.geomspace(1e-3, 1e3, 60)),
                         s=0.5)], ids=["laplace-of-delaunay", "exponential-density"])
    def test_laplace_vs_vectorized_erfc(self, kernel):
        # the same sum of Gaussian tails, with scipy's erfc in place of math.erfc
        from scipy.special import erfc

        r = kernel.r_grid
        for A in (0.0, 1e-3, 0.5, 1.0, 10.0, 400.0, 1e4):
            ref = float(np.sum(kernel._trapezoid_weights() * 0.5 * np.sqrt(math.pi * r)
                               * erfc(A * np.sqrt(r))))
            assert kernel.tail_integral(A) == pytest.approx(ref, rel=1e-14, abs=1e-300)

    def test_laplace_matches_its_kernel(self):
        # the tabulated Delaunay measure reproduces the Delaunay tail; its
        # r grid reaches low enough for the profile out to t = 1e7 a
        dk = nl.DelaunayKernel(2, 0.5, 1.0)
        lk = nl.laplace_measure_of(dk)
        for A in (0.1, 1.0, 10.0):
            assert lk.tail_integral(A) == pytest.approx(dk.tail_integral(A), rel=1e-8)


class TestDelaunaySymbol:
    @pytest.mark.parametrize("n,s,a", [(2, 0.5, 1.0), (3, 0.2, 0.5), (2, 0.8, 2.0),
                                       (5, 0.9, 0.3)])
    def test_vs_high_precision(self, n, s, a):
        # Basset's Bessel form at 40 digits, where the cancellation between
        # its two terms at small xi costs nothing
        mp = pytest.importorskip("mpmath")
        xi = np.geomspace(math.pi / 40, 3000.0, 25)
        got = nl.DelaunayKernel(n, s, a).symbol(xi)
        with mp.workdps(40):
            mu = (mp.mpf(n) + mp.mpf(s)) / 2
            nu = mu - mp.mpf(1) / 2
            c = mp.mpf(a)
            ref = np.array([float(mp.sqrt(mp.pi) / mp.gamma(mu) * (
                mp.gamma(nu) * c ** (-2 * nu)
                - 2 * (mp.mpf(x) / (2 * c)) ** nu * mp.besselk(nu, c * mp.mpf(x))))
                for x in xi])
        assert np.max(np.abs(got / ref - 1.0)) <= 1e-13

    def test_zero_frequency(self):
        k = nl.DelaunayKernel(2, 0.5, 1.0)
        assert np.array_equal(k.symbol(np.array([0.0, 0.0])), [0.0, 0.0])
        assert k.symbol(np.array([0.0, 1.0]))[0] == 0.0
