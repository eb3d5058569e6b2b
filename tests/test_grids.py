import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nonlocper as nl


def make_grid(L=math.pi, N=64):
    return nl.PeriodicGrid(L, N)


class TestPeriodicGrid:
    def test_validation(self):
        with pytest.raises(nl.DomainError):
            nl.PeriodicGrid(-1.0, 64)
        with pytest.raises(nl.DomainError):
            nl.PeriodicGrid(math.pi, 63)  # not a power of two
        with pytest.raises(nl.DomainError):
            nl.PeriodicGrid(math.pi, 4)  # too small

    def test_nodes_and_spacing(self):
        g = make_grid()
        assert g.spacing == pytest.approx(2 * math.pi / 64)
        assert g.nodes[0] == pytest.approx(-math.pi)
        assert np.allclose(np.diff(g.nodes), g.spacing)
        assert g.nodes[-1] == pytest.approx(math.pi - g.spacing)

    def test_frequencies(self):
        g = make_grid(L=2.0, N=16)
        # xi_k = pi k / L for k = 0..N/2
        assert np.allclose(g.frequencies(), math.pi * np.arange(9) / 2.0)


class TestPeriodicFunction:
    def test_coeff_roundtrip(self):
        g = make_grid()
        u = nl.PeriodicFunction.from_callable(
            g, lambda x: np.cos(x) + 0.5 * np.sin(3 * x))
        v = nl.PeriodicFunction.from_coeffs(g, u.coeffs())
        assert np.allclose(u.samples, v.samples, atol=1e-14)

    def test_single_mode_coeffs(self):
        # cos(kx) has coefficients 1/2 at +-k, zero elsewhere
        g = make_grid()
        u = nl.PeriodicFunction.from_callable(g, lambda x: np.cos(3 * x))
        assert u.coeff(3) == pytest.approx(0.5, abs=1e-13)
        assert u.coeff(-3) == pytest.approx(0.5, abs=1e-13)
        assert abs(u.coeff(2)) < 1e-13
        v = nl.PeriodicFunction.from_callable(g, lambda x: np.sin(5 * x))
        assert v.coeff(5) == pytest.approx(-0.5j, abs=1e-13)

    def test_eval_off_grid(self):
        g = make_grid()
        u = nl.PeriodicFunction.from_callable(g, lambda x: np.cos(2 * x))
        xs = np.array([0.1, -1.3, 2.9])
        assert np.allclose(u.eval(xs), np.cos(2 * xs), atol=1e-13)
        # periodicity
        assert u.eval(0.3 + 2 * math.pi) == pytest.approx(u.eval(0.3), abs=1e-12)
        # refinement onto a uniform grid agrees with eval there; random
        # samples carry a nonzero Nyquist coefficient
        v = nl.PeriodicFunction(g, np.random.default_rng(3).standard_normal(g.size))
        assert abs(v.coeff(g.size // 2)) > 1e-3
        for m in (g.size, 2 * g.size, 8 * g.size):
            fine = nl.PeriodicGrid(g.half_period, m)
            vf = v.refine(m)
            assert vf.grid == fine
            assert np.allclose(vf.samples, v.eval(fine.nodes), rtol=0, atol=1e-13)
        with pytest.raises(nl.DomainError):
            v.refine(3 * g.size // 2)

    def test_modes_sum_to_eval_and_even_derivatives(self):
        # 300 points cross an eval row block; random samples carry a nonzero
        # Nyquist coefficient
        g = make_grid()
        u = nl.PeriodicFunction(g, np.random.default_rng(5).standard_normal(g.size))
        assert abs(u.coeff(g.size // 2)) > 1e-3
        xs = np.random.default_rng(6).uniform(-2 * math.pi, 2 * math.pi, 300)
        modes = u.modes(xs)
        assert modes.shape == (xs.size, g.size // 2 + 1)
        dense = np.real(np.exp(1j * np.outer(xs, g.wavenumbers)) @ u.coeffs())
        vals = u.eval(xs)
        for got in (modes.sum(axis=1), vals):
            assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))
        for m in (1, 2, 3):
            ref = u.derivative(2 * m).eval(xs)
            got = modes @ (-g.frequencies() ** 2) ** m
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_eval_memory_bounded(self):
        # a dense 4096 x 4096 complex phase matrix alone would take 268 MB
        g = nl.PeriodicGrid(math.pi, 4096)
        u = nl.PeriodicFunction(g, np.random.default_rng(7).standard_normal(g.size))
        xs = np.random.default_rng(8).uniform(-math.pi, math.pi, g.size)
        u.coeffs()
        tracemalloc.start()
        try:
            u.eval(xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_derivative(self):
        g = make_grid()
        u = nl.PeriodicFunction.from_callable(g, lambda x: np.sin(2 * x))
        du = u.derivative()
        assert np.allclose(du.samples, 2 * np.cos(2 * g.nodes), atol=1e-12)
        d2u = u.derivative(2)
        assert np.allclose(d2u.samples, -4 * np.sin(2 * g.nodes), atol=1e-11)

    def test_shift(self):
        # shift(z) translates the graph right: (u shifted)(x) = u(x - z)
        g = make_grid()
        u = nl.PeriodicFunction.from_callable(g, lambda x: np.cos(x) + np.sin(4 * x))
        z = 0.7
        v = u.shift(z)
        assert np.allclose(v.samples, u.eval(g.nodes - z), atol=1e-12)

    def test_mean_and_l2(self):
        g = make_grid()
        u = nl.PeriodicFunction.from_callable(g, lambda x: 2.0 + np.cos(x))
        assert u.mean() == pytest.approx(2.0, abs=1e-13)
        # ||2 + cos||_L2^2 = 2L(4 + 1/2) over (-pi, pi)
        assert u.l2_norm() ** 2 == pytest.approx(2 * math.pi * 4.5, rel=1e-12)

    def test_arithmetic(self):
        g = make_grid()
        u = nl.PeriodicFunction.from_callable(g, np.cos)
        v = nl.PeriodicFunction.from_callable(g, np.sin)
        w = 2.0 * u - v
        assert np.allclose(w.samples, 2 * np.cos(g.nodes) - np.sin(g.nodes))

    def test_grid_mismatch(self):
        u = nl.PeriodicFunction.from_callable(make_grid(N=64), np.cos)
        v = nl.PeriodicFunction.from_callable(make_grid(N=32), np.cos)
        with pytest.raises(nl.GridMismatchError):
            _ = u + v


class TestDiagnostics:
    def test_parseval_gap_small(self):
        g = make_grid(N=128)
        rng = np.random.default_rng(0)
        u = nl.PeriodicFunction(g, rng.standard_normal(g.size))
        assert np.mean(u.samples**2) == pytest.approx(
            np.sum(np.abs(u.coeffs()) ** 2), rel=1e-12)

    def test_decay_exponent_exact_power_law(self):
        g = make_grid(N=256)
        for r in (1.0, 1.5, 2.5):
            c = np.zeros(g.size, complex)
            for k in range(1, g.size // 2):
                c[k] = c[-k] = 0.5 * k ** -r
            u = nl.PeriodicFunction.from_coeffs(g, c)
            assert nl.decay_exponent(u) == pytest.approx(r, abs=1e-10)

    def test_decay_exponent_abs_sin(self):
        # |sin x| coefficients decay like k^-2 (with curvature from 1/(4m^2-1))
        g = make_grid(N=256)
        u = nl.PeriodicFunction.from_callable(g, lambda x: np.abs(np.sin(x)))
        r = nl.decay_exponent(u)
        assert 1.5 < r < 2.2

    @pytest.mark.parametrize("c", [1e-12, 1e12])
    def test_decay_exponent_is_scale_free(self, c):
        # the noise floor is read relative to the largest |u_k|: at 1e-12 u
        # an absolute floor of 1e-13 left fewer than 8 modes to fit.  The
        # modes near the floor carry the rounding of c u's transform, 2e-9
        # of the fit
        g = make_grid(L=math.pi, N=256)
        u = nl.PeriodicFunction.from_callable(g, lambda x: np.abs(np.sin(0.5 * x)) ** 3.5)
        r = nl.decay_exponent(u)
        assert r == pytest.approx(4.4844, abs=1e-4)
        assert nl.decay_exponent(nl.PeriodicFunction(g, c * u.samples)) == pytest.approx(
            r, rel=1e-8)

    def test_decay_exponent_degenerate(self):
        g = make_grid()
        u = nl.PeriodicFunction.from_callable(g, np.cos)  # band-limited
        with pytest.raises(nl.DegenerateFitError):
            nl.decay_exponent(u)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=31),
       st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_shift_matches_eval_everywhere(k, z):
    g = nl.PeriodicGrid(math.pi, 64)
    u = nl.PeriodicFunction.from_callable(g, lambda x: np.cos(k * x) + 0.3 * np.sin(x))
    v = u.shift(z)
    xs = np.linspace(-3, 3, 11)
    assert np.allclose(v.eval(xs), u.eval(xs - z), atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_roundtrip_random_samples(seed):
    g = nl.PeriodicGrid(2.0, 32)
    rng = np.random.default_rng(seed)
    u = nl.PeriodicFunction(g, rng.standard_normal(g.size))
    v = nl.PeriodicFunction.from_coeffs(g, u.coeffs())
    assert np.allclose(u.samples, v.samples, atol=1e-12)
    assert np.mean(u.samples**2) == pytest.approx(
        np.sum(np.abs(u.coeffs()) ** 2), rel=1e-12)
