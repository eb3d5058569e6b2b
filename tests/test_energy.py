import math

import numpy as np
import pytest
from scipy import integrate

import nonlocper as nl


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
