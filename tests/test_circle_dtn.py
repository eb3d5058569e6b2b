import math

import numpy as np
import pytest

import nonlocper as nl


def boundary(n=64, fn=None):
    g = nl.circle_grid(n)
    if fn is None:
        fn = lambda x: np.cos(x) + 0.5 * np.sin(2 * x)
    return nl.PeriodicFunction.from_callable(g, fn)


class TestDtnMultiplier:
    def test_single_modes(self):
        # DtN of cos(k theta) is |k| cos(k theta)
        g = nl.circle_grid(64)
        for k in (1, 3, 7):
            u = nl.PeriodicFunction.from_callable(g, lambda x, k=k: np.cos(k * x))
            v = nl.dtn_multiplier(u)
            assert np.allclose(v.samples, k * u.samples, atol=1e-11)

    def test_requires_circle(self):
        g = nl.PeriodicGrid(2.0, 64)
        u = nl.PeriodicFunction.from_callable(g, np.cos)
        with pytest.raises(nl.DomainError):
            nl.dtn_multiplier(u)


class TestDtnPoisson:
    def test_matches_multiplier(self):
        u = boundary()
        direct = nl.dtn_multiplier(u)
        poisson = nl.dtn_poisson(u)
        assert np.max(np.abs(poisson.samples - direct.samples)) < 1e-6

    def test_unsafe_delta_rejected(self):
        # a radius this close to 1 needs more than 2^22 quadrature nodes
        u = boundary()
        with pytest.raises(nl.StepSizeError):
            nl.circle_dtn.poisson_extension(u, 1 - 1e-7)


class TestPoissonExtension:
    def test_exact_extension_when_grid_exceeds_quadrature(self):
        # at radius 0.5 the quadrature alone would need fewer nodes than N
        g = nl.circle_grid(2048)
        u = nl.PeriodicFunction(g, np.random.default_rng(4).standard_normal(g.size))
        r = 0.5
        ext = nl.circle_dtn.poisson_extension(u, r)
        # u_D(r, theta) = sum_k u_k r^{|k|} e^{ik theta}
        exact = nl.PeriodicFunction.from_coeffs(
            g, u.coeffs() * r ** np.abs(g.wavenumbers)).samples
        assert ext.shape == (g.size,)
        assert np.max(np.abs(ext - exact)) < 1e-12


class TestPvOnCircle:
    def test_matches_multiplier(self):
        u = boundary()
        direct = nl.dtn_multiplier(u)
        for x in np.linspace(-math.pi, math.pi, 9)[:-1]:
            assert nl.half_lap_pv_circle(u, float(x)) == pytest.approx(
                float(direct.eval(x)), abs=1e-5)

    def test_array_of_points_in_one_fold(self):
        # a scalar gives a float, an array the values at its points, each
        # the one-point value to rounding
        u = boundary()
        xs = np.linspace(-math.pi, math.pi, 9)[:-1].reshape(2, 4)
        single = nl.half_lap_pv_circle(u, 0.3)
        assert type(single) is float
        many = nl.half_lap_pv_circle(u, xs)
        assert many.shape == (2, 4)
        each = np.array([[nl.half_lap_pv_circle(u, x) for x in row] for row in xs])
        assert np.max(np.abs(many - each)) <= 1e-13
        assert np.max(np.abs(many - nl.dtn_multiplier(u).eval(xs.ravel()).reshape(2, 4))) < 1e-12


class TestWrappedIdentity:
    def test_gap_small(self):
        for t in np.linspace(0.1, 2 * math.pi - 0.1, 9):
            res = nl.wrapped_identity_check(float(t))
            assert res["gap"] < 1e-10

    def test_closed_form_value(self):
        # sum_k 1/(t + 2 pi k)^2 = 1/(2 - 2 cos t)
        res = nl.wrapped_identity_check(1.0)
        assert res["rhs"] == pytest.approx(1.0 / (2.0 - 2.0 * math.cos(1.0)),
                                           rel=1e-14)
        assert res["lhs"] == pytest.approx(res["rhs"], rel=1e-12)

    def test_checks_the_library_wrap(self):
        # c_(1/2) = 1/pi, so pi Kbar(t) is the image sum of 1/t^2
        wk = nl.wrap_kernel(nl.FractionalKernel(0.5), math.pi)
        ts = np.linspace(0.1, 2 * math.pi - 0.1, 16)
        res = [nl.wrapped_identity_check(float(t)) for t in ts]
        assert [r["lhs"] for r in res] == pytest.approx(math.pi * wk(ts), rel=1e-15)
        assert max(r["gap"] for r in res) <= 1.2e-12

    def test_rejects_period_multiples(self):
        with pytest.raises(nl.DomainError):
            nl.wrapped_identity_check(2 * math.pi)


class TestEnergyIdentity:
    def test_three_ways_cos(self):
        # hand value: all three energies equal pi/2 for u = cos
        u = boundary(fn=np.cos)
        res = nl.energy_identity_check(u)
        for key in ("E_line", "E_disk", "E_circle"):
            assert res[key] == pytest.approx(math.pi / 2, rel=1e-6)

    def test_three_ways_mixed(self):
        # cos + sin(2 theta): pi(1/2 + 2/2)*2*(1/4+1/4)... hand value:
        # E = (pi/2) sum |k| (a_k^2 + b_k^2) = pi/2 (1 + 2) = 3 pi/2
        u = boundary(fn=lambda x: np.cos(x) + np.sin(2 * x))
        res = nl.energy_identity_check(u)
        for key in ("E_line", "E_disk", "E_circle"):
            assert res[key] == pytest.approx(3 * math.pi / 2, rel=1e-4)
        spread = max(res.values()) - min(res.values())
        assert spread < 1e-4
