"""The circle's Poisson route and disk energy against the per-radius forms
they replace (tests/_oracles.py)."""

import numpy as np
import pytest
from _oracles import disk_energy, poisson_extension

import nonlocper as nl


def random_boundary(n, seed):
    g = nl.circle_grid(n)
    return nl.PeriodicFunction(g, np.random.default_rng(seed).standard_normal(n))


@pytest.mark.parametrize("n", [8, 128, 1024])
@pytest.mark.parametrize("radius", [0.5, 0.99, 1 - 1.25e-3])
def test_poisson_extension_matches_refine_and_convolve(n, radius):
    u = random_boundary(n, n)
    ext = nl.circle_dtn.poisson_extension(u, radius)
    assert ext.shape == (n,)
    assert np.max(np.abs(ext - poisson_extension(u, radius))) < 1e-13


@pytest.mark.parametrize("n", [8, 128, 1024])
@pytest.mark.parametrize("radius", [0.99, 1 - 1.25e-3])
def test_poisson_extension_matches_the_closed_form(n, radius):
    # M >= 40/(1 - r) nodes leave an aliasing term r^M below 5e-18, so the
    # trapezoid sum is u_k r^|k| to rounding once its kernel does not cancel
    u = random_boundary(n, n)
    exact = nl.PeriodicFunction.from_half_spectrum(
        u.grid, u.half_spectrum() * radius ** np.arange(n // 2 + 1)).samples
    ext = nl.circle_dtn.poisson_extension(u, radius)
    assert np.max(np.abs(ext - exact)) <= 1e-14 * np.max(np.abs(u.samples))


@pytest.mark.parametrize("n", [64, 128])
def test_dtn_poisson_matches_the_multiplier(n):
    # dtn-check's boundary data: the Richardson value is exact on modes 1
    # and 2, so what is left is the rounding of the quadrature weights
    u = nl.PeriodicFunction.from_callable(nl.circle_grid(n),
                                          lambda x: np.cos(x) + 0.5 * np.sin(2 * x))
    direct = nl.dtn_multiplier(u).samples
    poisson = nl.dtn_poisson(u).samples
    assert np.max(np.abs(poisson - direct)) <= 1e-11 * np.max(np.abs(direct))


@pytest.mark.parametrize("n", [8, 64, 128, 1024])
def test_disk_energy_matches_per_radius_loop(n):
    u = random_boundary(n, 7 + n)
    assert nl.energy_identity_check(u)["E_disk"] == disk_energy(u)
