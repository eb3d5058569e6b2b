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


@pytest.mark.parametrize("n", [8, 64, 128, 1024])
def test_disk_energy_matches_per_radius_loop(n):
    u = random_boundary(n, 7 + n)
    assert nl.energy_identity_check(u)["E_disk"] == disk_energy(u)
