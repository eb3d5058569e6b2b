"""The real half spectrum against the full-spectrum forms it replaced
(complex FFTs in fft order, tests/_oracles.py): PeriodicFunction's views and
transforms, the spectral operator and bilinear form, the circle routes, and
the Lagrangian's core (energy, gradient and preconditioner from
rfft/irfft); minimize's transform count per step; and symmetry_diagnostics
against its complex-FFT form."""

import collections
import importlib
import math

import numpy as np
import pytest
import _oracles as full
from _oracles import symmetry_diagnostics as complex_diagnostics
from test_minimize_loop import bench_bo_starts

import nonlocper as nl

minimize_mod = importlib.import_module("nonlocper.minimize")

# the start's rfft, its gradient's irfft and the preconditioner's
# rfft/irfft, then the diagnostics' u half spectrum (rfft), the samples of
# u' and u'' (irfft each) and three padded irfft (refine, u and u')
SETUP_AND_DIAGNOSTICS = 10
# no complex transform is left
DIAGNOSTICS_COMPLEX = 0


def nyquist_heavy(n):
    """A function on the 2pi-periodic N-node grid with every mode present
    and a large Nyquist cosine."""
    g = nl.PeriodicGrid(math.pi, n)
    rng = np.random.default_rng(n)
    x = g.nodes
    samples = (0.7 + np.cos(x) + 0.3 * np.cos(3 * x + 0.2) + 0.5 * np.cos(0.5 * n * x)
               + 0.01 * rng.standard_normal(n))
    return g, nl.PeriodicFunction(g, samples)


@pytest.mark.parametrize("n", [8, 64, 1024])
class TestHalfSpectrumCore:
    def test_kinetic_is_half_the_fourier_seminorm(self, n):
        g, u = nyquist_heavy(n)
        sym = nl.symbol_of_kernel(nl.FractionalKernel(0.5), g)
        rep = nl.energy(u, sym, nl.benjamin_ono_type(2.0))
        want = 0.5 * full.full_bilinear_fourier(sym, u, u)
        assert abs(rep.kinetic - want) <= 1e-14 * want

    @pytest.mark.parametrize("nlty", [nl.benjamin_ono_type(2.0), nl.power_constraint(2.0)],
                             ids=["with-G", "no-G"])
    def test_gradient_is_the_spectral_apply_minus_g(self, n, nlty):
        g, u = nyquist_heavy(n)
        sym = nl.symbol_of_kernel(nl.FractionalKernel(0.5), g)
        want = full.full_apply_spectral(sym, u)
        if nlty.g is not None:
            want = want - nlty.g(u.samples)
        got = nl.energy(u, sym, nlty).gradient.samples
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_preconditioner_is_the_full_coefficient_division(self, n):
        g, u = nyquist_heavy(n)
        sym = nl.symbol_of_kernel(nl.FractionalKernel(0.5), g)
        want = full.full_samples(g, full.full_coeffs(u) / (1.0 + full.full_multiplier(sym)))
        got = minimize_mod._preconditioned(sym, u.samples)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def assert_close(got, want, tol=1e-13):
    want = np.asarray(want)
    assert np.max(np.abs(np.asarray(got) - want)) <= tol * np.max(np.abs(want))


@pytest.mark.parametrize("n", [8, 64, 1024])
def test_views_and_transforms_match_the_full_spectrum(n):
    g, u = nyquist_heavy(n)
    sym = nl.symbol_of_kernel(nl.FractionalKernel(0.5), g)
    rng = np.random.default_rng(n + 1)
    psi = nl.PeriodicFunction(g, rng.standard_normal(n))
    c = full.full_coeffs(u)
    assert_close(u.coeffs(), c)
    ks = range(-n // 2, n // 2 + 1)  # k % n is N/2 for both Nyquist entries
    assert_close([u.coeff(k) for k in ks], [c[k % n] for k in ks])
    xs = rng.uniform(-math.pi, math.pi, 40)
    assert_close(u.modes(xs), full.full_modes(u, xs))
    for m in (2 * n, 8 * n):
        assert_close(u.refine(m).samples, full.full_refine(u, m))
    # a result built from a half spectrum caches it: it must be the
    # spectrum of the result's samples, the Nyquist entry real
    for z in (0.3, -1.7, math.pi / n):
        v = u.shift(z)
        assert_close(v.samples, full.full_shift(u, z))
        assert_close(v.coeffs(), full.full_coeffs(v))
    for order in (1, 2, 3):
        v = u.derivative(order)
        assert_close(v.samples, full.full_derivative(u, order))
        assert_close(v.coeffs(), full.full_coeffs(v))
    assert_close(nl.apply_spectral(sym, u).samples, full.full_apply_spectral(sym, u))
    assert_close(nl.bilinear_fourier(sym, u, psi), full.full_bilinear_fourier(sym, u, psi))
    assert_close(nl.dtn_multiplier(u).samples, full.full_dtn_multiplier(u))
    assert_close(nl.circle_dtn.poisson_extension(u, 0.9), full.poisson_extension(u, 0.9))
    got, want = nl.energy_identity_check(u), full.full_energy_identity(u)
    assert_close([got[k] for k in want], list(want.values()))


def test_from_half_spectrum_needs_n_over_2_plus_1_entries():
    g = nl.PeriodicGrid(math.pi, 16)
    for size in (8, 10, 16):
        with pytest.raises(nl.GridMismatchError):
            nl.PeriodicFunction.from_half_spectrum(g, np.ones(size))
    with pytest.raises(nl.GridMismatchError):
        nl.PeriodicFunction.from_coeffs(g, np.ones(8))


def test_transform_budget(monkeypatch):
    """A backtrack costs one real FFT, an accepted step three more."""
    cfg = bench_bo_starts()[0]
    counts = collections.Counter()
    for name in ("fft", "ifft", "rfft", "irfft"):
        def counted(*args, _f=getattr(np.fft, name), _name=name, **kw):
            counts[_name] += 1
            return _f(*args, **kw)
        monkeypatch.setattr(np.fft, name, counted)
    projected, projections = minimize_mod._projected, []

    def counting(*args):
        projections.append(args)
        return projected(*args)

    monkeypatch.setattr(minimize_mod, "_projected", counting)
    res = nl.minimize(cfg)
    monkeypatch.undo()
    assert res.converged
    candidates = len(projections) - 1  # the first projects the start
    accepted = res.energy_trace.size - 1
    assert candidates > accepted > 0
    assert (counts["rfft"] + counts["irfft"]
            == candidates + 3 * accepted + SETUP_AND_DIAGNOSTICS)
    assert counts["fft"] + counts["ifft"] == DIAGNOSTICS_COMPLEX


def on_grid(n, f):
    g = nl.PeriodicGrid(math.pi, n)
    return nl.PeriodicFunction.from_callable(g, f)


@pytest.fixture(scope="module")
def bo_minimizers():
    return [nl.minimize(cfg).u for cfg in bench_bo_starts()]


DIAGNOSTIC_CASES = {
    # the odd derivative drops the Nyquist mode: kept, this reads 34
    "nyquist-heavy": (lambda: on_grid(64, lambda x: np.cos(x) + 0.3 * np.cos(3 * x + 0.2)
                                      + 0.1 * np.cos(32 * x)), 2),
    "six-critical-points": (lambda: on_grid(64, lambda x: np.cos(x) + 0.3 * np.sin(5 * x + 0.2)), 6),
    "constant": (lambda: nl.PeriodicFunction(nl.PeriodicGrid(math.pi, 64), np.full(64, 1.3)), 0),
}


def assert_same_diagnostics(u):
    got, want = nl.symmetry_diagnostics(u), complex_diagnostics(u)
    tol = 1e-14 * max(1.0, float(np.max(np.abs(u.samples))))
    assert got.degenerate == want.degenerate
    assert got.center == want.center
    assert got.critical_points == want.critical_points
    assert abs(got.evenness_defect - want.evenness_defect) <= tol
    assert abs(got.monotonicity_defect - want.monotonicity_defect) <= tol
    return got


@pytest.mark.parametrize("make,critical", DIAGNOSTIC_CASES.values(), ids=DIAGNOSTIC_CASES.keys())
def test_diagnostics_match_the_complex_route(make, critical):
    assert assert_same_diagnostics(make()).critical_points == critical


@pytest.mark.parametrize("start", range(3))
def test_diagnostics_match_the_complex_route_on_bench_minimizers(bo_minimizers, start):
    assert assert_same_diagnostics(bo_minimizers[start]).critical_points == 2
