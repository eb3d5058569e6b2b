"""Every Gauss-Legendre rule comes from kernels._gauss_legendre, laid on its
panels by kernels._gl_panels.  The panel builders, the principal-value plan
and fold, the diagonal cell and the disk energy must reproduce, bit for bit,
the forms that took numpy's leggauss per call (tests/_oracles.py)."""

import math

import numpy as np
import pytest
from _oracles import (diagonal_cell, energy_identity_check, line_rule, pv_fold,
                      pv_fold_graded120, pv_rule, sinetail_panels, support_panels)

import nonlocper as nl
from nonlocper import kernels
from nonlocper import operator as op
from nonlocper.energy import _diagonal_cell
from nonlocper.grids import EVAL_BLOCK


def assert_all_equal(got, ref):
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [8, 12, 64])
def test_gauss_legendre_is_cached_and_read_only(n):
    x, w = kernels._gauss_legendre(n)
    assert kernels._gauss_legendre(n)[0] is x
    assert_all_equal((x, w), np.polynomial.legendre.leggauss(n))
    for a in (x, w):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


@pytest.mark.parametrize("support,breaks,xi_max", [
    (1.3, (), 0.5), (2.0, (0.7, 1.1), 40.0), (0.6 * math.pi, (1e-3, 0.5), 512.0)])
def test_support_panels(support, breaks, xi_max):
    assert_all_equal(op._support_panels(support, breaks, xi_max),
                     support_panels(support, breaks, xi_max))


@pytest.mark.parametrize("s", [0.05, 0.5, 0.95])
def test_line_rule(s):
    assert_all_equal(op._line_rule(s), line_rule(s))


def reordered(ref):
    """The oracle's plan in the two tiers' layout: the nodes below z_switch,
    rule after rule, then the direct ones; (zs, w, n_small, direct sizes),
    cos_large, z2 and powers."""
    zs, w, cuts, cos_large, z2, powers = ref
    order = np.concatenate([np.arange(a, b) for a, b, _ in cuts]
                           + [np.arange(b, c) for _, b, c in cuts])
    n_small = sum(b - a for a, b, _ in cuts)
    return zs[order], w[order], n_small, [c - b for _, b, c in cuts], cos_large, z2, powers


def assert_plan_matches(L, n_modes, breakpoints, s):
    taylor, cos_large = op._pv_free(L, n_modes, breakpoints)
    zs, w, n_small, segs, z2, powers = op._pv_rule(L, breakpoints, s)
    rzs, rw, r_small, r_sizes, r_cos, rz2, r_powers = reordered(
        pv_rule(L, n_modes, breakpoints, s))
    assert_all_equal((zs, w, cos_large, z2, powers), (rzs, rw, r_cos, rz2, r_powers))
    assert n_small == r_small
    assert [seg.stop - seg.start for seg in segs] == r_sizes
    assert [seg.start for seg in segs] == [0, *np.cumsum(r_sizes)[:-1]]
    d2 = -(np.pi * np.arange(n_modes) / L) ** 2
    assert_all_equal(taylor.T, (d2, d2**2 / 12.0, d2**3 / 360.0))
    return zs, w, powers


@pytest.mark.parametrize("L,n_modes,breakpoints", [
    (math.pi, 33, ()), (math.pi, 129, (4 * math.pi - 10,)), (12.566, 17, (0.5, 2.0)),
    (0.05, 9, ())])
def test_pv_rule(L, n_modes, breakpoints):
    for s in (0.05, 0.5, 0.95):
        assert_plan_matches(L, n_modes, breakpoints, s)


def test_pv_rule_grades_below_its_smallest_breakpoint():
    # a kink at 1e-9 lies below eps 2^-12 for every eps: each rule halves its
    # panels until the power-substitution panel (0, a) ends below it
    zs, w, powers = assert_plan_matches(math.pi, 17, (1e-9, 0.5), 0.3)
    for i, eps in enumerate(op.PV_EPS_SEQ):
        # rule i's nodes below z_switch are the columns where its row of
        # z^0 is 1: 20 nodes on (0, a), then the 12 of the first graded
        # panel, which starts at a: its weights sum to its length
        start = int(np.flatnonzero(powers[3 * i])[0])
        end, first = zs[start:start + 20], slice(start + 20, start + 32)
        a = zs[first].mean() - 0.5 * w[first].sum()
        depth = math.log2(eps / a)
        assert end[-1] < a < 1e-9
        assert depth > 12 and abs(depth - round(depth)) < 1e-9


@pytest.mark.parametrize("xi_max", [0.0, 5.0, 50.0, 1000.0])
def test_sinetail_panels(xi_max):
    assert_all_equal(kernels._sinetail_panels(xi_max), sinetail_panels(xi_max))


@pytest.mark.parametrize("kernel", [
    nl.FractionalKernel(0.3), nl.DelaunayKernel(2, 0.5, 1.0),
    nl.CompactKernel([1e-3, 0.5, 1.5], [1.0, 0.6, 0.0], s=0.5), nl.SineTailKernel(0.5)],
    ids=["fraclap", "delaunay", "compact", "sinetail"])
def test_diagonal_cell(kernel):
    wk = nl.wrap_kernel(kernel, math.pi)
    for n in (8, 64, 1024):
        h = 2.0 * math.pi / n
        assert _diagonal_cell(wk, h) == diagonal_cell(wk, h)


@pytest.mark.parametrize("n", [8, 128, 1024])
def test_energy_identity_check(n):
    u = nl.PeriodicFunction(nl.circle_grid(n), np.random.default_rng(n).standard_normal(n))
    assert nl.energy_identity_check(u) == energy_identity_check(u)


def chord(t):
    return 1.0 / (4.0 * math.pi * np.sin(0.5 * t) ** 2)


@pytest.mark.parametrize("case", ["fraclap", "compact", "chord"])
def test_pv_fold_over_several_blocks(case):
    # 2 EVAL_BLOCK + 1 points: two full blocks and one of a single point
    g = nl.PeriodicGrid(math.pi, 64)
    rng = np.random.default_rng(5)
    k = np.arange(1, 7)
    a, b = rng.standard_normal((2, k.size)) / k**2
    u = nl.PeriodicFunction.from_callable(
        g, lambda x: np.cos(np.outer(x, k)) @ a + np.sin(np.outer(x, k)) @ b)
    if case == "chord":
        kbar, breakpoints, s = chord, (), 0.5
    else:
        kernel = (nl.FractionalKernel(0.4) if case == "fraclap" else
                  nl.CompactKernel([1e-3, 0.5, 1.5], [1.0, 0.6, 0.0], s=0.5))
        kbar = nl.wrap_kernel(kernel, math.pi)
        breakpoints, s = kbar.breakpoints, kernel.s
    xs = rng.uniform(-math.pi, math.pi, 2 * EVAL_BLOCK + 1)
    assert np.array_equal(op._pv_fold(u, xs, kbar, breakpoints, s),
                          pv_fold(u, xs, kbar, breakpoints, s))
    assert np.array_equal(op._pv_fold(u, xs[:1], kbar, breakpoints, s),
                          pv_fold(u, xs[:1], kbar, breakpoints, s))


_BENCH_T = np.linspace(1e-3, 0.6 * math.pi, 64)


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("kernel", [
    nl.FractionalKernel(0.2), nl.FractionalKernel(0.5), nl.DelaunayKernel(2, 0.5, 1.0),
    nl.CompactKernel(_BENCH_T, 1.0 - _BENCH_T / (0.6 * math.pi), s=0.5),
    nl.indicator_kernel(1.3 * math.pi)],
    ids=["fraclap-0.2", "fraclap-0.5", "delaunay", "compact", "indicator"])
def test_pv_fold_agrees_with_the_graded120_rule(kernel, n):
    # the power-substitution panel on (0, eps 2^-12) against 108 more levels
    # of graded panels and the sliver below them dropped, on the kernels of
    # the benchmark's pv-crossval workload
    g = nl.PeriodicGrid(math.pi, n)
    rng = np.random.default_rng(n)
    k = np.arange(1, 9)
    a, b = rng.standard_normal((2, k.size)) / k
    u = nl.PeriodicFunction.from_callable(
        g, lambda x: np.cos(np.outer(x, k)) @ a + np.sin(np.outer(x, k)) @ b)
    wk = nl.wrap_kernel(kernel, math.pi)
    xs = np.concatenate([g.nodes[::n // 16], rng.uniform(-math.pi, math.pi, 16)])
    new = op._pv_fold(u, xs, wk, wk.breakpoints, kernel.s)
    old = pv_fold_graded120(u, xs, wk, wk.breakpoints)
    assert np.all(np.abs(new - old) <= 1e-13 * np.maximum(1.0, np.abs(old)))
