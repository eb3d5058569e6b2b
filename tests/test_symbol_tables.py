"""The sine tables of the fixed symbol rules and the tail integrals they
and the wrap call: kernels._sine_square_sums rotates e^(i xi t/2) along a
grid's frequency ladder and must match the direct sine table it replaced
there, and every tail_integral takes an array in one call, element for
element the float that a call on that start alone gives."""

import math

import numpy as np
import pytest
from _oracles import (compact_tail_integral, de_tail_integral, laplace_tail_integral,
                      sine_square_sums, sinetail_tail_integral)

import nonlocper as nl
from nonlocper import kernels
from nonlocper import operator as op

# the 64-knot compact profile of the benchmark's symbol tables
_TT = np.linspace(1e-3, 0.6 * math.pi, 64)
_COMPACT = nl.CompactKernel(_TT, 1.0 - _TT / (0.6 * math.pi), s=0.5)
_SINETAIL = nl.SineTailKernel(0.5)


def _table(rule: str, xi: np.ndarray) -> tuple:
    """(nodes, weights, runs, rest) of the sine table that the rule builds
    at the frequencies xi.  An error in a table is measured against the
    symbol it feeds, rest + table: for SineTail the power part's symbol,
    and for the compact bends, which enter the symbol divided by xi^2,
    xi^2 times the symbol's other terms.  The support rule's fine and
    coarse rules are two runs of its nodes."""
    if rule == "sinetail":
        t, w = kernels._sinetail_panels(float(xi[-1]))
        s, p = _SINETAIL.s, _SINETAIL.s + 2.5
        c = 2.0 / ((p - 1.0) * (p - 2.0))
        sine = w * (_SINETAIL.profile(t) - c * t ** (-1.0 - 2.0 * s))
        return t, sine, (0,), (c / nl.frac_lap_constant(s) * xi ** (2.0 * s))[:, None]
    if rule == "bends":
        t, k = _COMPACT.t_table, _COMPACT.k_table
        slopes = np.concatenate([[0.0], np.diff(k) / np.diff(t), [0.0]])
        mass = _COMPACT.tail_integral(0.0)
        rest = 2.0 * xi * (mass * xi - k[-1] * np.sin(xi * t[-1]))
        return t, slopes[:-1] - slopes[1:], (0,), rest[:, None]
    t, weights = op._support_panels(_COMPACT.support, _COMPACT.breaks, float(xi[-1]))
    runs = (0, np.count_nonzero(weights[:, 0]))
    return t, weights.sum(axis=1) * _COMPACT(t), runs, 0.0


class TestSineSquareSums:
    @pytest.mark.parametrize("N", [16, 256, 1024, 4096])
    @pytest.mark.parametrize("L", [math.pi, 2.0, 4.0 * math.pi, 0.7],
                             ids=["pi", "2", "4pi", "0.7"])
    @pytest.mark.parametrize("rule", ["sinetail", "bends", "support"])
    def test_ladder_matches_the_direct_table(self, rule, L, N):
        xi = nl.PeriodicGrid(L, N).frequencies()[1:]
        if N >= 1024:
            # the top 130 rows, a ladder too: the largest phases, and two
            # reseeds of a one-row block; the direct table of all 2048 rows
            # takes seconds over SineTail's 739008 nodes at L = 0.7
            xi = xi[-130:]
        t, w, runs, rest = _table(rule, xi)
        got = kernels._sine_square_sums(xi, t, w, runs)
        ref = sine_square_sums(xi, t, w, runs, pairwise=True)
        assert got.shape == (xi.size, len(runs))
        assert np.max(np.abs(got - ref) / np.abs(rest + ref)) <= 1e-14

    @pytest.mark.parametrize("rule", ["sinetail", "bends", "support"])
    def test_one_exponential_per_node_every_reseed(self, rule, monkeypatch):
        # the ladder evaluates e^(i phase) at one row block in _RESEED, and
        # once for the step; any other xi never does
        entries = []
        unit = kernels._unit
        monkeypatch.setattr(kernels, "_unit", lambda phase: entries.append(phase.size)
                            or unit(phase))
        xi = nl.PeriodicGrid(math.pi, 1024).frequencies()[1:]
        t, w, runs, _ = _table(rule, xi)
        kernels._sine_square_sums(xi, t, w, runs)
        rows = max(1, kernels._BLOCK // t.size)
        reseeds = -(-xi.size // (rows * kernels._RESEED))
        assert 0 < sum(entries) <= t.size * (1 + rows * reseeds) < t.size * xi.size
        entries.clear()
        scattered = np.sort(np.random.default_rng(5).uniform(0.0, xi[-1], xi.size))
        got = kernels._sine_square_sums(scattered, t, w, runs)
        assert entries == []
        assert np.array_equal(got, sine_square_sums(scattered, t, w, runs))

    def test_grid_ladders_start_at_their_step(self):
        # frequencies()[1:] is pi k/L for k >= 1: its first row is its step,
        # to the bit, and the rotation reuses that exponential
        for L in (math.pi, 2.0, 4.0 * math.pi, 0.7, 1e-4, 123.4):
            for N in (16, 256, 1024, 4096):
                xi = nl.PeriodicGrid(L, N).frequencies()[1:]
                assert xi[0] == (xi[-1] - xi[0]) / (xi.size - 1)


def _support_kernel():
    b = 135.0 * math.pi
    return nl.CustomKernel(lambda t: (b - t) ** 2, s=0.5, Lambda_hi=1e12, support=b), b


_CUSTOM, _B = _support_kernel()

# each family and branch of tail_integral, with the starts that reach it
_TAILS = {
    # a = 0 is tanh-sinh on [0, 1], then exp-sinh from 1; 1e299 leaves a
    # few nodes below t = 1e300 and the power-law rest beyond
    "delaunay": (nl.DelaunayKernel(2, 0.5, 1.0), de_tail_integral,
                 [0.0, 1e-3, 0.5, 1.0, 400.0, 1e5, 1e299]),
    # below s = 0.0284 every start stops at t = 1e300 and takes the rest
    "fraclap-0.005": (nl.FractionalKernel(0.005), de_tail_integral,
                      [1e-3, 1.0, 400.0, 1e5, 1e299]),
    "fraclap-0.5": (nl.FractionalKernel(0.5), de_tail_integral, [1e-3, 1.0, 400.0, 1e299]),
    # tanh-sinh up to a support, zero at and beyond it
    "custom-support": (_CUSTOM, de_tail_integral, [0.0, 1.0, 0.5 * _B, _B, 2.0 * _B]),
    # inside the flat piece, at a knot, inside a slope, at the cutoff, beyond
    "compact": (nl.CompactKernel([0.5, 1.5], [1.0, 0.6], s=0.5), compact_tail_integral,
                [0.0, 0.25, 0.5, 1.0, 1.5, 2.0]),
    "compact-64": (_COMPACT, compact_tail_integral, [0.0, 1e-3, 0.3, _TT[17], 1.8, 2.0]),
    # math.erfc underflows for a sqrt(r) >= 27.25: from a = 400 on, most r
    "laplace-of-delaunay": (nl.laplace_measure_of(nl.DelaunayKernel(2, 0.5, 1.0)),
                            laplace_tail_integral, [0.0, 1e-3, 0.5, 10.0, 400.0, 1e4]),
    # both sides of the profile's t = 10 switch, and power parts 1e4 apart
    "sinetail-0.5": (_SINETAIL, sinetail_tail_integral,
                     [0.05, 0.5, 3.0, 9.9, 10.0, 12.5, 40.0, 1e3]),
    "sinetail-0.05": (nl.SineTailKernel(0.05), sinetail_tail_integral, [0.3, 3.0, 40.0]),
}


class TestVectorTailIntegral:
    @pytest.mark.parametrize("name", _TAILS)
    def test_array_call_equals_scalar_calls(self, name):
        kernel, _, starts = _TAILS[name]
        a = np.array(starts)
        alone = [kernel.tail_integral(float(x)) for x in starts]
        assert all(type(v) is float for v in alone)
        assert np.array_equal(kernel.tail_integral(a), alone)
        # reversed, and as a column: the same floats, in the input's shape
        assert np.array_equal(kernel.tail_integral(a[::-1]), alone[::-1])
        column = kernel.tail_integral(a[:, None])
        assert column.shape == (a.size, 1)
        assert np.array_equal(column[:, 0], alone)

    @pytest.mark.parametrize("name", _TAILS)
    def test_matches_the_scalar_rule(self, name):
        # the same rule one start at a time; only the order of the sums
        # changed (a vecdot per row for BLAS's dot, a pairwise sum for
        # np.trapezoid's), so a few ulp of the largest term
        kernel, oracle, starts = _TAILS[name]
        got = kernel.tail_integral(np.array(starts))
        ref = np.array([oracle(kernel, x) for x in starts])
        assert np.all(np.abs(got - ref) <= 8.0 * np.finfo(float).eps * np.abs(ref))

    @pytest.mark.parametrize("name", ["sinetail-0.5", "laplace-of-delaunay"])
    def test_bitwise_where_the_arithmetic_is_unchanged(self, name):
        kernel, oracle, starts = _TAILS[name]
        assert np.array_equal(kernel.tail_integral(np.array(starts)),
                              [oracle(kernel, x) for x in starts])

    def test_sinetail_step_check_per_start(self, monkeypatch):
        # each start's step-2h estimate is held to its own power part: starts
        # whose power parts are 1e4 apart pass together, and with no
        # tolerance the array raises as its first start alone does
        k = nl.SineTailKernel(0.5)
        a = np.geomspace(0.05, 1e3, 40)
        assert np.array_equal(k.tail_integral(a), [k.tail_integral(float(x)) for x in a])
        monkeypatch.setattr(kernels, "_DESCENT_TOL", 0.0)
        with pytest.raises(nl.IntegrationError) as alone:
            k.tail_integral(float(a[0]))
        with pytest.raises(nl.IntegrationError) as batch:
            k.tail_integral(a)
        assert str(batch.value) == str(alone.value)

    @pytest.mark.parametrize("name", ["delaunay", "custom-support"])
    def test_negative_start_in_an_array_raises(self, name):
        kernel = _TAILS[name][0]
        with pytest.raises(nl.DomainError):
            kernel.tail_integral(np.array([1.0, -1.0]))


class TestOneTailCall:
    """_fixed_rule and the wrap's Euler-Maclaurin tail fit each make one
    tail_integral call, however many starts they need."""

    @staticmethod
    def tail_calls(monkeypatch, kernel):
        calls = []
        cls = type(kernel)
        integral = cls.tail_integral
        monkeypatch.setattr(cls, "tail_integral",
                            lambda self, a: calls.append(np.size(a)) or integral(self, a))
        return calls

    @pytest.mark.parametrize("kernel", [nl.FractionalKernel(0.5), nl.DelaunayKernel(2, 0.5, 1.0)],
                             ids=["fraclap", "delaunay"])
    def test_fixed_rule(self, kernel, monkeypatch):
        calls = self.tail_calls(monkeypatch, kernel)
        nl.symbol_of_kernel(kernel, nl.PeriodicGrid(math.pi, 64), force_quadrature=True)
        assert calls == [32]

    @pytest.mark.parametrize("kernel", [
        nl.DelaunayKernel(2, 0.5, 1.0), _SINETAIL,
        nl.laplace_measure_of(nl.DelaunayKernel(2, 0.5, 1.0))],
        ids=["delaunay", "sinetail", "laplace-of-delaunay"])
    def test_wrap_tail_fit(self, kernel, monkeypatch):
        calls = self.tail_calls(monkeypatch, kernel)
        nl.wrap_kernel(kernel, math.pi)
        assert calls == [kernels._TAIL_POINTS]

    def test_sinetail_wrap_and_class_unchanged(self, monkeypatch):
        # the SineTail wrap table and classify_kernel's report, against the
        # same built from the scalar tail integral one node at a time
        k = nl.SineTailKernel(0.5)
        wk = nl.wrap_kernel(k, math.pi)
        report = nl.classify_kernel(k, L=math.pi)
        monkeypatch.setattr(nl.SineTailKernel, "tail_integral", lambda self, a: np.array(
            [sinetail_tail_integral(self, x) for x in np.ravel(a)]).reshape(np.shape(a)))
        probes = np.linspace(0.0, 2.0 * math.pi, 1001)
        assert np.array_equal(wk(probes), nl.wrap_kernel(k, math.pi)(probes))
        assert report == nl.classify_kernel(k, L=math.pi)


class TestRuleNodeCap:
    """The rules whose node count grows with the largest frequency count
    their nodes before building any (kernels._MAX_RULE_NODES); the cases
    that would pass it run in a child under an address-space limit, in
    tests/test_cli.py."""

    def test_sinetail_at_n4096_is_far_below(self):
        t, _ = kernels._sinetail_panels(2048.0)  # L = pi, N = 4096
        assert t.size == 167536 <= kernels._MAX_RULE_NODES / 6

    @pytest.mark.parametrize("xi_max", [1.0, 8.0, 100.0, 2048.0, 9192.0])
    def test_sinetail_count_bounds_the_nodes(self, xi_max, monkeypatch):
        # a cap one below the true count raises: the count is an upper bound
        n = kernels._sinetail_panels(xi_max)[0].size
        monkeypatch.setattr(kernels, "_MAX_RULE_NODES", n - 1)
        with pytest.raises(nl.DomainError, match="SineTail symbol rule"):
            kernels._sinetail_panels(xi_max)

    @pytest.mark.parametrize("xi_max", [1.0, 100.0, 4096.0])
    def test_support_count_is_the_node_count(self, xi_max, monkeypatch):
        n = op._support_panels(_COMPACT.support, _COMPACT.breaks, xi_max)[0].size
        monkeypatch.setattr(kernels, "_MAX_RULE_NODES", n)
        op._support_panels(_COMPACT.support, _COMPACT.breaks, xi_max)
        monkeypatch.setattr(kernels, "_MAX_RULE_NODES", n - 1)
        with pytest.raises(nl.DomainError, match="symbol rule on a support"):
            op._support_panels(_COMPACT.support, _COMPACT.breaks, xi_max)
