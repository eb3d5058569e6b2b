import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nonlocper as nl
from nonlocper.rearrange import _placement_order


def grid(N=64, L=math.pi):
    return nl.PeriodicGrid(L, N)


class TestRearrangePeriodic:
    def test_hand_example(self):
        # the profile is centered at index 0; index distance min(j, N-j)
        # orders the placement, +j before -j on ties.  For |u| multiset
        # {3, 2.5, 2, 1.5, 1, 0.5, 0.25, 0} the largest sits at index 0 and
        # the smallest at the antipode N/2.
        g = nl.PeriodicGrid(math.pi, 8)
        vals = np.array([0.0, 3.0, 1.0, -2.0, 0.5, -1.5, 2.5, 0.25])
        u = nl.PeriodicFunction(g, vals)
        out = nl.rearrange_periodic(u).samples
        assert out[0] == pytest.approx(3.0)
        assert out[1] == pytest.approx(2.5)
        assert out[-1] == pytest.approx(2.0)
        assert out[g.size // 2] == pytest.approx(0.0)

    def test_four_sample_example(self):
        g = nl.PeriodicGrid(math.pi, 8)
        vals = np.array([0.0, 3.0, 1.0, -2.0, 0.5, -1.5, 2.5, 0.25])
        out = nl.rearrange_periodic(nl.PeriodicFunction(g, vals)).samples
        # equimeasurable with |u|
        assert np.allclose(np.sort(out), np.sort(np.abs(vals)))

    def test_even_and_monotone(self):
        g = grid()
        rng = np.random.default_rng(5)
        u = nl.PeriodicFunction(g, rng.standard_normal(g.size))
        out = nl.rearrange_periodic(u).samples
        # centered at index 0: nonincreasing in index distance min(j, N-j),
        # with the +j node taking the larger of each antipodal pair
        half = g.size // 2
        assert np.all(np.diff(out[:half + 1]) <= 1e-15)
        n = g.size
        for j in range(1, half):
            assert out[j] >= out[n - j] >= out[j + 1]

    def test_nonnegative(self):
        g = grid()
        u = nl.PeriodicFunction(g, -np.abs(np.random.default_rng(0).standard_normal(g.size)))
        assert np.min(nl.rearrange_periodic(u).samples) >= 0.0

    def test_idempotent(self):
        g = grid()
        u = nl.PeriodicFunction(g, np.random.default_rng(1).standard_normal(g.size))
        r1 = nl.rearrange_periodic(u)
        r2 = nl.rearrange_periodic(r1)
        assert np.allclose(r1.samples, r2.samples)


class TestDetectTranslate:
    def test_planted_shift(self):
        g = grid()
        rng = np.random.default_rng(7)
        base = nl.rearrange_periodic(nl.PeriodicFunction(g, rng.random(g.size)))
        m = 11
        shifted = nl.PeriodicFunction(g, np.roll(base.samples, m))
        z = nl.detect_translate(shifted, base)
        assert z is not None
        # recovered shift reproduces the samples
        assert np.allclose(shifted.samples,
                           base.eval(g.nodes + z), atol=1e-9)

    def test_none_when_not_translate(self):
        g = grid()
        rng = np.random.default_rng(8)
        u = nl.PeriodicFunction(g, rng.random(g.size))
        ustar = nl.rearrange_periodic(u)
        assert nl.detect_translate(u, ustar) is None


@pytest.mark.parametrize("n", [8, 16, 64, 256, 1024, 4096])
def test_placement_order_is_the_explicit_list(n):
    explicit = [0]
    for j in range(1, n // 2):
        explicit += [j, n - j]
    explicit.append(n // 2)
    assert np.array_equal(_placement_order(n), explicit)


class TestPolyaSzego:
    def test_profile_once_per_cell_distance(self, monkeypatch):
        # the weights come from the wrap's table: K at each of the N - 1
        # distances and no image sum (grid_values would profile 128 images
        # per distance)
        g = grid(N=1024)
        kernel = nl.FractionalKernel(0.5)
        wk = nl.wrap_kernel(kernel, g.half_period)
        points, images = [], []
        profile = nl.FractionalKernel.profile
        monkeypatch.setattr(nl.FractionalKernel, "profile",
                            lambda self, t: points.append(np.size(t)) or profile(self, t))
        monkeypatch.setattr(nl.FractionalKernel, "image_profile",
                            lambda self, *args: images.append(args))
        u = nl.PeriodicFunction(g, np.random.default_rng(7).standard_normal(g.size))
        nl.polya_szego_check(kernel, u, wrapped=wk)
        assert sum(points) == g.size - 1
        assert images == []

    @pytest.mark.parametrize("kernel", [
        nl.FractionalKernel(0.5),
        nl.DelaunayKernel(2, 0.5, 1.0),
        nl.indicator_kernel(0.6 * math.pi)])  # support < L: nonincreasing wrap
    def test_inequality_random(self, kernel):
        g = grid()
        wk = nl.wrap_kernel(kernel, g.half_period, tol=1e-12)
        rng = np.random.default_rng(42)
        for _ in range(10):
            u = nl.PeriodicFunction(g, rng.standard_normal(g.size))
            rep = nl.polya_szego_check(kernel, u, wrapped=wk)
            assert rep.inequality_holds
            assert rep.relative_gap >= -1e-9

    def test_counterexample_reverses(self):
        # two bumps of heights a, b at distance L against the indicator of
        # [0, L + eps]: rearrangement strictly increases the seminorm
        g = grid(N=128)
        L = g.half_period
        eps = 0.3 * L
        kernel = nl.indicator_kernel(L + eps)
        wk = nl.wrap_kernel(kernel, L, tol=1e-12)
        delta = 2 * g.spacing
        for a in (0.5, 1.0, 2.0):
            for b in (0.5, 1.0, 2.0):
                bump = np.zeros(g.size)
                bump += a * (np.abs(g.nodes + L / 2) < delta)
                bump += b * (np.abs(g.nodes - L / 2) < delta)
                u = nl.PeriodicFunction(g, bump)
                rep = nl.polya_szego_check(kernel, u, wrapped=wk)
                assert not rep.inequality_holds
                assert rep.relative_gap < 0

    def test_equality_detects_translate(self):
        g = grid()
        kernel = nl.FractionalKernel(0.5)
        wk = nl.wrap_kernel(kernel, g.half_period, tol=1e-12)
        rng = np.random.default_rng(3)
        base = nl.rearrange_periodic(nl.PeriodicFunction(g, rng.random(g.size)))
        u = nl.PeriodicFunction(g, np.roll(base.samples, 9))
        rep = nl.polya_szego_check(kernel, u, wrapped=wk)
        assert rep.inequality_holds
        assert abs(rep.relative_gap) < 1e-10
        assert rep.equality_case is not None
        assert not rep.equality_inconclusive


class TestRiesz:
    def test_random_triples_hold(self):
        g = grid()
        rng = np.random.default_rng(11)
        weight = nl.PeriodicFunction.from_callable(
            g, lambda x: 1.0 + np.cos(math.pi * x / g.half_period))
        for _ in range(20):
            f = nl.PeriodicFunction(g, rng.uniform(0, 1, g.size))
            h = nl.PeriodicFunction(g, rng.uniform(0, 1, g.size))
            res = nl.riesz_circle_check(f, weight, h)
            assert res["holds"]

    def test_constant_f_gives_equality(self):
        g = grid()
        rng = np.random.default_rng(12)
        weight = nl.PeriodicFunction.from_callable(
            g, lambda x: 1.0 + np.cos(math.pi * x / g.half_period))
        f = nl.PeriodicFunction(g, np.full(g.size, 0.8))
        h = nl.PeriodicFunction(g, rng.uniform(0, 1, g.size))
        res = nl.riesz_circle_check(f, weight, h)
        assert res["holds"] and res["equality"]
        assert res["equality_inconclusive"]  # no aligning shift required

    @staticmethod
    def rolled_rearrangement(g, seed, cells):
        rng = np.random.default_rng(seed)
        star = nl.rearrange_periodic(nl.PeriodicFunction(g, rng.uniform(0, 1, g.size)))
        return nl.PeriodicFunction(g, np.roll(star.samples, cells))

    def test_common_roll_is_the_aligned_shift(self):
        # f and h rolled by the same 5 cells: f(x) = f*(x - 5h), so the
        # shift that aligns both with their rearrangements is -5h
        g = grid()
        weight = nl.PeriodicFunction.from_callable(
            g, lambda x: 1.0 + np.cos(math.pi * x / g.half_period))
        f, h = (self.rolled_rearrangement(g, seed, 5) for seed in (14, 15))
        res = nl.riesz_circle_check(f, weight, h)
        assert res["holds"] and res["equality"]
        assert not res["equality_inconclusive"]
        assert res["aligned_shift"] == pytest.approx(-5 * g.spacing, rel=1e-12)

    def test_constant_weight_with_other_rolls_is_inconclusive(self):
        # a constant weight makes both sides (sum f)(sum h) times it, so
        # equality holds although no common shift aligns f and h
        g = grid()
        weight = nl.PeriodicFunction(g, np.full(g.size, 0.7))
        f = self.rolled_rearrangement(g, 16, 5)
        h = self.rolled_rearrangement(g, 17, 9)
        res = nl.riesz_circle_check(f, weight, h)
        assert res["holds"] and res["equality"]
        assert res["equality_inconclusive"]
        assert res["aligned_shift"] is None

    def test_constant_h_is_inconclusive(self):
        g = grid()
        weight = nl.PeriodicFunction.from_callable(
            g, lambda x: 1.0 + np.cos(math.pi * x / g.half_period))
        f = self.rolled_rearrangement(g, 18, 5)
        h = nl.PeriodicFunction(g, np.full(g.size, 0.4))
        res = nl.riesz_circle_check(f, weight, h)
        assert res["holds"] and res["equality"]
        assert res["equality_inconclusive"]
        assert res["aligned_shift"] is None

    def test_bad_weight_rejected(self):
        g = grid()
        rng = np.random.default_rng(13)
        f = nl.PeriodicFunction(g, rng.uniform(0, 1, g.size))
        h = nl.PeriodicFunction(g, rng.uniform(0, 1, g.size))
        bad = nl.PeriodicFunction.from_callable(
            g, lambda x: np.sin(math.pi * x / g.half_period))  # odd, not even
        with pytest.raises(nl.HypothesisViolationError):
            nl.riesz_circle_check(f, bad, h)
        increasing = nl.PeriodicFunction.from_callable(
            g, lambda x: 1.0 - np.cos(math.pi * x / g.half_period))
        with pytest.raises(nl.HypothesisViolationError):
            nl.riesz_circle_check(f, increasing, h)

    def test_negative_inputs_rejected(self):
        g = grid()
        weight = nl.PeriodicFunction.from_callable(
            g, lambda x: 1.0 + np.cos(math.pi * x / g.half_period))
        f = nl.PeriodicFunction.from_callable(g, np.cos)  # sign-changing
        h = nl.PeriodicFunction(g, np.ones(g.size))
        with pytest.raises(nl.HypothesisViolationError):
            nl.riesz_circle_check(f, weight, h)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_rearrangement_invariants(seed):
    g = nl.PeriodicGrid(math.pi, 32)
    rng = np.random.default_rng(seed)
    u = nl.PeriodicFunction(g, rng.standard_normal(g.size))
    out = nl.rearrange_periodic(u)
    # equimeasurability, nonnegativity, max at the center index 0
    assert np.allclose(np.sort(out.samples), np.sort(np.abs(u.samples)))
    assert np.min(out.samples) >= 0
    assert out.samples[0] == np.max(np.abs(u.samples))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_polya_szego_property_fraclap(seed):
    g = nl.PeriodicGrid(math.pi, 32)
    kernel = nl.FractionalKernel(0.5)
    wk = nl.wrap_kernel(kernel, g.half_period, tol=1e-12)
    rng = np.random.default_rng(seed)
    u = nl.PeriodicFunction(g, rng.standard_normal(g.size))
    rep = nl.polya_szego_check(kernel, u, wrapped=wk)
    assert rep.relative_gap >= -1e-9
