import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nonlocper as nl


class TestBootstrap:
    def test_converges_to_limit(self):
        trace = nl.bootstrap_exponents(0.2, 0.4)
        assert trace[0] == pytest.approx(0.4)
        # the trace entries are 2s*beta_k with beta_k = sum beta^j -> 1/(1-beta),
        # so the limit is 2s/(1-beta) and trace/2s -> 1/(1-beta)
        assert trace[-1] == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert trace[-1] / (2 * 0.2) == pytest.approx(1.0 / (1.0 - 0.4), abs=1e-8)
        assert all(b > a for a, b in zip(trace, trace[1:]))

    def test_reaches_one_quickly_supercritical(self):
        trace = nl.bootstrap_exponents(0.3, 0.5)
        assert trace[-1] >= 1.0 or len(trace) <= 5


class TestVerdicts:
    def test_subcritical_family(self):
        v = nl.regularity_verdict(0.2, 0.4)
        assert v.case == nl.analysis.CASE_SUBCRITICAL
        assert v.exponent_family == pytest.approx(2.0 / 3.0)
        assert v.exponent_family == pytest.approx(2 * 0.2 / (1.0 - 0.4))

    def test_supercritical_family(self):
        v = nl.regularity_verdict(0.3, 0.5)
        assert v.case == nl.analysis.CASE_SUPERCRITICAL
        assert v.exponent_family == pytest.approx(1.1)

    def test_beta_geq_one_always_case_ii(self):
        for s in (0.2, 0.5, 0.8):
            for beta in (1.0, 1.5, 3.0):
                assert nl.regularity_verdict(s, beta).case == \
                    nl.analysis.CASE_SUPERCRITICAL

    def test_trace_exponent_limit(self):
        # subcritical family exponent is 2s/(1-beta)
        for s, beta in ((0.1, 0.3), (0.2, 0.5), (0.1, 0.15)):
            v = nl.regularity_verdict(s, beta)
            if v.case == nl.analysis.CASE_SUBCRITICAL:
                assert v.exponent_family == pytest.approx(2 * s / (1.0 - beta))

    def test_openness_flags(self):
        v = nl.regularity_verdict(0.2, 0.4)
        d = v.to_dict()
        assert d["epsilon_open"] is True
        assert "sharpness_open" in d


class TestMoser:
    def test_dict_fields_scalar(self):
        res = nl.moser_scalar_check(1.0, -2.0, 3.0, 2.0)
        assert set(res) == {"lhs", "rhs", "holds"}
        assert res["holds"]

    def test_vectorized_random(self):
        rng = np.random.default_rng(0)
        n = 10**5
        res = nl.moser_scalar_check(
            rng.normal(size=n) * 10, rng.normal(size=n) * 10,
            np.abs(rng.normal(size=n)) * 5, rng.uniform(0, 5, n))
        assert bool(np.all(res["holds"]))

    def test_domain(self):
        with pytest.raises(nl.DomainError):
            nl.moser_scalar_check(1.0, 2.0, -1.0, 2.0)
        with pytest.raises(nl.DomainError):
            nl.moser_scalar_check(1.0, 2.0, 1.0, -2.0)


@settings(max_examples=300, deadline=None)
@given(st.floats(-100, 100, allow_nan=False),
       st.floats(-100, 100, allow_nan=False),
       st.floats(0, 50, allow_nan=False),
       st.floats(0, 10, allow_nan=False))
def test_moser_property(a, b, M, r):
    assert nl.moser_scalar_check(a, b, M, r)["holds"]
