"""Property-based tests (hypothesis) for the distribution substrate.

The invariants checked here are the ones the rest of the system leans on:
valid CDFs, correct inverse-CDF sampling, Lemma 2 scaling identities and the
Cauchy–Schwarz-type relations between the three moments.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import BoundedPareto

# Strategy for Bounded Pareto parameters: keep the dynamic range moderate so
# numerical integration in the oracle checks stays cheap and well-conditioned.
bp_params = st.tuples(
    st.floats(min_value=0.01, max_value=2.0),     # k
    st.floats(min_value=3.0, max_value=500.0),    # p / k ratio
    st.floats(min_value=0.5, max_value=3.0),      # alpha
)


def make_bp(params) -> BoundedPareto:
    k, ratio, alpha = params
    return BoundedPareto(k=k, p=k * ratio, alpha=alpha)


class TestBoundedParetoProperties:
    @given(bp_params)
    @settings(max_examples=60, deadline=None)
    def test_cdf_is_monotone_and_normalised(self, params):
        bp = make_bp(params)
        xs = np.linspace(bp.k, bp.p, 64)
        cdf = bp.cdf(xs)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert abs(float(cdf[0])) < 1e-12
        assert abs(float(cdf[-1]) - 1.0) < 1e-12

    @given(bp_params, st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    @settings(max_examples=60, deadline=None)
    def test_ppf_is_cdf_inverse(self, params, q):
        bp = make_bp(params)
        x = float(bp.ppf(q))
        assert bp.k <= x <= bp.p
        assert abs(float(bp.cdf(x)) - q) < 1e-9

    @given(bp_params)
    @settings(max_examples=60, deadline=None)
    def test_moment_inequalities(self, params):
        bp = make_bp(params)
        mean = bp.mean()
        second = bp.second_moment()
        inverse = bp.mean_inverse()
        # Jensen: E[X^2] >= E[X]^2 and E[1/X] >= 1/E[X].
        assert second >= mean * mean * (1.0 - 1e-12)
        assert inverse >= (1.0 / mean) * (1.0 - 1e-12)
        # Support bounds the moments.
        assert bp.k <= mean <= bp.p
        assert 1.0 / bp.p <= inverse <= 1.0 / bp.k

    @given(bp_params, st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_lemma2_scaling_identities(self, params, rate):
        bp = make_bp(params)
        scaled = bp.scaled(rate)
        assert math.isclose(scaled.mean(), bp.mean() / rate, rel_tol=1e-10)
        assert math.isclose(scaled.second_moment(), bp.second_moment() / rate**2, rel_tol=1e-10)
        assert math.isclose(scaled.mean_inverse(), bp.mean_inverse() * rate, rel_tol=1e-10)

    @given(bp_params, st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_samples_stay_in_support(self, params, seed):
        bp = make_bp(params)
        samples = bp.sample(np.random.default_rng(seed), 256)
        assert np.all(samples >= bp.k - 1e-12)
        assert np.all(samples <= bp.p + 1e-9)
