"""Property tests: count laws stay probabilities, uniforms ignore partitioning."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from cohwalk.ensemble import binomial_pmf, hypergeometric_pmf
from cohwalk.montecarlo import STREAM_BLOCK, experiment_uniforms


@st.composite
def compositions(draw, max_n):
    """(N, k, m): k of the N entries are +1, and m of them are sampled."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(0, n))
    m = draw(st.integers(0, min(n, 300)))
    return n, k, m


def _is_law(pmf, tol):
    return all(0 <= x <= 1 for x in pmf) and abs(math.fsum(pmf) - 1) <= tol


@settings(max_examples=200, deadline=None)
@given(compositions(10**6))
def test_hypergeometric_entries_are_probabilities(composition):
    assert all(0 <= x <= 1 for x in hypergeometric_pmf(*composition))


# Up to N = 10^5 the log-gamma route keeps the mass within 1e-9 of 1
# (worst seen 4.0e-10).  Beyond it cancellation between lgamma values
# of size ~N log N costs more: test_ensemble pins a case at N ~ 9.4e5.
@settings(max_examples=200, deadline=None)
@given(compositions(10**5))
def test_hypergeometric_mass_is_one(composition):
    assert _is_law(hypergeometric_pmf(*composition), 1e-9)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**4), st.floats(0, 1))
def test_binomial_is_a_law(m, p):
    assert _is_law(binomial_pmf(m, p), 1e-9)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    start=st.integers(0, 4 * STREAM_BLOCK),
    count=st.integers(1, 3 * STREAM_BLOCK),
    data=st.data(),
)
def test_uniforms_ignore_partitioning(seed, start, count, data):
    cuts = data.draw(st.lists(st.integers(1, count - 1), max_size=6, unique=True)
                     if count > 1 else st.just([]))
    bounds = [0] + sorted(cuts) + [count]
    whole = experiment_uniforms(seed, start, count)
    pieces = [experiment_uniforms(seed, start + a, b - a)
              for a, b in zip(bounds, bounds[1:])]
    for channel in (0, 1):
        stitched = np.concatenate([piece[channel] for piece in pieces])
        assert np.array_equal(stitched, whole[channel])
