"""Property tests: count laws stay probabilities, uniforms ignore partitioning,
and the O(N) coherence records agree with the dense N x N reference."""

import cmath
import math
from fractions import Fraction

import mpmath

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dense_reference
from cohwalk.decoherence import (
    AncillaSpec,
    coherence_l1,
    compute_X,
    exit_probability,
    exit_probability_bound,
    overlaps,
    rho_int,
)
from cohwalk.ensemble import (
    EnsembleParams,
    binomial_pmf,
    hypergeometric_pmf,
    hypergeometric_prob_exact,
)
from cohwalk.montecarlo import STREAM_BLOCK, experiment_uniforms
from cohwalk.walk import PhasePattern


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


# Every entry is within 5e-13 relative of the exact rational at any N, so
# the mass stays within 1e-12 of 1 up to N = 10^12.
@settings(max_examples=200, deadline=None)
@given(compositions(10**12))
def test_hypergeometric_mass_is_one(composition):
    assert _is_law(hypergeometric_pmf(*composition), 1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.floats(0, 1))
def test_binomial_is_a_law(m, p):
    assert _is_law(binomial_pmf(m, p), 1e-12)


def _close(value, exact, rtol=1e-12):
    return value == exact == 0 or abs(value - exact) <= rtol * exact


@settings(max_examples=100, deadline=None)
@given(compositions(10**12))
def test_hypergeometric_entries_match_exact(composition):
    n, k, m = composition
    pmf = hypergeometric_pmf(n, k, m)
    for j, value in enumerate(pmf):
        exact = float(hypergeometric_prob_exact(EnsembleParams(n, Fraction(k, n), m, j)))
        assert _close(value, exact), (j, value, exact)


def _counts_to_check(m, p):
    """The mode, 1, 5 and 10 standard deviations either side, and both ends."""
    mean, sd = m * p, math.sqrt(m * p * (1 - p))
    counts = {0, 1, m - 1, m} | {round(mean + c * sd) for c in (0, 1, -1, 5, -5, 10, -10)}
    return sorted(j for j in counts if 0 <= j <= m)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 20_000), st.integers(1, 6), st.data())
def test_binomial_entries_match_exact(m, bits, data):
    # p = a / 2^bits is a float exactly, so the exact term is the Fraction one
    p = Fraction(data.draw(st.integers(1, 2**bits - 1)), 2**bits)
    pmf = binomial_pmf(m, float(p))
    for j in _counts_to_check(m, float(p)):
        exact = float(math.comb(m, j) * p**j * (1 - p) ** (m - j))
        assert _close(pmf[j], exact), (j, pmf[j], exact)


# Near the mode of a law with m = 10^6 the exact Fraction takes seconds
# (math.comb alone), so 40-digit mpmath is the reference there.  A float
# p like 0.3 puts its rounding into m*p, which costs up to ~8e-13 at 10
# standard deviations; the reference takes the float's exact value.
@pytest.mark.parametrize("m", [10**5, 10**6])
@pytest.mark.parametrize("p", [0.5, 0.3, 1 / 7, 0.001, 0.999])
def test_binomial_entries_at_large_m(m, p):
    pmf = binomial_pmf(m, p)
    with mpmath.workdps(40):
        for j in _counts_to_check(m, p):
            exact = mpmath.binomial(m, j) * mpmath.mpf(p) ** j * (1 - mpmath.mpf(p)) ** (m - j)
            assert _close(pmf[j], float(exact)), (j, pmf[j], exact)


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


@st.composite
def coherence_cases(draw, max_n=64):
    """A sign pattern on N paths and its markers: random qubits or a common nu."""
    n = draw(st.integers(1, max_n))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    total = sum(signs)
    if abs(total) == n:
        pattern = PhasePattern(signs, "constant")
    elif total == 0:
        pattern = PhasePattern(signs, "balanced")
    else:
        signs = signs if total > 0 else [-s for s in signs]
        pattern = PhasePattern(signs, "epsilon", abs(total) / n)
    if draw(st.booleans()):
        # subnormal nu has no relative precision left to test
        nu = draw(st.floats(0, 1, allow_subnormal=False))
        return pattern, AncillaSpec.uniform(nu, n)
    angles = st.lists(st.floats(0, math.pi / 2), min_size=n, max_size=n)
    phases = st.lists(st.floats(0, 2 * math.pi), min_size=n, max_size=n)
    thetas, phis = draw(angles), draw(phases)
    alphas = [math.cos(t) * cmath.exp(1j * f) for t, f in zip(thetas, phis)]
    return pattern, AncillaSpec.per_path(alphas, [math.sin(t) for t in thetas])


@settings(max_examples=200, deadline=None)
@given(coherence_cases())
def test_structured_route_matches_dense(case):
    pattern, spec = case
    n = pattern.n_paths
    g = overlaps(spec)
    dense = dense_reference.overlap_matrix(spec)
    dense_p = dense_reference.exit_probability(pattern, dense)
    assert abs(dense_p.imag) <= 1e-12
    assert abs(exit_probability(pattern, g) - dense_p.real) <= 1e-12
    dense_x = dense_reference.off_diagonal_mass(dense) / ((n + 1) * (n + 1))
    assert abs(compute_X(g) - dense_x) <= 1e-12
    assert abs(exit_probability_bound(pattern, g)[1]
               - (n / ((n + 1) * (n + 1)) + dense_x)) <= 1e-12
    l1 = coherence_l1(rho_int(pattern, g))
    dense_l1 = dense_reference.off_diagonal_mass(dense_reference.rho_matrix(pattern, dense))
    # The dense route subtracts the trace N/(N+1) from the sum of every
    # |entry|, so its rounding is relative to that sum, not to l1 alone.
    assert abs(l1 - dense_l1) <= 1e-12 * (dense_l1 + n / (n + 1))
    # the l1 identity on the dense route
    assert abs(dense_l1 - (n + 1) * dense_x) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(coherence_cases())
# one marker barely rotated: (sum |a|)^2 - sum |a|^2 would cancel to 0
@example((PhasePattern((1, -1), "balanced"),
          AncillaSpec.per_path([1.0, math.cos(math.pi / 2)], [0.0, 1.0])))
def test_structured_l1_is_relatively_exact(case):
    pattern, spec = case
    n = pattern.n_paths
    if spec.nu is not None:
        exact = float(Fraction(spec.nu) * n * (n - 1) / (n + 1))
    else:
        mods = [abs(a) for a in spec.alphas]
        exact = math.fsum(mods[j] * mods[k] for j in range(n) for k in range(n)
                          if j != k) / (n + 1)
    assert math.isclose(coherence_l1(rho_int(pattern, overlaps(spec))), exact,
                        rel_tol=1e-12)


@settings(max_examples=200, deadline=None)
@given(coherence_cases())
def test_coherence_bound_on_both_routes(case):
    # p <= N/(N+1)^2 + X (Baumgratz, Cramer & Plenio, PRL 113, 140401, 2014)
    pattern, spec = case
    n = pattern.n_paths
    g = overlaps(spec)
    assert exit_probability(pattern, g) <= n / (n + 1) ** 2 + compute_X(g) + 1e-12
    dense = dense_reference.overlap_matrix(spec)
    dense_x = dense_reference.off_diagonal_mass(dense) / (n + 1) ** 2
    assert dense_reference.exit_probability(pattern, dense).real <= n / (n + 1) ** 2 + dense_x + 1e-12
