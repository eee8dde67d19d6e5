"""Epsilon-variant tests: miss probability, Chernoff bounds, exact tails."""

import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from scipy import stats

from cohwalk.decision import no_exit_likelihoods
from cohwalk.decoherence import detection_probability
from cohwalk.ensemble import binomial_pmf, hypergeometric_pmf
from cohwalk.epsilon import (
    chernoff_lower,
    chernoff_upper,
    classical_error_bounds,
    detection_count_threshold,
    exact_tail_probabilities,
    quantum_miss_probability,
)


class TestMissProbability:
    def test_point_value(self):
        miss = quantum_miss_probability(100, 0.1, nu=1.0)
        assert miss.exact == pytest.approx(0.99**100, abs=1e-15)
        assert miss.exact == pytest.approx(0.3660323412732292, abs=1e-12)
        assert miss.approx == pytest.approx(math.exp(-1), abs=1e-15)
        assert miss.gap > 0

    def test_no_coherence_means_no_signal(self):
        for m in (1, 10, 500):
            assert quantum_miss_probability(m, 0.2, nu=0.0).exact == 1.0

    def test_zero_trials(self):
        assert quantum_miss_probability(0, 0.3).exact == 1.0

    def test_exact_is_the_mc_target(self):
        # one float for cohwalk epsilon and mc: (1 - nu*eps^2)^m.  Taken as
        # (1 - (nu*eps)*eps)^m it is one ulp off at eps = 0.37, nu = 0.3.
        for m in (1, 7, 100, 1000):
            for eps in (0.1, 0.2, 0.37, 0.7):
                for nu in (0.1, 0.3, 0.91, 1.0):
                    want = no_exit_likelihoods("epsilon", m, nu, epsilon=eps)[0]
                    assert quantum_miss_probability(m, eps, nu).exact == want

    def test_nu_outside_unit_interval_rejected(self):
        for nu in (1.5, -0.25, float("nan")):
            with pytest.raises(ValueError, match="nu must lie in"):
                quantum_miss_probability(3, 0.3, nu)

    def test_approximation_always_overestimates(self):
        for m in (1, 10, 100, 1000):
            for eps in (0.05, 0.1, 0.3):
                for nu in (0.3, 0.7, 1.0):
                    miss = quantum_miss_probability(m, eps, nu)
                    assert miss.gap >= 0

    def test_coherence_trades_against_trials(self):
        # halving nu is the same as halving m in the exponential form
        a = quantum_miss_probability(200, 0.1, nu=0.5)
        b = quantum_miss_probability(100, 0.1, nu=1.0)
        assert a.approx == pytest.approx(b.approx, rel=1e-12)

    def test_runs_needed_scale(self):
        # m = 1/(nu eps^2) runs push the miss probability to about 1/e
        for nu, eps in ((1.0, 0.1), (0.5, 0.2), (0.25, 0.1)):
            m = round(1 / (nu * eps * eps))
            assert quantum_miss_probability(m, eps, nu).approx <= math.exp(-1) * (1 + 1e-9)


class TestYStatistic:
    def test_count_threshold(self):
        # m=4, eps=1: Y >= 0.5 means at least 3 plus readings
        assert detection_count_threshold(4, 1.0) == 3
        # float eps must not shift an exact integer cutoff
        assert detection_count_threshold(200, 0.2) == 110
        assert detection_count_threshold(800, 0.1) == 420


class TestChernoffBounds:
    def test_upper_point_value(self):
        assert chernoff_upper(50, 0.1) == pytest.approx(0.7850091625435328, abs=1e-14)

    def test_upper_dominates_exact_binomial_tail(self):
        # Y > eps/2 with m=100, p=1/2, eps=0.1 means X > 55
        exact = float(Fraction(sum(comb(100, k) for k in range(56, 101)), 2**100))
        assert exact == pytest.approx(0.13562651203691736, abs=1e-14)
        assert chernoff_upper(50, 0.1) > exact

    def test_upper_approaches_one_for_small_delta(self):
        assert chernoff_upper(10, 1e-9) == pytest.approx(1.0, abs=1e-8)

    def test_lower_point_values(self):
        assert chernoff_lower(8, 0.5) == pytest.approx(math.exp(-1), abs=1e-14)
        # biased case at eps=0.2, m=200: mu=120, delta=1/12
        assert chernoff_lower(120, 0.2 / 2.4) == pytest.approx(
            math.exp(-5 / 12), abs=1e-12
        )

    def test_lower_approaches_one_for_small_delta(self):
        assert chernoff_lower(10, 1e-9) == pytest.approx(1.0, abs=1e-8)

    def test_lower_rejects_delta_of_one(self):
        with pytest.raises(ValueError):
            chernoff_lower(10, 1.0)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            chernoff_upper(0, 0.5)
        with pytest.raises(ValueError):
            chernoff_upper(10, 0)


class TestClassicalErrorBounds:
    def test_quoted_approximation(self):
        bounds = classical_error_bounds(200, 0.2)
        assert bounds.approx_false_eps == pytest.approx(math.exp(-1), abs=1e-14)
        bounds = classical_error_bounds(800, 0.1)
        assert bounds.approx_false_eps == pytest.approx(math.exp(-1), abs=1e-14)

    def test_exact_expressions(self):
        bounds = classical_error_bounds(200, 0.2)
        assert bounds.chernoff_false_eps == pytest.approx(
            chernoff_upper(100, 0.1), abs=1e-15
        )
        assert bounds.chernoff_false_bal == pytest.approx(
            math.exp(-5 / 12), abs=1e-12
        )

    def test_bounds_vanish_for_many_trials(self):
        assert classical_error_bounds(10**6, 0.1).chernoff_false_eps < 1e-200

    def test_true_lowest_order_exponent(self):
        # the exact expressions behave as exp(-m eps^2 / 16); the quoted
        # exp(-m eps^2 / 8) differs at second order, so only the /16 form
        # admits a third-order remainder bound
        for eps in (0.01, 0.02, 0.05, 0.1):
            for m in (100, 1000, 5000):
                bounds = classical_error_bounds(m, eps)
                for value in (bounds.chernoff_false_eps, bounds.chernoff_false_bal):
                    remainder = abs(math.log(value) + m * eps * eps / 16)
                    assert remainder <= m * eps**3 / 8


class TestExactTails:
    def test_small_case_by_hand(self):
        # m=4, threshold Y >= 0.5: C(4,3)+C(4,4) = 5 of 16 outcomes
        tails = exact_tail_probabilities(4, 1.0)
        assert tails.false_eps == pytest.approx(5 / 16, abs=1e-12)
        assert tails.false_bal == 0.0

    def test_degenerate_bias(self):
        # eps=1 draws all +1: Y=1 is never below 0.5
        assert exact_tail_probabilities(2, 1.0).false_bal == 0.0

    def test_matches_scipy_binomial(self):
        # m = 10^5 sums tails of ~5 * 10^4 binomial terms
        for m, eps in ((50, 0.2), (321, 0.1), (1000, 0.08), (10**5, 0.01)):
            k_min = detection_count_threshold(m, eps)
            tails = exact_tail_probabilities(m, eps)
            assert tails.false_eps == pytest.approx(
                stats.binom.sf(k_min - 1, m, 0.5), rel=1e-10
            )
            assert tails.false_bal == pytest.approx(
                stats.binom.cdf(k_min - 1, m, (1 + eps) / 2), rel=1e-10
            )

    def test_matches_scipy_hypergeometric(self):
        n, m, eps = 200, 20, 0.2
        k_min = detection_count_threshold(m, eps)
        tails = exact_tail_probabilities(m, eps, n_paths=n)
        assert tails.false_eps == pytest.approx(
            stats.hypergeom.sf(k_min - 1, n, n // 2, m), rel=1e-10
        )
        k_plus = round((1 + eps) * n / 2)
        assert tails.false_bal == pytest.approx(
            stats.hypergeom.cdf(k_min - 1, n, k_plus, m), rel=1e-10
        )

    def test_bound_dominance_sweep(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            m = int(rng.integers(10, 2001))
            eps = float(rng.uniform(0.05, 0.5))
            tails = exact_tail_probabilities(m, eps)
            bounds = classical_error_bounds(m, eps)
            assert tails.false_eps <= bounds.chernoff_false_eps + 1e-12
            assert tails.false_bal <= bounds.chernoff_false_bal + 1e-12

    # (m, eps, n_paths): eps = 1 gives p = 1 (k = N); m = 800 of N = 1000
    # clips both laws' supports (k < m and N - k < m); m = N puts both tails
    # off support
    @pytest.mark.parametrize("m, eps, n", [
        (1, 1.0, None), (4, 1.0, None), (3, 0.2, None), (50, 0.5, None),
        (1000, 0.1, None), (10**4, 0.1, None), (10**4, 0.25, None),
        (20, 0.5, 200), (50, 1.0, 200), (8, 20 / 101, 202), (30, 1.0, 202),
        (800, 0.2, 1000), (1000, 0.1, 1000), (10**4, 0.1, 10**5), (2 * 10**4, 0.1, 10**5),
    ])
    def test_equal_sums_of_pmf_slices(self, m, eps, n):
        k_min = detection_count_threshold(m, eps)
        if n is None:
            balanced, biased = binomial_pmf(m, 0.5), binomial_pmf(m, (1 + eps) / 2)
        else:
            balanced = hypergeometric_pmf(n, n // 2, m)
            biased = hypergeometric_pmf(n, round((1 + eps) * n / 2), m)
        tails = exact_tail_probabilities(m, eps, n)
        assert tails.false_eps == math.fsum(balanced[k_min:])
        assert tails.false_bal == math.fsum(biased[:k_min])

    def test_tails_off_support_are_zero(self):
        # the whole sequence is sampled, so each count is certain
        assert exact_tail_probabilities(1000, 0.1, n_paths=1000) == (0.0, 0.0)

    def test_rejects_oversized_requests(self):
        with pytest.raises(ValueError):
            exact_tail_probabilities(30, 0.1, n_paths=20)


class TestOneSidedness:
    def test_quantum_false_eps_is_bounded_by_leak(self):
        # with the finite-N likelihood, m runs on a balanced pattern marry
        # the union bound: P(any exit) <= m (1-nu) N / (N+1)^2
        n = 1000
        for m in (1, 10, 100):
            for nu in (0.0, 0.5, 0.9):
                p_leak = detection_probability("balanced", nu, n_paths=n)
                false_eps = 1 - (1 - p_leak) ** m
                assert false_eps <= m * (1 - nu) * n / (n + 1) ** 2 + 1e-15

    def test_quantum_false_eps_idealized_is_zero(self):
        assert detection_probability("balanced", 0.7) == 0.0
