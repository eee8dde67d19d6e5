"""Subsequence-law tests: exact combinatorics and the binomial limit."""

import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from cohwalk import ensemble
from cohwalk.ensemble import (
    EXACT_N_LIMIT,
    EnsembleParams,
    binomial_pmf,
    binomial_prob,
    convergence_gap,
    hypergeometric_pmf,
    hypergeometric_prob,
    hypergeometric_prob_exact,
)

HALF = Fraction(1, 2)


class TestHypergeometric:
    def test_small_case_by_hand(self):
        # 4 slots, two +1: both sampled slots +1 in 1 of C(4,2)=6 ways
        params = EnsembleParams(4, HALF, 2, 2)
        assert hypergeometric_prob_exact(params) == Fraction(1, 6)

    def test_whole_sequence_is_deterministic(self):
        n = 10
        for m_plus in range(n + 1):
            params = EnsembleParams(n, HALF, n, m_plus)
            expected = Fraction(1) if m_plus == n // 2 else Fraction(0)
            assert hypergeometric_prob_exact(params) == expected

    def test_masses_sum_to_one_exactly(self):
        for n, p, m in [
            (7, Fraction(2, 7), 3),
            (50, HALF, 12),
            (127, Fraction(40, 127), 11),
            (200, Fraction(3, 4), 20),
        ]:
            total = sum(
                hypergeometric_prob_exact(EnsembleParams(n, p, m, j))
                for j in range(m + 1)
            )
            assert total == 1

    def test_symmetry_under_sign_swap(self):
        n, m = 30, 7
        p = Fraction(2, 5)
        for m_plus in range(m + 1):
            a = hypergeometric_prob_exact(EnsembleParams(n, p, m, m_plus))
            b = hypergeometric_prob_exact(EnsembleParams(n, 1 - p, m, m - m_plus))
            assert a == b

    def test_infeasible_composition_is_zero(self):
        # only 2 plus entries exist, so a subsequence cannot hold 3
        params = EnsembleParams(10, Fraction(1, 5), 5, 3)
        assert hypergeometric_prob_exact(params) == 0
        assert hypergeometric_prob(params) == 0.0

    def test_float_route_matches_scipy(self):
        for n, p, m in [(150, 0.5, 20), (5000, 0.5, 40), (10**4, 0.55, 25)]:
            k = round(p * n)
            for m_plus in range(0, m + 1, 5):
                ours = hypergeometric_prob(EnsembleParams(n, p, m, m_plus))
                ref = stats.hypergeom.pmf(m_plus, n, k, m)
                assert ours == pytest.approx(ref, rel=1e-10, abs=1e-300)

    def test_log_route_agrees_with_exact_route(self):
        # straddle the exact/log switchover with the same parameters
        params_exact = EnsembleParams(200, HALF, 15, 8)
        params_log = EnsembleParams(201, Fraction(100, 201), 15, 8)
        assert hypergeometric_prob(params_log) == pytest.approx(
            float(hypergeometric_prob_exact(params_log)), rel=1e-12
        )
        assert hypergeometric_prob(params_exact) == pytest.approx(
            float(hypergeometric_prob_exact(params_exact)), rel=1e-15
        )

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            EnsembleParams(10, 0.33, 3, 1)  # 3.3 plus entries
        with pytest.raises(ValueError):
            EnsembleParams(10, HALF, 11, 1)  # m > N
        with pytest.raises(ValueError):
            EnsembleParams(10, HALF, 3, 4)  # m_plus > m


    @pytest.mark.parametrize("n", [1, 2, 9, 24, 40])
    def test_exact_matches_comb_definition(self, n):
        for k in range(n + 1):
            for m in range(n + 1):
                total = math.comb(n, k)
                for j in range(m + 1):
                    expected = (Fraction(math.comb(m, j) * math.comb(n - m, k - j), total)
                                if j <= k and m - j <= n - k else 0)
                    assert hypergeometric_prob_exact(
                        EnsembleParams(n, Fraction(k, n), m, j)) == expected


class TestBinomial:
    def test_fair_coin(self):
        assert binomial_prob(2, 1, HALF) == HALF

    def test_biased_example(self):
        assert binomial_prob(4, 3, 0.75) == pytest.approx(0.421875, abs=1e-12)

    def test_certain_success(self):
        assert binomial_prob(5, 5, 1.0) == 1.0
        assert binomial_prob(5, 4, 1.0) == 0.0

    def test_out_of_range_count(self):
        assert binomial_prob(3, 4, 0.5) == 0.0

    def test_exact_masses_sum_to_one(self):
        m, p = 12, Fraction(3, 7)
        assert sum(binomial_prob(m, k, p) for k in range(m + 1)) == 1

    def test_log_route_matches_scipy(self):
        for m, p in [(100, 0.3), (2000, 0.55)]:
            for k in range(0, m + 1, m // 4):
                assert binomial_prob(m, k, p) == pytest.approx(
                    stats.binom.pmf(k, m, p), rel=1e-10, abs=1e-300
                )


def _single_hypergeometric(n, k, m):
    return [hypergeometric_prob(EnsembleParams(n, Fraction(k, n), m, j))
            for j in range(m + 1)]


class TestPmf:
    """The whole-law builders equal the single-count calls exactly."""

    @pytest.mark.parametrize("n", [1, 10, 57, EXACT_N_LIMIT, EXACT_N_LIMIT + 1, 1000,
                                   10**5, 10**8])
    def test_hypergeometric_equals_single_counts(self, n):
        ms = sorted({0, 1, min(n, 7), min(n, 60)})
        for m in ms:
            # k = 0 and k = n, k < m, n - k < m, and an interior composition
            for k in sorted({0, n, max(m - 1, 0), n - max(m - 1, 0), n // 2, n // 3}):
                assert hypergeometric_pmf(n, k, m) == _single_hypergeometric(n, k, m)

    @pytest.mark.parametrize("n, k, m", [(2000, 1000, 2000), (10**4, 3000, 10**4),
                                         (10**5, 50_000, 10**4), (10**6, 10, 500)])
    def test_hypergeometric_large_m(self, n, k, m):
        assert hypergeometric_pmf(n, k, m) == _single_hypergeometric(n, k, m)

    @pytest.mark.parametrize("p", [0, 1, 0.5, 0.55, 0.01])
    @pytest.mark.parametrize("m", [0, 1, 2, 13, 1000, 10**4])
    def test_binomial_equals_single_counts(self, m, p):
        assert binomial_pmf(m, p) == [binomial_prob(m, j, p) for j in range(m + 1)]

    def test_binomial_stays_exact_for_fractions(self):
        p = Fraction(3, 7)
        assert binomial_pmf(13, p) == [binomial_prob(13, j, p) for j in range(14)]

    @pytest.mark.xfail(strict=True, reason="lgamma cancellation in the log-gamma "
                       "route: the mass is off by 4.8e-9 at N = 935342")
    def test_mass_near_one_at_large_n(self):
        assert math.fsum(hypergeometric_pmf(935_342, 101_367, 25)) == pytest.approx(
            1, abs=1e-9)


def _log_comb(n, k):
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def scalar_binomial(m, j, p):
    """The log-gamma binomial term written count by count: the reference for
    the array expression, in the same association order."""
    return math.exp(_log_comb(m, j) + j * math.log(p) + (m - j) * math.log1p(-p))


def scalar_hypergeometric(n, k, m, j):
    """The log-gamma hypergeometric term written count by count (N > 200)."""
    if j > k or m - j > n - k:
        return 0.0
    return math.exp(_log_comb(m, j) + _log_comb(n - m, k - j) - _log_comb(n, k))


class TestScalarReference:
    """Each law's array expression equals its term written out count by count."""

    @pytest.mark.parametrize("p", [0.5, 0.55, 0.01, 0.999])
    @pytest.mark.parametrize("m", [1, 2, 13, 1000, 10**4])
    def test_binomial(self, m, p):
        assert binomial_pmf(m, p) == [scalar_binomial(m, j, p) for j in range(m + 1)]

    @pytest.mark.parametrize("n, k, m", [(201, 100, 60), (201, 5, 30), (201, 196, 30),
                                         (1000, 333, 60), (10**5, 50_000, 2000),
                                         (10**6, 10, 500), (10**8, 5 * 10**7, 60)])
    def test_hypergeometric(self, n, k, m):
        assert hypergeometric_pmf(n, k, m) == [scalar_hypergeometric(n, k, m, j)
                                               for j in range(m + 1)]

    def test_certain_laws_are_point_masses(self):
        m = 10**4
        assert binomial_pmf(m, 0.0) == [1.0] + [0.0] * m
        assert binomial_pmf(m, 1.0) == [0.0] * m + [1.0]
        assert ensemble._binomial_terms(m, 0.0, 1, m) == [0.0] * m
        assert ensemble._binomial_terms(m, 1, m - 2, m + 1) == [0.0, 0.0, 1.0, 0.0]


class TestRangedTerms:
    """The ranged term builders behind the exact tails are slices of the laws."""

    @pytest.mark.parametrize("n, k, m", [(40, 20, 12), (EXACT_N_LIMIT, 150, 30),
                                         (EXACT_N_LIMIT + 1, 100, 30), (201, 5, 30),
                                         (201, 196, 30), (1000, 500, 800), (10**5, 60_000, 300)])
    def test_hypergeometric_slices(self, n, k, m):
        pmf = hypergeometric_pmf(n, k, m)
        for a, b in [(0, m), (0, m // 3), (m // 3, m), (m // 2, m // 2), (m // 2, m // 2 - 1),
                     (0, -1), (m + 1, m)]:
            assert ensemble._hypergeometric_terms(n, k, m, a, b) == pmf[a:b + 1]

    @pytest.mark.parametrize("p", [0, 1, 0.5, 0.55, Fraction(2, 3)])
    def test_binomial_slices(self, p):
        m = 40
        pmf = binomial_pmf(m, p)
        for a, b in [(0, m), (0, 9), (30, m), (20, 20), (20, 19), (0, -1)]:
            assert ensemble._binomial_terms(m, p, a, b) == pmf[a:b + 1]

    LAWS = [("binomial", 5000, 0.3), ("hypergeometric", 10**5, 4000, 3000),
            ("binomial", 7, 0.3), ("hypergeometric", 1000, 500, 9),
            ("binomial", 700, 0.45), ("hypergeometric", 10**6, 10, 40)]

    @staticmethod
    def _build(law):
        kind, *args = law
        return binomial_pmf(*args) if kind == "binomial" else hypergeometric_pmf(*args)

    def test_shared_table_is_order_free(self, monkeypatch):
        results = []
        for order in (self.LAWS, self.LAWS[::-1], sorted(self.LAWS, key=lambda law: law[-1])):
            monkeypatch.setattr(ensemble, "_LGAMMA", np.zeros(0))
            built = {law: self._build(law) for law in order}
            results.append([built[law] for law in self.LAWS])
            # the table grows by doubling, to at most twice the largest m
            assert len(ensemble._LGAMMA) <= 2 * (5000 + 1)
        assert results[0] == results[1] == results[2]
        assert results[0][0] == [binomial_prob(5000, j, 0.3) for j in range(5001)]
        assert results[0][3] == _single_hypergeometric(1000, 500, 9)

    def test_shared_table_grown_from_many_threads(self, monkeypatch):
        # concurrent growth can store a shorter table over a longer one; the
        # resetter does that on purpose, and no build may see it
        laws = [("binomial", 3000, 0.3), ("binomial", 20, 0.3),
                ("hypergeometric", 10**5, 4000, 2000), ("hypergeometric", 1000, 500, 9)]
        expected = [self._build(law) for law in laws]
        monkeypatch.setattr(ensemble, "_LGAMMA", np.zeros(0))
        done, mismatches, interval = threading.Event(), [], sys.getswitchinterval()

        def build(offset):
            for i in range(40):
                k = (offset + i) % len(laws)
                try:
                    if self._build(laws[k]) != expected[k]:
                        mismatches.append(laws[k])
                except IndexError as exc:  # a table shorter than the law's m
                    mismatches.append(repr(exc))

        def reset():
            while not done.is_set():
                ensemble._LGAMMA = np.zeros(0)

        sys.setswitchinterval(1e-6)
        try:
            resetter = threading.Thread(target=reset)
            builders = [threading.Thread(target=build, args=(i,)) for i in range(4)]
            resetter.start()
            for thread in builders:
                thread.start()
            for thread in builders:
                thread.join(timeout=60)
            done.set()
            resetter.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in builders + [resetter])
        assert mismatches == []


class TestConvergence:
    def test_gap_decreases_with_sequence_length(self):
        for p in (0.5, 0.55):
            gaps = [convergence_gap(n, p, 10) for n in (100, 1000, 10000)]
            assert gaps[0] > gaps[1] > gaps[2]

    def test_gap_within_scale_bound(self):
        # loose envelope m/sqrt(N) comfortably contains the measured gap
        for n in (100, 1000, 10000):
            assert convergence_gap(n, 0.5, 10) <= 10 / math.sqrt(n)

    def test_gap_scales_as_inverse_n(self):
        # quadrupling N divides the worst-case gap by about four
        for p in (0.5, 0.55):
            ratio = convergence_gap(4000, p, 10) / convergence_gap(1000, p, 10)
            assert ratio == pytest.approx(0.25, abs=0.075)

    def test_empty_subsequence_gap_is_zero(self):
        assert convergence_gap(100, 0.5, 0) == 0.0

    def test_oversized_subsequence_rejected(self):
        with pytest.raises(ValueError):
            convergence_gap(100, 0.5, 11)
