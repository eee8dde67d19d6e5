"""Subsequence-law tests: exact combinatorics and the binomial limit."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import stats

from cohwalk import ensemble
from cohwalk.ensemble import (
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

    @pytest.mark.parametrize("n", [1, 10, 57, 200, 201, 1000, 10**5, 10**8])
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

    def test_mass_near_one_at_large_n(self):
        for n, k, m in [(935_342, 101_367, 25), (10**8, 5 * 10**7, 100)]:
            assert math.fsum(hypergeometric_pmf(n, k, m)) == pytest.approx(1, abs=1e-12)


def decimal_stirling_tail(y):
    """log y! - (y log y - y) to 40 digits, from the exact factorial."""
    with localcontext() as ctx:
        ctx.prec = 40
        log_y = Decimal(y).ln() if y else Decimal(0)
        return float(Decimal(math.factorial(y)).ln() - y * log_y + y)


def reference_binomial(m, p):
    """Every binomial term to 40 digits, count by count from (1 - p)^m by the
    ratio of neighbours; p is taken at its exact float value."""
    with mpmath.workdps(40):
        p_, q_ = mpmath.mpf(p), 1 - mpmath.mpf(p)
        term, terms = q_ ** m, []
        for j in range(m + 1):
            terms.append(float(term))
            term *= mpmath.mpf(m - j) / (j + 1) * p_ / q_
    return terms


def reference_hypergeometric(n, k, m):
    """Every hypergeometric term to 40 digits: the exact rational at the
    lowest feasible count, then the ratio of neighbours."""
    lo, hi = max(0, m - (n - k)), min(k, m)
    exact = hypergeometric_prob_exact(EnsembleParams(n, Fraction(k, n), m, lo))
    terms = [0.0] * (m + 1)
    with mpmath.workdps(40):
        term = mpmath.mpf(exact.numerator) / exact.denominator
        for j in range(lo, hi + 1):
            terms[j] = float(term)
            term *= mpmath.mpf((k - j) * (m - j)) / ((j + 1) * (n - k - m + j + 1))
    return terms


def assert_terms_match(got, want):
    # 1e-12 relative; the absolute floor admits the subnormal terms only
    assert len(got) == len(want)
    for j, (value, ref) in enumerate(zip(got, want)):
        assert value == pytest.approx(ref, rel=1e-12, abs=1e-300), j


class TestScalarReference:
    """The kernel and its pieces against references worked out one count at a time."""

    @pytest.mark.parametrize("p", [0.5, 0.55, 0.01, 0.999])
    @pytest.mark.parametrize("m", [1, 2, 13, 1000, 10**4])
    def test_binomial(self, m, p):
        assert_terms_match(binomial_pmf(m, p), reference_binomial(m, p))

    @pytest.mark.parametrize("n, k, m", [(201, 100, 60), (201, 5, 30), (201, 196, 30),
                                         (1000, 333, 60), (10**5, 50_000, 2000),
                                         (10**6, 10, 500), (10**8, 5 * 10**7, 60)])
    def test_hypergeometric(self, n, k, m):
        assert_terms_match(hypergeometric_pmf(n, k, m), reference_hypergeometric(n, k, m))

    def test_stirling_table_is_correctly_rounded(self):
        assert ensemble._STIRLING_TAIL.tolist() == [decimal_stirling_tail(y) for y in range(16)]

    def test_stirling_series_beyond_the_table(self):
        ys = list(range(16, 300)) + [500, 999, 1000, 3000]
        got = ensemble._stirling_tail(np.array(ys))
        for y, value in zip(ys, got):
            assert value == pytest.approx(decimal_stirling_tail(y), rel=2e-16, abs=0)

    @pytest.mark.parametrize("x, mu", [(0, 0.0), (0, 3.5), (7, 7.0), (100, 95.5), (100, 60.0),
                                       (1, 1e-300), (10**6, 999_000.0), (5, 1e4)])
    def test_deviance(self, x, mu):
        with localcontext() as ctx:
            ctx.prec = 40
            ratio = Decimal(x) / Decimal(mu) if x else Decimal(1)
            want = float(x * ratio.ln() + Decimal(mu) - x)
        got = ensemble._bd0(np.array([x]), np.array([mu]))[0]
        assert got == pytest.approx(want, rel=1e-15, abs=1e-300)

    def test_certain_laws_are_point_masses(self):
        m = 10**4
        assert binomial_pmf(m, 0.0) == [1.0] + [0.0] * m
        assert binomial_pmf(m, 1.0) == [0.0] * m + [1.0]
        assert ensemble._binomial_terms(m, 0.0, 1, m) == [0.0] * m
        assert ensemble._binomial_terms(m, 1, m - 2, m + 1) == [0.0, 0.0, 1.0, 0.0]


class TestRangedTerms:
    """The ranged term builders behind the exact tails are slices of the laws."""

    @pytest.mark.parametrize("n, k, m", [(40, 20, 12), (200, 150, 30),
                                         (201, 100, 30), (201, 5, 30),
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
