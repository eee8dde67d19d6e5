"""Decision tests: Bayes closed forms against exhaustive enumeration."""

import itertools
from fractions import Fraction

import pytest

from cohwalk.decision import (
    _all_same_given_balanced,
    classical_error,
    coherence_threshold,
    enumerate_two_trial_table,
    no_exit_likelihoods,
    quantum_error,
    quantum_posterior_all_zero,
)
from cohwalk.ensemble import EnsembleParams, hypergeometric_prob_exact

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def enumerate_classical_error(m):
    """Oracle: walk all 2^m reading tuples under the independent model.

    The rule guesses constant when all readings agree, balanced
    otherwise; the error mass is accumulated outcome by outcome in exact
    rational arithmetic, under the prior 1/4 on each constant pattern
    and 1/2 on balanced.
    """
    error = Fraction(0)
    for outcome in itertools.product((1, -1), repeat=m):
        p_given_plus = Fraction(1) if all(s == 1 for s in outcome) else Fraction(0)
        p_given_minus = Fraction(1) if all(s == -1 for s in outcome) else Fraction(0)
        p_given_balanced = Fraction(1, 2**m)
        guess_constant = len(set(outcome)) == 1
        if guess_constant:
            error += HALF * p_given_balanced
        else:
            error += QUARTER * p_given_plus + QUARTER * p_given_minus
    return error


def enumerate_classical_posterior(m):
    """Oracle: (P(constant | all m readings agree), P(all m readings agree)).

    Walks all 2^m reading tuples and keeps the joint masses of the
    all-agree ones under each hypothesis, in exact rational arithmetic.
    """
    joint_constant = joint_balanced = Fraction(0)
    for outcome in itertools.product((1, -1), repeat=m):
        if len(set(outcome)) != 1:
            continue
        joint_constant += QUARTER * int(outcome[0] == 1) + QUARTER * int(outcome[0] == -1)
        joint_balanced += HALF * Fraction(1, 2**m)
    evidence = joint_constant + joint_balanced
    return joint_constant / evidence, evidence


def enumerate_quantum_error(m, nu):
    """Oracle: sum the error mass over all 2^m exit-indicator tuples."""
    miss = 1 - nu
    error = Fraction(0) if isinstance(nu, Fraction) else 0.0
    for outcome in itertools.product((0, 1), repeat=m):
        ones = sum(outcome)
        p_given_c = nu**ones * miss ** (m - ones)
        p_given_b = 1 if ones == 0 else 0
        guess_balanced = ones == 0
        if guess_balanced:
            error += HALF * p_given_c
        else:
            error += HALF * p_given_b
    return error


class TestClassical:
    def test_posterior_examples(self):
        # the two-trial table's all-agree rows hold the Bayes posterior
        table = enumerate_two_trial_table(HALF)["classical"]
        rows = {outcome: (pc, pb) for outcome, pc, pb, _ in table}
        posterior, _ = enumerate_classical_posterior(2)
        assert posterior == Fraction(2, 3)
        assert rows[(1, 1)] == rows[(-1, -1)] == (posterior, 1 - posterior)
        assert enumerate_classical_posterior(1)[0] == HALF
        assert enumerate_classical_posterior(3)[0] == Fraction(4, 5)

    def test_posterior_closed_form(self):
        # the rule errs exactly when the readings agree on a balanced
        # pattern: error = P(balanced | all agree) * P(all agree)
        for m in range(1, 21):
            posterior, evidence = enumerate_classical_posterior(m)
            assert posterior == Fraction(2 ** (m - 1), 1 + 2 ** (m - 1))
            assert classical_error(m) == (1 - posterior) * evidence

    def test_error_examples(self):
        assert classical_error(2) == Fraction(1, 4)
        assert classical_error(3) == Fraction(1, 8)
        assert classical_error(10) == Fraction(1, 1024)

    def test_error_matches_exhaustive_enumeration(self):
        for m in range(1, 17):
            assert classical_error(m) == enumerate_classical_error(m)
            assert classical_error(m) == Fraction(1, 2**m)

    def test_without_replacement_against_full_enumeration(self):
        # oracle: all balanced arrangements x all ordered position draws
        n, m = 8, 3
        plus = n // 2
        arrangements = [
            arr
            for arr in itertools.product((1, -1), repeat=n)
            if sum(arr) == 0
        ]
        draws = list(itertools.permutations(range(n), m))
        same = sum(
            1
            for arr in arrangements
            for pos in draws
            if len({arr[i] for i in pos}) == 1
        )
        p_same = Fraction(same, len(arrangements) * len(draws))
        expected = HALF * p_same
        # the float route, within the count-law kernel's pinned 1e-12 relative
        assert classical_error(m, n_paths=n) == pytest.approx(float(expected), rel=1e-12, abs=0)
        assert plus == 4

    @pytest.mark.parametrize("m", [1, 2, 5, 40])
    def test_without_replacement_at_huge_n(self, m):
        n = 10**8
        k = n // 2
        all_plus = Fraction(1)
        for i in range(m):
            all_plus *= Fraction(k - i, n - i)
        assert classical_error(m, n_paths=n) == pytest.approx(float(all_plus), rel=1e-12, abs=0)

    @pytest.mark.parametrize("m", [1, 2, 3, 10, 100, 999, 1000])
    @pytest.mark.parametrize("n", [1000, 1002, 10**4, 10**6, 10**8])
    def test_float_route_matches_the_fraction(self, m, n):
        # the error is P(all m draws +1), whose exact rational is the count law's term at m
        exact = hypergeometric_prob_exact(EnsembleParams(n, 1 / 2, m, m))
        assert classical_error(m, n) == pytest.approx(float(exact), rel=1e-12, abs=0)
        assert _all_same_given_balanced([m], n) == [2 * classical_error(m, n)]

    def test_all_agree_is_not_a_doubled_error(self):
        # mc reads P(all agree) itself: 2^-1074 is the least subnormal, and its half rounds to 0
        assert _all_same_given_balanced([1075]) == [2.0 ** -1074]
        assert classical_error(1075) == 0.0


class TestQuantum:
    def test_posterior_examples(self):
        assert quantum_posterior_all_zero(2, Fraction(0)) == (HALF, HALF)
        assert quantum_posterior_all_zero(1, Fraction(1)) == (0, 1)
        assert quantum_posterior_all_zero(2, HALF) == (Fraction(1, 5), Fraction(4, 5))

    def test_error_examples(self):
        assert quantum_error(2, HALF) == Fraction(1, 8)
        assert quantum_error(5, Fraction(1)) == 0
        assert quantum_error(1, Fraction(0)) == HALF
        # int nu (0 or 1) halves to a float, the same value
        assert [quantum_error(1, 0), quantum_error(2, 1)] == [0.5, 0.0]
        assert type(quantum_error(1, 0)) is float

    @pytest.mark.parametrize("n_paths", [None, 10])
    def test_float_error_is_the_halves_summed(self, n_paths):
        # halving is exact, so (a + b) / 2 and a / 2 + b / 2 round alike, down to
        # (1 - nu)^m of nu = 0.9999999, subnormal from m = 44 and 0 from m = 47
        for m, nu in itertools.product(range(40, 51), (0.9999999, 0.5)):
            miss_c, miss_b = no_exit_likelihoods("constant", m, nu, n_paths=n_paths)
            got = quantum_error(m, nu, n_paths=n_paths)
            assert type(got) is float and got == 0.5 * miss_c + 0.5 * (1 - miss_b)

    def test_error_matches_exhaustive_enumeration(self):
        for m in range(1, 11):
            for nu in (Fraction(0), Fraction(1, 3), HALF, Fraction(9, 10)):
                assert quantum_error(m, nu) == enumerate_quantum_error(m, nu)

    def test_monotone_in_trials_and_coherence(self):
        for nu in (0.2, 0.5, 0.8):
            errors = [quantum_error(m, nu) for m in range(1, 12)]
            assert all(b < a for a, b in zip(errors, errors[1:]))
        for m in (1, 3, 7):
            errors = [quantum_error(m, nu) for nu in (0.1, 0.3, 0.5, 0.7, 0.9)]
            assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_one_sided_under_balanced(self):
        # idealized balanced runs can never trigger a constant guess
        for m in (1, 4, 9):
            _, p_balanced = quantum_posterior_all_zero(m, Fraction(1))
            assert p_balanced == 1
            err = quantum_error(m, Fraction(1))
            assert err == 0

    @pytest.mark.parametrize("n_paths", [None, 1, 7, 1000])
    def test_no_exit_likelihoods_follow_definition(self, n_paths):
        # (1 - p)^m per hypothesis, from the finite-N rates written out
        def rate(promise, nu, eps):
            if n_paths is None:
                return {"constant": nu, "balanced": 0, "epsilon": nu * eps**2}[promise]
            n = n_paths
            leak = (1 - nu) * n
            return {"constant": n + nu * n * (n - 1), "balanced": leak,
                    "epsilon": leak + nu * eps**2 * n**2}[promise] / Fraction((n + 1) ** 2)

        eps = Fraction(1, 4)
        for m in (1, 2, 9):
            for nu in (Fraction(0), Fraction(1, 3), Fraction(1)):
                for first in ("constant", "epsilon"):
                    got = no_exit_likelihoods(first, m, nu, epsilon=eps, n_paths=n_paths)
                    assert got == ((1 - rate(first, nu, eps)) ** m,
                                   (1 - rate("balanced", nu, eps)) ** m)

    def test_finite_n_posterior_follows_bayes(self):
        # equal priors, no-exit likelihoods from the finite-N rates
        # written out; a miss favours balanced unless nu = 0, where both
        # hypotheses exit at the same rate n/(n+1)^2
        for n in (1, 7, 1000):
            for m in (1, 3):
                for nu in (Fraction(0), Fraction(1, 3), Fraction(1)):
                    miss_c = (1 - (n + nu * n * (n - 1)) / Fraction((n + 1) ** 2)) ** m
                    miss_b = (1 - (1 - nu) * n / Fraction((n + 1) ** 2)) ** m
                    p_c, p_b = quantum_posterior_all_zero(m, nu, n_paths=n)
                    assert p_c == miss_c / (miss_c + miss_b)
                    assert p_c + p_b == 1
                    assert p_c < HALF if nu > 0 else p_c == HALF

    def test_finite_n_correction_is_small(self):
        n = 1000
        for m in range(1, 11):
            for nu in (0.25, 0.5, 0.9):
                idealized = float(quantum_error(m, nu))
                exact = float(quantum_error(m, nu, n_paths=n))
                assert abs(exact - idealized) <= 10 * m / n


class TestThreshold:
    def test_two_trial_value(self):
        expected = (2**0.5 - 1) / 2**0.5
        assert coherence_threshold(2) == pytest.approx(expected, abs=1e-12)

    def test_single_trial_is_zero(self):
        assert coherence_threshold(1) == 0.0

    def test_limit_approaches_half(self):
        assert coherence_threshold(200) == pytest.approx(0.5, abs=0.002)

    def test_sign_flip_around_threshold(self):
        for m in range(1, 11):
            star = coherence_threshold(m)
            above = float(quantum_error(m, min(star + 0.01, 1.0)))
            classical = float(classical_error(m))
            assert above < classical
            if star - 0.01 >= 0:
                below = float(quantum_error(m, star - 0.01))
                assert below > classical


class TestTwoTrialTable:
    def test_classical_rows(self):
        table = enumerate_two_trial_table(HALF)["classical"]
        rows = {outcome: (pc, pb, guess) for outcome, pc, pb, guess in table}
        assert rows[(1, 1)] == (Fraction(2, 3), Fraction(1, 3), "constant")
        assert rows[(1, -1)] == (0, 1, "balanced")
        assert rows[(-1, 1)] == (0, 1, "balanced")
        assert rows[(-1, -1)] == (Fraction(2, 3), Fraction(1, 3), "constant")

    def test_quantum_rows(self):
        table = enumerate_two_trial_table(HALF)["quantum"]
        rows = {outcome: (pc, pb, guess) for outcome, pc, pb, guess in table}
        assert rows[(1, 1)][0] == 1
        assert rows[(1, 1)][2] == "constant"
        assert rows[(0, 0)][0] == Fraction(1, 5)
        assert rows[(0, 0)][2] == "balanced"

    def test_posteriors_normalize(self):
        tables = enumerate_two_trial_table(Fraction(3, 10))
        for rows in tables.values():
            for _, pc, pb, _ in rows:
                assert pc + pb == 1
