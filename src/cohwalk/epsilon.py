"""Distinguishing a balanced pattern from one with a small known bias.

Here the promise is that the mean sign is either 0 (balanced) or a known
epsilon > 0.  The quantum strategy runs the walk m times and declares
the biased case on the first exit; since a balanced pattern (large N)
never produces an exit, this errs on one side only, missing the bias
with probability (1 - nu*eps^2)^m.  The classical strategy reads m
shifters and thresholds their mean Y at eps/2, which can err in both
directions; multiplicative Chernoff bounds control both tails, and
exact binomial or hypergeometric summation over just the counts of each
tail provides the ground truth.

Ties at Y exactly eps/2 count as the biased case.  Threshold arithmetic
tolerates the float representation of nominal epsilon values (0.2 read
as 0.2000...011 must not shift an integer cutoff), handled by a 1e-9
slack when the real-valued cutoff is mapped to an integer count.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .decision import no_exit_likelihoods
from .decoherence import detection_probability
from .ensemble import _binomial_terms, _hypergeometric_terms

TIE_TOL = 1e-9


class MissProbability(NamedTuple):
    exact: float       # (1 - nu*eps^2)^m
    approx: float      # exp(-m*nu*eps^2)
    gap: float         # approx - exact, always >= 0


class ClassicalErrorBounds(NamedTuple):
    chernoff_false_eps: float   # bound on P(Y >= eps/2 | balanced)
    chernoff_false_bal: float   # bound on P(Y < eps/2 | biased)
    approx_false_eps: float     # quoted small-eps form exp(-eps^2 m / 8), both sides


class TailProbabilities(NamedTuple):
    false_eps: float    # P(Y >= eps/2 | balanced)
    false_bal: float    # P(Y < eps/2 | biased)


def quantum_miss_probability(m, epsilon, nu=1.0):
    """Probability that m runs on a biased pattern never see an exit.

    Decoherence scales the per-run detection probability eps^2 down to
    nu*eps^2, so the miss probability is (1 - nu*eps^2)^m, with
    exp(-m*nu*eps^2) as the standard overestimate.  Both come from the
    same per-run rate as the ``mc`` target, ``no_exit_likelihoods``.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    exact = no_exit_likelihoods("epsilon", m, nu, epsilon=epsilon)[0]
    approx = math.exp(-m * detection_probability("epsilon", nu, epsilon=epsilon))
    return MissProbability(exact, approx, approx - exact)


def detection_count_threshold(m, epsilon):
    """Smallest +1 count k with mean (2k - m)/m >= eps/2.

    Y >= eps/2 is equivalent to k >= m*(1 + eps/2)/2; the 1e-9 slack
    keeps integer cutoffs stable under float epsilon values.
    """
    return math.ceil(m * (1 + epsilon / 2) / 2 - TIE_TOL)


def chernoff_upper(mu, delta):
    """Multiplicative Chernoff bound on the upper tail.

    For a sum of independent 0/1 variables with mean mu,
    P(X > (1+delta) mu) < [e^delta / (1+delta)^(1+delta)]^mu,
    evaluated in log space.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if delta <= 0:
        raise ValueError("delta must be positive")
    return math.exp(mu * (delta - (1 + delta) * math.log1p(delta)))


def chernoff_lower(mu, delta):
    """Chernoff bound on the lower tail: P(X < (1-delta) mu) < exp(-mu delta^2 / 2)."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return math.exp(-mu * delta * delta / 2)


def classical_error_bounds(m, epsilon):
    """Chernoff bounds for both failure modes of the threshold test.

    False-eps side (balanced truth): mu = m/2 and delta = eps/2.
    False-balanced side (biased truth): mu = m(1+eps)/2 and
    delta = eps / (2(1+eps)).  Both sides are conventionally quoted as
    exp(-eps^2 m / 8) for small eps; that quoted form is returned
    alongside the exact expressions.  (The exact expressions actually
    behave as exp(-eps^2 m / 16) to lowest order, so the quoted form is
    the more aggressive of the two; the exact values are authoritative.)
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if not 0 < epsilon <= 0.5:
        raise ValueError("epsilon must lie in (0, 0.5]")
    false_eps = chernoff_upper(m / 2, epsilon / 2)
    false_bal = chernoff_lower(m * (1 + epsilon) / 2, epsilon / (2 * (1 + epsilon)))
    quoted = math.exp(-epsilon * epsilon * m / 8)
    return ClassicalErrorBounds(false_eps, false_bal, quoted)


def exact_tail_probabilities(m, epsilon, n_paths=None):
    """Exact error probabilities of the threshold test by direct summation.

    With ``n_paths`` unset the readings are independent (binomial counts
    with success probability 1/2 or (1+eps)/2); with it they are drawn
    without replacement from a fixed composition of n_paths shifters
    (hypergeometric counts).  Only the counts each tail sums are built
    (k_min..m under balance, 0..k_min-1 under bias), each equal to its
    pmf entry; ``math.fsum`` is correctly rounded, so the order of the
    terms does not change the sum.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    k_min = detection_count_threshold(m, epsilon)

    if n_paths is None:
        balanced = _binomial_terms(m, 0.5, k_min, m)
        biased = _binomial_terms(m, (1 + epsilon) / 2, 0, k_min - 1)
    else:
        n = n_paths
        if m > n:
            raise ValueError("cannot sample more shifters than paths")
        if n % 2 != 0:
            raise ValueError("balanced composition needs an even number of paths")
        k_biased = (1 + epsilon) * n / 2
        if abs(k_biased - round(k_biased)) > 1e-9:
            raise ValueError(f"(1+epsilon)*N/2 = {k_biased} is not an integer")
        balanced = _hypergeometric_terms(n, n // 2, m, k_min, m)
        biased = _hypergeometric_terms(n, round(k_biased), m, 0, k_min - 1)
    false_eps = math.fsum(balanced)
    false_bal = math.fsum(biased)
    return TailProbabilities(false_eps, false_bal)
