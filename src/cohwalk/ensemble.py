"""Subsequence statistics for fixed-composition sign sequences.

A length-N sequence holds exactly p*N entries equal to +1 and the rest
-1, with every arrangement equally likely.  The number of +1 entries in
a fixed length-m subsequence then follows the hypergeometric law

    P(m_plus) = C(m, m_plus) * C(N-m, pN - m_plus) / C(N, pN),

which converges to the binomial law with success probability p as N
grows with m fixed.  This module evaluates both laws and measures the
worst-case distance between them.  The exact hypergeometric rational
is built from falling factorials,

    P(m_plus) = C(m, m_plus) * k^(m_plus) * (N-k)^(m-m_plus) / N^(m),

with k = pN and x^(j) = x (x-1) ... (x-j+1): products of at most m
factors, where the binomials of N have O(N) digits.  As floats, the
hypergeometric law is that rational up to N = 200 and a log-gamma
expression beyond, and the binomial law is always log-gamma.
``binomial_pmf`` and ``hypergeometric_pmf`` return a whole law over
0..m from one table of log-gamma values, each entry equal to the
single-count call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

EXACT_N_LIMIT = 200


@dataclass(frozen=True)
class EnsembleParams:
    """Composition of a sequence and one of its subsequences.

    ``n_total`` and ``m`` are the sequence and subsequence lengths,
    ``p`` the fraction of +1 entries (p * n_total must be an integer),
    and ``m_plus`` the +1 count whose probability is wanted.
    """

    n_total: int
    p: object
    m: int
    m_plus: int

    def __post_init__(self):
        if not 0 <= self.m_plus <= self.m <= self.n_total:
            raise ValueError("need 0 <= m_plus <= m <= n_total")
        k = self.p * self.n_total
        if abs(k - round(k)) > 1e-9:
            raise ValueError(f"p * n_total = {k} is not an integer")
        if not 0 <= round(k) <= self.n_total:
            raise ValueError("p must lie in [0, 1]")

    @property
    def n_plus(self):
        return round(self.p * self.n_total)


def _exact(n, k, m, j):
    if j > k or m - j > n - k:
        return Fraction(0)
    # C(N-m, k-j) / C(N, k) as falling factorials of at most m factors
    return Fraction(math.comb(m, j) * math.perm(k, j) * math.perm(n - k, m - j),
                    math.perm(n, m))


def hypergeometric_prob_exact(params):
    """Exact rational subsequence probability.

    Computed as C(m, m_plus) k^(m_plus) (N-k)^(m-m_plus) / N^(m) with
    falling factorials x^(j) = x (x-1) ... (x-j+1), so the cost grows
    with m, not N; the reduced ``Fraction`` equals
    C(m, m_plus) C(N-m, k-m_plus) / C(N, k).
    """
    return _exact(params.n_total, params.n_plus, params.m, params.m_plus)


def _log_comb(n, k):
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def hypergeometric_prob(params):
    """Subsequence probability as a float.

    Exact arithmetic up to n_total = 200, log-gamma evaluation beyond
    (relative accuracy around 1e-12).  Infeasible compositions have
    probability 0 rather than raising.
    """
    n, k = params.n_total, params.n_plus
    m, j = params.m, params.m_plus
    if j > k or m - j > n - k:
        return 0.0
    if n <= EXACT_N_LIMIT:
        return float(hypergeometric_prob_exact(params))
    return math.exp(_log_comb(m, j) + _log_comb(n - m, k - j) - _log_comb(n, k))


def _lgamma_table(lo, hi):
    """lgamma(x + 1) for x = lo..hi."""
    return [math.lgamma(x + 1) for x in range(lo, hi + 1)]


def hypergeometric_pmf(n, k, m):
    """``hypergeometric_prob`` for every count 0..m, as a list.

    ``k`` is the number of +1 entries among the n.  Beyond
    EXACT_N_LIMIT the log-gamma values come from three tables of at
    most m+1 entries, combined in the same order as the single-count
    call, so every entry is equal to it; infeasible counts are 0.0.
    """
    if n <= EXACT_N_LIMIT:
        return [float(_exact(n, k, m, j)) for j in range(m + 1)]
    lo, hi = max(0, m - (n - k)), min(m, k)
    lg_m = _lgamma_table(0, m)                      # lgamma(x+1), x = 0..m
    lg_k = _lgamma_table(k - hi, k - lo)            # x = k-j
    lg_r = _lgamma_table(n - m - k + lo, n - m - k + hi)  # x = n-m-(k-j)
    lg_rest = math.lgamma(n - m + 1)
    log_total = _log_comb(n, k)
    pmf = [0.0] * (m + 1)
    for j in range(lo, hi + 1):
        pmf[j] = math.exp(
            (lg_m[m] - lg_m[j] - lg_m[m - j])
            + (lg_rest - lg_k[hi - j] - lg_r[j - lo])
            - log_total
        )
    return pmf


def binomial_prob(m, m_plus, p):
    """Independent-sample probability C(m, m_plus) p^m_plus (1-p)^(m-m_plus).

    Stays exact when ``p`` is a ``fractions.Fraction``.
    """
    if not 0 <= m_plus <= m:
        return 0.0
    if isinstance(p, Fraction):
        return math.comb(m, m_plus) * p**m_plus * (1 - p) ** (m - m_plus)
    if p == 0:
        return 1.0 if m_plus == 0 else 0.0
    if p == 1:
        return 1.0 if m_plus == m else 0.0
    log_pmf = _log_comb(m, m_plus) + m_plus * math.log(p) + (m - m_plus) * math.log1p(-p)
    return math.exp(log_pmf)


def binomial_pmf(m, p):
    """``binomial_prob`` for every count 0..m, as a list.

    One table of m+1 log-gamma values serves the whole law; each entry
    is computed in the same order as the single-count call and equals
    it.  ``Fraction`` p and the certain cases p = 0 and p = 1 go through
    ``binomial_prob`` itself.
    """
    if isinstance(p, Fraction) or p == 0 or p == 1:
        return [binomial_prob(m, j, p) for j in range(m + 1)]
    lg = _lgamma_table(0, m)
    log_p, log_q = math.log(p), math.log1p(-p)
    return [math.exp(lg[m] - lg[j] - lg[m - j] + j * log_p + (m - j) * log_q)
            for j in range(m + 1)]


def convergence_gap(n_total, p, m):
    """Worst-case |hypergeometric - binomial| over all subsequence counts.

    Requires m <= n_total / 10 so the independent-sample comparison is in
    its domain of validity.  The gap shrinks like 1/n_total for fixed
    (m, p).
    """
    if m > n_total / 10:
        raise ValueError("convergence_gap needs m <= n_total / 10")
    if m == 0:
        return 0.0
    k = EnsembleParams(n_total, p, m, 0).n_plus
    pairs = zip(hypergeometric_pmf(n_total, k, m), binomial_pmf(m, float(p)))
    return max(abs(h - b) for h, b in pairs)
