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
Each law is written once, as a term builder over a range of counts:
``binomial_prob`` and ``hypergeometric_prob`` take one count,
``binomial_pmf`` and ``hypergeometric_pmf`` the whole law over 0..m,
and the exact tails just the counts each tail sums.  The log arguments
are one numpy expression per law over a process-wide table of
lgamma(x + 1) that grows by doubling; only the large-x values of a
hypergeometric law (k - j and N - m - k + j) are built per call.
``math.exp`` then maps each argument, since ``np.exp`` is not
bit-identical to libm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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
        if not 0 <= self.p <= 1:  # also rejects nan and inf
            raise ValueError("p must lie in [0, 1]")
        k = self.p * self.n_total
        if abs(k - round(k)) > 1e-9:
            raise ValueError(f"p * n_total = {k} is not an integer")

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
    j = params.m_plus
    return _hypergeometric_terms(params.n_total, params.n_plus, params.m, j, j)[0]


_LGAMMA = np.zeros(0)   # lgamma(x + 1) for x = 0..len - 1, shared by every law


def _lgamma_upto(n):
    """The shared lgamma(x + 1) table, grown by doubling to cover x = n."""
    global _LGAMMA
    table = _LGAMMA
    size = len(table)
    if n >= size:
        grown = max(n + 1, 2 * size)
        more = np.fromiter(map(math.lgamma, range(size + 1, grown + 1)), float, grown - size)
        # return the local table: another thread may store a shorter one meanwhile
        table = _LGAMMA = np.concatenate((table, more))
    return table


def _lgamma_range(first, count):
    """lgamma(x + 1) for x = first..first + count - 1."""
    return np.fromiter(map(math.lgamma, range(first + 1, first + count + 1)), float, count)


def _exp_list(arg):
    # math.exp, not np.exp: np.exp is not bit-identical to libm's exp
    return list(map(math.exp, arg.tolist()))


def _hypergeometric_terms(n, k, m, a, b):
    """``hypergeometric_prob`` for the counts j = a..b, as a list."""
    if n <= EXACT_N_LIMIT:
        return [float(_exact(n, k, m, j)) for j in range(a, b + 1)]
    lo, hi = max(a, m - (n - k)), min(b, k)
    if lo > hi:
        return [0.0] * max(0, b - a + 1)
    count = hi - lo + 1
    lg = _lgamma_upto(m)
    j = np.arange(lo, hi + 1)
    lg_k = _lgamma_range(k - hi, count)[::-1]           # x = k-j
    lg_r = _lgamma_range(n - m - k + lo, count)         # x = n-m-(k-j)
    arg = ((lg[m] - lg[j] - lg[m - j])
           + (math.lgamma(n - m + 1) - lg_k - lg_r)
           - _log_comb(n, k))
    return [0.0] * (lo - a) + _exp_list(arg) + [0.0] * (b - hi)


def hypergeometric_pmf(n, k, m):
    """``hypergeometric_prob`` for every count 0..m, as a list.

    ``k`` is the number of +1 entries among the n.  Every entry equals
    the single-count call; infeasible counts are 0.0.
    """
    return _hypergeometric_terms(n, k, m, 0, m)


def binomial_prob(m, m_plus, p):
    """Independent-sample probability C(m, m_plus) p^m_plus (1-p)^(m-m_plus).

    Stays exact when ``p`` is a ``fractions.Fraction``.
    """
    return _binomial_terms(m, p, m_plus, m_plus)[0]


def _binomial_terms(m, p, a, b):
    """``binomial_prob`` for the counts j = a..b, as a list (0.0 outside 0..m)."""
    lo, hi = max(a, 0), min(b, m)
    if lo > hi:
        return [0.0] * max(0, b - a + 1)
    if isinstance(p, Fraction):
        terms = [math.comb(m, j) * p**j * (1 - p) ** (m - j) for j in range(lo, hi + 1)]
    elif p == 0 or p == 1:  # a point mass at 0 or at m
        terms = [0.0] * (hi - lo + 1)
        certain = 0 if p == 0 else m
        if lo <= certain <= hi:
            terms[certain - lo] = 1.0
    else:
        lg = _lgamma_upto(m)
        j = np.arange(lo, hi + 1)
        terms = _exp_list(lg[m] - lg[j] - lg[m - j] + j * math.log(p) + (m - j) * math.log1p(-p))
    return [0.0] * (lo - a) + terms + [0.0] * (b - hi)


def binomial_pmf(m, p):
    """``binomial_prob`` for every count 0..m, as a list.

    ``Fraction`` p keeps exact entries; the certain cases p = 0 and p = 1
    are a point mass.
    """
    return _binomial_terms(m, p, 0, m)


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
