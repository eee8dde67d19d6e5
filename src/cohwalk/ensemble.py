"""Subsequence statistics for fixed-composition sign sequences.

A length-N sequence holds exactly k = pN entries equal to +1 and the
rest -1, every arrangement equally likely.  The +1 count of a fixed
length-m subsequence then follows the hypergeometric law

    P(j) = C(m, j) C(N-m, k-j) / C(N, k) = C(m, j) k^(j) (N-k)^(m-j) / N^(m),

with falling factorials x^(j) = x (x-1) ... (x-j+1): m factors, not
O(N) digits.  As N grows it converges to the binomial law
b(j; m, p) = C(m, j) p^j (1-p)^(m-j); ``convergence_gap`` measures the distance.

As floats, both laws come from one numpy kernel for log b(x; n, p), in
the saddle-point form of C. Loader, "Fast and Accurate Computation of
Binomial Probabilities" (2000), also used by R's ``dbinom``/``dhyper``:
its logs are O(1)-sized, so no large terms cancel.  A hypergeometric
term is b(j; k, m/N) b(m-j; N-k, m/N) / b(m; N, m/N), since the powers
of m/N cancel.  Entries are within 5e-13 relative of the exact rational
at any N, and within 1e-12 in the far tails of binomial laws near
m = 10^6, where m*p itself rounds.  Each law is one term builder over a
range of counts: one count, 0..m, or the counts a tail sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


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


def hypergeometric_prob_exact(params):
    """Exact rational subsequence probability, from falling factorials.

    ``math.perm`` is 0 at an infeasible count, and so is the probability."""
    n, k, m, j = params.n_total, params.n_plus, params.m, params.m_plus
    return Fraction(math.comb(m, j) * math.perm(k, j) * math.perm(n - k, m - j), math.perm(n, m))


def hypergeometric_prob(params):
    """Subsequence probability as a float, within 5e-13 relative of
    ``hypergeometric_prob_exact`` at any n_total.  Infeasible compositions
    have probability 0 rather than raising.
    """
    j = params.m_plus
    return _hypergeometric_terms(params.n_total, params.n_plus, params.m, j, j)[0]


# T(y) = log y! - (y log y - y) for y = 0..15, correctly rounded
_STIRLING_TAIL = np.array([
    0.0, 1.0, 1.3068528194400546, 1.4959226032237258, 1.6328763858683832,
    1.7403021806115442, 1.828694396641771, 1.9037903176782212, 1.9690705693065629,
    2.0268062840554952, 2.0785616431350586, 2.12545984509181, 2.168334698205882,
    2.207822206123445, 2.244418568125061, 2.2785183673077407])
_STIRLERR_SERIES = (1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)
_BD0_SERIES = tuple(1 / (2 * j + 1) for j in range(7, 0, -1))


def _horner(coefficients, w):
    """w times the polynomial in w with these coefficients, highest power first."""
    out = coefficients[0] * w
    for c in coefficients[1:]:  # in place: on long laws, temporaries cost more
        out += c
        out *= w
    return out


def _stirling_tail(y):
    """T(y) = log y! - (y log y - y) = stirlerr(y) + log sqrt(2 pi y) at counts y >= 0.

    The table below 16, and beyond it Loader's stirlerr series in w = 1/y^2.
    T(0) = 0 lets the end counts x = 0 and x = n share the kernel's formula.
    """
    big = np.maximum(y, 16.0)
    out = _horner(_STIRLERR_SERIES, 1 / (big * big)) * big  # w * y = 1/y
    out += 0.5 * np.log(2 * math.pi * big)
    small = y < 16
    out[small] = _STIRLING_TAIL[y[small].astype(int)]
    return out


def _bd0(x, mu):
    """Loader's deviance x log(x/mu) + mu - x at counts x >= 0 and means mu >= 0.

    Near mu, a series in w = v^2, v = (x-mu)/(x+mu), replaces the cancelling
    logs: at |v| < 0.1 its seven terms leave out < 2e-16 of bd0.  Elsewhere
    log1p((x-mu)/mu) rounds to about 1e-16 |x-mu|, and x = 0 gives mu.
    """
    d, s = x - mu, x + mu
    ratio = np.zeros_like(d)
    with np.errstate(over="ignore"):  # only for a subnormal mu, on terms below e^-709
        np.divide(d, mu, out=ratio, where=x > 0)
    out = x * np.log1p(ratio, out=ratio) - d
    near = np.abs(d) < 0.1 * s
    d_near = d[near]
    v = d_near / s[near]
    out[near] = d_near * v + (2 * x[near]) * v * _horner(_BD0_SERIES, v * v)
    return out


def _log_binomial(x, n, p, q):
    """log b(x; n, p) with q = 1 - p, at integer arrays 0 <= x <= n.

    Loader's form T(n) - T(x) - T(n-x) - bd0(x, np) - bd0(n-x, nq), with x,
    n - x and n stacked so that each piece runs once.  ``n`` is a float
    array of one count or one per x: exact below 2^53, and past int64.
    """
    size = len(x)
    y = np.concatenate((x, n - x, n))
    tail = _stirling_tail(y)
    mean = np.multiply.outer((p, q), y[:size] + y[size:2 * size]).ravel()  # x + (n-x) = n
    sums = tail[:2 * size] + _bd0(y[:2 * size], mean)
    return tail[2 * size:] - sums[:size] - sums[size:]


def _hypergeometric_terms(n, k, m, a, b):
    """``hypergeometric_prob`` for the counts j = a..b, as a list."""
    lo, hi = max(a, m - (n - k)), min(b, k)
    if lo > hi:
        return [0.0] * max(0, b - a + 1)
    j = np.arange(lo, hi + 1)
    size = len(j)  # b(j; k, m/n) b(m-j; n-k, m/n) / b(m; n, m/n) from one kernel call
    counts = np.repeat(np.array((k, n - k, n), float), (size, size, 1))
    arg = _log_binomial(np.concatenate((j, m - j, [m])), counts, m / n, (n - m) / n)
    arg = arg[:size] + arg[size:-1] - arg[-1]
    return [0.0] * (lo - a) + np.exp(arg).tolist() + [0.0] * (b - hi)


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
        terms = [float(j == p * m) for j in range(lo, hi + 1)]
    else:
        terms = np.exp(_log_binomial(np.arange(lo, hi + 1), np.float64([m]), p, 1 - p)).tolist()
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
    k = EnsembleParams(n_total, p, m, 0).n_plus
    pairs = zip(hypergeometric_pmf(n_total, k, m), binomial_pmf(m, float(p)))
    return max(abs(h - b) for h, b in pairs)
