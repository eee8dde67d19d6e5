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
range of counts (one count, 0..m, or the counts a tail sums) that builds
only those within sqrt(373 m) of the law's mean: by Hoeffding's inequality
(W. Hoeffding, JASA 58, 1963), which also holds for draws without
replacement, each count farther out has probability below e^-746 < 2^-1075
and a float term of exactly 0.0.  A tail thus costs O(sqrt m).

``binomial_laws`` and ``hypergeometric_laws`` build a flat iterable of
laws, such as every m of a sweep, as many whole laws per kernel call as
fit in a fixed budget of counts; ``padded`` fills a law out to its range.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class EnsembleParams:
    """Composition of a sequence and one of its subsequences.

    ``n_total`` and ``m`` are the sequence and subsequence lengths,
    ``p`` the fraction of +1 entries (p * n_total must be an integer),
    and ``m_plus`` the +1 count whose probability is wanted.  Past 2^53,
    where a float product can miss pN, p * n_total is taken exactly.
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
        k = self._plus
        if abs(k - round(k)) > (1e-9 if self.n_total <= 2**53 else 0):
            if self.n_total > 2**53:  # name the given p, not its exact Fraction product
                k = f"{self.p} * {self.n_total} (nearest integer {round(k)})"
            raise ValueError(f"p * n_total = {k} is not an integer")

    @property
    def _plus(self):
        return self.p * self.n_total if self.n_total <= 2**53 else Fraction(self.p) * self.n_total

    @property
    def n_plus(self):
        return round(self._plus)


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
    return hypergeometric_pmf(params.n_total, params.n_plus, params.m, j, j)[0]


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


def _log_binomial(x, sizes, n, p, q):
    """log b(x; n, p) with q = 1 - p, at integer arrays 0 <= x <= n.

    Loader's form T(n) - T(x) - T(n-x) - bd0(x, np) - bd0(n-x, nq), with x,
    n - x and n stacked so that each piece runs once.  Law i of the float
    arrays ``n`` (exact below 2^53, and past int64), ``p`` and ``q`` holds
    the next ``sizes[i]`` counts of x.
    """
    size = len(x)
    y = np.concatenate((x, np.repeat(n, sizes) - x, n))
    tail = _stirling_tail(y)
    mean = np.repeat((p, q), sizes, axis=1) * (y[:size] + y[size:2 * size])  # x + (n-x) = n
    sums = tail[:2 * size] + _bd0(y[:2 * size], mean.ravel())
    return np.repeat(tail[2 * size:], sizes) - sums[:size] - sums[size:]


def _window(m, mean, a, b, lo, hi):
    """The counts of a..b within lo..hi that lie within sqrt(373 m) of ``mean``."""
    r = math.sqrt(373 * m)
    return np.arange(max(a, lo, math.ceil(mean - r)), min(b, hi, math.floor(mean + r)) + 1)


_BUDGET = 1 << 12  # counts x per kernel call, so that its arrays stay in cache


def _stacked(laws, window, cost, kernel):
    """Each law's window and its terms as a list, lazily: one
    ``kernel(laws, windows)`` call per run of consecutive whole laws that
    cost at most _BUDGET counts x together (a costlier law runs alone).
    ``window(*law)`` gives a law's counts, and ``cost(window)`` their x."""
    run, total = [], 0
    for law in laws:
        w = window(*law)
        if run and total + cost(w) > _BUDGET:
            yield from _run(run, kernel)
            run, total = [], 0
        run.append((law, w))
        total += cost(w)
    yield from _run(run, kernel) if run else ()


def _run(run, kernel):
    """``_stacked``'s (law, window) pairs of one run, from one kernel call."""
    laws, windows = zip(*run)
    terms = iter(kernel(laws, windows).tolist())
    return [(w, list(itertools.islice(terms, len(w)))) for w in windows]


def padded(a, b, window, terms):
    """A law's (window, terms) pair as the list for a..b, with 0.0 elsewhere."""
    lo = int(window[0]) if terms else b + 1
    return [0.0] * (lo - a) + terms + [0.0] * (b + 1 - lo - len(terms))


def _hypergeometric_kernel(laws, windows):
    # b(j; k, m/n) b(m-j; n-k, m/n) / b(m; n, m/n), three binomial laws per law
    n, k, m, p, q = zip(*((n, k, m, m / n, (n - m) / n) for n, k, m, _, _ in laws))
    j, sizes = np.concatenate(windows), [len(w) for w in windows]
    arg = _log_binomial(np.concatenate((j, np.repeat(m, sizes) - j, m)), sizes * 2 + [1] * len(m),
                        np.array(k + tuple(total - plus for total, plus in zip(n, k)) + n, float),
                        np.tile(p, 3), np.tile(q, 3))
    return np.exp(arg[:len(j)] + arg[len(j):2 * len(j)] - np.repeat(arg[2 * len(j):], sizes))


def hypergeometric_laws(laws):
    """``hypergeometric_prob`` over the counts a..b of each law (n, k, m, a, b),
    lazily, as a (window, terms) pair per law: the window is the counts of
    a..b that can hold a nonzero float term, and ``padded(a, b, *pair)``
    gives the whole list.  A law costs 2 len(window) + 1 counts x."""
    def window(n, k, m, a, b):  # a count j has j <= k, j <= m and m - j <= n - k
        return _window(m, m * k / n, a, b, m - (n - k), min(k, m))

    return _stacked(laws, window, lambda w: 2 * len(w) + 1, _hypergeometric_kernel)


def hypergeometric_pmf(n, k, m, a=0, b=None):
    """``hypergeometric_prob`` for the counts a..b (all of 0..m by default), as a list.

    ``k`` is the number of +1 entries among the n.  Every entry equals
    the single-count call; infeasible counts are 0.0.
    """
    b = m if b is None else b
    return padded(a, b, *next(hypergeometric_laws([(n, k, m, a, b)])))


def binomial_prob(m, m_plus, p):
    """Independent-sample probability C(m, m_plus) p^m_plus (1-p)^(m-m_plus)."""
    return binomial_pmf(m, p, m_plus, m_plus)[0]


def _binomial_kernel(laws, windows):
    m, p = np.array([law[:2] for law in laws], float).T
    return np.exp(_log_binomial(np.concatenate(windows), [len(w) for w in windows], m, p, 1 - p))


def binomial_laws(laws):
    """``binomial_prob`` over the counts a..b of each law (m, p, a, b), as
    ``hypergeometric_laws`` gives them, each law costing len(window).  A
    certain law (p = 0 or 1) is a point mass, so its window is its one
    count, where the kernel gives exactly 1.0.  Each p is taken as a float.
    """
    laws = ((m, float(p), a, b) for m, p, a, b in laws)
    return _stacked(laws, lambda m, p, a, b: _window(m if 0 < p < 1 else 0, m * p, a, b, 0, m),
                    len, _binomial_kernel)


def binomial_pmf(m, p, a=0, b=None):
    """``binomial_prob`` for the counts a..b (all of 0..m by default), as a
    list, 0.0 outside 0..m; the certain cases p = 0 and p = 1 are a point mass.
    """
    b = m if b is None else b
    return padded(a, b, *next(binomial_laws([(m, p, a, b)])))


def convergence_gap(n_total, p, m, hypergeometric=None, binomial=None):
    """Worst-case |hypergeometric - binomial| over all subsequence counts.

    Requires m <= n_total / 10 so the independent-sample comparison is in
    its domain of validity.  The gap shrinks like 1/n_total for fixed
    (m, p).  A caller that has built ``hypergeometric_pmf`` for this
    composition or ``binomial_pmf(m, p)`` passes it, not to build it again.
    """
    if m > n_total / 10:
        raise ValueError("convergence_gap needs m <= n_total / 10")
    if hypergeometric is None:
        hypergeometric = hypergeometric_pmf(n_total, EnsembleParams(n_total, p, m, 0).n_plus, m)
    binomial = binomial_pmf(m, float(p)) if binomial is None else binomial
    return max(abs(h - b) for h, b in zip(hypergeometric, binomial))
