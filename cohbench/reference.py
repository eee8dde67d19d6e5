"""Expected results computed apart from cohwalk.

Nothing here imports cohwalk.  The closed forms are exact ``Fraction``
arithmetic written from the paper's formulas; the count laws come from
``scipy.stats``; the per-path exit probability and X use the O(N)
structural forms instead of cohwalk's dense N x N sums.  Flag values
arrive as the strings passed on the command line, so a decimal such as
"0.2" is the same double cohwalk parses.
"""

from __future__ import annotations

import math
from fractions import Fraction

from scipy import stats


def exact(text):
    """The exact value of the double a flag string parses to."""
    return Fraction(float(text))


def decimal(text):
    """The decimal a flag string writes, as the paper's thresholds mean it."""
    return Fraction(text)


# --- walk -----------------------------------------------------------------

def detection(promise, nu, n=None, eps=None):
    """Single-run exit probability; finite N when ``n`` is given."""
    if promise == "constant":
        return nu if n is None else (n + nu * n * (n - 1)) / Fraction((n + 1) ** 2)
    if promise == "balanced":
        return Fraction(0) if n is None else (1 - nu) * n / Fraction((n + 1) ** 2)
    if n is None:
        return nu * eps * eps
    return ((1 - nu) * n + nu * eps * eps * n * n) / Fraction((n + 1) ** 2)


def canonical_sign_sum(promise, n, eps=None):
    if promise == "constant":
        return n
    if promise == "balanced":
        return 0
    n_plus = (1 + eps) * n / 2
    if n_plus.denominator != 1:
        raise ValueError("(1+eps)N/2 is not an integer")
    return 2 * int(n_plus) - n


def walk_row(params):
    """Expected walk table values for one canonical pattern."""
    n, nu = params["n"], exact(params["nu"])
    eps = decimal(params["epsilon"]) if params["epsilon"] is not None else None
    total = canonical_sign_sum(params["promise"], n, eps)
    return {
        "p_analytic": detection(params["promise"], nu, n, eps),
        "p_statevector_ideal": Fraction(total * total, (n + 1) ** 2),
        "coherence_x": nu * n * (n - 1) / Fraction((n + 1) ** 2),
    }


def coherence(signs, alphas):
    """Exit probability, its bound, l1 coherence and X in O(N).

    With G[k][j] = conj(a_k) a_j off the diagonal and 1 on it,
    p = (|sum s_j a_j|^2 - sum |a_j|^2 + N) / (N+1)^2 and
    X = ((sum |a_j|)^2 - sum |a_j|^2) / (N+1)^2.
    """
    n = len(signs)
    scale = (n + 1) ** 2
    re = math.fsum(s * a.real for s, a in zip(signs, alphas))
    im = math.fsum(s * a.imag for s, a in zip(signs, alphas))
    mods = [abs(a) for a in alphas]
    sq = math.fsum(m * m for m in mods)
    x = (math.fsum(mods) ** 2 - sq) / scale
    p = (re * re + im * im - sq + n) / scale
    return {"p": p, "bound": n / scale + x, "coherence_l1": (n + 1) * x, "x": x}


# --- decide ---------------------------------------------------------------

def all_same_given_balanced(m, n=None):
    """P(m readings of a balanced pattern agree): 2 * P(all +1)."""
    if n is None:
        return Fraction(2, 2**m)
    p = Fraction(1)
    for i in range(m):
        p *= Fraction(n // 2 - i, n - i)
    return 2 * p


def classical_error(m, n=None):
    return Fraction(1, 2) * all_same_given_balanced(m, n)


def quantum_error(m, nu, n=None):
    p_c, p_b = detection("constant", nu, n), detection("balanced", nu, n)
    return ((1 - p_c) ** m + 1 - (1 - p_b) ** m) / 2


def coherence_threshold(m):
    return 1.0 - 2.0 ** (1.0 / m) / 2.0


# --- epsilon --------------------------------------------------------------

def count_threshold(m, eps):
    """Smallest +1 count k with (2k - m)/m >= eps/2."""
    return math.ceil(m * (1 + eps / 2) / 2)


def binomial_tails(m, eps):
    k_min = count_threshold(m, eps)
    p_plus = float((1 + eps) / 2)
    return (float(stats.binom.sf(k_min - 1, m, 0.5)),
            float(stats.binom.cdf(k_min - 1, m, p_plus)))


def hypergeometric_tails(m, eps, n):
    k_min = count_threshold(m, eps)
    n_biased = (1 + eps) * n / 2
    if n_biased.denominator != 1:
        raise ValueError("(1+eps)N/2 is not an integer")
    return (float(stats.hypergeom.sf(k_min - 1, n, n // 2, m)),
            float(stats.hypergeom.cdf(k_min - 1, n, int(n_biased), m)))


def chernoff_bounds(m, eps):
    """Multiplicative Chernoff bounds on both error tails of the Y test."""
    mu, delta = m / 2, eps / 2
    false_eps = math.exp(mu * (delta - (1 + delta) * math.log1p(delta)))
    mu, delta = m * (1 + eps) / 2, eps / (2 * (1 + eps))
    false_bal = math.exp(-mu * delta * delta / 2)
    return false_eps, false_bal


def epsilon_row(m, eps_text, nu_text):
    eps, nu = float(eps_text), float(nu_text)
    rate = float(exact(nu_text) * exact(eps_text) ** 2)
    bound_eps, bound_bal = chernoff_bounds(m, eps)
    exact_eps, exact_bal = binomial_tails(m, decimal(eps_text))
    return {
        "quantum_miss": math.exp(m * math.log1p(-rate)),
        "quantum_miss_approx": math.exp(-m * nu * eps * eps),
        "bound_false_eps": bound_eps,
        "bound_false_bal": bound_bal,
        "bound_approx": math.exp(-eps * eps * m / 8),
        "exact_false_eps": exact_eps,
        "exact_false_bal": exact_bal,
    }


# --- ensemble -------------------------------------------------------------

def ensemble_gap(n, p_text, m):
    k = decimal(p_text) * n
    if k.denominator != 1:
        raise ValueError("p * N is not an integer")
    counts = range(m + 1)
    hyper = stats.hypergeom.pmf(counts, n, int(k), m)
    binom = stats.binom.pmf(counts, m, float(p_text))
    return float(max(abs(hyper - binom))), int(k)


# --- mc -------------------------------------------------------------------

def mc_target(params):
    """Error probability of one Monte Carlo configuration, from its laws."""
    m, truth, strategy = params["m"], params["truth"], params["strategy"]
    nu = exact(params["nu"])
    finite_n = params["n"] if params["likelihood"] == "exact-n" else None
    sample_n = params["n"] if params["sampling"] == "hypergeom" else None

    if strategy == "classical-dj":
        given_balanced = float(all_same_given_balanced(m, sample_n))
        return {"constant": 0.0, "balanced": given_balanced}.get(truth, given_balanced / 2)

    if strategy == "quantum-dj":
        p_c, p_b = detection("constant", nu, finite_n), detection("balanced", nu, finite_n)
        err_c, err_b = (1 - p_c) ** m, 1 - (1 - p_b) ** m
        return float({"constant": err_c, "balanced": err_b}.get(truth, (err_c + err_b) / 2))

    eps = decimal(params["epsilon"])
    if strategy == "classical-eps":
        if sample_n is None:
            false_eps, false_bal = binomial_tails(m, eps)
        else:
            false_eps, false_bal = hypergeometric_tails(m, eps, sample_n)
    else:
        eps_double = exact(params["epsilon"])
        p_eps = detection("epsilon", nu, finite_n, eps_double)
        p_bal = detection("balanced", nu, finite_n)
        false_bal, false_eps = float((1 - p_eps) ** m), float(1 - (1 - p_bal) ** m)
    return {"balanced": false_eps, "epsilon": false_bal}.get(truth, (false_eps + false_bal) / 2)


def uniforms_digest(seed, start, count, block=1 << 16):
    """SHA-256 of the uniform pairs of experiments [start, start + count).

    Rebuilt from the documented stream format: experiment i reads the
    pair at offset i % block of the Philox stream keyed (seed, i // block),
    and the count uniform is clipped to at least 1e-300.
    """
    import hashlib

    import numpy as np

    pairs = [np.random.Generator(np.random.Philox(key=[seed, b])).random(2 * block)
             .reshape(block, 2)
             for b in range(start // block, (start + count - 1) // block + 1)]
    offset = start % block
    stream = np.concatenate(pairs)[offset:offset + count]
    hyp, counts = stream[:, 0].copy(), np.clip(stream[:, 1], 1e-300, None)
    return hashlib.sha256(hyp.tobytes() + counts.tobytes()).hexdigest()


def binomial_test_pvalue(errors, experiments, target):
    """Two-sided exact binomial test of an error count against its target."""
    if target <= 0.0:
        return 1.0 if errors == 0 else 0.0
    if target >= 1.0:
        return 1.0 if errors == experiments else 0.0
    return float(stats.binomtest(errors, experiments, target).pvalue)
