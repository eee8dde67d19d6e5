"""Bayesian error analysis for the constant-vs-balanced decision problem.

Two strategies distinguish a constant pattern from a balanced one, each
1/2 a priori (the paper's prior), using m trials:

* classical: read m phase shifters; guess constant iff all m agree.
* quantum:   run the 3-step walk m times and watch the exit edge; guess
  balanced iff the particle never exits.

Closed forms use the independent-sample model for the shifter readings
(each balanced shifter +1 or -1 with probability 1/2, valid for m much
smaller than N) and the large-N detection probabilities nu (constant)
and 0 (balanced).  Both idealizations can be switched off: pass
``n_paths`` to use the exact finite-N detection probabilities, or the
without-replacement sampling law for the classical strategy.

The classical error is a float from the count-law kernel (its exact
rational is ``ensemble.hypergeometric_prob_exact``).  The quantum closed
forms are plain arithmetic, so passing ``fractions.Fraction`` values for
probabilities keeps them exact.
"""

from __future__ import annotations

from fractions import Fraction

from .decoherence import detection_probability
from .ensemble import hypergeometric_laws, padded
from .walk import plus_count


def _all_same_given_balanced(ms, n_paths=None):
    """P(all m sampled shifters agree | balanced pattern) for each m of ``ms``:
    2^(1-m), or with ``n_paths`` twice the count law's float term at m, O(m),
    every m from one kernel call up to its budget."""
    if n_paths is None:
        return [2.0 ** (1 - m) for m in ms]
    half = plus_count("balanced", n_paths)
    if max(ms) > n_paths:
        raise ValueError("cannot sample more shifters than paths")
    laws = hypergeometric_laws((n_paths, half, m, m, m) for m in ms)
    return [2 * padded(m, m, *law)[0] for m, law in zip(ms, laws)]


def classical_errors(ms, n_paths=None):
    """Error probability of "guess constant iff all m readings agree", for
    each m of ``ms``.

    The rule only errs on a balanced pattern that happens to give m equal
    readings, so the error is 1/2 * P(all same | balanced), which is 2^-m
    under independent sampling.  Each error is a float.
    """
    if min(ms) < 1:
        raise ValueError("m must be at least 1")
    return [p / 2 for p in _all_same_given_balanced(ms, n_paths)]


def classical_error(m, n_paths=None):
    """``classical_errors`` for one m."""
    return classical_errors([m], n_paths)[0]


def no_exit_likelihoods(first, m, nu, epsilon=None, n_paths=None):
    """P(no exit in m runs) under ``first`` ("constant" or "epsilon") and
    under a balanced pattern: ((1 - p_first)^m, (1 - p_balanced)^m).

    The quantum rule errs on ``first`` exactly when no run exits, and on a
    balanced pattern (only with the finite-N leak) when some run does.
    """
    p_first = detection_probability(first, nu, epsilon=epsilon, n_paths=n_paths)
    p_balanced = detection_probability("balanced", nu, n_paths=n_paths)
    return (1 - p_first) ** m, (1 - p_balanced) ** m


def quantum_posterior_all_zero(m, nu, n_paths=None):
    """Posteriors (P(constant), P(balanced)) after m runs with no exit.

    Equal priors 1/2 on constant and balanced.  Idealized likelihoods
    give P(constant | m misses) = (1-nu)^m / (1 + (1-nu)^m).
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    miss_c, miss_b = no_exit_likelihoods("constant", m, nu, n_paths=n_paths)
    evidence = miss_c + miss_b
    return miss_c / evidence, miss_b / evidence


def quantum_error(m, nu, n_paths=None):
    """Error probability of "guess balanced iff the particle never exits".

    Idealized: P(constant) * (1-nu)^m = (1-nu)^m / 2, since a balanced
    pattern can never produce an exit.  With ``n_paths`` the finite-N
    leak (1-nu)*N/(N+1)^2 makes the balanced side fallible too.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    miss_c, miss_b = no_exit_likelihoods("constant", m, nu, n_paths=n_paths)
    half = Fraction(1, 2)
    return half * miss_c + half * (1 - miss_b)


def coherence_threshold(m):
    """Overlap nu* above which the quantum strategy beats the classical one.

    Solving (1/2)(1-nu)^m = 2^-m gives nu* = 1 - 2^(1/m)/2.  At m = 1
    the threshold is 0: any coherence at all already helps.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    return 1.0 - 2.0 ** (1.0 / m) / 2.0


def enumerate_two_trial_table(nu):
    """Posterior tables for both two-trial strategies under the prior.

    Returns ``{"classical": [...], "quantum": [...]}`` where each row is
    ``(outcome, p_constant, p_balanced, guess)``.  Classical outcomes are
    the shifter readings, quantum outcomes the exit indicators; the
    quantum likelihoods are the idealized ones, P(exit | constant) = nu
    and P(exit | balanced) = 0.
    """
    third = Fraction(1, 3)
    classical = [
        ((1, 1), 1 - third, third, "constant"),
        ((1, -1), 0, 1, "balanced"),
        ((-1, 1), 0, 1, "balanced"),
        ((-1, -1), 1 - third, third, "constant"),
    ]
    p_c_00, _ = quantum_posterior_all_zero(2, nu)
    quantum = [
        ((0, 0), p_c_00, 1 - p_c_00, "balanced"),
        ((0, 1), 1, 0, "constant"),
        ((1, 0), 1, 0, "constant"),
        ((1, 1), 1, 0, "constant"),
    ]
    return {"classical": classical, "quantum": quantum}
