"""Seeded Monte Carlo calibration of the closed-form error probabilities.

An *experiment* samples a hypothesis, realizes a phase pattern from its
ensemble, simulates the m trial outcomes of the chosen strategy, applies
that strategy's decision rule, and records whether the guess was wrong.
``run_experiment`` repeats this and compares the empirical error rate
against the analytic target via a z-score.

Randomness is counter-based: experiment i consumes exactly two uniforms,
one to pick the hypothesis and one to invert the CDF of the sufficient
count statistic (number of detections, or number of +1 readings).  The
uniforms come from a Philox stream keyed by (seed, i // STREAM_BLOCK) at
offset i % STREAM_BLOCK, a pure function of seed and experiment index,
so results are bit-reproducible and independent of execution order or
how the experiment range is partitioned across workers.  Per-run
measurement outcomes are drawn from the exact walk probabilities rather
than by collapsing a simulated state vector; the walk is deterministic,
so the statistics are identical.

The count is drawn by inversion with a lookup table (Devroye 1986,
*Non-Uniform Random Variate Generation*, ch. III.2): once per run, the
count law under each hypothesis is built from ``ensemble.binomial_prob``
or ``ensemble.hypergeometric_prob`` and accumulated into a CDF, and each
uniform u maps to the smallest k with cdf[k] >= u by binary search.  The
test suite checks the draws against ``scipy.stats`` quantile functions,
which the package itself does not need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import decision, epsilon as eps_mod
from .decoherence import detection_probability
from .ensemble import EnsembleParams, binomial_prob, hypergeometric_prob
from .walk import PhasePattern

STRATEGIES = ("classical-dj", "quantum-dj", "classical-eps", "quantum-eps")
STREAM_BLOCK = 1 << 16  # experiments per Philox stream; fixed by the format


@dataclass(frozen=True)
class TrialConfig:
    """Full description of one Monte Carlo run (deterministic given seed)."""

    strategy: str
    m: int
    experiments: int
    seed: int
    n_paths: int = 1000
    nu: float = 1.0
    epsilon: float | None = None
    likelihood: str = "idealized"   # 'idealized' | 'exact-n'
    sampling: str = "iid"           # 'iid' | 'hypergeom'
    truth: str = "prior"            # 'prior' | 'constant' | 'balanced' | 'epsilon'

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if self.experiments < 1:
            raise ValueError("experiments must be at least 1")
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must lie in [0, 2**64)")
        if not 0 <= self.nu <= 1:
            raise ValueError("nu must lie in [0, 1]")
        if self.likelihood not in ("idealized", "exact-n"):
            raise ValueError("likelihood must be 'idealized' or 'exact-n'")
        if self.sampling not in ("iid", "hypergeom"):
            raise ValueError("sampling must be 'iid' or 'hypergeom'")
        if self.truth not in ("prior", "constant", "balanced", "epsilon"):
            raise ValueError("bad truth tag")
        if self.strategy.endswith("-eps") and self.epsilon is None:
            raise ValueError("epsilon strategies need an epsilon value")
        if self.truth == "epsilon" and not self.strategy.endswith("-eps"):
            raise ValueError("epsilon truth only applies to the epsilon strategies")
        if self.truth == "constant" and self.strategy.endswith("-eps"):
            raise ValueError("constant truth only applies to the DJ strategies")
        if self.sampling == "hypergeom" and self.m > self.n_paths:
            raise ValueError("cannot sample more shifters than paths")
        if self.strategy.endswith("-eps") and self.sampling == "hypergeom":
            k = (1 + self.epsilon) * self.n_paths / 2
            if abs(k - round(k)) > 1e-9:
                raise ValueError(f"(1+epsilon)*N/2 = {k} is not an integer")


@dataclass(frozen=True)
class MCResult:
    empirical_error: float
    std_error: float
    analytic_error: float
    z_score: float


def sample_pattern(rng, promise, n_paths, epsilon=None, sign=1):
    """Draw a pattern uniformly from the promised ensemble.

    Constant patterns are deterministic; balanced and biased ones are a
    uniformly random arrangement of the fixed sign composition.
    """
    if promise == "constant":
        return PhasePattern.constant(n_paths, sign)
    if promise == "balanced":
        base = PhasePattern.balanced(n_paths)
    elif promise == "epsilon":
        base = PhasePattern.epsilon_biased(n_paths, epsilon)
    else:
        raise ValueError(f"unknown promise {promise!r}")
    signs = tuple(int(s) for s in rng.permutation(base.signs))
    return PhasePattern(signs, promise, base.epsilon)


def simulate_quantum_trials(rng, pattern, nu, m, likelihood="idealized"):
    """m exit indicators for a pattern: independent draws at the exact rate."""
    n_paths = pattern.n_paths if likelihood == "exact-n" else None
    p = float(
        detection_probability(pattern.promise, nu, epsilon=pattern.epsilon, n_paths=n_paths)
    )
    return (rng.random(m) < p).astype(np.int64)


def simulate_classical_trials(rng, pattern, m, sampling="iid"):
    """m shifter readings, with or without replacement of the positions."""
    signs = np.array(pattern.signs)
    if sampling == "iid":
        return signs[rng.integers(0, len(signs), m)]
    if m > len(signs):
        raise ValueError("cannot sample more shifters than paths")
    return signs[rng.permutation(len(signs))[:m]]


def experiment_uniforms(seed, start, count):
    """Uniform pairs for experiments [start, start + count).

    Identical values for any partition of the index range: each block of
    STREAM_BLOCK experiments is generated whole from its own Philox key
    and sliced, so experiment i always sees the same two uniforms.
    """
    u_hyp = np.empty(count)
    u_count = np.empty(count)
    pos = 0
    while pos < count:
        block, offset = divmod(start + pos, STREAM_BLOCK)
        take = min(STREAM_BLOCK - offset, count - pos)
        # a uint64 key: a plain list holding a seed >= 2**63 goes through float64
        key = np.array([seed, block], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        u = gen.random(2 * STREAM_BLOCK).reshape(STREAM_BLOCK, 2)
        u_hyp[pos:pos + take] = u[offset:offset + take, 0]
        u_count[pos:pos + take] = u[offset:offset + take, 1]
        pos += take
    # u = 0 would map to k = 0 even where pmf[0] = 0; clip away the
    # measure-zero endpoint
    return u_hyp, np.clip(u_count, 1e-300, None)


def _hypotheses(config):
    """The two hypotheses of a strategy; the prior picks the first when u_hyp < 1/2."""
    return ("epsilon" if config.strategy.endswith("-eps") else "constant", "balanced")


def _count_pmf(config, hypothesis):
    """Law of the count statistic over 0..m under ``hypothesis``.

    The count is the number of exits for the quantum strategies and the
    number of +1 readings for the classical ones; a constant pattern
    reads all +1 (both signs guess identically), a point mass at m.
    """
    m, n = config.m, config.n_paths
    if config.strategy.startswith("quantum"):
        n_paths = n if config.likelihood == "exact-n" else None
        p = float(detection_probability(
            hypothesis, config.nu, epsilon=config.epsilon, n_paths=n_paths))
        return [binomial_prob(m, k, p) for k in range(m + 1)]
    if hypothesis == "constant":
        p_plus, k_plus = 1.0, n
    elif hypothesis == "balanced":
        p_plus, k_plus = 0.5, n // 2
    else:
        p_plus, k_plus = (1 + config.epsilon) / 2, round((1 + config.epsilon) * n / 2)
    if config.sampling == "iid":
        return [binomial_prob(m, k, p_plus) for k in range(m + 1)]
    params = (EnsembleParams(n, Fraction(k_plus, n), m, k) for k in range(m + 1))
    return [hypergeometric_prob(p) for p in params]


def _table_count(u, cdf):
    """Smallest k with cdf[k] >= u: inversion by table lookup.

    Round-off can leave cdf[m] just below 1; uniforms above it map to m.
    """
    return np.minimum(np.searchsorted(cdf, u, side="left"), len(cdf) - 1)


def _block_errors(config, cdfs, u_hyp, u_count):
    """Number of wrong guesses among one block of experiments.

    ``cdfs`` maps each hypothesis to the cumulative law of its count;
    each experiment draws its count under its own hypothesis only.
    """
    first, second = _hypotheses(config)
    if config.truth == "prior":
        is_first = u_hyp < 0.5
    else:
        is_first = np.full(len(u_hyp), config.truth == first)
    counts = np.empty(len(u_hyp), dtype=np.int64)
    for hypothesis, mask in ((first, is_first), (second, ~is_first)):
        counts[mask] = _table_count(u_count[mask], cdfs[hypothesis])

    m = config.m
    if config.strategy == "classical-dj":
        guess_first = (counts == 0) | (counts == m)  # constant iff all readings agree
    elif config.strategy == "classical-eps":
        guess_first = counts >= eps_mod.detection_count_threshold(m, config.epsilon)
    else:  # quantum: constant / biased on the first exit
        guess_first = counts > 0
    return int((guess_first != is_first).sum())


def analytic_error(config):
    """Closed-form target matching the config's modes and truth tag."""
    m = config.m
    n_paths = config.n_paths if config.likelihood == "exact-n" else None
    sample_n = config.n_paths if config.sampling == "hypergeom" else None

    if config.strategy == "classical-dj":
        if config.truth == "constant":
            return 0.0
        err_given_bal = float(2 * decision.classical_error(m, n_paths=sample_n))
        return err_given_bal if config.truth == "balanced" else err_given_bal / 2

    if config.strategy == "quantum-dj":
        p_c = detection_probability("constant", config.nu, n_paths=n_paths)
        p_b = detection_probability("balanced", config.nu, n_paths=n_paths)
        err_c = (1 - p_c) ** m
        err_b = 1 - (1 - p_b) ** m
        if config.truth == "constant":
            return float(err_c)
        if config.truth == "balanced":
            return float(err_b)
        return float(decision.quantum_error(m, config.nu, n_paths=n_paths))

    if config.strategy == "classical-eps":
        tails = eps_mod.exact_tail_probabilities(m, config.epsilon, n_paths=sample_n)
        if config.truth == "balanced":
            return tails.false_eps
        if config.truth == "epsilon":
            return tails.false_bal
        return (tails.false_eps + tails.false_bal) / 2

    # quantum-eps
    p_eps = detection_probability("epsilon", config.nu, epsilon=config.epsilon, n_paths=n_paths)
    p_bal = detection_probability("balanced", config.nu, n_paths=n_paths)
    miss = (1 - p_eps) ** m          # false balanced, given the biased case
    false_eps = 1 - (1 - p_bal) ** m
    if config.truth == "epsilon":
        return float(miss)
    if config.truth == "balanced":
        return float(false_eps)
    return float((miss + false_eps) / 2)


def run_experiment(config):
    """Run the configured experiments and compare against the closed form.

    The z-score divides by the Wald standard error of the empirical
    rate; when that is 0 (no errors, or all wrong) it divides by the
    standard error of the analytic rate instead, which is then reported.
    """
    cdfs = {h: np.cumsum(_count_pmf(config, h)) for h in _hypotheses(config)}
    total_errors = 0
    for start in range(0, config.experiments, STREAM_BLOCK):
        count = min(STREAM_BLOCK, config.experiments - start)
        u_hyp, u_count = experiment_uniforms(config.seed, start, count)
        total_errors += _block_errors(config, cdfs, u_hyp, u_count)

    n = config.experiments
    empirical = total_errors / n
    analytic = float(analytic_error(config))
    std_error = math.sqrt(empirical * (1 - empirical) / n)
    if std_error == 0.0:
        std_error = math.sqrt(analytic * (1 - analytic) / n)
    if std_error == 0.0:
        z = 0.0 if empirical == analytic else math.inf
    else:
        z = (empirical - analytic) / std_error
    return MCResult(empirical, std_error, analytic, z)
