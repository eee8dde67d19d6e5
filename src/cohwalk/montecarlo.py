"""Seeded Monte Carlo calibration of the closed-form error probabilities.

An *experiment* samples a hypothesis, draws the strategy's sufficient
count statistic over its m trials from that hypothesis's count law,
applies the strategy's decision rule to the count, and records whether
the guess was wrong.  ``run_experiment`` repeats this and compares the
empirical error rate against the analytic target via a z-score; that
target is each strategy's closed-form error given either hypothesis,
averaged under the prior.

Randomness is counter-based: experiment i consumes exactly two uniforms,
one to pick the hypothesis and one to invert the CDF of the sufficient
count statistic (number of detections, or number of +1 readings).  They
are the two 64-bit words w of pair i % STREAM_BLOCK of a Philox stream
keyed by (seed, i // STREAM_BLOCK), each read as u = (w >> 11) * 2^-53,
a pure function of seed and experiment index, so results are
bit-reproducible and independent of execution order or how the
experiment range is partitioned.  A block is entered at the counter of
its first needed pair, and the blocks of one call run on one thread per
CPU in the process's affinity.  The count laws use the exact per-run
walk probabilities, so no pattern or state vector is realized: the walk
is deterministic, and the statistics are the same.

Each strategy is a count law plus an error region (``_RULES``).  The
count is drawn by inversion (Devroye 1986, *Non-Uniform Random Variate
Generation*, ch. III.2), the smallest k with cdf[k] >= u, so count >= t
exactly when u > cdf[t - 1]: once per run each hypothesis's error
region becomes one or two cuts c on u, each then a threshold on the raw
word (u > c exactly when w >= (floor(c * 2^53) + 1) << 11), and an
experiment costs one or two integer compares.  The test suite checks
this against a table-lookup sampler and ``scipy.stats`` quantiles,
which the package does not need.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import decision, epsilon as eps_mod
from .decoherence import detection_probability
from .ensemble import binomial_laws, hypergeometric_laws, padded
from .walk import plus_count

# strategy -> (first, second hypothesis), and the counts t, given (m, epsilon), at
# which its guess changes between t - 1 and t; below count 0 it guesses the second
_DJ, _EPS = ("constant", "balanced"), ("epsilon", "balanced")
_RULES = {
    "classical-dj": (_DJ, lambda m, eps: (0, 1, m)),  # constant iff all readings agree
    "quantum-dj": (_DJ, lambda m, eps: (1,)),  # constant on the first exit
    "classical-eps": (_EPS, lambda m, eps: (eps_mod.detection_count_threshold(m, eps),)),
    "quantum-eps": (_EPS, lambda m, eps: (1,)),  # biased on the first exit
}
STRATEGIES = tuple(_RULES)
STREAM_BLOCK = 1 << 16  # experiments per Philox stream; fixed by the format


@dataclass(frozen=True)
class TrialConfig:
    """Full description of one Monte Carlo run (deterministic given seed).

    ``n_paths`` is the run's one finite-N switch, as in every closed form:
    None means the large-N exit laws and iid draws; an int N means the
    finite-N exit laws for the quantum strategies and draws without
    replacement for the classical ones, and each pattern's composition is
    then checked with ``plus_count``.
    """

    strategy: str
    m: int
    experiments: int
    seed: int
    n_paths: int | None = None
    nu: float = 1.0
    epsilon: float | None = None
    truth: str = "prior"            # 'prior' | 'constant' | 'balanced' | 'epsilon'

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if self.experiments < 1:
            raise ValueError("experiments must be at least 1")
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.n_paths is not None and self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must lie in [0, 2**64)")
        if not 0 <= self.nu <= 1:
            raise ValueError("nu must lie in [0, 1]")
        if self.strategy.endswith("-eps") and self.epsilon is None:
            raise ValueError("epsilon strategies need an epsilon value")
        if self.epsilon is not None and not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        hypotheses = _RULES[self.strategy][0]
        if self.truth not in ("prior", *hypotheses):
            raise ValueError({
                "constant": "constant truth only applies to the DJ strategies",
                "epsilon": "epsilon truth only applies to the epsilon strategies",
            }.get(self.truth, "bad truth tag"))
        if self.n_paths is not None:
            if self.strategy.startswith("classical") and self.m > self.n_paths:
                raise ValueError("cannot sample more shifters than paths")
            for hypothesis in (h for h in hypotheses if h != "constant"):
                plus_count(hypothesis, self.n_paths, self.epsilon)


@dataclass(frozen=True)
class MCResult:
    empirical_error: float
    std_error: float
    analytic_error: float
    z_score: float


def _cpus():
    """CPUs this process may run on, one sampler thread each."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity query on this platform
        return os.cpu_count() or 1


def _block_words(seed, block, offset, take):
    """Word pairs of experiments [offset, offset + take) of one Philox block as
    a (take, 2) uint64 array.  Each counter gives four words, two pairs, so the
    draw enters at the counter holding pair offset and, when offset is odd,
    skips the pair before it."""
    # a uint64 key: a plain list holding a seed >= 2**63 goes through float64
    key = np.array([seed, block], dtype=np.uint64)
    words = np.random.Philox(key=key, counter=offset // 2).random_raw(2 * (take + offset % 2))
    return words.reshape(-1, 2)[offset % 2:]


def _map_blocks(fn, seed, start, count):
    """fn(words) for each Philox block's pairs of experiments [start, start +
    count), in block order.  Each block of STREAM_BLOCK experiments has its own
    key, so experiment i sees the same pair however the range is cut, and the
    blocks are dealt out over one thread per CPU, the caller's included."""
    spans, pos, end = [], start, start + count
    while pos < end:
        block, offset = divmod(pos, STREAM_BLOCK)
        take = min(STREAM_BLOCK - offset, end - pos)
        spans.append((block, offset, take))
        pos += take
    out, failures = [None] * len(spans), []
    shares = min(_cpus(), len(spans))

    def run(share):
        try:
            for i in range(share, len(spans), shares):
                if failures:  # another share failed: stop early
                    return
                out[i] = fn(_block_words(seed, *spans[i]))
        except BaseException as exc:  # re-raised on the caller once all are joined
            failures.append(exc)

    helpers = []
    try:
        for share in range(1, shares):
            helper = threading.Thread(target=run, args=(share,))
            helper.start()
            helpers.append(helper)
        run(0)
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[0]
    return out


def experiment_uniforms(seed, start, count):
    """Uniform pairs for experiments [start, start + count): the hypothesis
    uniforms and the count uniforms, identical for any partition."""
    pairs = np.concatenate(_map_blocks(lambda w: (w >> 11) * 2.0**-53, seed, start, count))
    # u = 0 would map to k = 0 even where pmf[0] = 0: clip the measure-zero end
    return pairs[:, 0], np.clip(pairs[:, 1], 1e-300, None)


def _count_pmfs(config):
    """Laws of the count statistic over 0..m under each hypothesis, in
    ``_RULES`` order, from one kernel call when both fit its budget.

    The count is the number of exits for the quantum strategies and the
    number of +1 readings for the classical ones; a constant pattern
    reads all +1 (both signs guess identically), a point mass at m.
    """
    m, n, eps = config.m, config.n_paths, config.epsilon
    hypotheses, build = _RULES[config.strategy][0], binomial_laws
    if config.strategy.startswith("quantum"):
        laws = [(m, detection_probability(h, config.nu, epsilon=eps, n_paths=n), 0, m)
                for h in hypotheses]
    elif n is None:
        laws = [(m, 1.0 if h == "constant" else 0.5 if h == "balanced" else (1 + eps) / 2, 0, m)
                for h in hypotheses]
    else:
        build = hypergeometric_laws
        laws = [(n, n if h == "constant" else plus_count(h, n, eps), m, 0, m) for h in hypotheses]
    return [padded(0, m, *law) for law in build(laws)]


def _word_threshold(c):
    """The least word w whose uniform (w >> 11) * 2^-53 exceeds the cut c in
    [0, 1): u > c exactly when w >> 11 > c * 2^53, which scales c exactly."""
    return (math.floor(c * 2**53) + 1) << 11


def _error_regions(config):
    """Per hypothesis, where its experiments guess wrong, as thresholds on the
    count word w: (wrong below every threshold, thresholds where that flips).

    Below every change count the guess is the second hypothesis.  A cut on u
    below the 1e-300 clip (t <= 0 too) is always passed and one at 1 or above
    (t > m too) never is, so both fold away, as does a cut of 1 - 2^-53, whose
    threshold would be 2^64.
    """
    changes = _RULES[config.strategy][1]
    regions = []
    for wrong, pmf in zip((True, False), _count_pmfs(config)):
        cdf = np.cumsum(pmf)
        cuts = [-math.inf if t <= 0 else math.inf if t > config.m else cdf[t - 1]
                for t in changes(config.m, config.epsilon)]
        passed = sum(c < 1e-300 for c in cuts)
        thresholds = [_word_threshold(c) for c in cuts if 1e-300 <= c < 1]
        regions.append((wrong != bool(passed % 2),
                        [np.uint64(t) for t in thresholds if t < 2**64]))
    return regions


def _block_errors(config, regions, words):
    """Number of wrong guesses among one block of (hypothesis, count) word pairs.

    The hypothesis is the first when its uniform is below 0.5, its word below
    2^63; a fixed truth tag reads only that hypothesis's region.
    """
    if config.truth == "prior":
        is_first = words[:, 0] < np.uint64(1 << 63)
        picks = zip(regions, (is_first, ~is_first))
    else:
        picks = [(regions[_RULES[config.strategy][0].index(config.truth)], None)]
    errors = 0
    for (wrong, thresholds), on_h in picks:
        for t in thresholds:
            wrong = wrong ^ (words[:, 1] >= t)
        if on_h is not None:
            wrong = on_h & wrong
        # with no threshold and no mask, one bool stands for the whole block
        errors += len(words) * wrong if isinstance(wrong, bool) else int(np.count_nonzero(wrong))
    return errors


def _errors(config):
    """(error | first hypothesis, error | balanced) of the config's strategy,
    the hypotheses in ``_RULES`` order."""
    strategy, m, n = config.strategy, config.m, config.n_paths
    if strategy == "classical-dj":  # a balanced pattern errs when all m readings agree
        return 0.0, decision._all_same_given_balanced([m], n)[0]
    if strategy == "classical-eps":
        tails = eps_mod.exact_tail_probabilities(m, config.epsilon, n_paths=n)
        return tails.false_bal, tails.false_eps
    # quantum: the first hypothesis errs when no run exits, the balanced one on any exit
    miss_first, miss_balanced = decision.no_exit_likelihoods(
        _RULES[strategy][0][0], m, config.nu, epsilon=config.epsilon, n_paths=n)
    return miss_first, 1 - miss_balanced


def analytic_error(config):
    """Closed-form target matching the config's N and truth tag: the
    error given the tagged hypothesis, or the mean of both under the prior."""
    first_error, balanced_error = _errors(config)
    if config.truth == "prior":
        return float((first_error + balanced_error) / 2)
    return float(balanced_error if config.truth == "balanced" else first_error)


def run_experiment(config):
    """Run the configured experiments and compare against the closed form.

    The z-score divides by the Wald standard error of the empirical
    rate; when that is 0 (no errors, or all wrong) it divides by the
    standard error of the analytic rate instead, which is then reported.
    """
    analytic = analytic_error(config)  # rejects a bad composition before any draw
    regions = _error_regions(config)
    total_errors = sum(_map_blocks(lambda words: _block_errors(config, regions, words),
                                   config.seed, 0, config.experiments))

    n = config.experiments
    empirical = total_errors / n
    std_error = math.sqrt(empirical * (1 - empirical) / n)
    if std_error == 0.0:
        std_error = math.sqrt(analytic * (1 - analytic) / n)
    if std_error == 0.0:
        z = 0.0 if empirical == analytic else math.inf
    else:
        z = (empirical - analytic) / std_error
    return MCResult(empirical, std_error, analytic, z)
