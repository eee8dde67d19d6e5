"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every criterion asserts its stated tolerance and runtime budget.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from cohwalk.decision import (
    classical_error,
    coherence_threshold,
    quantum_error,
)
from cohwalk.decoherence import (
    AncillaSpec,
    coherence_l1,
    compute_X,
    exit_probability,
    exit_probability_bound,
    full_tensor_oracle,
    overlaps,
    rho_int,
)
from cohwalk.ensemble import EnsembleParams, convergence_gap, hypergeometric_prob_exact
from cohwalk.epsilon import (
    classical_error_bounds,
    exact_tail_probabilities,
    quantum_miss_probability,
)
from cohwalk.montecarlo import TrialConfig, run_experiment
from cohwalk.walk import PhasePattern, exit_amplitude


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def random_pattern(rng, n):
    signs = tuple(int(s) for s in rng.choice([1, -1], n))
    total = sum(signs)
    if abs(total) == n:
        return PhasePattern(signs, "constant")
    if total == 0:
        return PhasePattern(signs, "balanced")
    eps = abs(total) / n
    signs = signs if total > 0 else tuple(-s for s in signs)
    return PhasePattern(signs, "epsilon", eps)


def random_spec(rng, n):
    theta = rng.uniform(0, math.pi / 2, n)
    return AncillaSpec.per_path(
        np.cos(theta) * np.exp(1j * rng.uniform(0, 2 * math.pi, n)),
        np.sin(theta) * np.exp(1j * rng.uniform(0, 2 * math.pi, n)),
    )


def test_criterion_1_ideal_walk():
    start = time.perf_counter()
    worst = 0.0
    for n in range(2, 33, 2):
        p_const = abs(exit_amplitude(PhasePattern.constant(n))) ** 2
        p_bal = abs(exit_amplitude(PhasePattern.balanced(n))) ** 2
        worst = max(worst, abs(p_const - n**2 / (n + 1) ** 2), p_bal)
        assert abs(p_const - n**2 / (n + 1) ** 2) <= 1e-12
        assert p_bal <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"state-vector exit probabilities, worst dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_decoherence_formulas():
    start = time.perf_counter()
    worst = 0.0
    for n in range(2, 33):
        for nu in [k / 10 for k in range(11)]:
            g = overlaps(AncillaSpec.uniform(nu, n))
            p_const = exit_probability(PhasePattern.constant(n), g)
            dev = abs(p_const - (n + nu * n * (n - 1)) / (n + 1) ** 2)
            worst = max(worst, dev)
            assert dev <= 1e-12
            if n % 2 == 0:
                p_bal = exit_probability(PhasePattern.balanced(n), g)
                dev = abs(p_bal - (1 - nu) * n / (n + 1) ** 2)
                worst = max(worst, dev)
                assert dev <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"finite-N exit formulas on the nu grid, worst dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_tensor_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(20260803)
    worst = 0.0
    for n in (4, 6, 8, 10):
        for _ in range(25):
            pattern = random_pattern(rng, n)
            spec = random_spec(rng, n)
            dev = abs(
                full_tensor_oracle(pattern, spec)
                - exit_probability(pattern, overlaps(spec))
            )
            worst = max(worst, dev)
            assert dev <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(3, f"joint simulation vs closed form, 100 cases, worst dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_4_coherence_identity_and_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(20260804)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 33))
        pattern = random_pattern(rng, n)
        g = overlaps(random_spec(rng, n))
        identity_dev = abs(coherence_l1(rho_int(pattern, g)) - (n + 1) * compute_X(g))
        worst = max(worst, identity_dev)
        assert identity_dev <= 1e-12
        p, bound = exit_probability_bound(pattern, g)
        assert p <= bound + 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(4, f"coherence identity and exit bound, 500 cases, worst dev {worst:.2e}, {elapsed:.2f}s")


def enumerate_classical_error(m):
    """Walk all 2^m reading tuples and total the misclassified mass."""
    quarter, half = Fraction(1, 4), Fraction(1, 2)
    error = Fraction(0)
    for outcome in itertools.product((1, -1), repeat=m):
        p_plus = Fraction(int(all(s == 1 for s in outcome)))
        p_minus = Fraction(int(all(s == -1 for s in outcome)))
        p_balanced = Fraction(1, 2**m)
        if len(set(outcome)) == 1:  # rule guesses constant
            error += half * p_balanced
        else:  # rule guesses balanced
            error += quarter * p_plus + quarter * p_minus
    return error


def test_criterion_5_decision_closed_forms():
    start = time.perf_counter()
    for m in range(1, 17):
        assert classical_error(m) == Fraction(1, 2**m)
        assert enumerate_classical_error(m) == Fraction(1, 2**m)
    crossing = (2**0.5 - 1) / 2**0.5
    assert abs(float(quantum_error(2, crossing)) - float(classical_error(2))) <= 1e-12
    for m in range(1, 11):
        star = coherence_threshold(m)
        assert abs(star - (1 - 2 ** (1 / m) / 2)) <= 1e-15
        assert float(quantum_error(m, min(star + 0.01, 1.0))) < float(classical_error(m))
        if star - 0.01 >= 0:
            assert float(quantum_error(m, star - 0.01)) > float(classical_error(m))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(5, f"exhaustive Bayes check to m=16 and threshold sign flips, {elapsed:.2f}s")


def test_criterion_6_epsilon_bounds():
    start = time.perf_counter()
    rng = np.random.default_rng(20260806)
    for _ in range(200):
        m = int(rng.integers(10, 2001))
        eps = float(rng.uniform(0.05, 0.5))
        tails = exact_tail_probabilities(m, eps)
        bounds = classical_error_bounds(m, eps)
        assert tails.false_eps <= bounds.chernoff_false_eps + 1e-12
        assert tails.false_bal <= bounds.chernoff_false_bal + 1e-12
    for eps, m in ((0.1, 800), (0.05, 3200), (0.04, 5000)):
        quoted = math.exp(-eps * eps * m / 8)
        bounds = classical_error_bounds(m, eps)
        assert abs(bounds.approx_false_eps / quoted - 1) <= 0.15
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(6, f"tail dominance on 200 pairs and quoted small-eps form, {elapsed:.2f}s")


def test_criterion_7_subsequence_convergence():
    start = time.perf_counter()
    for p in (0.5, 0.55):
        gaps = [convergence_gap(n, p, 10) for n in (100, 1000, 10000)]
        assert gaps[0] > gaps[1] > gaps[2]
    for n, p, m in [
        (20, Fraction(1, 2), 6),
        (60, Fraction(1, 3), 9),
        (121, Fraction(56, 121), 12),
        (200, Fraction(1, 2), 20),
        (200, Fraction(31, 200), 15),
    ]:
        total = sum(
            hypergeometric_prob_exact(EnsembleParams(n, p, m, j)) for j in range(m + 1)
        )
        assert total == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(7, f"gap decreases over three decades and exact normalization, {elapsed:.2f}s")


def test_criterion_8_monte_carlo_calibration():
    start = time.perf_counter()
    runs = {
        "classical error": TrialConfig(
            "classical-dj", m=3, experiments=10**6, seed=20260808
        ),
        "quantum error": TrialConfig(
            "quantum-dj", m=2, experiments=10**6, seed=20260809, nu=0.5
        ),
        "quantum miss": TrialConfig(
            "quantum-eps", m=100, experiments=10**6, seed=20260810,
            nu=1.0, epsilon=0.1, truth="epsilon",
        ),
    }
    targets = {
        "classical error": 0.125,
        "quantum error": 0.125,
        "quantum miss": quantum_miss_probability(100, 0.1, 1.0).exact,
    }
    zs = {}
    for label, config in runs.items():
        result = run_experiment(config)
        assert abs(result.analytic_error - targets[label]) <= 1e-12
        assert abs(result.z_score) <= 4.0
        zs[label] = result.z_score
    repeat = TrialConfig("classical-dj", m=3, experiments=10**6, seed=20260808)
    assert run_experiment(repeat) == run_experiment(runs["classical error"])
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    z_text = ", ".join(f"{k} z={v:+.2f}" for k, v in zs.items())
    report(8, f"1e6-experiment calibration ({z_text}), bit-identical repeat, {elapsed:.1f}s")
