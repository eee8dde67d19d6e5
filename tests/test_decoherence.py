"""Decoherence tests: overlaps, density matrix, coherence, exit bound."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cohwalk.decoherence import (
    AncillaSpec,
    coherence_l1,
    compute_X,
    detection_probability,
    exit_probability,
    exit_probability_bound,
    full_tensor_oracle,
    overlaps,
    rho_int,
)
from cohwalk.walk import PhasePattern


def brute_overlaps(spec):
    """Oracle: build each |eta_j> as an explicit 2^N product vector."""
    n = spec.n_paths
    zero = np.array([1.0, 0.0], dtype=complex)
    etas = []
    for j in range(n):
        vec = np.array([1.0], dtype=complex)
        for k in range(n):
            factor = (
                np.array([spec.alphas[k], spec.betas[k]]) if k == j else zero
            )
            vec = np.kron(vec, factor)
        etas.append(vec)
    g = np.empty((n, n), dtype=complex)
    for row in range(n):
        for col in range(n):
            g[row, col] = np.vdot(etas[row], etas[col])
    return g


def random_spec(rng, n):
    theta = rng.uniform(0, math.pi / 2, n)
    phase_a = np.exp(1j * rng.uniform(0, 2 * math.pi, n))
    phase_b = np.exp(1j * rng.uniform(0, 2 * math.pi, n))
    return AncillaSpec.per_path(np.cos(theta) * phase_a, np.sin(theta) * phase_b)


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


class TestOverlaps:
    def test_full_coherence_is_all_ones(self):
        g = overlaps(AncillaSpec.uniform(1.0, 3))
        assert np.allclose(g, np.ones((3, 3)), atol=1e-15)

    def test_zero_coherence_is_identity(self):
        g = overlaps(AncillaSpec.uniform(0.0, 4))
        assert np.allclose(g, np.eye(4), atol=1e-15)

    def test_real_equal_qubits_give_alpha_squared(self):
        alpha = 0.8
        beta = 0.6
        spec = AncillaSpec.per_path([alpha] * 3, [beta] * 3)
        g = overlaps(spec)
        off = g[~np.eye(3, dtype=bool)]
        assert np.allclose(off, alpha**2, atol=1e-15)

    def test_matches_product_state_oracle(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5, 7):
            spec = random_spec(rng, n)
            assert np.allclose(overlaps(spec), brute_overlaps(spec), atol=1e-12)

    def test_hermitian_with_unit_diagonal(self):
        rng = np.random.default_rng(5)
        spec = random_spec(rng, 6)
        g = overlaps(spec)
        assert np.allclose(g, g.conj().T, atol=1e-15)
        assert np.allclose(np.diag(g), 1.0, atol=1e-15)

    def test_rejects_unnormalized_qubits(self):
        with pytest.raises(ValueError):
            AncillaSpec.per_path([1.0, 0.5], [0.0, 0.5])


class TestRhoInt:
    def test_fully_coherent_constant_is_flat(self):
        pattern = PhasePattern.constant(2)
        rho = rho_int(pattern, overlaps(AncillaSpec.uniform(1.0, 2)))
        assert np.allclose(rho, np.full((2, 2), 1 / 3), atol=1e-15)

    def test_fully_decohered_is_diagonal(self):
        pattern = PhasePattern.balanced(4)
        rho = rho_int(pattern, overlaps(AncillaSpec.uniform(0.0, 4)))
        assert np.allclose(rho, np.eye(4) / 5, atol=1e-15)

    def test_trace_is_path_weight(self):
        rng = np.random.default_rng(3)
        for n in (2, 6, 11):
            pattern = random_pattern(rng, n)
            rho = rho_int(pattern, overlaps(random_spec(rng, n)))
            assert np.trace(rho).real == pytest.approx(n / (n + 1), abs=1e-12)
            assert abs(np.trace(rho).imag) < 1e-14

    def test_hermitian_and_psd_for_qubit_overlaps(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            pattern = random_pattern(rng, n)
            rho = rho_int(pattern, overlaps(random_spec(rng, n)))
            assert np.allclose(rho, rho.conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(rho).min() > -1e-10


class TestCoherence:
    def test_diagonal_matrix_has_no_coherence(self):
        assert coherence_l1(np.diag([0.4, 0.6])) == 0.0

    def test_flat_state_value(self):
        pattern = PhasePattern.constant(2)
        rho = rho_int(pattern, overlaps(AncillaSpec.uniform(1.0, 2)))
        assert coherence_l1(rho) == pytest.approx(2 / 3, abs=1e-15)

    def test_uniform_x_formula(self):
        # X = nu N(N-1)/(N+1)^2
        assert compute_X(overlaps(AncillaSpec.uniform(0.5, 4))) == pytest.approx(
            0.24, abs=1e-15
        )
        assert compute_X(overlaps(AncillaSpec.uniform(1.0, 2))) == pytest.approx(
            2 / 9, abs=1e-15
        )
        assert compute_X(overlaps(AncillaSpec.uniform(0.0, 7))) == 0.0
        for n in (2, 9, 32):
            for nu in (0.1, 0.6, 1.0):
                expected = nu * n * (n - 1) / (n + 1) ** 2
                assert compute_X(overlaps(AncillaSpec.uniform(nu, n))) == pytest.approx(
                    expected, abs=1e-13
                )

    def test_coherence_equals_scaled_x(self):
        # C_l1(rho_int) == (N+1) X for every sign pattern
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(2, 33))
            pattern = random_pattern(rng, n)
            g = overlaps(random_spec(rng, n))
            lhs = coherence_l1(rho_int(pattern, g))
            rhs = (n + 1) * compute_X(g)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestExitProbability:
    def test_constant_formula_grid(self):
        for n in range(2, 33):
            pattern = PhasePattern.constant(n)
            for nu in np.linspace(0, 1, 11):
                p = exit_probability(pattern, overlaps(AncillaSpec.uniform(nu, n)))
                expected = (n + nu * n * (n - 1)) / (n + 1) ** 2
                assert p == pytest.approx(expected, abs=1e-12)

    def test_balanced_formula_grid(self):
        for n in range(2, 33, 2):
            pattern = PhasePattern.balanced(n)
            for nu in np.linspace(0, 1, 11):
                p = exit_probability(pattern, overlaps(AncillaSpec.uniform(nu, n)))
                expected = (1 - nu) * n / (n + 1) ** 2
                assert p == pytest.approx(expected, abs=1e-12)

    def test_point_examples(self):
        g = overlaps(AncillaSpec.uniform(0.5, 4))
        assert exit_probability(PhasePattern.constant(4), g) == pytest.approx(0.4)
        assert exit_probability(PhasePattern.balanced(4), g) == pytest.approx(0.08)

    def test_biased_pattern_with_full_coherence(self):
        pattern = PhasePattern.epsilon_biased(100, 0.1)
        g = overlaps(AncillaSpec.uniform(1.0, 100))
        assert exit_probability(pattern, g) == pytest.approx((10 / 101) ** 2, abs=1e-12)

    def test_non_hermitian_overlaps_rejected(self):
        g = overlaps(AncillaSpec.uniform(0.5, 3)).astype(complex)
        g[0, 1] = 0.5j  # breaks Hermitian symmetry
        with pytest.raises(ValueError):
            exit_probability(PhasePattern.constant(3), g)

    def test_monotonic_in_nu(self):
        nus = np.linspace(0, 1, 21)
        const = [
            exit_probability(
                PhasePattern.constant(8), overlaps(AncillaSpec.uniform(nu, 8))
            )
            for nu in nus
        ]
        bal = [
            exit_probability(
                PhasePattern.balanced(8), overlaps(AncillaSpec.uniform(nu, 8))
            )
            for nu in nus
        ]
        assert all(b > a for a, b in zip(const, const[1:]))
        assert all(b < a for a, b in zip(bal, bal[1:]))

    def test_closed_forms_match_matrix_route(self):
        rng = np.random.default_rng(23)
        for n in (4, 10, 25):
            for nu in (0.0, 0.3, 1.0):
                g = overlaps(AncillaSpec.uniform(nu, n))
                assert detection_probability("constant", nu, n_paths=n) == pytest.approx(
                    exit_probability(PhasePattern.constant(n), g), abs=1e-12
                )
                if n % 2 == 0:
                    assert detection_probability(
                        "balanced", nu, n_paths=n
                    ) == pytest.approx(
                        exit_probability(PhasePattern.balanced(n), g), abs=1e-12
                    )
        pattern = PhasePattern.epsilon_biased(20, 0.2)
        g = overlaps(AncillaSpec.uniform(0.7, 20))
        assert detection_probability(
            "epsilon", 0.7, epsilon=0.2, n_paths=20
        ) == pytest.approx(exit_probability(pattern, g), abs=1e-12)

    def test_idealized_limits(self):
        assert detection_probability("constant", 0.6) == 0.6
        assert detection_probability("balanced", 0.6) == 0.0
        assert detection_probability("epsilon", 0.5, epsilon=0.1) == pytest.approx(
            0.005
        )

    def test_nu_outside_unit_interval_rejected(self):
        for nu in (1.5, -0.25, float("nan"), Fraction(3, 2), Fraction(-1, 4)):
            for promise in ("constant", "balanced"):
                with pytest.raises(ValueError):
                    detection_probability(promise, nu, n_paths=8)
        assert detection_probability("constant", Fraction(1, 2), n_paths=2) == Fraction(1, 3)


class TestBound:
    def test_tight_for_coherent_constant(self):
        pattern = PhasePattern.constant(4)
        p, bound = exit_probability_bound(pattern, overlaps(AncillaSpec.uniform(1.0, 4)))
        assert p == pytest.approx(0.64, abs=1e-12)
        assert bound == pytest.approx(0.64, abs=1e-12)

    def test_holds_on_random_cases(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(2, 17))
            pattern = random_pattern(rng, n)
            g = overlaps(random_spec(rng, n))
            p, bound = exit_probability_bound(pattern, g)
            assert p <= bound + 1e-12

    def test_accepts_gram_matrices_beyond_qubits(self):
        # overlaps of higher-dimensional environments are fine: any Gram
        # matrix with unit diagonal works for the probability formulas
        rng = np.random.default_rng(41)
        n, dim = 5, 7
        vectors = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        g = vectors.conj() @ vectors.T
        pattern = random_pattern(rng, n)
        p, bound = exit_probability_bound(pattern, g)
        assert 0.0 <= p <= bound + 1e-12
        assert np.linalg.eigvalsh(rho_int(pattern, g)).min() > -1e-10


class TestTensorOracle:
    def test_coherent_constant(self):
        spec = AncillaSpec.uniform(1.0, 4)
        assert full_tensor_oracle(PhasePattern.constant(4), spec) == pytest.approx(
            16 / 25, abs=1e-12
        )

    def test_uniform_balanced(self):
        spec = AncillaSpec.uniform(0.5, 4)
        assert full_tensor_oracle(PhasePattern.balanced(4), spec) == pytest.approx(
            0.08, abs=1e-12
        )

    def test_matches_formula_on_random_cases(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(2, 11))
            pattern = random_pattern(rng, n)
            spec = random_spec(rng, n)
            p_oracle = full_tensor_oracle(pattern, spec)
            p_formula = exit_probability(pattern, overlaps(spec))
            assert p_oracle == pytest.approx(p_formula, abs=1e-10)

    def test_rejects_large_registers(self):
        with pytest.raises(ValueError):
            full_tensor_oracle(
                PhasePattern.constant(13), AncillaSpec.uniform(0.5, 13)
            )
