"""Decoherence tests: overlaps, density matrix, coherence, exit bound."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest

import cohwalk
import dense_reference
from cohwalk import decoherence
from cohwalk.decoherence import (
    ORACLE_MAX_PATHS,
    AncillaSpec,
    RhoInt,
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


def sign_vectors(n):
    """Every +-1 vector for small N; all +1, alternating and random ones beyond."""
    if n <= 6:
        return [np.array(v, dtype=float) for v in itertools.product((1, -1), repeat=n)]
    rng = np.random.default_rng(n)
    fixed = [np.ones(n), np.resize([1.0, -1.0], n)]
    return fixed + [rng.choice([1.0, -1.0], n) for _ in range(8)]


def assert_record_sums(g, dense):
    """An ``AncillaSpec`` gives the sums of the dense overlap matrix it stands for."""
    n = g.n_paths
    assert dense.shape == (n, n)
    tol = 1e-12 * n * n
    assert g.off_diagonal_mass() == pytest.approx(
        dense_reference.off_diagonal_mass(dense), abs=tol)
    for s in sign_vectors(n):
        want = dense_reference.signed_sum(s, dense)
        assert abs(want.imag) <= tol
        assert g.signed_sum(s) == pytest.approx(want.real, abs=tol)


def assert_rho_mass(pattern, spec):
    """``rho_int``'s l1 coherence is that of the dense rho built from the
    product-state overlaps; returns that dense rho."""
    dense = dense_reference.rho_matrix(pattern, brute_overlaps(spec))
    assert coherence_l1(rho_int(pattern, overlaps(spec))) == pytest.approx(
        dense_reference.off_diagonal_mass(dense), abs=1e-12)
    return dense


class TestOverlaps:
    def test_full_coherence_is_all_ones(self):
        spec = AncillaSpec.uniform(1.0, 3)
        assert np.allclose(brute_overlaps(spec), np.ones((3, 3)), atol=1e-15)
        assert_record_sums(overlaps(spec), np.ones((3, 3)))

    def test_zero_coherence_is_identity(self):
        spec = AncillaSpec.uniform(0.0, 4)
        assert np.allclose(brute_overlaps(spec), np.eye(4), atol=1e-15)
        assert_record_sums(overlaps(spec), np.eye(4))

    def test_real_equal_qubits_give_alpha_squared(self):
        alpha = 0.8
        beta = 0.6
        spec = AncillaSpec.per_path([alpha] * 3, [beta] * 3)
        expected = np.full((3, 3), alpha**2)
        np.fill_diagonal(expected, 1.0)
        assert np.allclose(brute_overlaps(spec), expected, atol=1e-15)
        assert_record_sums(overlaps(spec), expected)

    def test_matches_product_state_oracle(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5, 7):
            spec = random_spec(rng, n)
            assert_record_sums(overlaps(spec), brute_overlaps(spec))

    def test_hermitian_with_unit_diagonal(self):
        rng = np.random.default_rng(5)
        spec = random_spec(rng, 6)
        g = brute_overlaps(spec)
        assert np.allclose(g, g.conj().T, atol=1e-15)
        assert np.allclose(np.diag(g), 1.0, atol=1e-15)
        # so every signed sum is real, and the record returns it as a float
        assert_record_sums(overlaps(spec), g)
        assert type(exit_probability(random_pattern(rng, 6), overlaps(spec))) is float

    def test_rejects_unnormalized_qubits(self):
        with pytest.raises(ValueError):
            AncillaSpec.per_path([1.0, 0.5], [0.0, 0.5])


class TestAncillaSpec:
    def test_amplitudes_are_read_only_complex_arrays(self):
        spec = AncillaSpec.per_path([1.0, 0.6], [0.0, 0.8])
        for amps in (spec.alphas, spec.betas):
            assert amps.dtype == complex and amps.shape == (2,)
            with pytest.raises(ValueError):
                amps[0] = 0.5
        assert spec.n_paths == 2

    def test_last_of_many_unnormalized_entries_rejected(self):
        n = 2048
        theta = np.random.default_rng(41).uniform(0, math.pi / 2, n)
        alphas, betas = np.cos(theta), np.sin(theta)
        AncillaSpec.per_path(alphas, betas)
        alphas[-1], betas[-1] = 1.0, 1e-5  # |alpha|^2 + |beta|^2 = 1 + 1e-10
        with pytest.raises(ValueError, match="normalized"):
            AncillaSpec.per_path(alphas, betas)

    def test_nan_amplitude_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            AncillaSpec.per_path([1.0, math.nan], [0.0, 0.0])

    @pytest.mark.parametrize("alphas, betas", [
        ([1.0, 1.0], [0.0]), ([1.0], [0.0, 0.0]), ([[1.0]], [[0.0]]), (1.0, 0.0)])
    def test_unequal_or_not_flat_shapes_rejected(self, alphas, betas):
        with pytest.raises(ValueError, match="equal length"):
            AncillaSpec.per_path(alphas, betas)

    def test_only_uniform_sets_nu(self):
        # a nu keyword once chose the common-overlap route whatever the amplitudes:
        # AncillaSpec([1] * 4, [0] * 4, nu=0.0) gave exit probability 0.16 and X = 0
        with pytest.raises(TypeError):
            AncillaSpec([1.0] * 4, [0.0] * 4, nu=0.0)
        spec, pattern = AncillaSpec([1.0] * 4, [0.0] * 4), PhasePattern.constant(4)
        assert spec.nu is None
        assert exit_probability(pattern, overlaps(spec)) == pytest.approx(0.64, abs=1e-15)
        assert full_tensor_oracle(pattern, spec) == pytest.approx(0.64, abs=1e-15)
        assert compute_X(overlaps(spec)) == pytest.approx(0.48, abs=1e-15)

    @pytest.mark.parametrize("nu", [0.0, 0.3, 0.64, 1.0])
    def test_uniform_spec_values(self, nu):
        spec = AncillaSpec.uniform(nu, 5)
        assert spec.nu is nu
        assert spec.alphas.tobytes() == np.full(5, math.sqrt(nu), complex).tobytes()
        assert spec.betas.tobytes() == np.full(5, math.sqrt(1.0 - nu), complex).tobytes()
        assert compute_X(overlaps(spec)) == nu * 5 * 4 / 36  # the common-overlap form


class TestRhoInt:
    def test_fully_coherent_constant_is_flat(self):
        pattern = PhasePattern.constant(2)
        rho = assert_rho_mass(pattern, AncillaSpec.uniform(1.0, 2))
        assert np.allclose(rho, np.full((2, 2), 1 / 3), atol=1e-15)

    def test_fully_decohered_is_diagonal(self):
        pattern = PhasePattern.balanced(4)
        rho = assert_rho_mass(pattern, AncillaSpec.uniform(0.0, 4))
        assert np.allclose(rho, np.eye(4) / 5, atol=1e-15)

    def test_entries_follow_definition(self):
        # entry (j, k) is s_j s_k G[k][j] / (N+1); the record's l1 mass is
        # that of the matrix with these entries
        rng = np.random.default_rng(5)
        for n in (3, 64):
            pattern = random_pattern(rng, n)
            spec = random_spec(rng, n)
            g = dense_reference.overlap_matrix(spec)
            s = np.array(pattern.signs, dtype=float)
            rho = np.outer(s, s) * g.T / (n + 1)
            assert coherence_l1(rho_int(pattern, overlaps(spec))) == pytest.approx(
                dense_reference.off_diagonal_mass(rho), rel=1e-12)

    def test_trace_is_path_weight(self):
        rng = np.random.default_rng(3)
        for n in (2, 6, 11):
            pattern = random_pattern(rng, n)
            rho = assert_rho_mass(pattern, random_spec(rng, n))
            assert np.trace(rho).real == pytest.approx(n / (n + 1), abs=1e-12)
            assert abs(np.trace(rho).imag) < 1e-14

    def test_hermitian_and_psd_for_qubit_overlaps(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            pattern = random_pattern(rng, n)
            rho = assert_rho_mass(pattern, random_spec(rng, n))
            assert np.allclose(rho, rho.conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(rho).min() > -1e-10


class TestCoherence:
    def test_diagonal_matrix_has_no_coherence(self):
        # fully decohered, or every marker flipped to an orthogonal state
        pattern = PhasePattern.balanced(2)
        for spec in (AncillaSpec.uniform(0.0, 2), AncillaSpec.per_path([0.0, 0.0], [1.0, 1.0])):
            assert coherence_l1(rho_int(pattern, overlaps(spec))) == 0.0

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

    def test_record_of_other_size_rejected(self):
        pattern = PhasePattern.constant(4)
        for n in (3, 5):
            g = overlaps(AncillaSpec.uniform(0.5, n))
            for route in (rho_int, exit_probability, exit_probability_bound):
                with pytest.raises(ValueError, match="does not match the pattern size"):
                    route(pattern, g)

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

    @pytest.mark.parametrize("n_paths", [0, -1])
    def test_path_count_below_one_rejected(self, n_paths):
        for promise in ("constant", "balanced"):
            with pytest.raises(ValueError, match="n_paths"):
                detection_probability(promise, 0.5, n_paths=n_paths)

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


class TestStructuredRoute:
    def test_dense_forms_follow_the_definitions(self):
        # the reference matrices against the product-state oracle, and the
        # records against the reference up to N = 64
        rng = np.random.default_rng(43)
        for n in (1, 5, 64):
            specs = [random_spec(rng, n)] + [AncillaSpec.uniform(nu, n) for nu in (0.0, 0.3, 1.0)]
            for spec in specs:
                dense = dense_reference.overlap_matrix(spec)
                if n <= 5:
                    assert np.allclose(dense, brute_overlaps(spec), atol=1e-12)
                if spec.nu is not None:
                    assert np.all(dense[~np.eye(n, dtype=bool)] == spec.nu)
                assert_record_sums(overlaps(spec), dense)

    def test_records_route(self):
        rng = np.random.default_rng(47)
        pattern = random_pattern(rng, 6)
        spec = random_spec(rng, 6)
        g = overlaps(spec)
        rho = rho_int(pattern, g)
        assert g is spec and isinstance(rho, RhoInt)
        assert g.n_paths == rho.n_paths == 6
        assert rho.overlap is spec

    def test_budget_builds_no_n_by_n_matrix(self):
        # one complex N x N matrix at this N would take 160 GB
        n = 10**5
        rng = np.random.default_rng(53)
        spec = random_spec(rng, n)
        pattern = PhasePattern.balanced(n)
        tracemalloc.start()
        try:
            g = overlaps(spec)
            p, bound = exit_probability_bound(pattern, g)
            c_l1 = coherence_l1(rho_int(pattern, g))
            x = compute_X(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert 0 <= p <= bound
        assert c_l1 == pytest.approx((n + 1) * x, rel=1e-12)


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

    @pytest.mark.parametrize("n", range(2, 13))
    def test_equals_dense_register_on_uniform_markers(self, n):
        patterns = [PhasePattern.constant(n)]
        if n % 2 == 0:
            patterns.append(PhasePattern.balanced(n))
        if n >= 3:  # one more +1 sign than a balanced half
            patterns.append(PhasePattern.epsilon_biased(n, (2 * (n // 2 + 1) - n) / n))
        for pattern in patterns:
            for nu in (0.0, 0.3, 0.5, 0.7, 1.0):
                spec = AncillaSpec.uniform(nu, n)
                assert full_tensor_oracle(pattern, spec) == dense_reference.full_tensor_oracle(
                    pattern, spec)

    def test_matches_dense_register_on_random_markers(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            n = int(rng.integers(2, 11))
            pattern, spec = random_pattern(rng, n), random_spec(rng, n)
            assert full_tensor_oracle(pattern, spec) == pytest.approx(
                dense_reference.full_tensor_oracle(pattern, spec), abs=1e-15)

    def test_transit_marking_matches_dense_register(self):
        # the transit step marks distinct rows of the one all-|0> column; a path
        # may recur on the other side of the walk
        rng = np.random.default_rng(71)
        n, n_rows = 5, 12
        for _ in range(50):
            spec = random_spec(rng, n)
            rows = rng.choice(n_rows, 6, replace=False)
            paths = rng.integers(0, n, 6)
            state = rng.normal(size=(n_rows, 1)) + 1j * rng.normal(size=(n_rows, 1))
            dense = np.zeros((n_rows, 2**n), dtype=complex)
            dense[:, 0] = state[:, 0]
            for row, j in zip(rows, paths):
                rotation = dense_reference._qubit_rotation(spec.alphas[j], spec.betas[j])
                reg = np.tensordot(rotation, dense[row].reshape((2,) * n), axes=([1], [j]))
                dense[row] = np.moveaxis(reg, 0, j).reshape(-1)
            marked = decoherence._mark(state, rows, paths, spec)
            assert marked.shape == (n_rows, n + 1)
            # column j + 1 is the register with marker j (bit N-1-j) alone flipped
            sparse = np.zeros_like(dense)
            sparse[:, [0] + [1 << (n - 1 - j) for j in range(n)]] = marked
            assert np.allclose(sparse, dense, rtol=0, atol=1e-15)

    def test_second_transit_step_raises(self):
        spec = AncillaSpec.uniform(0.5, 3)
        state = np.array([[0.6], [0.8j]])
        marked = decoherence._mark(state, np.array([0]), np.array([1]), spec)
        assert marked.shape == (2, 4)
        assert decoherence._mark(marked, np.array([], int), np.array([], int), spec) is marked
        with pytest.raises(AssertionError, match="second transit"):
            decoherence._mark(marked, np.array([1]), np.array([2]), spec)

    def test_non_unitary_rotation_fails_the_norm_check(self):
        # a spec that skipped normalization: |alpha|^2 + |beta|^2 = 1.17
        spec = types.SimpleNamespace(n_paths=4, alphas=np.full(4, 0.9 + 0j),
                                     betas=np.full(4, 0.6 + 0j))
        with pytest.raises(AssertionError, match="norm"):
            full_tensor_oracle(PhasePattern.constant(4), spec)

    def test_fresh_cli_run_does_not_import_numpy_ma(self):
        # numpy's set routines import numpy.ma on first use, ~20 ms per process
        src = os.path.dirname(os.path.dirname(cohwalk.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = ("import sys\n"
                "from cohwalk.cli import main\n"
                "assert main(['walk', '--n', '12', '--promise', 'balanced', '--nu', '0.5',"
                " '--exact-oracle']) == 0\n"
                "assert 'numpy.ma' not in sys.modules\n")
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert "oracle_ok" in result.stdout

    def test_rejects_large_registers(self):
        n = ORACLE_MAX_PATHS + 1
        with pytest.raises(ValueError):
            full_tensor_oracle(PhasePattern.constant(n), AncillaSpec.uniform(0.5, n))

    @pytest.mark.parametrize("n", [13, 64, 257, ORACLE_MAX_PATHS])
    def test_matches_formula_up_to_the_cap(self, n):
        rng = np.random.default_rng(1000 + n)
        pattern, spec = random_pattern(rng, n), random_spec(rng, n)
        p_formula = exit_probability(pattern, overlaps(spec))
        assert abs(full_tensor_oracle(pattern, spec) - p_formula) <= 1e-10
