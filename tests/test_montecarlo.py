"""Monte Carlo tests: ensemble sampling, trial simulation, calibration."""

import itertools
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from scipy import stats

import cohwalk
from cohwalk.montecarlo import (
    MCResult,
    TrialConfig,
    _count_pmf,
    _table_count,
    analytic_error,
    experiment_uniforms,
    run_experiment,
    sample_pattern,
    simulate_classical_trials,
    simulate_quantum_trials,
)


class TestSamplePattern:
    def test_constant_is_deterministic(self):
        rng = np.random.default_rng(0)
        pattern = sample_pattern(rng, "constant", 6, sign=-1)
        assert pattern.signs == (-1,) * 6

    def test_balanced_arrangements_are_uniform(self):
        rng = np.random.default_rng(101)
        draws = 60000
        counts = Counter(
            sample_pattern(rng, "balanced", 4).signs for _ in range(draws)
        )
        arrangements = [
            arr for arr in itertools.product((1, -1), repeat=4) if sum(arr) == 0
        ]
        assert set(counts) == set(arrangements)
        expected = draws / 6
        sigma = math.sqrt(draws * (1 / 6) * (5 / 6))
        for arr in arrangements:
            assert abs(counts[arr] - expected) <= 3 * sigma

    def test_biased_arrangements_are_uniform(self):
        rng = np.random.default_rng(202)
        draws = 40000
        counts = Counter(
            sample_pattern(rng, "epsilon", 4, epsilon=0.5).signs for _ in range(draws)
        )
        # 3 plus signs in 4 slots: four arrangements
        assert set(counts) == {
            (-1, 1, 1, 1), (1, -1, 1, 1), (1, 1, -1, 1), (1, 1, 1, -1)
        }
        sigma = math.sqrt(draws * 0.25 * 0.75)
        for count in counts.values():
            assert abs(count - draws / 4) <= 3 * sigma

    def test_infeasible_composition_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_pattern(rng, "balanced", 5)
        with pytest.raises(ValueError):
            sample_pattern(rng, "epsilon", 4, epsilon=0.3)


class TestSimulateTrials:
    def test_quantum_certainties(self):
        rng = np.random.default_rng(1)
        const = sample_pattern(rng, "constant", 8)
        balanced = sample_pattern(rng, "balanced", 8)
        assert simulate_quantum_trials(rng, const, 1.0, 20).tolist() == [1] * 20
        assert simulate_quantum_trials(rng, balanced, 0.7, 20).tolist() == [0] * 20

    def test_quantum_rate_concentrates(self):
        rng = np.random.default_rng(2)
        const = sample_pattern(rng, "constant", 8)
        outcomes = simulate_quantum_trials(rng, const, 0.5, 100_000)
        sigma = math.sqrt(0.25 / 100_000)
        assert abs(outcomes.mean() - 0.5) <= 3 * sigma

    def test_classical_constant_reads_equal(self):
        rng = np.random.default_rng(3)
        pattern = sample_pattern(rng, "constant", 10, sign=-1)
        assert set(simulate_classical_trials(rng, pattern, 7).tolist()) == {-1}

    def test_without_replacement_exhausts_balanced_pair(self):
        rng = np.random.default_rng(4)
        pattern = sample_pattern(rng, "balanced", 2)
        for _ in range(50):
            reads = simulate_classical_trials(rng, pattern, 2, sampling="hypergeom")
            assert sorted(reads.tolist()) == [-1, 1]

    def test_iid_all_same_frequency(self):
        rng = np.random.default_rng(5)
        pattern = sample_pattern(rng, "balanced", 1000)
        draws = 40000
        hits = 0
        for _ in range(draws):
            reads = simulate_classical_trials(rng, pattern, 5)
            hits += len(set(reads.tolist())) == 1
        expected = 2 * 0.5**5
        sigma = math.sqrt(expected * (1 - expected) / draws)
        assert abs(hits / draws - expected) <= 3 * sigma

    def test_without_replacement_needs_enough_paths(self):
        rng = np.random.default_rng(6)
        pattern = sample_pattern(rng, "balanced", 4)
        with pytest.raises(ValueError):
            simulate_classical_trials(rng, pattern, 5, sampling="hypergeom")


class TestRunExperiment:
    def test_deterministic_given_seed(self):
        config = TrialConfig("quantum-dj", m=2, experiments=50_000, seed=99, nu=0.5)
        assert run_experiment(config) == run_experiment(config)

    def test_seed_changes_draws(self):
        base = TrialConfig("quantum-dj", m=2, experiments=50_000, seed=1, nu=0.5)
        other = TrialConfig("quantum-dj", m=2, experiments=50_000, seed=2, nu=0.5)
        assert run_experiment(base) != run_experiment(other)

    def test_streams_are_partition_independent(self):
        from cohwalk.montecarlo import experiment_uniforms

        total = 200_000  # spans several stream blocks
        whole = experiment_uniforms(31, 0, total)
        cuts = [0, 1, 17, 65_536, 70_001, 131_072, 199_999, total]
        pieces = [
            experiment_uniforms(31, a, b - a) for a, b in zip(cuts, cuts[1:])
        ]
        for channel in (0, 1):
            stitched = np.concatenate([p[channel] for p in pieces])
            assert np.array_equal(stitched, whole[channel])

    def test_quantum_dj_calibration(self):
        config = TrialConfig("quantum-dj", m=2, experiments=200_000, seed=12, nu=0.5)
        result = run_experiment(config)
        assert result.analytic_error == pytest.approx(0.125)
        assert abs(result.z_score) <= 4

    def test_classical_dj_calibration(self):
        config = TrialConfig("classical-dj", m=3, experiments=200_000, seed=13)
        result = run_experiment(config)
        assert result.analytic_error == pytest.approx(0.125)
        assert abs(result.z_score) <= 4

    def test_classical_never_errs_under_constant(self):
        config = TrialConfig(
            "classical-dj", m=4, experiments=50_000, seed=21, truth="constant",
        )
        result = run_experiment(config)
        assert result.empirical_error == 0.0
        assert result.analytic_error == 0.0

    def test_quantum_eps_one_sided_under_balanced(self):
        config = TrialConfig(
            "quantum-eps", m=100, experiments=50_000, seed=14,
            nu=1.0, epsilon=0.1, truth="balanced",
        )
        result = run_experiment(config)
        assert result.empirical_error == 0.0
        assert result.analytic_error == 0.0
        assert result.z_score == 0.0

    def test_quantum_eps_miss_rate(self):
        config = TrialConfig(
            "quantum-eps", m=100, experiments=200_000, seed=15,
            nu=1.0, epsilon=0.1, truth="epsilon",
        )
        result = run_experiment(config)
        assert result.analytic_error == pytest.approx(0.99**100, abs=1e-12)
        assert abs(result.z_score) <= 4

    def test_classical_eps_calibration(self):
        config = TrialConfig(
            "classical-eps", m=100, experiments=200_000, seed=16, epsilon=0.2,
        )
        result = run_experiment(config)
        assert abs(result.z_score) <= 4

    def test_exact_n_likelihood_calibration(self):
        config = TrialConfig(
            "quantum-dj", m=2, experiments=200_000, seed=17,
            nu=0.5, n_paths=50, likelihood="exact-n",
        )
        result = run_experiment(config)
        assert result.analytic_error != pytest.approx(0.125, abs=1e-4)
        assert abs(result.z_score) <= 4

    def test_without_replacement_calibration(self):
        config = TrialConfig(
            "classical-dj", m=5, experiments=200_000, seed=18,
            n_paths=1000, sampling="hypergeom",
        )
        result = run_experiment(config)
        assert abs(result.z_score) <= 4

    def test_sampling_mode_gap_is_small(self):
        # without-replacement and independent sampling agree to O(m^2/N)
        iid = analytic_error(
            TrialConfig("classical-dj", m=5, experiments=1, seed=0, sampling="iid")
        )
        hyper = analytic_error(
            TrialConfig(
                "classical-dj", m=5, experiments=1, seed=0,
                n_paths=1000, sampling="hypergeom",
            )
        )
        assert iid == pytest.approx(2**-5)
        assert abs(hyper - iid) <= 25 / 1000

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrialConfig("bogus", m=2, experiments=10, seed=0)
        with pytest.raises(ValueError):
            TrialConfig("classical-eps", m=2, experiments=10, seed=0)  # no epsilon
        with pytest.raises(ValueError):
            TrialConfig("quantum-dj", m=2, experiments=10, seed=0, truth="epsilon")
        with pytest.raises(ValueError):
            TrialConfig(
                "classical-dj", m=100, experiments=10, seed=0,
                n_paths=50, sampling="hypergeom",
            )

    def test_result_fields_are_consistent(self):
        config = TrialConfig("quantum-dj", m=1, experiments=10_000, seed=20, nu=0.3)
        result = run_experiment(config)
        assert isinstance(result, MCResult)
        expected_std = math.sqrt(
            result.empirical_error * (1 - result.empirical_error) / 10_000
        )
        assert result.std_error == pytest.approx(expected_std, rel=1e-12)
        recomputed_z = (result.empirical_error - result.analytic_error) / result.std_error
        assert result.z_score == pytest.approx(recomputed_z, rel=1e-12)


def binom_cdf(m, p):
    """Table of binom(m, p): the constant-pattern exit count at nu = p."""
    config = TrialConfig("quantum-dj", m=m, experiments=1, seed=0, nu=p)
    return np.cumsum(_count_pmf(config, "constant"))


def hypergeom_cdf(n_total, m, hypothesis):
    """Table of the +1 count in m of N readings drawn without replacement."""
    config = TrialConfig("classical-eps", m=m, experiments=1, seed=0, epsilon=0.2,
                         n_paths=n_total, sampling="hypergeom")
    return np.cumsum(_count_pmf(config, hypothesis))


class TestTableSampler:
    @pytest.mark.parametrize("m", [1, 3, 40, 2000])
    @pytest.mark.parametrize("p", [0.01, 0.5, 0.6])
    def test_binomial_matches_scipy_ppf(self, m, p):
        _, u = experiment_uniforms(41, 0, 20_000)
        want = stats.binom.ppf(u, m, p).astype(np.int64)
        assert np.array_equal(_table_count(u, binom_cdf(m, p)), want)

    @pytest.mark.parametrize("n_total, m", [(100, 4), (100, 20), (1000, 5), (1000, 100)])
    @pytest.mark.parametrize("hypothesis, n_plus", [("balanced", 0.5), ("epsilon", 0.6)])
    def test_hypergeometric_matches_scipy_ppf(self, n_total, m, hypothesis, n_plus):
        _, u = experiment_uniforms(43, 0, 2_000)
        want = stats.hypergeom.ppf(u, n_total, round(n_plus * n_total), m).astype(np.int64)
        assert np.array_equal(_table_count(u, hypergeom_cdf(n_total, m, hypothesis)), want)

    @pytest.mark.parametrize("cdf", [binom_cdf(3, 0.5), binom_cdf(40, 0.5),
                                     binom_cdf(40, 0.6), hypergeom_cdf(100, 20, "balanced")],
                             ids=["binom3", "binom40", "binom40-0.6", "hypergeom100"])
    def test_extreme_uniforms(self, cdf):
        m = len(cdf) - 1
        u = np.array([1e-300, 1 - 2**-53])
        assert _table_count(u, cdf).tolist() == [0, m]

    @pytest.mark.parametrize("m", [1, 40, 2000])
    def test_certain_outcomes(self, m):
        u = np.array([1e-300, 0.5, 1 - 2**-53])
        assert _table_count(u, binom_cdf(m, 0.0)).tolist() == [0, 0, 0]
        assert _table_count(u, binom_cdf(m, 1.0)).tolist() == [m, m, m]

    @pytest.mark.parametrize("cdf", [binom_cdf(40, 0.5), binom_cdf(2000, 0.01),
                                     hypergeom_cdf(1000, 100, "epsilon")],
                             ids=["binom40", "binom2000", "hypergeom1000"])
    def test_cdf_boundaries(self, cdf):
        # u = cdf[k] is the last uniform mapped to k, the next float maps to k + 1
        steps = np.flatnonzero(np.diff(cdf) > 0)
        ks = steps[np.isin(steps, steps + 1) | (steps == 0)]
        assert len(ks) > 5
        assert np.array_equal(_table_count(cdf[ks], cdf), ks)
        # round-off can lift the sum above 1, so step up towards infinity
        assert np.array_equal(_table_count(np.nextafter(cdf[ks], np.inf), cdf), ks + 1)

    def test_cli_import_leaves_scipy_out(self):
        src = os.path.dirname(os.path.dirname(cohwalk.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-c", "import sys, cohwalk.cli; print('scipy' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert out.strip() == "False"


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"nu": 1.7}, {"nu": -0.1}, {"nu": float("nan")}, {"seed": -5}, {"seed": 2**64},
    ])
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrialConfig("quantum-dj", m=2, experiments=10, **{"seed": 0, **kwargs})

    def test_seed_range_ends_accepted(self):
        for seed in (0, 2**64 - 1):
            config = TrialConfig("quantum-dj", m=2, experiments=10, seed=seed, nu=0.5)
            assert 0 <= run_experiment(config).empirical_error <= 1

    @pytest.mark.filterwarnings("error")
    def test_large_seeds_key_exactly(self):
        first = {seed: experiment_uniforms(seed, 0, 4)[0].tolist()
                 for seed in (0, 2**63 + 12288, 2**63 + 12345, 2**64 - 1)}
        assert len({tuple(u) for u in first.values()}) == len(first)
        direct = np.random.Generator(np.random.Philox(key=[7, 0])).random(2)[0]
        assert experiment_uniforms(7, 0, 1)[0][0] == direct

    def test_zero_wald_error_falls_back_to_null(self):
        config = TrialConfig("quantum-eps", m=2000, experiments=10_000, seed=1,
                             epsilon=0.1, truth="epsilon")
        result = run_experiment(config)
        p0 = result.analytic_error
        assert result.empirical_error == 0.0
        assert result.std_error == math.sqrt(p0 * (1 - p0) / 10_000)
        assert abs(result.z_score) <= 4
