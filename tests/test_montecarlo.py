"""Monte Carlo tests: the count sampler, its error regions, calibration."""

import itertools
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import cohwalk
from cohwalk import epsilon as eps_mod, montecarlo
from cohwalk.montecarlo import (
    _RULES,
    STREAM_BLOCK,
    MCResult,
    TrialConfig,
    _block_errors,
    _count_pmfs,
    _error_regions,
    _word_threshold,
    analytic_error,
    experiment_uniforms,
    run_experiment,
)


def _count_pmf(config, hypothesis):
    """The count law under one of the config's two hypotheses."""
    return dict(zip(_RULES[config.strategy][0], _count_pmfs(config)))[hypothesis]


def _table_count(u, cdf):
    """Smallest k with cdf[k] >= u: inversion by table lookup, the reference
    for the threshold kernel.

    Round-off can leave cdf[m] just below 1; uniforms above it map to m.
    """
    return np.minimum(np.searchsorted(cdf, u, side="left"), len(cdf) - 1)


def reference_wrong(config, u_hyp, u_count):
    """Which guesses are wrong when every count is drawn by table lookup and
    each strategy's rule is spelled out on the counts (``u_count`` clipped)."""
    first = "epsilon" if config.strategy.endswith("-eps") else "constant"
    if config.truth == "prior":
        is_first = u_hyp < 0.5
    else:
        is_first = np.full(len(u_hyp), config.truth == first)
    counts = np.empty(len(u_hyp), dtype=np.int64)
    for hypothesis, mask in ((first, is_first), ("balanced", ~is_first)):
        cdf = np.cumsum(_count_pmf(config, hypothesis))
        counts[mask] = _table_count(u_count[mask], cdf)
    m = config.m
    if config.strategy == "classical-dj":
        guess_first = (counts == 0) | (counts == m)  # constant iff all readings agree
    elif config.strategy == "classical-eps":
        guess_first = counts >= eps_mod.detection_count_threshold(m, config.epsilon)
    else:  # quantum: constant / biased on the first exit
        guess_first = counts > 0
    return guess_first != is_first


def reference_errors(config, u_hyp, u_count):
    return int(reference_wrong(config, u_hyp, u_count).sum())


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
            nu=0.5, n_paths=50,
        )
        result = run_experiment(config)
        assert result.analytic_error != pytest.approx(0.125, abs=1e-4)
        assert abs(result.z_score) <= 4

    def test_without_replacement_calibration(self):
        config = TrialConfig(
            "classical-dj", m=5, experiments=200_000, seed=18, n_paths=1000,
        )
        result = run_experiment(config)
        assert abs(result.z_score) <= 4

    def test_sampling_mode_gap_is_small(self):
        # without-replacement and independent sampling agree to O(m^2/N)
        iid = analytic_error(TrialConfig("classical-dj", m=5, experiments=1, seed=0))
        hyper = analytic_error(
            TrialConfig("classical-dj", m=5, experiments=1, seed=0, n_paths=1000)
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
            TrialConfig("classical-dj", m=100, experiments=10, seed=0, n_paths=50)

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
                         n_paths=n_total)
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


# Every strategy and truth tag, m = 1, classical-dj at m = 1 and 2, certain
# outcomes (nu = 1: p = 1 under constant, p = 0 under balanced), and
# hypergeometric laws whose first counts have no mass (fewer -1 readings
# than m)
KERNEL_CONFIGS = [
    dict(strategy="quantum-dj", m=1, nu=0.5),
    dict(strategy="quantum-dj", m=1, nu=1e-7),  # a threshold just below 1
    dict(strategy="quantum-dj", m=2, nu=1.0),
    dict(strategy="quantum-dj", m=3, nu=0.0),
    dict(strategy="quantum-dj", m=3, nu=0.0, truth="constant"),  # every guess wrong
    dict(strategy="quantum-dj", m=2, nu=0.7, truth="constant"),
    dict(strategy="quantum-dj", m=2, nu=0.7, truth="balanced"),
    dict(strategy="quantum-dj", m=3, nu=0.3, n_paths=64),
    dict(strategy="classical-dj", m=1),
    dict(strategy="classical-dj", m=2),
    dict(strategy="classical-dj", m=2, truth="balanced"),
    dict(strategy="classical-dj", m=5, truth="constant"),
    dict(strategy="classical-dj", m=8, n_paths=10),
    dict(strategy="classical-dj", m=500, n_paths=1000, truth="balanced"),
    dict(strategy="classical-eps", m=1, epsilon=0.5),
    dict(strategy="classical-eps", m=40, epsilon=0.2),
    dict(strategy="classical-eps", m=40, epsilon=0.2, truth="balanced"),
    dict(strategy="classical-eps", m=40, epsilon=0.2, truth="epsilon"),
    dict(strategy="classical-eps", m=8, epsilon=0.2, n_paths=10),
    dict(strategy="classical-eps", m=90, epsilon=0.2, n_paths=100),
    dict(strategy="quantum-eps", m=1, epsilon=0.5, nu=0.9),
    dict(strategy="quantum-eps", m=50, epsilon=0.2, nu=1.0),
    dict(strategy="quantum-eps", m=100, epsilon=0.1, truth="epsilon"),
    dict(strategy="quantum-eps", m=100, epsilon=0.1, truth="balanced"),
    dict(strategy="quantum-eps", m=40, epsilon=0.2, nu=0.3, n_paths=100),
]
KERNEL_IDS = ["-".join(str(v) for v in kwargs.values()) for kwargs in KERNEL_CONFIGS]


@st.composite
def kernel_cases(draw):
    """A valid config: any strategy and truth, at large N or an even N."""
    strategy = draw(st.sampled_from(sorted(_RULES)))
    biased = strategy.endswith("-eps")
    n = 2 * draw(st.integers(2, 500))  # epsilon is a composition of n paths
    n_paths = draw(st.none() | st.just(n))
    k_plus = draw(st.integers(n // 2 + 1, n - 1))
    draws_shifters = n_paths is not None and strategy.startswith("classical")
    return TrialConfig(
        strategy,
        m=draw(st.integers(1, n if draws_shifters else 2000)),
        experiments=draw(st.integers(1, 150_000)),
        seed=draw(st.integers(0, 2**64 - 1)),
        n_paths=n_paths,
        nu=draw(st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0, 1)),
        epsilon=(2 * k_plus - n) / n if biased else None,
        truth=draw(st.sampled_from(["prior", "balanced", "epsilon" if biased else "constant"])),
    )


class TestErrorRegionKernel:
    @pytest.mark.parametrize("kwargs", KERNEL_CONFIGS, ids=KERNEL_IDS)
    def test_stream_errors_match_table_reference(self, kwargs):
        config = TrialConfig(experiments=100_000, seed=101, **kwargs)  # two stream blocks
        u_hyp, u_count = experiment_uniforms(config.seed, 0, config.experiments)
        want = reference_errors(config, u_hyp, u_count)
        assert run_experiment(config).empirical_error == want / config.experiments

    @pytest.mark.parametrize("kwargs", KERNEL_CONFIGS, ids=KERNEL_IDS)
    def test_boundary_uniforms_match_table_reference(self, kwargs):
        # on each CDF step s, the last word whose uniform is at or below s and
        # the first whose uniform is above it, and the ends of each hypothesis's
        # words; the kernel sees w < 2^11 (u = 0) unclipped, the reference the
        # clipped 1e-300
        config = TrialConfig(experiments=1, seed=0, **kwargs)
        steps = np.concatenate([np.cumsum(pmf) for pmf in _count_pmfs(config)])
        first_above = [(math.floor(s * 2**53) + 1) << 11 for s in steps]
        count = [w for k in first_above for w in (k - 1, k)]
        count = [w for w in count if w < 2**64] + [0, 2**11 - 1, 2**63 - 1, 2**63, 2**64 - 1]
        words = np.array([(h, w) for h in (2**63 - 1, 2**63) for w in count], dtype=np.uint64)
        u = (words >> 11) * 2.0**-53
        want = reference_wrong(config, u[:, 0], np.clip(u[:, 1], 1e-300, None))
        regions = _error_regions(config)
        got = [_block_errors(config, regions, words[i:i + 1]) for i in range(len(words))]
        assert got == want.astype(int).tolist()

    @settings(max_examples=60, deadline=None)
    @given(kernel_cases())
    def test_drawn_configs_match_table_reference(self, config):
        u_hyp, u_count = experiment_uniforms(config.seed, 0, config.experiments)
        want = reference_errors(config, u_hyp, u_count)
        assert run_experiment(config).empirical_error == want / config.experiments


class TestWordThresholds:
    """A cut c on the count uniform becomes the least word whose uniform
    exceeds it, and the kernel passes a threshold at that word exactly."""

    @pytest.mark.parametrize("cut, threshold", [
        (1e-300, 2**11),
        (float(np.nextafter(0.5, 0)), 2**63),
        (0.5, 2**63 + 2**11),
        (1 - 2**-53, 2**64),
    ])
    def test_threshold_is_the_first_word_above_the_cut(self, cut, threshold):
        assert _word_threshold(cut) == threshold
        assert ((threshold - 1) >> 11) * 2.0**-53 <= cut < (threshold >> 11) * 2.0**-53

    @pytest.mark.parametrize("cut", [1e-300, float(np.nextafter(0.5, 0)), 0.5])
    def test_kernel_passes_the_threshold_word(self, monkeypatch, cut):
        # quantum-dj at m = 1 has one cut, cdf[0]; constant errs at count 0
        monkeypatch.setattr(montecarlo, "_count_pmfs", lambda config: [[cut, 1 - cut]] * 2)
        t = _word_threshold(cut)
        for truth, errs_below in (("constant", True), ("balanced", False)):
            config = TrialConfig("quantum-dj", 1, 1, 0, truth=truth)
            regions = _error_regions(config)
            assert regions == [(True, [t]), (False, [t])]
            words = np.array([[0, t - 1], [0, t]], dtype=np.uint64)
            got = [_block_errors(config, regions, words[i:i + 1]) for i in (0, 1)]
            assert got == [errs_below, not errs_below]

    @pytest.mark.parametrize("cut, regions", [
        (1 - 2**-53, [(True, []), (False, [])]),  # its threshold would be 2^64
        (1.0, [(True, []), (False, [])]),
        (5e-324, [(False, []), (True, [])]),  # below the 1e-300 clip: always passed
        (0.0, [(False, []), (True, [])]),
    ])
    def test_cuts_out_of_word_range_fold_away(self, monkeypatch, cut, regions):
        monkeypatch.setattr(montecarlo, "_count_pmfs", lambda config: [[cut, 1 - cut]] * 2)
        assert _error_regions(TrialConfig("quantum-dj", 1, 1, 0)) == regions


class TestThreads:
    """The Philox blocks of one call are spread over one thread per CPU: any
    count gives the same results, an error in any block reaches the caller,
    and every helper is joined before the call returns."""

    CONFIGS = [
        TrialConfig("quantum-dj", 2, 9 * STREAM_BLOCK + 5, 11, nu=0.5),
        TrialConfig("classical-eps", 40, 9 * STREAM_BLOCK + 5, 12, epsilon=0.2,
                    truth="epsilon"),
    ]

    @pytest.fixture
    def helpers(self, monkeypatch):
        """Every thread the sampler starts, under a very short switch interval."""
        started = []

        class Recorded(threading.Thread):
            def start(self):
                super().start()
                started.append(self)

        monkeypatch.setattr(montecarlo.threading, "Thread", Recorded)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield started
        finally:
            sys.setswitchinterval(interval)
            for helper in started:
                helper.join(timeout=10)
            assert not any(helper.is_alive() for helper in started)

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_results_identical_at_any_count(self, monkeypatch, helpers, cpus):
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 1)
        want = ([run_experiment(config) for config in self.CONFIGS],
                experiment_uniforms(13, 3 * STREAM_BLOCK - 7, 8 * STREAM_BLOCK + 3))
        assert helpers == []
        monkeypatch.setattr(montecarlo, "_cpus", lambda: cpus)
        got = ([run_experiment(config) for config in self.CONFIGS],
               experiment_uniforms(13, 3 * STREAM_BLOCK - 7, 8 * STREAM_BLOCK + 3))
        assert not any(helper.is_alive() for helper in helpers)
        assert len(helpers) == 3 * (cpus - 1)
        assert got[0] == want[0]
        assert all(np.array_equal(g, w) for g, w in zip(got[1], want[1]))

    @pytest.mark.parametrize("failing_block", [0, 5])  # the caller's share, a helper's
    def test_error_in_a_block_reaches_the_caller(self, monkeypatch, helpers, failing_block):
        draw = montecarlo._block_words

        def faulty(seed, block, offset, take):
            if block == failing_block:
                raise RuntimeError(f"block {block} failed")
            return draw(seed, block, offset, take)

        monkeypatch.setattr(montecarlo, "_cpus", lambda: 8)
        monkeypatch.setattr(montecarlo, "_block_words", faulty)
        for call in (lambda: run_experiment(self.CONFIGS[0]),
                     lambda: experiment_uniforms(13, 0, 9 * STREAM_BLOCK)):
            with pytest.raises(RuntimeError, match=f"^block {failing_block} failed$"):
                call()
            assert not any(helper.is_alive() for helper in helpers)
        assert len(helpers) == 2 * 7

    def test_cpu_count_reads_the_affinity(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert montecarlo._cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert montecarlo._cpus() == 3


def region_error(config):
    """The config's error rate read from the rule table and the two count
    laws, with no sampling."""
    hypotheses, changes = _RULES[config.strategy]
    counts = np.arange(config.m + 1)
    guess_first = sum(counts >= t for t in changes(config.m, config.epsilon)) % 2 == 1
    wrong = dict(zip(hypotheses, (~guess_first, guess_first)))
    error = {h: math.fsum(np.asarray(_count_pmf(config, h), dtype=float)[wrong[h]])
             for h in hypotheses}
    if config.truth == "prior":
        return (error[hypotheses[0]] + error[hypotheses[1]]) / 2
    return error[config.truth]


class TestNoiseFreeRegionCheck:
    # N moves the classical laws by drawing without replacement, the quantum ones
    # by the finite-N exit laws
    @pytest.mark.parametrize("strategy, mode", [
        (strategy, mode) for strategy in sorted(_RULES)
        for mode in ("iid", "hypergeom" if strategy.startswith("classical") else "exact-n")
    ])
    def test_analytic_error_is_error_region_mass(self, strategy, mode):
        n_paths = {"iid": None, "hypergeom": 1000, "exact-n": 100}[mode]
        biased = strategy.endswith("-eps")
        worst = 0.0
        for truth, m, nu in itertools.product(
                ("prior", "balanced", "epsilon" if biased else "constant"),
                (1, 2, 7, 50, 200), (0.3, 0.9, 1.0)):
            config = TrialConfig(strategy, m, 1, 0, nu=nu, epsilon=0.2 if biased else None,
                                 n_paths=n_paths, truth=truth)
            worst = max(worst, abs(analytic_error(config) - region_error(config)))
        assert worst <= 1e-12


# analytic_error at m = 7, nu = 0.6 and epsilon = 0.2, as the closed forms gave it
# when the count laws became flat; (strategy, n_paths, truth, value)
ANALYTIC_PINS = [
    ("classical-dj", None, "constant", 0.0),
    ("classical-dj", None, "balanced", 0.015625),
    ("classical-dj", None, "prior", 0.0078125),
    ("classical-dj", 100, "constant", 0.0),
    ("classical-dj", 100, "balanced", 0.012479652740097678),
    ("classical-dj", 100, "prior", 0.006239826370048839),
    ("quantum-dj", None, "constant", 0.0016384000000000006),
    ("quantum-dj", None, "balanced", 0.0),
    ("quantum-dj", None, "prior", 0.0008192000000000003),
    ("quantum-dj", 100, "constant", 0.0018788182825309105),
    ("quantum-dj", 100, "balanced", 0.02712750191400659),
    ("quantum-dj", 100, "prior", 0.01450316009826875),
    ("classical-eps", None, "epsilon", 0.28979200000000005),
    ("classical-eps", None, "balanced", 0.49999999999999994),
    ("classical-eps", None, "prior", 0.394896),
    ("classical-eps", 100, "epsilon", 0.2836775931533554),
    ("classical-eps", 100, "balanced", 0.5000000000000003),
    ("classical-eps", 100, "prior", 0.39183879657667786),
    ("quantum-eps", None, "epsilon", 0.8436236062780302),
    ("quantum-eps", None, "balanced", 0.0),
    ("quantum-eps", None, "prior", 0.4218118031390151),
    ("quantum-eps", 100, "epsilon", 0.8229793051653633),
    ("quantum-eps", 100, "balanced", 0.02712750191400659),
    ("quantum-eps", 100, "prior", 0.42505340353968496),
]


class TestAnalyticRouteIndependence:
    """``analytic_error`` is the closed form that the sampled rate is checked
    against, so it must not read the sampler's count laws or error regions."""

    @pytest.mark.parametrize("strategy, n_paths, truth, value", ANALYTIC_PINS)
    def test_reads_no_sampler_law(self, monkeypatch, strategy, n_paths, truth, value):
        def forbidden(config):
            raise AssertionError("analytic_error read the sampler's count laws")

        monkeypatch.setattr(cohwalk.montecarlo, "_count_pmfs", forbidden)
        monkeypatch.setattr(cohwalk.montecarlo, "_error_regions", forbidden)
        config = TrialConfig(strategy, 7, 1, 1, n_paths=n_paths, nu=0.6,
                             epsilon=0.2 if strategy.endswith("-eps") else None, truth=truth)
        assert analytic_error(config) == value


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"nu": 1.7}, {"nu": -0.1}, {"nu": float("nan")}, {"seed": -5}, {"seed": 2**64},
    ])
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrialConfig("quantum-dj", m=2, experiments=10, **{"seed": 0, **kwargs})

    @pytest.mark.parametrize("strategy", ["quantum-eps", "classical-eps"])
    @pytest.mark.parametrize("eps", [1.5, 1.0, 0.0, -0.2, float("nan")])
    def test_epsilon_outside_open_unit_interval_rejected(self, strategy, eps):
        with pytest.raises(ValueError, match="epsilon"):
            TrialConfig(strategy, m=5, experiments=10, seed=1, epsilon=eps)

    @pytest.mark.parametrize("n_paths", [0, -1])
    def test_path_count_below_one_rejected(self, n_paths):
        with pytest.raises(ValueError, match="n_paths"):
            TrialConfig("quantum-dj", m=2, experiments=10, seed=1, n_paths=n_paths)

    @pytest.mark.parametrize("strategy, n_paths, kwargs", [
        ("classical-dj", 101, {}), ("classical-eps", 105, {"epsilon": 0.2}),
    ])
    def test_odd_composition_rejected_before_sampling(self, monkeypatch, strategy,
                                                      n_paths, kwargs):
        def no_sampling(*args):
            raise AssertionError("sampled before the closed form was checked")

        monkeypatch.setattr(cohwalk.montecarlo, "_block_words", no_sampling)
        with pytest.raises(ValueError, match="even number of paths"):
            run_experiment(TrialConfig(strategy, m=4, experiments=10**8, seed=1,
                                       n_paths=n_paths, **kwargs))

    @pytest.mark.parametrize("strategy, n_paths, kwargs, message", [
        ("quantum-dj", 101, {}, "^balanced patterns need an even number of paths$"),
        ("quantum-eps", 105, {"epsilon": 0.2}, "^balanced patterns need an even number"),
        ("quantum-eps", 1001, {"epsilon": 0.3}, r"^\(1\+epsilon\)\*N/2 = 650\.65 is not"),
        # the epsilon composition is checked first, in _RULES order
        ("quantum-eps", 101, {"epsilon": 0.3}, r"^\(1\+epsilon\)\*N/2 = 65\.65 is not"),
    ])
    def test_exact_n_needs_each_pattern_to_exist(self, strategy, n_paths, kwargs, message):
        with pytest.raises(ValueError, match=message):
            TrialConfig(strategy, m=3, experiments=10, seed=1, n_paths=n_paths, nu=0.3,
                        **kwargs)
        # the large-N laws read no N
        TrialConfig(strategy, m=3, experiments=10, seed=1, nu=0.3, **kwargs)

    def test_more_runs_than_paths_only_limit_draws(self):
        TrialConfig("quantum-dj", m=5, experiments=10, seed=1, n_paths=4)
        with pytest.raises(ValueError, match="^cannot sample more shifters than paths$"):
            TrialConfig("classical-dj", m=5, experiments=10, seed=1, n_paths=4)

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
