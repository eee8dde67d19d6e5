"""Monte Carlo vs closed forms: every error rate earns its keep.

Each configuration samples hypotheses, draws each experiment's count
statistic (exits or +1 readings over the m trials) from its exact count
law, applies the decision rule, and reports the empirical error next to
the analytic target with a z-score.  Streams are counter-based in
(seed, experiment index), so a repeated seed reproduces every digit.
"""

from cohwalk import TrialConfig, run_experiment


def main():
    experiments = 200_000
    configs = [
        ("classical DJ, m=3", TrialConfig(
            "classical-dj", m=3, experiments=experiments, seed=401)),
        ("classical DJ, m=5, no replacement", TrialConfig(
            "classical-dj", m=5, experiments=experiments, seed=402, n_paths=1000)),
        ("quantum DJ, m=2, nu=0.5", TrialConfig(
            "quantum-dj", m=2, experiments=experiments, seed=403, nu=0.5)),
        ("quantum DJ, m=2, nu=0.5, exact N=50", TrialConfig(
            "quantum-dj", m=2, experiments=experiments, seed=404, nu=0.5, n_paths=50)),
        ("classical eps test, m=200, eps=0.2", TrialConfig(
            "classical-eps", m=200, experiments=experiments, seed=405,
            epsilon=0.2)),
        ("quantum eps search, m=100, eps=0.1", TrialConfig(
            "quantum-eps", m=100, experiments=experiments, seed=406,
            epsilon=0.1, truth="epsilon")),
    ]

    print(f"{experiments} experiments per configuration.\n")
    print(f"{'configuration':38} {'empirical':>10} {'analytic':>10} {'z':>7}")
    for label, config in configs:
        result = run_experiment(config)
        print(f"{label:38} {result.empirical_error:10.6f} "
              f"{result.analytic_error:10.6f} {result.z_score:+7.2f}")

    print("\nRe-running the first configuration with its seed:")
    again = run_experiment(configs[0][1])
    first = run_experiment(configs[0][1])
    print(f"  bit-identical: {again == first}")


if __name__ == "__main__":
    main()
