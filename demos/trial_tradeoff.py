"""Classical sampling vs quantum runs: who wins at m trials?

Reading m shifters fails with probability 2^-m (a balanced pattern can
fake m equal readings).  Running the walk m times fails with probability
(1-nu)^m / 2, so the comparison hinges on the coherence nu: above
nu* = 1 - 2^(1/m)/2 the walk wins.
"""

from fractions import Fraction

from cohwalk import (
    classical_error,
    coherence_threshold,
    enumerate_two_trial_table,
    quantum_error,
)


def main():
    print("Two-trial posteriors at nu = 1/2 (default priors):\n")
    tables = enumerate_two_trial_table(Fraction(1, 2))
    for strategy, rows in tables.items():
        print(f"  {strategy}:")
        for outcome, p_c, p_b, guess in rows:
            print(f"    outcome {outcome}: P(constant)={float(p_c):.4f} "
                  f"P(balanced)={float(p_b):.4f} -> guess {guess}")
        print()

    print("Error probabilities by trial count:\n")
    print(f"{'m':>3} {'classical':>12} {'quantum nu=.2':>14} "
          f"{'quantum nu=.5':>14} {'quantum nu=.9':>14} {'nu*':>8}")
    for m in range(1, 11):
        row = [float(quantum_error(m, nu)) for nu in (0.2, 0.5, 0.9)]
        print(f"{m:3d} {classical_error(m):12.6f} "
              f"{row[0]:14.6f} {row[1]:14.6f} {row[2]:14.6f} "
              f"{coherence_threshold(m):8.4f}")

    print("\nnu* climbs toward 1/2: the more trials you take, the less")
    print("coherence you can get away with before classical sampling wins.")

    print("\nFinite-size correction at N = 1000 paths (nu = 0.5):")
    for m in (1, 5, 10):
        ideal = float(quantum_error(m, 0.5))
        exact = float(quantum_error(m, 0.5, n_paths=1000))
        print(f"  m={m:2d}: idealized {ideal:.6f}, exact-N {exact:.6f}, "
              f"shift {exact - ideal:+.2e}")


if __name__ == "__main__":
    main()
