"""Watch the walk cross the interferometer, one step at a time.

The particle enters on the edge (0 -> A), fans out over the N paths at
the Fourier vertex A, picks up the shifter signs, and recombines at B.
With all signs equal the path amplitudes add and the particle exits
right with probability N^2/(N+1)^2; with half the signs flipped they
cancel and it never does.
"""

import numpy as np

from cohwalk import (
    PhasePattern,
    WalkGraph,
    exit_amplitude,
    exit_probability_ideal,
    step,
)
from cohwalk.walk import transition_table


def show_state(label, graph, amp):
    print(f"  {label}:")
    for i in sorted(np.flatnonzero(amp), key=lambda i: str(graph.edge_states[i])):
        if abs(amp[i]) > 1e-12:
            (u, v), a = graph.edge_states[i], amp[i]
            print(f"    |{u},{v}>  amplitude {a.real:+.4f}{a.imag:+.4f}i")


def main():
    n = 4
    print(f"Interferometer with N={n} paths, tails truncated at depth 4.")
    graph = WalkGraph(n)
    print(f"The graph carries {len(graph.edge_states)} directed edge states.\n")

    for promise, pattern in [
        ("constant", PhasePattern.constant(n)),
        ("balanced", PhasePattern.balanced(n)),
    ]:
        print(f"--- {promise} pattern, signs {pattern.signs} ---")
        table = transition_table(graph, pattern)
        amp = np.zeros(graph.n_states, dtype=complex)
        amp[table.a_in[0]] = 1.0  # |0,A>
        norm = 1.0
        show_state("start", graph, amp)
        for t in range(1, 4):
            amp, norm = step(amp, table, norm)
            show_state(f"after step {t}", graph, amp)
        exit_p = abs(amp[table.b_out[0]]) ** 2  # |B,N+1>
        print(f"  exit probability on |B,{n + 1}>: {exit_p:.6f} "
              f"(closed form {exit_probability_ideal(pattern):.6f})\n")

    print("Biased pattern: a small surplus of +1 signs leaves a faint exit signal.")
    for n_big, eps in [(20, 0.1), (100, 0.1), (100, 0.2)]:
        pattern = PhasePattern.epsilon_biased(n_big, eps)
        walked = abs(exit_amplitude(pattern)) ** 2
        print(f"  N={n_big:4d}, eps={eps}: exit probability {walked:.6f} "
              f"~ eps^2 = {eps**2:.4f}")


if __name__ == "__main__":
    main()
