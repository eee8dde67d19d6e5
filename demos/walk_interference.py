"""Watch the walk cross the interferometer, one step at a time.

The particle enters on the edge (0 -> A), fans out over the N paths at
the Fourier vertex A, picks up the shifter signs, and recombines at B.
With all signs equal the path amplitudes add and the particle exits
right with probability N^2/(N+1)^2; with half the signs flipped they
cancel and it never does.
"""

from cohwalk import (
    PhasePattern,
    WalkGraph,
    exit_amplitude,
    exit_probability_ideal,
    initial_state,
    step,
)


def show_state(label, state):
    print(f"  {label}:")
    for edge, amp in sorted(state.items(), key=lambda kv: str(kv[0])):
        if abs(amp) > 1e-12:
            print(f"    |{edge[0]},{edge[1]}>  amplitude {amp.real:+.4f}{amp.imag:+.4f}i")


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
        state = initial_state()
        show_state("start", state)
        for t in range(1, 4):
            state = step(state, pattern, graph)
            show_state(f"after step {t}", state)
        exit_p = abs(state.get(graph.exit_edge, 0)) ** 2
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
