"""Walk-core tests: graph layout, step unitarity, exit probabilities."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from cohwalk import decoherence, walk
from cohwalk.decoherence import AncillaSpec, full_tensor_oracle
from cohwalk.walk import (
    NORM_TOL,
    TAIL_DEPTH,
    BoundaryError,
    PhasePattern,
    WalkGraph,
    exit_amplitude,
    exit_probability_ideal,
    state_norm,
    step,
    transition_table,
)


def brute_exit_probability(signs):
    """Independent oracle: |sum of signs|^2 / (N+1)^2 by direct evaluation."""
    n = len(signs)
    amp = sum(signs) / (n + 1)
    return amp * amp


def random_pattern(rng, n):
    """Random sign assignment; promise tag chosen to match the draw."""
    signs = tuple(int(s) for s in rng.choice([1, -1], n))
    total = sum(signs)
    if abs(total) == n:
        return PhasePattern(signs, "constant")
    if total == 0:
        return PhasePattern(signs, "balanced")
    if total > 0:
        return PhasePattern(signs, "epsilon", total / n)
    # flip to keep a positive bias; exit probability only sees |total|
    return PhasePattern(tuple(-s for s in signs), "epsilon", -total / n)


def non_boundary_states(graph, table):
    """Indices of the edge states the walk may route: all but those pointing off the tails."""
    return np.setdiff1d(np.arange(graph.n_states), table.boundary)


def start(graph):
    """The walk's initial state, all amplitude on the state labelled |0,A>, and its norm."""
    amp = np.zeros(graph.n_states, dtype=complex)
    amp[graph.edge_states.index((0, "A"))] = 1.0
    return amp, 1.0


def support(graph, amp):
    """The nonzero amplitudes of ``amp``, keyed by edge-state label."""
    return {graph.edge_states[i]: amp[i] for i in np.flatnonzero(amp)}


def dense_step_matrix(graph, pattern):
    """Reference step matrix built entry by entry from the walk rules.

    Column |u,v> routes through vertex v: A and B spread it over their
    N+1 incident edges with exp(2i*pi*j*k/(N+1)) / sqrt(N+1) (label N+1
    at B), path vertex j passes it on times s_j, and a tail vertex
    passes it to its other neighbor.  Columns of states that point at an
    outermost tail vertex stay zero.
    """
    n, depth = graph.n_paths, TAIL_DEPTH
    index = {e: i for i, e in enumerate(graph.edge_states)}
    matrix = np.zeros((len(index), len(index)), dtype=complex)
    fourier = {"A": range(n + 1), "B": range(1, n + 2)}
    for (u, v), col in index.items():
        if v in fourier:
            for k in fourier[v]:
                phase = cmath.exp(2j * math.pi * u * k / (n + 1))
                matrix[index[(v, k)], col] = phase / math.sqrt(n + 1)
        elif 1 <= v <= n:
            matrix[index[(v, "B" if u == "A" else "A")], col] = pattern.signs[v - 1]
        elif v not in (-(depth - 1), n + depth):
            if v <= 0:
                neighbors = ("A" if v == 0 else v + 1, v - 1)
            else:
                neighbors = ("B" if v == n + 1 else v - 1, v + 1)
            (other,) = [w for w in neighbors if w != u]
            matrix[index[(v, other)], col] = 1.0
    return matrix


class TestGraph:
    def test_edge_state_counts(self):
        # hand enumeration: 4 edges per tail, 2N path edges,
        # two directed states per edge
        assert len(WalkGraph(2).edge_states) == 24
        assert len(WalkGraph(4).edge_states) == 32
        for n in (2, 3, 8, 17):
            graph = WalkGraph(n)
            assert len(graph.edge_states) == graph.n_states == 4 * (4 + n)

    def test_rejects_single_path(self):
        with pytest.raises(ValueError):
            WalkGraph(1)

    def test_directed_states_come_in_opposite_pairs(self):
        graph = WalkGraph(3)
        states = set(graph.edge_states)
        assert len(states) == len(graph.edge_states)
        for u, v in states:
            assert (v, u) in states

    def test_exit_edge_label(self):
        graph = WalkGraph(5)
        table = transition_table(graph, PhasePattern.constant(5))
        assert graph.edge_states[table.a_in[0]] == (0, "A")
        assert graph.edge_states[table.b_out[0]] == ("B", 6)


class TestPhasePattern:
    def test_constructors(self):
        assert PhasePattern.constant(3).signs == (1, 1, 1)
        assert sum(PhasePattern.balanced(6).signs) == 0
        biased = PhasePattern.epsilon_biased(4, 0.5)
        assert sum(biased.signs) == 2  # 3 plus, 1 minus

    def test_balanced_needs_even_n(self):
        with pytest.raises(ValueError):
            PhasePattern.balanced(5)

    def test_balanced_needs_zero_sum(self):
        with pytest.raises(ValueError):
            PhasePattern((1, 1, 1, -1), "balanced")

    def test_constant_needs_equal_signs(self):
        with pytest.raises(ValueError):
            PhasePattern((1, -1), "constant")

    def test_epsilon_needs_integer_composition(self):
        with pytest.raises(ValueError):
            PhasePattern.epsilon_biased(4, 0.3)  # (1.3*4)/2 = 2.6

    def test_epsilon_sum_must_match(self):
        with pytest.raises(ValueError):
            PhasePattern((1, 1, 1, -1), "epsilon", 0.25)  # sum 2, promised 1

    def test_signs_must_be_unit(self):
        with pytest.raises(ValueError):
            PhasePattern((1, 0, -1, 1), "balanced")

    @pytest.mark.parametrize("signs, promise, epsilon, message", [
        ((), "constant", None, "need at least one path"),
        ((1, 2, -1, 1), "balanced", None, "signs must be"),
        ((1, -1), "constant", None, "all signs equal"),
        ((1, -1, 1), "balanced", None, "even number of paths"),
        ((1, 1, 1, -1), "balanced", None, "exactly half"),
        ((1, 1), "epsilon", 1.0, r"epsilon in \(0, 1\)"),
        ((1, 1, 1, -1), "epsilon", 0.3, "not an integer"),
        ((1, 1, -1, -1), "epsilon", 0.5, "sign sum"),
        ((1, 1), "biased", None, "unknown promise"),
    ])
    def test_each_rejection_names_its_rule(self, signs, promise, epsilon, message):
        with pytest.raises(ValueError, match=message):
            PhasePattern(signs, promise, epsilon)

    def test_signs_are_stored_as_ints(self):
        pattern = PhasePattern((np.int64(1), -1.0, True, -1), "balanced")
        assert pattern.signs == (1, -1, 1, -1)
        assert all(type(s) is int for s in pattern.signs)

    @pytest.mark.parametrize("signs", [(1.5, -1.9), ("1", "-1"), (1, -0.5)])
    def test_non_integral_signs_rejected(self, signs):
        # counted before int() runs, so they are not truncated to +-1
        with pytest.raises(ValueError, match="signs must be"):
            PhasePattern(signs, "balanced")


class TestStep:
    def test_first_step_is_uniform_fan_out(self):
        # entering A from the tail excites all N+1 outgoing edges equally
        n = 5
        pattern = PhasePattern.constant(n)
        graph = WalkGraph(n)
        amp, norm = start(graph)
        state = support(graph, step(amp, transition_table(graph, pattern), norm)[0])
        expected = 1 / math.sqrt(n + 1)
        assert set(state) == {("A", k) for k in range(n + 1)}
        for amp in state.values():
            assert amp == pytest.approx(expected, abs=1e-12)

    def test_two_step_state(self):
        # tail component 1/sqrt(N+1) on |0,-1>, sign s_j on each |j,B>
        n = 4
        pattern = PhasePattern((1, 1, -1, -1), "balanced")
        graph = WalkGraph(n)
        table = transition_table(graph, pattern)
        amp, norm = start(graph)
        for _ in range(2):
            amp, norm = step(amp, table, norm)
        state = support(graph, amp)
        root = 1 / math.sqrt(n + 1)
        assert state[(0, -1)] == pytest.approx(root, abs=1e-12)
        for j, sign in enumerate(pattern.signs, start=1):
            assert state[(j, "B")] == pytest.approx(sign * root, abs=1e-12)
        assert len(state) == n + 1

    def test_step_preserves_norm_on_random_states(self):
        rng = np.random.default_rng(2024)
        for n in (2, 5, 9):
            pattern = random_pattern(rng, n)
            graph = WalkGraph(n)
            table = transition_table(graph, pattern)
            safe = non_boundary_states(graph, table)
            for _ in range(5):
                amp = np.zeros(graph.n_states, dtype=complex)
                amp[safe] = rng.standard_normal(len(safe)) + 1j * rng.standard_normal(len(safe))
                amp /= np.linalg.norm(amp)
                new, norm = step(amp, table, state_norm(amp))
                assert norm == state_norm(new) == pytest.approx(1.0, abs=1e-12)

    def test_step_matches_dense_reference(self):
        # the Fourier kernel's sign matters here: a conjugated kernel keeps
        # every exit probability but not these amplitudes
        rng = np.random.default_rng(11)
        for n in (2, 3, 4, 7, 12, 16):
            pattern = random_pattern(rng, n)
            graph = WalkGraph(n)
            table = transition_table(graph, pattern)
            matrix = dense_step_matrix(graph, pattern)
            safe = non_boundary_states(graph, table)
            rows = np.flatnonzero(np.abs(matrix).sum(axis=1))
            square = matrix[np.ix_(rows, safe)]
            assert square.shape == (len(safe), len(safe))
            assert np.allclose(square.conj().T @ square, np.eye(len(safe)), rtol=0, atol=1e-12)
            for _ in range(3):
                vec = np.zeros(graph.n_states, dtype=complex)
                vec[safe] = rng.standard_normal(len(safe)) + 1j * rng.standard_normal(len(safe))
                vec /= np.linalg.norm(vec)
                want = matrix @ vec
                got, _ = step(vec, table, state_norm(vec))
                assert set(np.flatnonzero(got)) <= set(rows)
                assert np.max(np.abs(got - want)) <= 1e-12

    def test_causality_support_by_step(self):
        # after t steps the support sits exactly t edges from the start edge
        n = 4
        pattern = PhasePattern.constant(n)
        graph = WalkGraph(n)
        table = transition_table(graph, pattern)
        horizons = [
            {(0, "A")},
            {("A", k) for k in range(n + 1)},
            {(0, -1)} | {(j, "B") for j in range(1, n + 1)},
            {(-1, -2)} | {("B", k) for k in range(1, n + 2)},
        ]
        amp, norm = start(graph)
        for horizon in horizons:
            assert set(support(graph, amp)) <= horizon
            amp, norm = step(amp, table, norm)

    def test_three_steps_end_on_the_exit_label(self):
        # three steps from |0,A> put exit_amplitude on the state labelled |B,N+1>
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 41))
            pattern = random_pattern(rng, n)
            graph = WalkGraph(n)
            table = transition_table(graph, pattern)
            amp, norm = start(graph)
            for _ in range(3):
                amp, norm = step(amp, table, norm)
            assert support(graph, amp).get(("B", n + 1), 0) == exit_amplitude(pattern)

    def test_each_walk_takes_three_steps_through_its_module_global(self, monkeypatch):
        # a profiler that rebinds walk.step and decoherence.step sees every step
        pattern = PhasePattern.constant(6)
        for module, run in ((walk, lambda: exit_amplitude(pattern)),
                            (decoherence,
                             lambda: full_tensor_oracle(pattern, AncillaSpec.uniform(0.5, 6)))):
            calls = []
            monkeypatch.setattr(module, "step", lambda *args: calls.append(1) or step(*args))
            run()
            assert len(calls) == 3

    def test_each_step_computes_one_norm(self, monkeypatch):
        calls = []
        monkeypatch.setattr(walk, "state_norm",
                            lambda amp: calls.append(1) or state_norm(amp))
        exit_amplitude(PhasePattern.constant(6))
        assert len(calls) == 3

    def test_norm_makes_no_state_sized_copy(self):
        # a 16 MiB state, the size of the joint oracle's at N = 512
        flat = np.random.default_rng(3).standard_normal(2**21)
        state = flat.view(complex)
        tracemalloc.start()
        try:
            norm = state_norm(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert abs(norm - math.sqrt(math.fsum((flat * flat).tolist()))) <= NORM_TOL

    def test_norm_check_compares_with_the_carried_norm(self):
        pattern = PhasePattern.constant(4)
        table = transition_table(WalkGraph(4), pattern)
        amp = np.zeros(4 * (4 + 4), dtype=complex)
        amp[table.a_in[0]] = 1.0
        with pytest.raises(AssertionError, match="broke the norm"):
            step(amp, table, 1.0 + 1e-9)

    def test_boundary_error_past_truncation(self):
        pattern = PhasePattern.constant(2)
        graph = WalkGraph(2)
        table = transition_table(graph, pattern)
        amp, norm = start(graph)
        with pytest.raises(BoundaryError):
            for _ in range(5):
                amp, norm = step(amp, table, norm)


class TestExitProbability:
    def test_constant_amplitude_small_n(self):
        amp = exit_amplitude(PhasePattern.constant(2))
        assert amp == pytest.approx(2 / 3, abs=1e-12)

    def test_balanced_amplitude_vanishes(self):
        amp = exit_amplitude(PhasePattern.balanced(2))
        assert abs(amp) < 1e-12

    def test_constant_value_sweep(self):
        for n in range(2, 33):
            p = abs(exit_amplitude(PhasePattern.constant(n))) ** 2
            assert p == pytest.approx(n**2 / (n + 1) ** 2, abs=1e-12)

    def test_balanced_zero_sweep(self):
        for n in range(2, 33, 2):
            p = abs(exit_amplitude(PhasePattern.balanced(n))) ** 2
            assert p < 1e-12

    def test_formula_matches_statevector_on_random_patterns(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(2, 33))
            pattern = random_pattern(rng, n)
            from_walk = abs(exit_amplitude(pattern)) ** 2
            from_formula = exit_probability_ideal(pattern)
            assert from_walk == pytest.approx(from_formula, abs=1e-12)
            assert from_formula == pytest.approx(
                brute_exit_probability(pattern.signs), abs=1e-14
            )

    @pytest.mark.parametrize("n", [10**5, 10**6])
    def test_constant_amplitude_large_n(self, n):
        # a running sum of the N+1 squared amplitudes would drift past
        # NORM_TOL here and fail the step's own norm check
        p = abs(exit_amplitude(PhasePattern.constant(n))) ** 2
        assert abs(p - n**2 / (n + 1) ** 2) <= 1e-12

    def test_biased_pattern_value(self):
        pattern = PhasePattern.epsilon_biased(100, 0.1)
        expected = (10 / 101) ** 2
        assert exit_probability_ideal(pattern) == pytest.approx(expected, abs=1e-15)
        assert abs(exit_amplitude(pattern)) ** 2 == pytest.approx(expected, abs=1e-12)

    def test_constant_examples(self):
        assert exit_probability_ideal(PhasePattern.constant(4)) == pytest.approx(0.64)
        assert exit_probability_ideal(PhasePattern.balanced(4)) == 0.0
