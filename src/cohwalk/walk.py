"""Single-particle scattering walk on an N-path interferometer graph.

The graph has two Fourier vertices A and B joined by N parallel paths.
Path j carries a phase shifter that multiplies transmitted amplitude by
a sign s_j in {+1, -1}; ``PhasePattern`` holds the signs under their
promise, and ``plus_count`` is the one check that a balanced or biased
composition exists for N (and epsilon).  A finite chain of pass-through
vertices hangs off each Fourier vertex: the entry tail 0, -1, -2, ...
on the A side and the exit tail N+1, N+2, ... on the B side.  Each tail
holds ``TAIL_DEPTH`` = 4 edges: in the paper's three steps the particle
goes no further than three edges from a Fourier vertex, so the fourth
edge of a tail is never reached.

The particle lives on *directed edge states* |u,v>: "on the edge {u,v},
moving toward v".  |u,v> and |v,u> are distinct orthogonal states.  One
time step, ``step``, routes every occupied state through the vertex it
points at:

* A and B apply a discrete Fourier transform over their N+1 incident
  edges, kernel exp(2i*pi*j*k/(N+1)) / sqrt(N+1).  At A the incident
  edges are indexed by the neighbor labels {0, 1..N}; at B by
  {1..N, N+1}, where the label N+1 is congruent to 0 mod N+1.
* Path vertex j transmits and multiplies by s_j, in both directions.
* Tail vertices pass amplitude straight through with unit coefficient.

The state is a dense complex array indexed by edge state; ``WalkGraph``
labels each index.  One step costs O(N log N): each Fourier vertex is
an inverse FFT over its N+1 slots, each path a sign multiply, each tail
an index shift.  After the three steps of the walk the support holds
O(N) states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

NORM_TOL = 1e-12
TAIL_DEPTH = 4  # edges per tail; three steps never reach the fourth


class BoundaryError(RuntimeError):
    """Amplitude reached the truncation boundary: the walk ran past three steps."""


def plus_count(promise, n_paths, epsilon=None):
    """The +1 count of a ``"balanced"`` or ``"epsilon"`` pattern of N paths, N/2 or
    (1+epsilon)*N/2 (to within 1e-9, for a float epsilon).  Raises ``ValueError``
    if N or epsilon allows no such pattern; every module checks compositions here."""
    if promise == "balanced":
        if n_paths % 2 != 0:
            raise ValueError("balanced patterns need an even number of paths")
        return n_paths // 2
    k = (1 + epsilon) * n_paths / 2
    if abs(k - round(k)) > 1e-9:
        raise ValueError(f"(1+epsilon)*N/2 = {k} is not an integer")
    return round(k)


@dataclass(frozen=True)
class PhasePattern:
    """The N phase shifter settings as signs e^{i*phi_j} in {+1, -1}.

    ``promise`` tags which ensemble the pattern belongs to:

    * ``"constant"``  - every sign equal,
    * ``"balanced"``  - exactly half +1 and half -1 (N even),
    * ``"epsilon"``   - mean sign equal to ``epsilon``, which forces
      (1+epsilon)*N/2 to be an integer.
    """

    signs: tuple
    promise: str
    epsilon: float | None = None

    def __post_init__(self):
        # count on the raw values, so 1.5 or "1" is rejected, not truncated
        signs = tuple(self.signs)
        n = len(signs)
        if n < 1:
            raise ValueError("need at least one path")
        plus, minus = signs.count(1), signs.count(-1)
        if plus + minus != n:
            raise ValueError("signs must be +1 or -1")
        object.__setattr__(self, "signs", tuple(map(int, signs)))
        if self.promise == "constant":
            if plus and minus:
                raise ValueError("constant promise requires all signs equal")
        elif self.promise == "balanced":
            if plus != plus_count("balanced", n):
                raise ValueError("balanced promise requires exactly half +1 signs")
        elif self.promise == "epsilon":
            if self.epsilon is None or not 0 < self.epsilon < 1:
                raise ValueError("epsilon promise requires epsilon in (0, 1)")
            if plus != plus_count("epsilon", n, self.epsilon):
                raise ValueError("sign sum does not match the promised bias")
        else:
            raise ValueError(f"unknown promise {self.promise!r}")

    @property
    def n_paths(self):
        return len(self.signs)

    @classmethod
    def constant(cls, n_paths):
        return cls((1,) * n_paths, "constant")

    @classmethod
    def balanced(cls, n_paths):
        """Canonical balanced pattern: first half +1, second half -1."""
        half = n_paths // 2
        return cls((1,) * half + (-1,) * (n_paths - half), "balanced")

    @classmethod
    def epsilon_biased(cls, n_paths, epsilon):
        """Canonical biased pattern with (1+epsilon)*N/2 leading +1 signs."""
        if not 0 < epsilon < 1:  # plus_count would raise OverflowError on inf
            raise ValueError("epsilon promise requires epsilon in (0, 1)")
        n_plus = plus_count("epsilon", n_paths, epsilon)
        return cls((1,) * n_plus + (-1,) * (n_paths - n_plus), "epsilon", epsilon)


@dataclass
class WalkGraph:
    """Truncated interferometer graph: state count and edge-state labels.

    Each tail chain holds ``TAIL_DEPTH`` = 4 edges, including (0, A) and
    (B, N+1): the entry tail uses vertices 0, -1, -2, -3 and the exit
    tail N+1, ..., N+4.  Every undirected edge contributes two directed
    states, 4*(TAIL_DEPTH + n_paths) in total:
    the i-th undirected edge (u, v) gives state 2i = |u,v> and state
    2i+1 = |v,u>, with the edges in the order (0, A), (-1, 0), (-2, -1),
    ..., then (A, j) and (j, B) for j = 1..N, then (B, N+1),
    (N+1, N+2), ....  ``edge_states`` spells that order out as labels and
    is built on first use; ``transition_table`` works from the arithmetic
    alone, so a large walk never builds it.
    """

    n_paths: int

    def __post_init__(self):
        if self.n_paths < 2:
            raise ValueError("n_paths must be at least 2")

    @property
    def n_states(self):
        return 4 * (TAIL_DEPTH + self.n_paths)

    @cached_property
    def edge_states(self):
        n, depth = self.n_paths, TAIL_DEPTH
        undirected = [(0, "A")]
        undirected += [(-k - 1, -k) for k in range(depth - 1)]
        for j in range(1, n + 1):
            undirected += [("A", j), (j, "B")]
        undirected.append(("B", n + 1))
        undirected += [(n + k, n + k + 1) for k in range(1, depth)]
        return tuple(state for u, v in undirected for state in ((u, v), (v, u)))


@dataclass(frozen=True)
class TransitionTable:
    """Single-step routing as edge-state index arrays.

    * ``a_in``/``a_out``: the N+1 states entering and leaving A, slot k
      holding neighbor label k, so slot 0 is |0,A> in and |A,0> out.
    * ``b_in``/``b_out``: the same at B with slot 0 for the label
      N+1 = 0 mod N+1, so slot 0 is |N+1,B> in and |B,N+1> out.
    * ``path_src``/``path_dst``: shape (2, N); column j-1 is path j,
      row 0 the hop |A,j> -> |j,B> and row 1 the hop |B,j> -> |j,A>.
      ``signs`` holds s_j in column order.
    * ``tail_src``/``tail_dst``: unit-coefficient hops through the tails.
    * ``boundary``: the two states pointing at an outermost tail vertex;
      routing them means the walk ran past its three steps.
    """

    a_in: np.ndarray
    a_out: np.ndarray
    b_in: np.ndarray
    b_out: np.ndarray
    path_src: np.ndarray
    path_dst: np.ndarray
    signs: np.ndarray
    tail_src: np.ndarray
    tail_dst: np.ndarray
    boundary: np.ndarray


def transition_table(graph, pattern):
    """Index arrays that route every directed edge state one step."""
    if pattern.n_paths != graph.n_paths:
        raise ValueError("pattern and graph disagree on the number of paths")
    n, depth = graph.n_paths, TAIL_DEPTH
    a_j = 2 * depth + 4 * np.arange(n)   # |A,j>; |j,A>, |j,B>, |B,j> follow it
    b_exit = 2 * depth + 4 * n           # |B,N+1>; |N+1,B> follows it
    # tails: outward states move 2 indices up, inward ones 2 down.  The
    # outward chains start at |A,0> and |B,N+1> and stop short of the
    # boundary; the inward chains end on |0,A> and |N+1,B>.
    outward = np.concatenate((np.arange(1, 2 * depth - 2, 2),
                              np.arange(b_exit, b_exit + 2 * depth - 2, 2)))
    inward = np.concatenate((np.arange(2, 2 * depth - 1, 2),
                             np.arange(b_exit + 3, b_exit + 2 * depth, 2)))
    return TransitionTable(
        a_in=np.concatenate(([0], a_j + 1)),
        a_out=np.concatenate(([1], a_j)),
        b_in=np.concatenate(([b_exit + 1], a_j + 2)),
        b_out=np.concatenate(([b_exit], a_j + 3)),
        path_src=np.stack((a_j, a_j + 3)),
        path_dst=np.stack((a_j + 2, a_j + 1)),
        signs=np.array(pattern.signs, dtype=float),
        tail_src=np.concatenate((outward, inward)),
        tail_dst=np.concatenate((outward + 2, inward - 2)),
        boundary=np.array([2 * depth - 1, b_exit + 2 * depth - 2]),
    )


def step(amp, table, norm):
    """Advance an amplitude array one time step; return it and its norm.

    Axis 0 of ``amp`` runs over edge states; further axes ride along
    (the joint oracle keeps its marker configurations there).  ``norm`` is
    ``state_norm(amp)``: a walk passes on the norm each step returns,
    so every step computes one norm, of its output.  Raises
    ``BoundaryError`` if any amplitude would have to leave the truncated
    tails, and checks that the step preserves the norm.
    """
    if np.any(amp[table.boundary]):
        raise BoundaryError("amplitude hit the tail truncation, past the three steps")
    new = np.zeros_like(amp)
    # blocks that hold no amplitude are skipped: at N = 10^6 an empty
    # block still costs a full transform
    for src, dst in ((table.a_in, table.a_out), (table.b_in, table.b_out)):
        block = amp[src]
        if block.any():
            new[dst] = np.fft.ifft(block, axis=0, norm="ortho")
    moving = amp[table.path_src]
    if moving.any():
        new[table.path_dst] = moving * table.signs.reshape((-1,) + (1,) * (amp.ndim - 1))
    new[table.tail_dst] = amp[table.tail_src]
    after = state_norm(new)
    if abs(after - norm) > NORM_TOL:
        raise AssertionError(f"step broke the norm: {norm} -> {after}")
    return new, after


def state_norm(state):
    """Norm of an amplitude array.

    Squares each slice flat[i:i + 2^16] of its floats in one buffer and adds the
    pairwise sums with math.fsum, so no state-sized copy is made; a running sum
    over a flat unit vector is off by 2.7e-12 at N = 10^5, past NORM_TOL.
    """
    flat = np.ascontiguousarray(state, dtype=complex).ravel().view(np.float64)
    buffer = np.empty(min(1 << 16, flat.size))
    parts = (flat[i:i + (1 << 16)] for i in range(0, flat.size, 1 << 16))
    return math.sqrt(math.fsum(np.multiply(part, part, out=buffer[:part.size]).sum()
                               for part in parts))


def exit_amplitude(pattern):
    """Amplitude on the exit edge |B,N+1> after the walk's three steps from |0,A>."""
    graph = WalkGraph(pattern.n_paths)
    table = transition_table(graph, pattern)
    amp = np.zeros(graph.n_states, dtype=complex)
    amp[table.a_in[0]] = 1.0  # |0,A>
    norm = 1.0  # of the single unit amplitude, exactly
    for _ in range(3):
        amp, norm = step(amp, table, norm)
    return complex(amp[table.b_out[0]])


def exit_probability_ideal(pattern):
    """Closed form for the fully coherent exit probability.

    After three steps the exit-edge amplitude is (sum_j s_j) / (N+1), so
    the probability is (sum_j s_j)^2 / (N+1)^2: N^2/(N+1)^2 for constant
    patterns, 0 for balanced ones, (eps*N)^2/(N+1)^2 for biased ones.
    """
    total = sum(pattern.signs)
    n = pattern.n_paths
    return (total * total) / ((n + 1) * (n + 1))
