"""Path-marking ancillas and the coherence-limited exit probability.

Each path j carries a marker qubit, initially |0>.  When the particle
transits path vertex j the qubit is rotated to
``mu_j = alpha_j |0> + beta_j |1>``.  Tracing the markers out leaves the
particle in a mixture whose off-diagonal path terms are damped by the
pairwise environment overlaps

    G[k][j] = <eta_k|eta_j> = conj(alpha_k) * alpha_j   (j != k),

with G[j][j] = 1.  The important special case is a common real overlap
``nu``: nu = 1 is full coherence, nu = 0 removes all interference.
``AncillaSpec.uniform`` alone builds it, with ``nu`` set for the exact sums.

This module computes the overlaps, the internal-path density matrix,
the l1 coherence of that matrix, the normalized overlap sum X, the exit
probability with its coherence bound, and a brute-force particle (x)
ancilla-register simulation used as an oracle for all of the closed
forms.  G is rank one plus a diagonal, so ``overlaps`` returns it as an
O(N) ``Overlaps`` record and ``rho_int`` returns a ``RhoInt`` record;
every quantity here is a sum read off those records in O(N) time and
memory, and no N x N matrix is built.  The oracle stores the joint state
only over the marker configurations that hold amplitude: the three-step
walk transits every path in one step, which takes marker j out of |0>
on path j alone, so it reaches N + 1 of the 2^N configurations, one
column each, and the oracle runs up to N = ORACLE_MAX_PATHS = 512.
"""

from __future__ import annotations

import math

import numpy as np

from .walk import WalkGraph, step, transition_table

BOUND_TOL = 1e-12
ORACLE_MAX_PATHS = 512


class AncillaSpec:
    """Marker-qubit amplitudes (alpha_j, beta_j) for the N paths.

    Use ``AncillaSpec.uniform(nu, n_paths)`` for the common-overlap case
    (every qubit rotated the same way, pairwise overlap exactly ``nu``)
    or ``AncillaSpec(alphas, betas)`` for arbitrary qubits; only ``uniform`` sets ``nu``.
    ``alphas`` and ``betas`` are stored as read-only 1-D complex arrays.
    """

    def __init__(self, alphas, betas):
        self.alphas = np.array(alphas, dtype=complex)
        self.betas = np.array(betas, dtype=complex)
        self.nu = None
        if self.alphas.ndim != 1 or self.alphas.shape != self.betas.shape:
            raise ValueError("alphas and betas must be 1-D and of equal length")
        deviation = np.abs(np.abs(self.alphas) ** 2 + np.abs(self.betas) ** 2 - 1.0)
        if not np.all(deviation <= 1e-12):  # written so that nan fails too
            raise ValueError("marker qubit amplitudes must be normalized")
        self.alphas.flags.writeable = self.betas.flags.writeable = False

    @property
    def n_paths(self):
        return len(self.alphas)

    @classmethod
    def uniform(cls, nu, n_paths):
        if not 0 <= nu <= 1:
            raise ValueError("nu must lie in [0, 1]")
        spec = cls(np.full(n_paths, math.sqrt(nu)), np.full(n_paths, math.sqrt(1.0 - nu)))
        spec.nu = nu
        return spec

    @classmethod
    def per_path(cls, alphas, betas):
        return cls(alphas, betas)


class Overlaps:
    """G as conj(a_k) * a_j off the diagonal and 1 on it, or exactly nu off it."""

    def __init__(self, alphas, nu=None):
        self.n_paths, self.alphas, self.nu = len(alphas), alphas, nu

    def off_diagonal_mass(self):
        """sum_{j!=k} |G[k][j]| = (sum |a_j|)^2 - sum |a_j|^2, summed as
        2 sum_k |a_k| sum_{j<k} |a_j| so that no terms cancel."""
        if self.nu is not None:
            return float(self.nu) * self.n_paths * (self.n_paths - 1)
        mods = np.abs(self.alphas)
        return 2.0 * float(mods[1:] @ np.cumsum(mods)[:-1])

    def signed_sum(self, s):
        """sum_{j,k} s_j s_k G[k][j] = |sum s_j a_j|^2 - sum |a_j|^2 + N."""
        n = self.n_paths
        if self.nu is not None:
            total = s.sum()
            return n + float(self.nu) * (total * total - n)
        mods = np.abs(self.alphas)
        return abs(s @ self.alphas) ** 2 - mods @ mods + n


class RhoInt:
    """rho_int as its ``Overlaps``: |entry (j, k)| = |G[k][j]| / (N+1) for any pattern."""

    def __init__(self, overlap):
        self.n_paths, self.overlap = overlap.n_paths, overlap

    def off_diagonal_mass(self):
        return self.overlap.off_diagonal_mass() / (self.n_paths + 1)


def overlaps(spec):
    """Environment overlaps G[k][j] = <eta_k|eta_j> as an ``Overlaps`` record."""
    return Overlaps(spec.alphas, spec.nu)


def rho_int(pattern, overlap):
    """Internal-path density matrix block over the states |j,B>.

    Entry (j, k) is s_j * s_k * G[k][j] / (N+1).  The entry-tail
    component carries the remaining 1/(N+1) of the trace and is excluded
    from this block, so the trace is N/(N+1).  Returned as a ``RhoInt``
    record of the ``Overlaps``: the signs do not change an entry's modulus,
    which is all that the record's sums read.
    """
    if overlap.n_paths != pattern.n_paths:
        raise ValueError("overlap matrix does not match the pattern size")
    return RhoInt(overlap)


def coherence_l1(rho):
    """Sum of the magnitudes of the off-diagonal entries of a ``RhoInt``."""
    return rho.off_diagonal_mass()


def compute_X(overlap):
    """Normalized off-diagonal overlap mass, sum_{j!=k} |G[k][j]| / (N+1)^2.

    Satisfies coherence_l1(rho_int(pattern, G)) == (N+1) * X for every
    sign pattern, since the phase factors have unit modulus.
    """
    n = overlap.n_paths
    return overlap.off_diagonal_mass() / ((n + 1) * (n + 1))


def exit_probability(pattern, overlap):
    """Probability of ending on the exit edge, with markers traced out.

    Evaluates sum_{j,k} s_j s_k G[k][j] / (N+1)^2 in O(N) from the
    ``Overlaps`` record; G is Hermitian, so the sum is real.
    """
    n = pattern.n_paths
    if overlap.n_paths != n:
        raise ValueError("overlap matrix does not match the pattern size")
    s = np.array(pattern.signs, dtype=float)
    p = float(overlap.signed_sum(s)) / ((n + 1) * (n + 1))
    if p < -BOUND_TOL or p > 1 + BOUND_TOL:
        raise AssertionError(f"exit probability {p} escaped [0, 1]")
    return min(max(p, 0.0), 1.0)


def exit_probability_bound(pattern, overlap):
    """Exit probability together with its coherence bound N/(N+1)^2 + X.

    The bound follows from the triangle inequality on the double sum, so
    a violation can only mean an implementation bug; it is raised as a
    hard error rather than returned.
    """
    n = pattern.n_paths
    p = exit_probability(pattern, overlap)
    bound = n / ((n + 1) * (n + 1)) + compute_X(overlap)
    if p > bound + BOUND_TOL:
        raise AssertionError(f"coherence bound violated: {p} > {bound}")
    return p, bound


def detection_probability(promise, nu, epsilon=None, n_paths=None):
    """Single-run exit probability by promise class, common overlap nu.

    With ``n_paths`` given, returns the exact finite-N values
        constant: (N + nu*N*(N-1)) / (N+1)^2
        balanced: (1-nu)*N / (N+1)^2
        epsilon:  ((1-nu)*N + nu*eps^2*N^2) / (N+1)^2
    and without it the large-N limits nu, 0 and nu*eps^2.  Accepts
    ``fractions.Fraction`` inputs and then stays exact.
    """
    if not 0 <= nu <= 1:
        raise ValueError("nu must lie in [0, 1]")
    if n_paths is not None and n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    if promise == "constant":
        if n_paths is None:
            return nu
        n = n_paths
        return (n + nu * n * (n - 1)) / ((n + 1) ** 2)
    if promise == "balanced":
        if n_paths is None:
            return 0 * nu
        n = n_paths
        return (1 - nu) * n / ((n + 1) ** 2)
    if promise == "epsilon":
        if epsilon is None:
            raise ValueError("epsilon promise needs an epsilon value")
        if n_paths is None:
            return nu * epsilon**2
        n = n_paths
        return ((1 - nu) * n + nu * epsilon**2 * n**2) / ((n + 1) ** 2)
    raise ValueError(f"unknown promise {promise!r}")


def _mark(state, rows, paths, spec):
    """Map marker ``paths[i]`` from |0> to alpha|0> + beta|1> in row ``rows[i]``, for all i.

    ``state`` is the one column with every marker in |0>; the rows must
    differ.  Returns it widened to N + 1 columns: column 0 keeps every
    marker in |0> and column j + 1 has marker j alone flipped.  The
    three-step walk transits its paths in one step, so marking a state
    that is already wide raises ``AssertionError``.
    """
    if not len(rows):
        return state
    if state.shape[1] != 1:
        raise AssertionError("a second transit step: each marker leaves |0> once")
    marked = np.zeros((len(state), spec.n_paths + 1), complex)
    marked[:, 0] = state[:, 0]
    amp = state[rows, 0]
    marked[rows, 0] = spec.alphas[paths] * amp
    marked[rows, paths + 1] = spec.betas[paths] * amp
    return marked


def full_tensor_oracle(pattern, spec):
    """Exit probability from the explicit particle (x) marker simulation.

    Evolves the joint state over edge states and marker configurations
    for three steps, mapping marker j from |0> to alpha_j|0> + beta_j|1>
    on every transit of vertex j, then sums |amplitude|^2 on the exit
    edge over all marker configurations.  Exact partial trace, no
    formulas.  The state is one column until the walk's transit step,
    then N + 1: all markers in |0>, and marker j alone flipped for each
    path j, the only configurations of the 2^N that it reaches.  Limited to
    N <= ORACLE_MAX_PATHS = 512, where the 4(N + 4) edge states by N + 1
    columns and a step's temporaries peak at ~45 MiB.
    """
    n = pattern.n_paths
    if spec.n_paths != n:
        raise ValueError("ancilla spec does not match the pattern size")
    if n > ORACLE_MAX_PATHS:
        raise ValueError(f"joint simulation limited to N <= {ORACLE_MAX_PATHS}")

    graph = WalkGraph(n)
    table = transition_table(graph, pattern)
    state = np.zeros((graph.n_states, 1), dtype=complex)
    state[table.a_in[0], 0] = 1.0  # |0,A>, markers all |0>
    norm = 1.0

    for _ in range(3):
        transits = state[table.path_src].any(axis=-1)
        state, norm = step(state, table, norm)
        side, path = np.nonzero(transits)
        state = _mark(state, table.path_dst[side, path], path, spec)

    # correctly rounded, so the sum does not depend on the column order
    return math.fsum((np.abs(state[table.b_out[0]]) ** 2).tolist())  # |B,N+1>
