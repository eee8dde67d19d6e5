"""Path-marking ancillas and the coherence-limited exit probability.

Each path j carries a marker qubit, initially |0>.  When the particle
transits path vertex j the qubit is rotated to
``mu_j = alpha_j |0> + beta_j |1>``.  Tracing the markers out leaves the
particle in a mixture whose off-diagonal path terms are damped by the
pairwise environment overlaps

    G[k][j] = <eta_k|eta_j> = conj(alpha_k) * alpha_j   (j != k),

with G[j][j] = 1.  The important special case is a common real overlap
``nu``: nu = 1 is full coherence, nu = 0 removes all interference.

This module computes the overlap matrix, the internal-path density
matrix, the l1 coherence of that matrix, the normalized overlap sum X,
the exit probability with its coherence bound, and a brute-force
particle (x) ancilla-register simulation used as an oracle for all of
the closed forms.
"""

from __future__ import annotations

import math

import numpy as np

from .walk import build_graph, transition_table

IMAG_TOL = 1e-10
BOUND_TOL = 1e-12
ORACLE_MAX_PATHS = 12


class AncillaSpec:
    """Marker-qubit amplitudes (alpha_j, beta_j) for the N paths.

    Use ``AncillaSpec.uniform(nu, n_paths)`` for the common-overlap case
    (every qubit rotated the same way, pairwise overlap exactly ``nu``)
    or ``AncillaSpec.per_path(alphas, betas)`` for arbitrary qubits.
    """

    def __init__(self, alphas, betas, nu=None):
        self.alphas = tuple(complex(a) for a in alphas)
        self.betas = tuple(complex(b) for b in betas)
        self.nu = nu
        if len(self.alphas) != len(self.betas):
            raise ValueError("alphas and betas must have equal length")
        for a, b in zip(self.alphas, self.betas):
            if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > 1e-12:
                raise ValueError("marker qubit amplitudes must be normalized")

    @property
    def n_paths(self):
        return len(self.alphas)

    @classmethod
    def uniform(cls, nu, n_paths):
        if not 0 <= nu <= 1:
            raise ValueError("nu must lie in [0, 1]")
        a = math.sqrt(nu)
        b = math.sqrt(1.0 - nu)
        return cls((a,) * n_paths, (b,) * n_paths, nu=nu)

    @classmethod
    def per_path(cls, alphas, betas):
        return cls(alphas, betas)


def overlaps(spec):
    """Environment overlap matrix G with G[k][j] = <eta_k|eta_j>."""
    n = spec.n_paths
    if spec.nu is not None:
        # exact constant off-diagonals, no sqrt round-off
        g = np.full((n, n), complex(spec.nu))
        np.fill_diagonal(g, 1.0)
        return g
    a = np.asarray(spec.alphas)
    g = np.outer(a.conj(), a)
    np.fill_diagonal(g, 1.0)
    return g


def rho_int(pattern, overlap):
    """Internal-path density matrix block over the states |j,B>.

    Entry (j, k) is s_j * s_k * G[k][j] / (N+1).  The entry-tail
    component carries the remaining 1/(N+1) of the trace and is excluded
    from this block, so the trace is N/(N+1).
    """
    g = np.asarray(overlap)
    n = pattern.n_paths
    if g.shape != (n, n):
        raise ValueError("overlap matrix does not match the pattern size")
    s = np.array(pattern.signs, dtype=float)
    return np.outer(s, s) * g.T / (n + 1)


def coherence_l1(rho):
    """Sum of the magnitudes of the off-diagonal entries."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("expected a square matrix")
    mags = np.abs(rho)
    return float(mags.sum() - np.trace(mags))


def compute_X(overlap):
    """Normalized off-diagonal overlap mass, sum_{j!=k} |G[k][j]| / (N+1)^2.

    Satisfies coherence_l1(rho_int(pattern, G)) == (N+1) * X for every
    sign pattern, since the phase factors have unit modulus.
    """
    g = np.asarray(overlap)
    n = g.shape[0]
    mags = np.abs(g)
    return float(mags.sum() - np.trace(mags)) / ((n + 1) * (n + 1))


def exit_probability(pattern, overlap):
    """Probability of ending on the exit edge, with markers traced out.

    Evaluates sum_{j,k} s_j s_k G[k][j] / (N+1)^2.  The sum is real for
    Hermitian G; a residual imaginary part above 1e-10 flags a broken
    overlap matrix.
    """
    g = np.asarray(overlap)
    n = pattern.n_paths
    if g.shape != (n, n):
        raise ValueError("overlap matrix does not match the pattern size")
    s = np.array(pattern.signs, dtype=float)
    value = complex(s @ g @ s) / ((n + 1) * (n + 1))
    if abs(value.imag) > IMAG_TOL:
        raise ValueError(f"exit probability has imaginary part {value.imag:g}; "
                         "overlap matrix is not Hermitian")
    p = value.real
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


def _qubit_rotation(alpha, beta):
    # unitary completion of |0> -> alpha|0> + beta|1>
    return np.array([[alpha, -np.conj(beta)], [beta, np.conj(alpha)]])


def full_tensor_oracle(pattern, spec, tail_depth=4):
    """Exit probability from the explicit particle (x) marker simulation.

    Evolves the joint state over edge states and the full 2^N marker
    register for three steps, applying the qubit rotation of path j on
    every transit of vertex j, then sums |amplitude|^2 on the exit edge
    over all marker configurations.  Exact partial trace, no formulas;
    limited to N <= 12 by the register size.
    """
    n = pattern.n_paths
    if spec.n_paths != n:
        raise ValueError("ancilla spec does not match the pattern size")
    if n > ORACLE_MAX_PATHS:
        raise ValueError(f"joint simulation limited to N <= {ORACLE_MAX_PATHS}")

    graph = build_graph(n, tail_depth)
    table = transition_table(graph, pattern)
    n_edges = len(graph.edge_states)
    dim = 2**n
    rotations = [_qubit_rotation(a, b) for a, b in zip(spec.alphas, spec.betas)]

    state = np.zeros((n_edges, dim), dtype=complex)
    state[graph.state_index((0, "A")), 0] = 1.0

    for _ in range(3):
        new = np.zeros_like(state)
        for row in np.flatnonzero(np.abs(state).sum(axis=1)):
            src = graph.edge_states[row]
            routes = table[src]
            if routes is None:
                raise AssertionError("oracle walk reached the tail boundary")
            for dst, coeff, path_j in routes:
                vec = state[row]
                if path_j is not None:
                    reg = vec.reshape((2,) * n)
                    reg = np.moveaxis(
                        np.tensordot(rotations[path_j - 1], reg, axes=([1], [path_j - 1])),
                        0,
                        path_j - 1,
                    )
                    vec = reg.reshape(dim)
                new[graph.state_index(dst)] += coeff * vec
        state = new

    exit_row = state[graph.state_index(graph.exit_edge)]
    return float(np.sum(np.abs(exit_row) ** 2))
