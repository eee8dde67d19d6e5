"""Dense references for the coherence budget and the joint oracle.

``cohwalk.decoherence`` keeps the overlaps G and rho_int as O(N) records
and reads only sums off them.  This module builds the matrices those
records stand for and takes the same sums entry by entry, so tests can
compare the two routes.  Costs O(N^2) time and memory.

``full_tensor_oracle`` is the joint particle (x) marker simulation over
the whole 2^N marker register, which ``decoherence.full_tensor_oracle``
replaces by the marker configurations the walk reaches.
"""

import math

import numpy as np

from cohwalk.walk import WalkGraph, state_norm, step, transition_table


def overlap_matrix(spec):
    """G[k][j] = conj(a_k) * a_j off the diagonal, 1 on it.

    A common overlap gives exactly nu off the diagonal, with no sqrt
    round-off.
    """
    n = spec.n_paths
    if spec.nu is not None:
        g = np.full((n, n), complex(spec.nu))
    else:
        a = np.asarray(spec.alphas)
        g = np.outer(a.conj(), a)
    np.fill_diagonal(g, 1.0)
    return g


def rho_matrix(pattern, g):
    """rho_int with entry (j, k) = s_j * s_k * G[k][j] / (N+1)."""
    s = np.array(pattern.signs, dtype=float)
    return np.outer(s, s) * g.T / (pattern.n_paths + 1)


def signed_sum(signs, g):
    """sum_{j,k} s_j * s_k * G[k][j]; real for Hermitian G."""
    s = np.asarray(signs, dtype=float)
    return complex(s @ g @ s)


def exit_probability(pattern, g):
    """sum_{j,k} s_j * s_k * G[k][j] / (N+1)^2."""
    n = pattern.n_paths
    return signed_sum(pattern.signs, g) / ((n + 1) * (n + 1))


def off_diagonal_mass(matrix):
    """sum_{j!=k} |matrix[j][k]|: the l1 coherence of a density matrix."""
    mags = np.abs(matrix)
    return float(mags.sum() - np.trace(mags))


def _qubit_rotation(alpha, beta):
    # unitary completion of |0> -> alpha|0> + beta|1>
    return np.array([[alpha, -np.conj(beta)], [beta, np.conj(alpha)]])


def full_tensor_oracle(pattern, spec):
    """Exit probability from the joint state over the full 2^N marker register.

    Marker j is axis j of the register reshaped to (2,) * N.  Each step
    advances the occupied columns, then rotates marker j in every row
    that path j's transit reached, by a tensor contraction over the
    whole register.  The exit row is summed correctly rounded, so the
    sum does not depend on the order of its terms.
    """
    n = pattern.n_paths
    graph = WalkGraph(n)
    table = transition_table(graph, pattern)
    rotations = [_qubit_rotation(a, b) for a, b in zip(spec.alphas, spec.betas)]

    state = np.zeros((graph.n_states, 2**n), dtype=complex)
    state[table.a_in[0], 0] = 1.0  # |0,A>, markers all |0>

    for _ in range(3):
        occupied = np.flatnonzero(state.any(axis=0))
        columns = state[:, occupied]
        transits = columns[table.path_src].any(axis=-1)
        state[:, occupied], _ = step(columns, table, state_norm(columns))
        for side, j in zip(*np.nonzero(transits)):
            row = table.path_dst[side, j]
            reg = state[row].reshape((2,) * n)
            reg = np.moveaxis(np.tensordot(rotations[j], reg, axes=([1], [j])), 0, j)
            state[row] = reg.reshape(-1)

    exit_row = state[table.b_out[0]]  # |B,N+1>
    return math.fsum((np.abs(exit_row) ** 2).tolist())
