"""Dense N x N reference for the coherence budget.

``cohwalk.decoherence`` keeps the overlaps G and rho_int as O(N) records
and reads only sums off them.  This module builds the matrices those
records stand for and takes the same sums entry by entry, so tests can
compare the two routes.  Costs O(N^2) time and memory.
"""

import numpy as np


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
