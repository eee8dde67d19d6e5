"""Coherence-limited interferometer walk: simulation and decision errors.

A single particle crosses an N-path interferometer built from two
Fourier vertices; the phase shifters on the paths are promised to be
all equal, perfectly balanced, or biased by a known epsilon.  This
package simulates the walk exactly, dampens the path interference with
per-path marker qubits (overlap parameter nu), and reproduces the
closed-form exit probabilities, coherence measures, Bayesian error
rates, Chernoff bounds and subsequence statistics that govern how well
each promise class can be identified, with brute-force and Monte Carlo
cross-checks for all of them.
"""

__version__ = "0.1.0"

import os
import sys

# No cohwalk BLAS call can use a thread pool, and idle OpenBLAS workers spin on
# the CPU.  Where cohwalk loads numpy and no thread count is set, OpenBLAS gets
# one thread: it reads the variable only as it loads, so it is unset right after.
_PIN = "numpy" not in sys.modules and not {
    "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & set(os.environ)
if _PIN:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
import numpy  # noqa: E402
if _PIN:
    del os.environ["OPENBLAS_NUM_THREADS"]
del os, sys, numpy, _PIN

from .walk import (
    BoundaryError,
    PhasePattern,
    WalkGraph,
    exit_amplitude,
    exit_probability_ideal,
    state_norm,
    step,
)
from .decoherence import (
    AncillaSpec,
    coherence_l1,
    compute_X,
    detection_probability,
    exit_probability,
    exit_probability_bound,
    full_tensor_oracle,
    overlaps,
    rho_int,
)
from .decision import (
    classical_error,
    coherence_threshold,
    enumerate_two_trial_table,
    quantum_error,
    quantum_posterior_all_zero,
)
from .epsilon import (
    ClassicalErrorBounds,
    MissProbability,
    TailProbabilities,
    chernoff_lower,
    chernoff_upper,
    classical_error_bounds,
    detection_count_threshold,
    exact_tail_probabilities,
    quantum_miss_probability,
)
from .ensemble import (
    EnsembleParams,
    binomial_pmf,
    binomial_prob,
    convergence_gap,
    hypergeometric_pmf,
    hypergeometric_prob,
    hypergeometric_prob_exact,
)
from .montecarlo import (
    MCResult,
    TrialConfig,
    analytic_error,
    run_experiment,
)
