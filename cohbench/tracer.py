"""Per-layer spans for the traced run, recorded from outside cohwalk.

``Tracer.install`` wraps the public functions listed in ``LAYERS`` and
installs each wrapper under every name bound to the original in any
``cohwalk`` module, because modules look each other's functions up by
their own names (``epsilon.binomial_prob``, ``cli.exit_amplitude``,
``decoherence.transition_table``, ...).  Each call is a span; its self
time is its duration minus the durations of the wrapped calls it made.
Spans are folded into per-function sums in memory as they close.

``import_times`` reads ``python -X importtime`` output into the
``setup.*`` metrics.
"""

import functools
import sys
import time
from collections import defaultdict

# module -> public functions timed as layer boundaries
LAYERS = {
    "walk": ("transition_table", "step", "exit_amplitude"),
    "decoherence": ("overlaps", "exit_probability", "compute_X", "rho_int",
                    "coherence_l1", "full_tensor_oracle"),
    "montecarlo": ("run_experiment", "experiment_uniforms", "analytic_error"),
    "epsilon": ("exact_tail_probabilities", "classical_error_bounds"),
    "ensemble": ("binomial_prob", "hypergeometric_prob", "hypergeometric_prob_exact",
                 "convergence_gap"),
    "decision": ("classical_error", "quantum_error", "quantum_posterior_all_zero"),
    "cli": ("main",),
}


def _edge_states(args, kwargs):
    return len(args[0].edge_states)


def _overlap_bytes(args, kwargs):
    # computed, not measured: one complex128 N x N matrix per call
    return 16 * args[0].n_paths ** 2


def _experiments(args, kwargs):
    return args[0].experiments


def _tail_terms(args, kwargs):
    # both tails together sum m + 1 count-law terms
    return args[0] + 1


# (module, function) -> (counter name, amount per call)
COUNTERS = {
    ("walk", "step"): ("walk.steps", lambda args, kwargs: 1),
    ("walk", "transition_table"): ("walk.edge_states", _edge_states),
    ("decoherence", "overlaps"): ("decoherence.overlap_bytes", _overlap_bytes),
    ("montecarlo", "run_experiment"): ("montecarlo.experiments", _experiments),
    ("epsilon", "exact_tail_probabilities"): ("epsilon.tail_terms", _tail_terms),
}


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self._open = []  # child time of each open span, innermost last

    def wrap(self, name, fn, counter=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            self._open.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                self._open.pop()
                if self._open:
                    self._open[-1][0] += span
                self.self_s[name] += span - frame[0]
                self.total_s[name] += span
                self.calls[name] += 1
                if counter is not None:
                    self.counters[counter[0]] += counter[1](args, kwargs)

        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "cohwalk" or key.startswith("cohwalk."))]
        for module_name, functions in LAYERS.items():
            owner = sys.modules[f"cohwalk.{module_name}"]
            for fn_name in functions:
                original = getattr(owner, fn_name)
                wrapper = self.wrap(f"{module_name}.{fn_name}", original,
                                    COUNTERS.get((module_name, fn_name)))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def metrics(self):
        """Per-layer metrics of everything traced so far."""
        out = {}
        for module_name, functions in LAYERS.items():
            for fn_name in functions:
                out[f"{module_name}.{fn_name}_s"] = self.self_s[f"{module_name}.{fn_name}"]
        # run_experiment and main are reported whole; their self times have their own names
        run_total = self.total_s["montecarlo.run_experiment"]
        out["montecarlo.run_experiment_s"] = run_total
        out["montecarlo.sample_and_count_s"] = self.self_s["montecarlo.run_experiment"]
        out["montecarlo.experiments_per_s"] = (
            self.counters["montecarlo.experiments"] / run_total if run_total else 0.0)
        out["cli.main_s"] = self.total_s["cli.main"]
        out["cli.self_s"] = self.self_s["cli.main"]
        out["cli.tables"] = self.calls["cli.main"]
        out["ensemble.binomial_prob_calls"] = self.calls["ensemble.binomial_prob"]
        out["ensemble.hypergeometric_prob_calls"] = self.calls["ensemble.hypergeometric_prob"]
        for name, _ in COUNTERS.values():
            out[name] = self.counters[name]
        return out


GROUPS = ("numpy", "scipy", "cohwalk")


def import_times(stderr_text):
    """``setup.import_<group>_s`` from ``-X importtime`` lines.

    Each module's own import time is charged to the nearest enclosing
    module (itself included) whose top-level package is numpy, scipy or
    cohwalk, so ``import_cohwalk_s`` is cohwalk's own share and excludes
    the numpy and scipy it pulls in.  Lines arrive children first, each
    indented two spaces deeper than its parent.
    """
    totals = dict.fromkeys(GROUPS, 0.0)
    pending = []  # (depth, uncharged self times in us) of subtrees awaiting their parent
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, _, label = line[len("import time:"):].split("|")
        depth = (len(label) - len(label.lstrip())) // 2
        uncharged = int(self_us)
        while pending and pending[-1][0] > depth:
            uncharged += pending.pop()[1]
        group = label.strip().split(".")[0]
        if group in totals:
            totals[group] += uncharged / 1e6
            uncharged = 0
        pending.append((depth, uncharged))
    return {f"setup.import_{group}_s": totals[group] for group in GROUPS}
