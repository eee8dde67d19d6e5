"""One timed round of a workload, in its own process.

Usage: ``python worker.py ROUND_DIR [--trace]`` with ``src`` on the
import path.  Reads ``ROUND_DIR/../ops.json``, imports ``cohwalk.cli``
and runs every operation in order, one after the other.  Tables go to
``ROUND_DIR/<op id>.csv|json`` through the CLI's ``--output`` flag;
library results, per-operation exit codes and the round's timings go to
``ROUND_DIR/round.json``.  Nothing is checked here: the reference
checks import scipy, so they run in the parent after this process
exits, and ``setup_s`` and the peak RSS measure cohwalk alone.
"""

import json
import os
import resource
import sys
import time


def _clock():
    # CLOCK_MONOTONIC is shared by all processes, so the parent can
    # subtract its spawn time from this process's ready time.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


# The library routes import from cohwalk only after cohwalk.cli has
# loaded every module, so they add nothing to the set-up time.

def _coherence(params):
    from cohwalk import decoherence
    from cohwalk.walk import PhasePattern

    pattern = PhasePattern(params["signs"], params["promise"], params["epsilon"])
    spec = decoherence.AncillaSpec.per_path(
        [complex(re, im) for re, im in params["alphas"]], params["betas"])
    g = decoherence.overlaps(spec)
    p, bound = decoherence.exit_probability_bound(pattern, g)
    c_l1 = decoherence.coherence_l1(decoherence.rho_int(pattern, g))
    x = decoherence.compute_X(g)
    return {"p": p, "bound": bound, "coherence_l1": c_l1, "x": x}


def _tails(params):
    from cohwalk import epsilon

    tails = epsilon.exact_tail_probabilities(
        params["m"], float(params["epsilon"]), n_paths=params["n"])
    return {"false_eps": tails.false_eps, "false_bal": tails.false_bal}


def _uniforms(params):
    import hashlib

    import numpy as np
    from cohwalk import montecarlo

    def digest(pieces):
        hyp, count = zip(*pieces)
        return hashlib.sha256(np.concatenate(hyp).tobytes()
                              + np.concatenate(count).tobytes()).hexdigest()

    seed, start, count = (params["range"][key] for key in ("seed", "start", "count"))
    whole = digest([montecarlo.experiment_uniforms(seed, start, count)])
    parts = []
    for cuts in params["partitions"]:
        bounds = [start] + cuts + [start + count]
        parts.append(digest([montecarlo.experiment_uniforms(seed, a, b - a)
                             for a, b in zip(bounds, bounds[1:])]))
    return {"whole": whole, "parts": parts}


LIBRARY = {"coherence": _coherence, "tails": _tails, "uniforms": _uniforms}


def run_op(cli, op, round_dir):
    """Run one operation; return (exit code, library result or None).

    An exception escaping cohwalk is a fault of its own: it is recorded
    as exit code 3 with its text, and the round goes on.
    """
    try:
        if op["kind"] == "cli":
            path = os.path.join(round_dir, f"{op['id']}.{op['format']}")
            return cli.main(op["argv"] + ["--output", path]), None
        return 0, LIBRARY[op["kind"]](op["params"])
    except SystemExit as exc:  # argparse rejects bad flags this way
        return (exc.code if isinstance(exc.code, int) else 2), None
    except Exception as exc:
        return 3, {"error": repr(exc)}


def main(argv):
    round_dir = argv[0]
    traced = "--trace" in argv[1:]
    with open(os.path.join(os.path.dirname(round_dir), "ops.json")) as handle:
        ops = json.load(handle)

    import cohwalk.cli as cli

    tracer = None
    if traced:
        import tracer as tracer_mod  # beside this file, first on sys.path

        tracer = tracer_mod.Tracer()
        tracer.install()

    ready = _clock()
    cpu0, t0 = _cpu(), time.perf_counter()
    codes, results, op_s = {}, {}, {}
    for op in ops:
        started = time.perf_counter()
        codes[op["id"]], result = run_op(cli, op, round_dir)
        op_s[op["id"]] = time.perf_counter() - started
        if result is not None:
            results[op["id"]] = result
    wall = time.perf_counter() - t0
    cpu = _cpu() - cpu0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    record = {"ready": ready, "wall_s": wall, "cpu_s": cpu,
              "peak_rss_mb": peak_kb / 1024.0, "codes": codes, "results": results,
              "op_s": op_s}
    if tracer is not None:
        record["layers"] = tracer.metrics()
    with open(os.path.join(round_dir, "round.json"), "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
