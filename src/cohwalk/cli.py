"""Command-line front end: parameter sweeps emitted as CSV or JSON tables.

Subcommands::

    walk      exit probability for one pattern, state-vector and joint-
              simulation cross-checks
    decide    classical vs quantum error sweep over (m, nu)
    epsilon   miss probability, Chernoff bounds and exact tails vs m
    ensemble  subsequence-law convergence diagnostics over N
    mc        seeded Monte Carlo calibration against the closed forms

Every table starts with a metadata block (``# key=value`` lines in CSV,
a ``metadata`` object in JSON) that holds the exact flag values needed
to reproduce the run; floats are serialized with full round-trip
precision.  The process exits 0 only if every ``*_ok`` check column in
the table is true.  Each check's limit is its ``TOLERANCES`` entry, and
``<check>_dev``, just before ``<check>_ok``, is the deviation it judged:
an absolute difference for ideal, oracle and bayes, |mass - 1| for
normalization, and for dominance the larger exact tail minus its bound,
signed (negative is slack).  ``z_ok`` and ``decreasing_ok`` judge ``z_score`` and ``gap``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import secrets
import sys
from dataclasses import dataclass

from . import __version__
from . import decision, ensemble, epsilon as eps_mod, montecarlo
from .decoherence import (
    ORACLE_MAX_PATHS, AncillaSpec, detection_probability, full_tensor_oracle)
from .walk import PhasePattern, exit_amplitude, exit_probability_ideal

# the largest deviation each check passes; a gap below `decreasing` is float noise
TOLERANCES = dict(ideal=1e-12, oracle=1e-10, bayes=1e-12, dominance=1e-12,
                  normalization=1e-9, z=4.0, decreasing=1e-12)
MAX_LIST_VALUES = 10_000  # values one --m-range, --nu-range or --n-list may give
# Sizes: at 10^6 a count law over 0..m or the walk over N paths takes 0.2-2 s and
# 140-400 MB, and 10^9 experiments take ~35 s (2-vCPU VM)
MAX_TRIALS = 10**6        # --m and every --m-range value
MAX_PATHS = 10**6         # --n
MAX_EXPERIMENTS = 10**9   # --experiments


@dataclass
class OutputTable:
    columns: list
    rows: list
    metadata: dict

    @classmethod
    def of(cls, records, metadata):
        """A table of ``dict(column=value, ...)`` rows, columns in the first row's order."""
        return cls(list(records[0]), [list(record.values()) for record in records], metadata)

    @property
    def checks_pass(self):
        """True iff every populated value in a *_ok column is truthy."""
        return all(value is None or value == "" or value
                   for row in self.rows for name, value in zip(self.columns, row)
                   if name.endswith("_ok"))

    def to_csv(self):
        lines = [f"# {key}={_fmt(value)}" for key, value in self.metadata.items()]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_json(self):
        payload = {
            "metadata": {k: _fmt(v) for k, v in self.metadata.items()},
            "columns": self.columns,
            "rows": [[_fmt(v) for v in row] for row in self.rows],
        }
        return json.dumps(payload, indent=2) + "\n"

    def render(self, fmt):
        return self.to_csv() if fmt == "csv" else self.to_json()


def _fmt(value):
    """Serialize one cell; float repr round-trips exactly."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _check(name, deviation):
    """The ``<name>_dev`` and ``<name>_ok`` cells; both empty if the check did not run."""
    ok = None if deviation is None else deviation <= TOLERANCES[name]
    return {f"{name}_dev": deviation, f"{name}_ok": ok}


def _check_size(flag, value, limit):
    if value < 1:
        raise ValueError(f"{flag} must be at least 1")
    if value > limit:
        raise ValueError(f"{flag} must be at most {limit}")


def _trials(text, flag):
    """An --m-range list, every value at most MAX_TRIALS."""
    values = _int_list(text, flag)
    if max(values) > MAX_TRIALS:
        raise ValueError(f"{flag} values must be at most {MAX_TRIALS}")
    return values


def _check_length(flag, count):
    # counted before a range is expanded, so '1:100000000' builds nothing
    if not count <= MAX_LIST_VALUES:
        raise ValueError(f"{flag} must list at most {MAX_LIST_VALUES} values")


def _int_list(text, flag):
    """Parse '3', '1,2,5' or 'a:b[:step]' (stop inclusive) into ints."""
    values = []
    for part in text.split(","):
        if ":" in part:
            pieces = [int(x) for x in part.split(":")]
            if len(pieces) > 3:
                raise ValueError("integer ranges need start:stop[:step]")
            start, stop = pieces[0], pieces[1]
            step = pieces[2] if len(pieces) > 2 else 1
            if step == 0 or (stop - start) * step < 0:
                raise ValueError(f"integer range {part!r}: step must be nonzero "
                                 "and point from start to stop")
            _check_length(flag, len(values) + (stop - start) // step + 1)
            values.extend(range(start, stop + (1 if step > 0 else -1), step))
        else:
            values.append(int(part))
    _check_length(flag, len(values))
    return values


def _float_list(text, flag):
    """Parse '0.5', '0,0.5,1' or 'a:b:step' (stop inclusive, never passed) into floats."""
    values = []
    for part in text.split(","):
        if ":" in part:
            pieces = [float(x) for x in part.split(":")]
            if len(pieces) != 3:
                raise ValueError("float ranges need start:stop:step")
            if not all(map(math.isfinite, pieces)):
                raise ValueError(f"float range {part!r}: start, stop and step "
                                 "must be finite")
            start, stop, step = pieces
            if step == 0 or (stop - start) * step < 0:
                raise ValueError(f"float range {part!r}: step must be nonzero "
                                 "and point from start to stop")
            span = (stop - start) / step
            _check_length(flag, len(values) + span + 1)
            # never past stop, as an int range: the slack keeps 0:0.3:0.1 at four
            # values, and the clamp a last value that rounding lifts past stop
            bound = min if step > 0 else max
            values.extend(bound(start + i * step, stop)
                          for i in range(math.floor(span + 1e-9) + 1))
        else:
            values.append(float(part))
    _check_length(flag, len(values))
    return values


def _require_pattern(args):
    if args.promise == "epsilon":
        if args.epsilon is None:
            raise ValueError("--promise epsilon requires --epsilon")
        return PhasePattern.epsilon_biased(args.n, args.epsilon)
    if args.promise == "balanced":
        return PhasePattern.balanced(args.n)
    return PhasePattern.constant(args.n)


def cmd_walk(args):
    _check_size("--n", args.n, MAX_PATHS)
    pattern = _require_pattern(args)
    p_analytic = float(
        detection_probability(args.promise, args.nu, epsilon=args.epsilon, n_paths=args.n)
    )
    p_ideal_formula = exit_probability_ideal(pattern)
    p_statevector = abs(exit_amplitude(pattern)) ** 2
    p_oracle = oracle_dev = None
    if args.exact_oracle:
        p_oracle = full_tensor_oracle(pattern, AncillaSpec.uniform(args.nu, args.n))
        oracle_dev = abs(p_oracle - p_analytic)
    # X = sum_{j!=k} |G[k][j]| / (N+1)^2 with every off-diagonal overlap nu
    coherence_x = args.nu * args.n * (args.n - 1) / (args.n + 1) ** 2
    return [dict(n=args.n, promise=args.promise, epsilon=args.epsilon, nu=args.nu,
                 p_analytic=p_analytic, p_statevector_ideal=p_statevector,
                 **_check("ideal", abs(p_statevector - p_ideal_formula)),
                 p_oracle=p_oracle, **_check("oracle", oracle_dev), coherence_x=coherence_x)]


def cmd_decide(args):
    _check_size("--n", args.n, MAX_PATHS)
    ms = _trials(args.m_range, "--m-range")
    nus = _float_list(args.nu_range, "--nu-range")
    n_paths = args.n if args.mode == "exact-n" else None
    # exact-n switches the classical side to without-replacement sampling
    c_errs = decision.classical_errors(ms, n_paths)
    rows = []
    for m, c_err in zip(ms, c_errs):
        threshold = decision.coherence_threshold(m)
        for nu in nus:
            q_err = float(decision.quantum_error(m, nu, n_paths=n_paths))
            post_c, _ = decision.quantum_posterior_all_zero(m, nu, n_paths=n_paths)
            miss_c, miss_b = decision.no_exit_likelihoods("constant", m, nu, n_paths=n_paths)
            # the ambiguous branch must rebuild the full error by Bayes
            evidence = (miss_c + miss_b) / 2
            recomposed = float(post_c) * float(evidence) + 0.5 * float(1 - miss_b)
            rows.append(dict(m=m, nu=nu, classical_error=c_err, quantum_error=q_err,
                             nu_threshold=threshold, **_check("bayes", abs(recomposed - q_err))))
    return rows


def cmd_epsilon(args):
    ms = _trials(args.m_range, "--m-range")
    tails = None
    rows = []
    for m in ms:
        miss = eps_mod.quantum_miss_probability(m, args.epsilon, args.nu)
        bounds = eps_mod.classical_error_bounds(m, args.epsilon)
        exact_fe = exact_fb = dominance_dev = None
        if args.exact_tails:
            if tails is None:  # every m's tails at once, after the first m's checks above
                tails = iter(eps_mod.exact_tails(ms, args.epsilon))
            exact_fe, exact_fb = next(tails)
            dominance_dev = max(exact_fe - bounds.chernoff_false_eps,
                                exact_fb - bounds.chernoff_false_bal)
        rows.append(dict(
            m=m, epsilon=args.epsilon, nu=args.nu, quantum_miss=miss.exact,
            quantum_miss_approx=miss.approx, bound_false_eps=bounds.chernoff_false_eps,
            bound_false_bal=bounds.chernoff_false_bal, bound_approx=bounds.approx_false_eps,
            exact_false_eps=exact_fe, exact_false_bal=exact_fb,
            **_check("dominance", dominance_dev),
        ))
    return rows


def cmd_ensemble(args):
    _check_size("--m", args.m, MAX_TRIALS)  # an empty subsequence has no gap to compare
    ns = _int_list(args.n_list, "--n-list")
    if any(a >= b for a, b in zip(ns, ns[1:])):  # decreasing_ok compares each gap to the last
        raise ValueError("--n-list must be strictly increasing")
    plus = []
    for n in ns:  # each N's rules in turn, so the first bad N is the one reported
        if args.m > n / 10:
            raise ValueError(f"--m {args.m} too large for N={n}: need m <= N/10")
        plus.append(ensemble.EnsembleParams(n, args.p, args.m, 0).n_plus)
    laws = ensemble.hypergeometric_laws((n, k, args.m, 0, args.m) for n, k in zip(ns, plus))
    binomial = ensemble.binomial_pmf(args.m, float(args.p))  # the same limit for every N
    rows = []
    previous_gap = None
    for n, k_plus, (window, terms) in zip(ns, plus, laws):
        law = ensemble.padded(0, args.m, window, terms)
        gap = ensemble.convergence_gap(n, args.p, args.m, law, binomial)
        ratio = gap / previous_gap if previous_gap else None  # no ratio after a zero gap
        decreasing_ok = None if previous_gap is None else (
            gap < previous_gap or gap <= TOLERANCES["decreasing"])
        mass = sum(law)
        rows.append(dict(n_total=n, p=args.p, m=args.m, n_plus=k_plus, gap=gap, gap_ratio=ratio,
                         decreasing_ok=decreasing_ok, mass_sum=mass,
                         **_check("normalization", abs(mass - 1.0))))
        previous_gap = gap
    return rows


def cmd_mc(args):
    if args.seed is None:
        if args.strict:
            raise ValueError("--strict runs require an explicit --seed")
        args.seed = secrets.randbits(32)
    _check_size("--n", args.n, MAX_PATHS)
    _check_size("--m", args.m, MAX_TRIALS)
    _check_size("--experiments", args.experiments, MAX_EXPERIMENTS)
    # N reaches the exit laws under exact-n and the shifter draws under hypergeom
    mode = args.likelihood if args.strategy.startswith("quantum") else args.sampling
    config = montecarlo.TrialConfig(
        args.strategy, args.m, args.experiments, args.seed,
        n_paths=args.n if mode in ("exact-n", "hypergeom") else None,
        nu=args.nu, epsilon=args.epsilon, truth=args.truth)
    result = montecarlo.run_experiment(config)
    return [dict(strategy=args.strategy, m=args.m, nu=args.nu, epsilon=args.epsilon, n=args.n,
                 experiments=args.experiments, seed=args.seed, sampling=args.sampling,
                 likelihood=args.likelihood, truth=args.truth,
                 empirical_error=result.empirical_error, std_error=result.std_error,
                 analytic_error=result.analytic_error, z_score=result.z_score,
                 z_ok=abs(result.z_score) <= TOLERANCES["z"])]


def _metadata(args):
    """The subcommand and its flags in the order its parser defines them, which
    is the namespace's order, then the output format and the version."""
    meta = {key: value for key, value in vars(args).items()
            if key not in ("format", "output", "strict", "func")}
    meta["format"] = args.format
    meta["version"] = __version__
    return meta


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 2 with one ``error:`` line, like a bad value
        raise ValueError(f"{self.prog}: {message}")


@functools.cache  # one parser per process; parse_args keeps no state in it
def build_parser():
    # no prefix matching: ``epsilon --n 0`` must not read as ``--nu 0``
    parser = _Parser(
        prog="cohwalk", allow_abbrev=False,
        description="Interferometer-walk decision problems: sweeps and cross-checks.",
    )
    common = _Parser(add_help=False, allow_abbrev=False)
    common.add_argument("--format", choices=["csv", "json"], default="csv")
    common.add_argument("--output", help="write the table here instead of stdout")
    common.add_argument("--strict", action="store_true",
                        help="forbid implicit seeds (CI mode)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_walk = sub.add_parser("walk", parents=[common], allow_abbrev=False,
                            help="exit probability for one promise class")
    p_walk.add_argument("--n", type=int, required=True)
    p_walk.add_argument("--promise", choices=["constant", "balanced", "epsilon"],
                        required=True)
    p_walk.add_argument("--epsilon", type=float)
    p_walk.add_argument("--nu", type=float, default=1.0)
    p_walk.add_argument("--exact-oracle", action="store_true",
                        help="cross-check against the joint marker simulation "
                             f"(N <= {ORACLE_MAX_PATHS})")
    p_walk.set_defaults(func=cmd_walk)

    p_decide = sub.add_parser("decide", parents=[common], allow_abbrev=False,
                              help="constant-vs-balanced error sweep")
    p_decide.add_argument("--m-range", required=True)
    p_decide.add_argument("--nu-range", required=True)
    p_decide.add_argument("--mode", choices=["idealized", "exact-n"], default="idealized")
    p_decide.add_argument("--n", type=int, default=1000)
    p_decide.set_defaults(func=cmd_decide)

    p_eps = sub.add_parser("epsilon", parents=[common], allow_abbrev=False,
                           help="balanced-vs-biased error sweep")
    p_eps.add_argument("--epsilon", type=float, required=True)
    p_eps.add_argument("--m-range", required=True)
    p_eps.add_argument("--nu", type=float, default=1.0)
    p_eps.add_argument("--exact-tails", action="store_true")
    p_eps.set_defaults(func=cmd_epsilon)

    p_ens = sub.add_parser("ensemble", parents=[common], allow_abbrev=False,
                           help="subsequence-law convergence diagnostics")
    p_ens.add_argument("--n-list", required=True)
    p_ens.add_argument("--p", type=float, default=0.5)
    p_ens.add_argument("--m", type=int, required=True)
    p_ens.set_defaults(func=cmd_ensemble)

    p_mc = sub.add_parser("mc", parents=[common], allow_abbrev=False,
                          help="Monte Carlo calibration run")
    p_mc.add_argument("--strategy", choices=list(montecarlo.STRATEGIES), required=True)
    p_mc.add_argument("--m", type=int, required=True)
    p_mc.add_argument("--nu", type=float, default=1.0)
    p_mc.add_argument("--epsilon", type=float)
    p_mc.add_argument("--experiments", type=int, default=100_000)
    p_mc.add_argument("--seed", type=int)
    p_mc.add_argument("--sampling", choices=["iid", "hypergeom"], default="iid")
    p_mc.add_argument("--likelihood", choices=["idealized", "exact-n"], default="idealized")
    p_mc.add_argument("--n", type=int, default=1000)
    p_mc.add_argument("--truth", choices=["prior", "constant", "balanced", "epsilon"],
                      default="prior")
    p_mc.set_defaults(func=cmd_mc)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        records = args.func(args)
    except ValueError as exc:  # --help still leaves through argparse's own exit 0
        print(f"error: {exc}", file=sys.stderr)
        return 2
    table = OutputTable.of(records, _metadata(args))  # after cmd_mc draws an implicit seed
    text = table.render(args.format)
    if args.output:
        try:
            with open(args.output, "w") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: --output: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if table.checks_pass else 1


if __name__ == "__main__":
    sys.exit(main())
