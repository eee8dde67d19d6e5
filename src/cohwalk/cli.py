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
the table is true.
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys
from dataclasses import dataclass, field

from . import __version__
from . import decision, ensemble, epsilon as eps_mod, montecarlo
from .decoherence import AncillaSpec, detection_probability, full_tensor_oracle
from .walk import PhasePattern, exit_amplitude, exit_probability_ideal

Z_LIMIT = 4.0


@dataclass
class OutputTable:
    columns: list
    rows: list
    metadata: dict = field(default_factory=dict)

    @property
    def checks_pass(self):
        """True iff every populated value in a *_ok column is truthy."""
        for i, name in enumerate(self.columns):
            if not name.endswith("_ok"):
                continue
            for row in self.rows:
                value = row[i]
                if value is not None and value != "" and not value:
                    return False
        return True

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


def parse_csv_table(text):
    """Inverse of ``OutputTable.to_csv`` (cells stay strings)."""
    metadata, columns, rows = {}, None, []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            metadata[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return OutputTable(columns or [], rows, metadata)


def _int_list(text):
    """Parse '3', '1,2,5' or 'a:b[:step]' (stop inclusive) into ints."""
    values = []
    for part in text.split(","):
        if ":" in part:
            pieces = [int(x) for x in part.split(":")]
            start, stop = pieces[0], pieces[1]
            step = pieces[2] if len(pieces) > 2 else 1
            values.extend(range(start, stop + 1, step))
        else:
            values.append(int(part))
    return values


def _float_list(text):
    """Parse '0.5', '0,0.5,1' or 'a:b:step' (stop inclusive) into floats."""
    values = []
    for part in text.split(","):
        if ":" in part:
            pieces = [float(x) for x in part.split(":")]
            if len(pieces) != 3:
                raise ValueError("float ranges need start:stop:step")
            start, stop, step = pieces
            if step == 0 or (stop - start) * step < 0:
                raise ValueError(f"float range {part!r}: step must be nonzero "
                                 "and point from start to stop")
            count = int(round((stop - start) / step))
            values.extend(start + i * step for i in range(count + 1))
        else:
            values.append(float(part))
    return values


def _require_pattern(args):
    if args.promise == "epsilon":
        if args.epsilon is None:
            raise SystemExit("--promise epsilon requires --epsilon")
        return PhasePattern.epsilon_biased(args.n, args.epsilon)
    if args.promise == "balanced":
        return PhasePattern.balanced(args.n)
    return PhasePattern.constant(args.n)


def cmd_walk(args):
    pattern = _require_pattern(args)
    p_analytic = float(
        detection_probability(args.promise, args.nu, epsilon=args.epsilon, n_paths=args.n)
    )
    p_ideal_formula = exit_probability_ideal(pattern)
    p_statevector = abs(exit_amplitude(pattern)) ** 2
    ideal_ok = abs(p_statevector - p_ideal_formula) <= 1e-12
    p_oracle, oracle_ok = None, None
    if args.exact_oracle:
        p_oracle = full_tensor_oracle(pattern, AncillaSpec.uniform(args.nu, args.n))
        oracle_ok = abs(p_oracle - p_analytic) <= 1e-10
    # X = sum_{j!=k} |G[k][j]| / (N+1)^2 with every off-diagonal overlap nu
    coherence_x = args.nu * args.n * (args.n - 1) / (args.n + 1) ** 2
    table = OutputTable(
        columns=[
            "n", "promise", "epsilon", "nu", "p_analytic",
            "p_statevector_ideal", "ideal_ok", "p_oracle", "oracle_ok", "coherence_x",
        ],
        rows=[[
            args.n, args.promise, args.epsilon, args.nu, p_analytic,
            p_statevector, ideal_ok, p_oracle, oracle_ok, coherence_x,
        ]],
        metadata=_metadata(args, "walk", ["n", "promise", "epsilon", "nu", "exact_oracle"]),
    )
    return table


def cmd_decide(args):
    ms = _int_list(args.m_range)
    nus = _float_list(args.nu_range)
    n_paths = args.n if args.mode == "exact-n" else None
    rows = []
    for m in ms:
        threshold = decision.coherence_threshold(m)
        # exact-n switches the classical side to without-replacement sampling
        c_err = float(decision.classical_error(m, n_paths=n_paths))
        for nu in nus:
            q_err = float(decision.quantum_error(m, nu, n_paths=n_paths))
            post_c, _ = decision.quantum_posterior_all_zero(m, nu, n_paths=n_paths)
            p_b = detection_probability("balanced", nu, n_paths=n_paths)
            p_c = detection_probability("constant", nu, n_paths=n_paths)
            evidence = ((1 - p_c) ** m + (1 - p_b) ** m) / 2
            # the ambiguous branch must rebuild the full error by Bayes
            recomposed = float(post_c) * float(evidence) + 0.5 * float(1 - (1 - p_b) ** m)
            bayes_ok = abs(recomposed - q_err) <= 1e-12
            rows.append([m, nu, c_err, q_err, threshold, bayes_ok])
    return OutputTable(
        columns=["m", "nu", "classical_error", "quantum_error", "nu_threshold", "bayes_ok"],
        rows=rows,
        metadata=_metadata(args, "decide", ["m_range", "nu_range", "mode", "n"]),
    )


def cmd_epsilon(args):
    ms = _int_list(args.m_range)
    rows = []
    for m in ms:
        miss = eps_mod.quantum_miss_probability(m, args.epsilon, args.nu)
        bounds = eps_mod.classical_error_bounds(m, args.epsilon)
        exact_fe = exact_fb = dominance_ok = None
        if args.exact_tails:
            tails = eps_mod.exact_tail_probabilities(m, args.epsilon)
            exact_fe, exact_fb = tails.false_eps, tails.false_bal
            dominance_ok = (
                exact_fe <= bounds.chernoff_false_eps + 1e-12
                and exact_fb <= bounds.chernoff_false_bal + 1e-12
            )
        rows.append([
            m, args.epsilon, args.nu, miss.exact, miss.approx,
            bounds.chernoff_false_eps, bounds.chernoff_false_bal,
            bounds.approx_false_eps, exact_fe, exact_fb, dominance_ok,
        ])
    return OutputTable(
        columns=[
            "m", "epsilon", "nu", "quantum_miss", "quantum_miss_approx",
            "bound_false_eps", "bound_false_bal", "bound_approx",
            "exact_false_eps", "exact_false_bal", "dominance_ok",
        ],
        rows=rows,
        metadata=_metadata(args, "epsilon", ["epsilon", "m_range", "nu", "exact_tails"]),
    )


def cmd_ensemble(args):
    ns = _int_list(args.n_list)
    rows = []
    previous_gap = None
    for n in ns:
        if args.m > n / 10:
            raise SystemExit(f"--m {args.m} too large for N={n}: need m <= N/10")
        gap = ensemble.convergence_gap(n, args.p, args.m)
        ratio = None if previous_gap is None else gap / previous_gap
        decreasing_ok = None if previous_gap is None else gap < previous_gap
        k_plus = round(args.p * n)
        mass = sum(
            ensemble.hypergeometric_prob(ensemble.EnsembleParams(n, args.p, args.m, j))
            for j in range(args.m + 1)
        )
        normalization_ok = abs(mass - 1.0) <= 1e-9
        rows.append([n, args.p, args.m, k_plus, gap, ratio, decreasing_ok, mass, normalization_ok])
        previous_gap = gap
    return OutputTable(
        columns=[
            "n_total", "p", "m", "n_plus", "gap", "gap_ratio",
            "decreasing_ok", "mass_sum", "normalization_ok",
        ],
        rows=rows,
        metadata=_metadata(args, "ensemble", ["n_list", "p", "m"]),
    )


def cmd_mc(args):
    if args.seed is None:
        if args.strict:
            raise SystemExit("--strict runs require an explicit --seed")
        args.seed = secrets.randbits(32)
    config = montecarlo.TrialConfig(
        strategy=args.strategy,
        m=args.m,
        experiments=args.experiments,
        seed=args.seed,
        n_paths=args.n,
        nu=args.nu,
        epsilon=args.epsilon,
        likelihood=args.likelihood,
        sampling="hypergeom" if args.sampling == "hypergeom" else "iid",
        truth=args.truth,
    )
    result = montecarlo.run_experiment(config)
    z_ok = abs(result.z_score) <= Z_LIMIT
    return OutputTable(
        columns=[
            "strategy", "m", "nu", "epsilon", "n", "experiments", "seed",
            "sampling", "likelihood", "truth",
            "empirical_error", "std_error", "analytic_error", "z_score", "z_ok",
        ],
        rows=[[
            args.strategy, args.m, args.nu, args.epsilon, args.n,
            args.experiments, args.seed, args.sampling, args.likelihood, args.truth,
            result.empirical_error, result.std_error, result.analytic_error,
            result.z_score, z_ok,
        ]],
        metadata=_metadata(args, "mc", [
            "strategy", "m", "nu", "epsilon", "experiments", "seed",
            "sampling", "likelihood", "n", "truth",
        ]),
    )


def _metadata(args, command, keys):
    meta = {"command": command}
    for key in keys:
        meta[key] = getattr(args, key.replace("-", "_"))
    meta["format"] = args.format
    meta["version"] = __version__
    return meta


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cohwalk",
        description="Interferometer-walk decision problems: sweeps and cross-checks.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["csv", "json"], default="csv")
    common.add_argument("--output", help="write the table here instead of stdout")
    common.add_argument("--strict", action="store_true",
                        help="forbid implicit seeds (CI mode)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_walk = sub.add_parser("walk", parents=[common],
                            help="exit probability for one promise class")
    p_walk.add_argument("--n", type=int, required=True)
    p_walk.add_argument("--promise", choices=["constant", "balanced", "epsilon"],
                        required=True)
    p_walk.add_argument("--epsilon", type=float)
    p_walk.add_argument("--nu", type=float, default=1.0)
    p_walk.add_argument("--exact-oracle", action="store_true",
                        help="cross-check against the joint marker simulation (N <= 12)")
    p_walk.set_defaults(func=cmd_walk)

    p_decide = sub.add_parser("decide", parents=[common],
                              help="constant-vs-balanced error sweep")
    p_decide.add_argument("--m-range", required=True)
    p_decide.add_argument("--nu-range", required=True)
    p_decide.add_argument("--mode", choices=["idealized", "exact-n"], default="idealized")
    p_decide.add_argument("--n", type=int, default=1000)
    p_decide.set_defaults(func=cmd_decide)

    p_eps = sub.add_parser("epsilon", parents=[common],
                           help="balanced-vs-biased error sweep")
    p_eps.add_argument("--epsilon", type=float, required=True)
    p_eps.add_argument("--m-range", required=True)
    p_eps.add_argument("--nu", type=float, default=1.0)
    p_eps.add_argument("--exact-tails", action="store_true")
    p_eps.set_defaults(func=cmd_epsilon)

    p_ens = sub.add_parser("ensemble", parents=[common],
                           help="subsequence-law convergence diagnostics")
    p_ens.add_argument("--n-list", required=True)
    p_ens.add_argument("--p", type=float, default=0.5)
    p_ens.add_argument("--m", type=int, required=True)
    p_ens.set_defaults(func=cmd_ensemble)

    p_mc = sub.add_parser("mc", parents=[common],
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        table = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        if not isinstance(exc.code, str):
            raise
        print(f"error: {exc.code}", file=sys.stderr)
        return 2
    text = table.render(args.format)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0 if table.checks_pass else 1


if __name__ == "__main__":
    sys.exit(main())
