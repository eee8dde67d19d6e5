"""Checks of every benchmark output against ``reference`` and properties.

Each ``check_<kind>`` takes an operation (from ``workloads``) and its
output (a parsed table, or the dict a library route returned) and
returns a list of problems; an empty list means the output is right.
Expected values are recomputed here, never read from a stored copy of
earlier output.

Tolerances (absolute unless marked relative):

* ``CLOSED_FORM_TOL`` 1e-12 for closed forms, the stated accuracy of
  cohwalk's closed forms.
* ``ORACLE_TOL`` 1e-10 for the joint particle-and-marker simulation.
* ``COUNT_LAW_RTOL`` 1e-8 relative for sums of binomial and
  hypergeometric terms.  cohwalk evaluates them through lgamma, which
  loses about N * 1e-15 relative: 1.4e-11 at m = 10^4 and 2e-9 at
  N = 10^6, the largest N a passing operation uses.
* ``POWER_RTOL`` 1e-10 relative for float closed forms raised to the
  m-th power, such as (1 - nu eps^2)^m: the power multiplies the
  rounding of its base by m, up to 10^4 here.
* ``GAP_TOL`` 1e-9 for the ensemble gap, a difference of two pmfs, and
  ``MASS_TOL`` 1e-9 for the pmf mass, cohwalk's own normalization limit.
* ``IDENTITY_RTOL`` 1e-12 relative for identities between two columns
  of one output, such as l1 coherence = (N+1) X.
* ``MC_ALPHA`` 1e-9: an error count is rejected when the two-sided
  exact binomial test against the independent target gives a smaller
  p-value.  A correct simulation is rejected once in 10^9 tables.
"""

from __future__ import annotations

import json

import reference as ref

CLOSED_FORM_TOL = 1e-12
ORACLE_TOL = 1e-10
COUNT_LAW_RTOL = 1e-8
POWER_RTOL = 1e-10
GAP_TOL = 1e-9
MASS_TOL = 1e-9
MC_ALPHA = 1e-9
IDENTITY_RTOL = 1e-12


def parse_table(text):
    """Rows of a cohwalk CSV or JSON table as dicts of cell strings."""
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        return [dict(zip(payload["columns"], row)) for row in payload["rows"]]
    lines = [line for line in text.splitlines() if line and not line.startswith("# ")]
    columns = lines[0].split(",")
    return [dict(zip(columns, line.split(","))) for line in lines[1:]]


def _num(cell):
    return float(cell) if cell not in ("", None) else None


class Problems(list):
    """Collects what is wrong with one output."""

    def close(self, label, got, want, tol):
        got, want = _num(got) if isinstance(got, str) else got, float(want)
        if got is None or not abs(got - want) <= tol:
            self.append(f"{label}: got {got!r}, want {want!r} within {tol:g}")

    def close_rel(self, label, got, want, rtol):
        got, want = _num(got) if isinstance(got, str) else got, float(want)
        if got is None or not abs(got - want) <= rtol * abs(want):
            self.append(f"{label}: got {got!r}, want {want!r} within {rtol:g} relative")

    def probability(self, label, value):
        value = _num(value) if isinstance(value, str) else value
        if value is None or not 0.0 <= value <= 1.0:
            self.append(f"{label}: {value!r} is not a probability")

    def at_most(self, label, value, bound, tol=CLOSED_FORM_TOL):
        if not float(value) <= float(bound) + tol:
            self.append(f"{label}: {value!r} exceeds {bound!r}")

    def equal(self, label, got, want):
        if got != want:
            self.append(f"{label}: got {got!r}, want {want!r}")


def check_walk(op, rows):
    params, bad = op["params"], Problems()
    bad.equal("rows", len(rows), 1)
    if len(rows) != 1:
        return bad
    row, n = rows[0], op["params"]["n"]
    want = ref.walk_row(params)
    bad.equal("n", row["n"], str(n))
    for column in ("p_analytic", "p_statevector_ideal", "coherence_x"):
        bad.close(column, row[column], want[column], CLOSED_FORM_TOL)
        bad.probability(column, row[column])
    if params["oracle"]:
        bad.close("p_oracle", row["p_oracle"], want["p_analytic"], ORACLE_TOL)
        bad.probability("p_oracle", row["p_oracle"])
    # exit probability never exceeds N/(N+1)^2 + X
    bad.at_most("p_analytic vs coherence bound", row["p_analytic"],
                n / (n + 1) ** 2 + float(row["coherence_x"]))
    return bad


def check_coherence(op, result):
    params, bad = op["params"], Problems()
    alphas = [complex(re, im) for re, im in params["alphas"]]
    want = ref.coherence(params["signs"], alphas)
    for key in ("p", "bound", "x"):
        bad.close(key, result[key], want[key], CLOSED_FORM_TOL)
    bad.close("coherence_l1", result["coherence_l1"], want["coherence_l1"],
              CLOSED_FORM_TOL * (len(alphas) + 1))
    for key in ("p", "x"):
        bad.probability(key, result[key])
    bad.at_most("p vs coherence bound", result["p"], result["bound"])
    n = len(alphas)
    bad.close_rel("coherence_l1 vs (N+1)X", result["coherence_l1"],
                  (n + 1) * result["x"], IDENTITY_RTOL)
    return bad


def check_decide(op, rows):
    params, bad = op["params"], Problems()
    grid = [(m, nu) for m in params["ms"] for nu in params["nus"]]
    bad.equal("rows", len(rows), len(grid))
    for (m, nu_text), row in zip(grid, rows):
        label = f"m={m} nu={nu_text}"
        bad.equal(f"{label} m", row["m"], str(m))
        bad.close(f"{label} nu", row["nu"], float(nu_text), 0.0)
        nu = ref.exact(nu_text)
        bad.close(f"{label} classical_error", row["classical_error"],
                  ref.classical_error(m, params["n"]), CLOSED_FORM_TOL)
        bad.close(f"{label} quantum_error", row["quantum_error"],
                  ref.quantum_error(m, nu, params["n"]), CLOSED_FORM_TOL)
        bad.close(f"{label} nu_threshold", row["nu_threshold"],
                  ref.coherence_threshold(m), CLOSED_FORM_TOL)
        bad.probability(f"{label} classical_error", row["classical_error"])
        bad.probability(f"{label} quantum_error", row["quantum_error"])
    return bad


def check_epsilon(op, rows):
    params, bad = op["params"], Problems()
    bad.equal("rows", len(rows), len(params["ms"]))
    for m, row in zip(params["ms"], rows):
        bad.equal(f"m={m} m", row["m"], str(m))
        want = ref.epsilon_row(m, params["epsilon"], params["nu"])
        for column, value in want.items():
            label = f"m={m} {column}"
            rtol = COUNT_LAW_RTOL if column.startswith("exact_") else POWER_RTOL
            bad.close_rel(label, row[column], value, rtol)
            bad.probability(label, row[column])
        # each exact tail is at most its Chernoff bound
        bad.at_most(f"m={m} exact_false_eps vs bound", row["exact_false_eps"],
                    row["bound_false_eps"])
        bad.at_most(f"m={m} exact_false_bal vs bound", row["exact_false_bal"],
                    row["bound_false_bal"])
    return bad


def check_ensemble(op, rows):
    params, bad = op["params"], Problems()
    bad.equal("rows", len(rows), len(params["ns"]))
    previous = None
    for n, row in zip(params["ns"], rows):
        gap, n_plus = ref.ensemble_gap(n, params["p"], params["m"])
        bad.equal(f"N={n} n_plus", row["n_plus"], str(n_plus))
        bad.close(f"N={n} gap", row["gap"], gap, GAP_TOL)
        bad.probability(f"N={n} gap", row["gap"])
        bad.close(f"N={n} mass_sum", row["mass_sum"], 1.0, MASS_TOL)
        if previous is not None:
            bad.close_rel(f"N={n} gap_ratio", row["gap_ratio"],
                          float(row["gap"]) / previous, IDENTITY_RTOL)
        previous = float(row["gap"])
    return bad


def check_mc(op, rows):
    params, bad = op["params"], Problems()
    bad.equal("rows", len(rows), 1)
    if len(rows) != 1:
        return bad
    row = rows[0]
    bad.equal("seed", row["seed"], str(params["seed"]))
    bad.equal("experiments", row["experiments"], str(params["experiments"]))
    target = ref.mc_target(params)
    bad.close_rel("analytic_error", row["analytic_error"], target, COUNT_LAW_RTOL)
    bad.probability("empirical_error", row["empirical_error"])
    bad.probability("analytic_error", row["analytic_error"])
    experiments = params["experiments"]
    errors = round(float(row["empirical_error"]) * experiments)
    pvalue = ref.binomial_test_pvalue(errors, experiments, target)
    if not pvalue >= MC_ALPHA:
        bad.append(f"{errors} errors in {experiments} against target {target!r}: "
                   f"exact binomial p-value {pvalue:.3g} < {MC_ALPHA:g}")
    return bad


def check_tails(op, result):
    params, bad = op["params"], Problems()
    eps = ref.decimal(params["epsilon"])
    false_eps, false_bal = ref.hypergeometric_tails(params["m"], eps, params["n"])
    bad.close_rel("false_eps", result["false_eps"], false_eps, COUNT_LAW_RTOL)
    bad.close_rel("false_bal", result["false_bal"], false_bal, COUNT_LAW_RTOL)
    for key in ("false_eps", "false_bal"):
        bad.probability(key, result[key])
    return bad


def check_uniforms(op, result):
    bad = Problems()
    bad.equal("partition digests", result["parts"], [result["whole"]] * len(result["parts"]))
    bad.equal("format digest", result["whole"], ref.uniforms_digest(**op["params"]["range"]))
    return bad


TABLE_CHECKS = {"walk": check_walk, "decide": check_decide, "epsilon": check_epsilon,
                "ensemble": check_ensemble, "mc": check_mc}
RESULT_CHECKS = {"coherence": check_coherence, "tails": check_tails,
                 "uniforms": check_uniforms}


def check(op, output):
    """Problems with one operation's output (table text or result dict)."""
    if op["kind"] == "cli":
        return TABLE_CHECKS[op["command"]](op, parse_table(output))
    return RESULT_CHECKS[op["kind"]](op, output)
