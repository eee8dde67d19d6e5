"""Tests of the benchmark's own checks; they need scipy but not cohwalk.

    python3 cohbench/selftest.py

Each check must accept an output built from the reference values,
accept one moved by half its tolerance and reject one moved just past
it.  The file is not named ``test_*.py`` so that the repository's own
pytest run does not collect it.
"""

import math
import random
import unittest

import numpy as np

import checks
import reference as ref


def csv_table(columns, rows):
    cells = [[cell(v) for v in row] for row in rows]
    return "\n".join(["# command=test", ",".join(columns)] + [",".join(r) for r in cells]) + "\n"


def cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


class MovedValues(unittest.TestCase):
    """Shared helpers: a row dict is rendered, moved and checked."""

    def assertVerdicts(self, check, op, build, column, value, tol, relative=False):
        step = tol * (abs(value) if relative else 1.0)
        self.assertEqual(check(op, build(column, value)), [])
        self.assertEqual(check(op, build(column, value + 0.5 * step)), [])
        self.assertNotEqual(check(op, build(column, value + 1.5 * step)), [])
        self.assertNotEqual(check(op, build(column, value - 1.5 * step)), [])


class WalkChecks(MovedValues):
    op = {"params": {"n": 8, "promise": "epsilon", "epsilon": "0.5", "nu": "0.3",
                     "oracle": True}}

    def build(self, column=None, value=None, params=None):
        params = params or self.op["params"]
        want = {k: float(v) for k, v in ref.walk_row(params).items()}
        want["p_oracle"] = want["p_analytic"]
        if column:
            want[column] = value
        columns = ["n", "p_analytic", "p_statevector_ideal", "p_oracle", "coherence_x"]
        return checks.parse_table(csv_table(columns, [[8] + [want[c] for c in columns[1:]]]))

    def test_closed_forms_match_the_paper(self):
        row = ref.walk_row({"n": 8, "promise": "constant", "epsilon": None, "nu": "1"})
        self.assertEqual(row["p_analytic"], row["p_statevector_ideal"])
        self.assertEqual(row["p_analytic"], ref.Fraction(64, 81))
        row = ref.walk_row({"n": 8, "promise": "balanced", "epsilon": None, "nu": "0"})
        self.assertEqual(row["p_analytic"], ref.Fraction(8, 81))

    def test_moved_values(self):
        want = self.build()[0]
        for column, tol in (("p_analytic", checks.CLOSED_FORM_TOL),
                            ("p_statevector_ideal", checks.CLOSED_FORM_TOL),
                            ("coherence_x", checks.CLOSED_FORM_TOL),
                            ("p_oracle", checks.ORACLE_TOL)):
            with self.subTest(column):
                self.assertVerdicts(checks.check_walk, self.op, self.build, column,
                                    float(want[column]), tol)

    def test_probability_range(self):
        params = dict(self.op["params"], promise="balanced", epsilon=None, nu="1")
        op = {"params": params}
        self.assertEqual(checks.check_walk(op, self.build("p_analytic", 0.0, params)), [])
        self.assertNotEqual(checks.check_walk(op, self.build("p_analytic", -1e-13, params)), [])


class CoherenceChecks(unittest.TestCase):
    def setUp(self):
        rng = random.Random(5)
        n = 6
        self.signs = [rng.choice((1, -1)) for _ in range(n)]
        theta = [rng.uniform(0, math.pi / 2) for _ in range(n)]
        phi = [rng.uniform(0, 2 * math.pi) for _ in range(n)]
        self.alphas = [math.cos(t) * complex(math.cos(f), math.sin(f)) for t, f in zip(theta, phi)]
        self.op = {"params": {"signs": self.signs,
                              "alphas": [[a.real, a.imag] for a in self.alphas]}}

    def test_linear_forms_equal_dense_sums(self):
        a = np.array(self.alphas)
        g = np.outer(a.conj(), a)
        np.fill_diagonal(g, 1.0)
        s = np.array(self.signs, dtype=float)
        n = len(s)
        dense_p = (s @ g @ s).real / (n + 1) ** 2
        mags = np.abs(g)
        dense_x = (mags.sum() - np.trace(mags)) / (n + 1) ** 2
        got = ref.coherence(self.signs, self.alphas)
        self.assertAlmostEqual(got["p"], dense_p, delta=1e-15)
        self.assertAlmostEqual(got["x"], dense_x, delta=1e-15)

    def test_moved_values(self):
        want = ref.coherence(self.signs, self.alphas)
        self.assertEqual(checks.check_coherence(self.op, dict(want)), [])
        for key in ("p", "bound", "x"):
            for step, ok in ((0.5, True), (1.5, False)):
                with self.subTest(key=key, step=step):
                    moved = dict(want, **{key: want[key] + step * checks.CLOSED_FORM_TOL})
                    if key == "x":  # keep l1 = (N+1) X, checked on its own below
                        moved["coherence_l1"] = (len(self.signs) + 1) * moved["x"]
                    self.assertEqual(checks.check_coherence(self.op, moved) == [], ok)

    def test_identity_and_bound(self):
        want = ref.coherence(self.signs, self.alphas)
        moved = dict(want, coherence_l1=want["coherence_l1"] * (1 + 1.5 * checks.IDENTITY_RTOL))
        self.assertNotEqual(checks.check_coherence(self.op, moved), [])
        above = dict(want, p=want["bound"] + 2 * checks.CLOSED_FORM_TOL)
        self.assertTrue(any("bound" in p for p in checks.check_coherence(self.op, above)))


class DecideChecks(MovedValues):
    op = {"params": {"ms": [2, 3], "nus": ["0.5"], "mode": "exact-n", "n": 1000}}

    def build(self, column=None, value=None):
        rows = []
        for m in self.op["params"]["ms"]:
            row = {"m": m, "nu": 0.5,
                   "classical_error": float(ref.classical_error(m, 1000)),
                   "quantum_error": float(ref.quantum_error(m, ref.exact("0.5"), 1000)),
                   "nu_threshold": ref.coherence_threshold(m)}
            if column and m == 3:
                row[column] = value
            rows.append(row)
        columns = list(rows[0])
        return checks.parse_table(csv_table(columns, [[r[c] for c in columns] for r in rows]))

    def test_hypergeometric_product_form(self):
        # 2 C(N/2, m) / C(N, m) from the product form
        self.assertEqual(ref.all_same_given_balanced(3, 10),
                         2 * math.comb(5, 3) / ref.Fraction(math.comb(10, 3)))

    def test_moved_values(self):
        want = self.build()[1]
        for column in ("classical_error", "quantum_error", "nu_threshold"):
            with self.subTest(column):
                self.assertVerdicts(checks.check_decide, self.op, self.build, column,
                                    float(want[column]), checks.CLOSED_FORM_TOL)


class EpsilonChecks(MovedValues):
    op = {"params": {"epsilon": "0.25", "ms": [1000], "nu": "0.7"}}

    def build(self, column=None, value=None):
        want = ref.epsilon_row(1000, "0.25", "0.7")
        if column:
            want[column] = value
        columns = ["m"] + list(want)
        return checks.parse_table(csv_table(columns, [[1000] + list(want.values())]))

    def test_moved_values(self):
        want = self.build()[0]
        for column in ("exact_false_eps", "exact_false_bal"):
            with self.subTest(column):
                self.assertVerdicts(checks.check_epsilon, self.op, self.build, column,
                                    float(want[column]), checks.COUNT_LAW_RTOL, relative=True)
        with self.subTest("quantum_miss"):
            self.assertVerdicts(checks.check_epsilon, self.op, self.build, "quantum_miss",
                                float(want["quantum_miss"]), checks.POWER_RTOL, relative=True)

    def test_tail_above_chernoff_bound(self):
        want = self.build()[0]
        above = self.build("exact_false_eps", float(want["bound_false_eps"]) * 1.01)
        self.assertTrue(any("vs bound" in p for p in checks.check_epsilon(self.op, above)))


class EnsembleChecks(MovedValues):
    op = {"params": {"ns": [1000, 10000], "m": 10, "p": "0.3"}}

    def build(self, column=None, value=None):
        rows, previous = [], None
        for n in self.op["params"]["ns"]:
            gap, n_plus = ref.ensemble_gap(n, "0.3", 10)
            row = {"n_total": n, "n_plus": n_plus, "gap": gap,
                   "gap_ratio": None if previous is None else gap / previous,
                   "mass_sum": 1.0}
            if column and n == 1000:
                row[column] = value
            previous = row["gap"]
            rows.append(row)
        columns = list(rows[0])
        return checks.parse_table(csv_table(columns, [[r[c] for c in columns] for r in rows]))

    def test_moved_values(self):
        want = self.build()[0]
        self.assertVerdicts(checks.check_ensemble, self.op, self.build, "gap",
                            float(want["gap"]), checks.GAP_TOL)
        self.assertVerdicts(checks.check_ensemble, self.op, self.build, "mass_sum",
                            1.0, checks.MASS_TOL)


class MonteCarloChecks(unittest.TestCase):
    params = {"strategy": "classical-eps", "m": 40, "truth": "prior", "experiments": 200_000,
              "seed": 9, "nu": "1", "epsilon": "0.2", "n": 1000, "sampling": "iid",
              "likelihood": "idealized"}
    op = {"params": params}

    def table(self, errors, analytic=None):
        target = ref.mc_target(self.params)
        row = [self.params["seed"], self.params["experiments"],
               errors / self.params["experiments"], target if analytic is None else analytic]
        return checks.parse_table(csv_table(
            ["seed", "experiments", "empirical_error", "analytic_error"], [row]))

    def test_target_is_the_mean_of_both_tails(self):
        false_eps, false_bal = ref.binomial_tails(40, ref.decimal("0.2"))
        self.assertEqual(ref.count_threshold(40, ref.decimal("0.2")), 22)
        self.assertAlmostEqual(ref.mc_target(self.params), (false_eps + false_bal) / 2)

    def test_error_count_just_past_the_test(self):
        n, target = self.params["experiments"], ref.mc_target(self.params)
        low, high = round(n * target), n  # accepted, rejected
        while high - low > 1:
            mid = (low + high) // 2
            if ref.binomial_test_pvalue(mid, n, target) >= checks.MC_ALPHA:
                low = mid
            else:
                high = mid
        self.assertEqual(checks.check_mc(self.op, self.table(low)), [])
        self.assertNotEqual(checks.check_mc(self.op, self.table(high)), [])

    def test_analytic_error_moved(self):
        target = ref.mc_target(self.params)
        errors = round(self.params["experiments"] * target)
        for step, ok in ((0.5, True), (1.5, False)):
            moved = target * (1 + step * checks.COUNT_LAW_RTOL)
            self.assertEqual(checks.check_mc(self.op, self.table(errors, moved)) == [], ok)

    def test_zero_target_allows_no_error(self):
        op = {"params": dict(self.params, strategy="classical-dj", truth="constant")}
        self.assertEqual(ref.mc_target(op["params"]), 0.0)
        self.assertEqual(checks.check_mc(op, self.table(0, 0.0)), [])
        self.assertNotEqual(checks.check_mc(op, self.table(1, 0.0)), [])


class TailChecks(unittest.TestCase):
    op = {"params": {"m": 1000, "epsilon": "0.2", "n": 10_000}}

    def test_moved_values(self):
        false_eps, false_bal = ref.hypergeometric_tails(1000, ref.decimal("0.2"), 10_000)
        want = {"false_eps": false_eps, "false_bal": false_bal}
        self.assertEqual(checks.check_tails(self.op, want), [])
        for key in want:
            for step, ok in ((0.5, True), (1.5, False)):
                moved = dict(want, **{key: want[key] * (1 + step * checks.COUNT_LAW_RTOL)})
                self.assertEqual(checks.check_tails(self.op, moved) == [], ok)


class UniformChecks(unittest.TestCase):
    def test_partitions_and_format(self):
        rng = {"seed": 3, "start": 65_000, "count": 1000}
        op = {"params": {"range": rng}}
        whole = ref.uniforms_digest(**rng)
        self.assertEqual(checks.check_uniforms(op, {"whole": whole, "parts": [whole, whole]}), [])
        other = ref.uniforms_digest(3, 65_001, 1000)
        self.assertNotEqual(checks.check_uniforms(op, {"whole": whole, "parts": [whole, other]}),
                            [])
        self.assertNotEqual(checks.check_uniforms(op, {"whole": other, "parts": [other]}), [])


class TableParsing(unittest.TestCase):
    def test_csv_and_json_agree(self):
        csv = "# command=walk\na,b\n1,0.5\n"
        json_text = '{"metadata": {}, "columns": ["a", "b"], "rows": [["1", "0.5"]]}'
        self.assertEqual(checks.parse_table(csv), checks.parse_table(json_text))


if __name__ == "__main__":
    unittest.main()
