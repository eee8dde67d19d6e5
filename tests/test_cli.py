"""CLI tests: subcommand output, checks, exit codes, reproducibility."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import cohwalk
from cohwalk.cli import (
    MAX_EXPERIMENTS, MAX_LIST_VALUES, MAX_PATHS, MAX_TRIALS, OutputTable, main,
)
from cohwalk.decoherence import AncillaSpec, compute_X, overlaps

BOOL_FLAGS = {"exact_oracle", "exact_tails", "strict"}
NON_FLAG_KEYS = {"command", "version"}


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


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def rebuild_argv(table):
    """Turn a table's metadata block back into a command line."""
    argv = [table.metadata["command"]]
    for key, value in table.metadata.items():
        if key in NON_FLAG_KEYS or value == "":
            continue
        flag = "--" + key.replace("_", "-")
        if key in BOOL_FLAGS:
            if value == "true":
                argv.append(flag)
        else:
            argv.extend([flag, value])
    return argv


def cell(table, column, row=0):
    return table.rows[row][table.columns.index(column)]


class TestWalkCommand:
    def test_constant_full_coherence(self, capsys):
        code, out = run_cli(capsys, ["walk", "--n", "4", "--promise", "constant",
                                     "--nu", "1"])
        assert code == 0
        table = parse_csv_table(out)
        assert float(cell(table, "p_analytic")) == pytest.approx(0.64)
        assert cell(table, "ideal_ok") == "true"

    def test_balanced_partial_coherence(self, capsys):
        code, out = run_cli(capsys, ["walk", "--n", "4", "--promise", "balanced",
                                     "--nu", "0.5"])
        assert code == 0
        table = parse_csv_table(out)
        assert float(cell(table, "p_analytic")) == pytest.approx(0.08)

    def test_oracle_cross_check(self, capsys):
        code, out = run_cli(capsys, ["walk", "--n", "4", "--promise", "constant",
                                     "--nu", "0.5", "--exact-oracle"])
        assert code == 0
        table = parse_csv_table(out)
        assert float(cell(table, "p_analytic")) == pytest.approx(0.4)
        assert float(cell(table, "p_oracle")) == pytest.approx(0.4, abs=1e-10)
        assert cell(table, "oracle_ok") == "true"

    def test_epsilon_requires_value(self, capsys):
        code, _ = run_cli(capsys, ["walk", "--n", "4", "--promise", "epsilon"])
        assert code == 2

    @pytest.mark.parametrize("n", [4, 64, 512])
    @pytest.mark.parametrize("nu", ["0", "0.3", "1"])
    def test_coherence_x_matches_dense_overlaps(self, capsys, n, nu):
        code, out = run_cli(capsys, ["walk", "--n", str(n), "--promise", "constant",
                                     "--nu", nu])
        assert code == 0
        dense = compute_X(overlaps(AncillaSpec.uniform(float(nu), n)))
        assert float(cell(parse_csv_table(out), "coherence_x")) == pytest.approx(
            dense, abs=1e-12
        )


class TestDecideCommand:
    def test_two_trial_row(self, capsys):
        code, out = run_cli(capsys, ["decide", "--m-range", "2",
                                     "--nu-range", "0.5"])
        assert code == 0
        table = parse_csv_table(out)
        assert float(cell(table, "classical_error")) == pytest.approx(0.25)
        assert float(cell(table, "quantum_error")) == pytest.approx(0.125)
        assert float(cell(table, "nu_threshold")) == pytest.approx(
            0.2928932188134524, abs=1e-12
        )

    def test_full_coherence_column(self, capsys):
        code, out = run_cli(capsys, ["decide", "--m-range", "1:6",
                                     "--nu-range", "1"])
        assert code == 0
        table = parse_csv_table(out)
        for row in range(len(table.rows)):
            assert float(cell(table, "quantum_error", row)) == 0.0

    @pytest.mark.parametrize("m_range, ms", [
        ("1:3", ["1", "2", "3"]), ("3:1:-1", ["3", "2", "1"]), ("2:7:2", ["2", "4", "6"]),
    ])
    def test_integer_ranges_include_stop(self, capsys, m_range, ms):
        code, out = run_cli(capsys, ["decide", "--m-range", m_range, "--nu-range", "0.5"])
        assert code == 0
        assert [row[0] for row in parse_csv_table(out).rows] == ms

    def test_closed_form_grid_value(self, capsys):
        code, out = run_cli(capsys, ["decide", "--m-range", "5",
                                     "--nu-range", "0.6"])
        assert code == 0
        table = parse_csv_table(out)
        assert float(cell(table, "quantum_error")) == pytest.approx(0.00512, abs=1e-12)


class TestEpsilonCommand:
    def test_sweep_values(self, capsys):
        code, out = run_cli(capsys, ["epsilon", "--epsilon", "0.1",
                                     "--m-range", "100", "--nu", "1",
                                     "--exact-tails"])
        assert code == 0
        table = parse_csv_table(out)
        assert float(cell(table, "quantum_miss")) == pytest.approx(
            0.3660323412732292, abs=1e-12
        )
        assert cell(table, "dominance_ok") == "true"

    def test_quoted_approximation_value(self, capsys):
        code, out = run_cli(capsys, ["epsilon", "--epsilon", "0.2",
                                     "--m-range", "200"])
        assert code == 0
        table = parse_csv_table(out)
        assert float(cell(table, "bound_approx")) == pytest.approx(math.exp(-1))


class TestEnsembleCommand:
    def test_gap_decreases(self, capsys):
        code, out = run_cli(capsys, ["ensemble", "--n-list", "100,1000,10000",
                                     "--p", "0.5", "--m", "10"])
        assert code == 0
        table = parse_csv_table(out)
        gaps = [float(cell(table, "gap", r)) for r in range(3)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert cell(table, "decreasing_ok", 1) == "true"
        assert cell(table, "normalization_ok", 0) == "true"

    def test_oversized_m_rejected(self, capsys):
        code, _ = run_cli(capsys, ["ensemble", "--n-list", "100", "--m", "11"])
        assert code == 2

    @pytest.mark.parametrize("flags", [["--m", "1"], ["--m", "2", "--p", "0"],
                                       ["--m", "2", "--p", "1"]])
    def test_coinciding_laws_pass(self, capsys, flags):
        # for m = 1 and for p in {0, 1} both laws are the same: every gap is 0 or noise
        code, out = run_cli(capsys, ["ensemble", "--n-list", "20,40,400", *flags])
        assert code == 0
        table = parse_csv_table(out)
        assert [cell(table, "decreasing_ok", r) for r in range(3)] == ["", "true", "true"]
        assert all(float(cell(table, "gap", r)) <= 1e-12 for r in range(3))


class TestLargeCountLaws:
    """Count laws at large N, and exact tails of more than 10^4 binomial terms."""

    def test_ensemble_at_n_1e8(self, capsys):
        code, out = run_cli(capsys, ["ensemble", "--n-list", "10000,1000000,100000000",
                                     "--m", "100"])
        assert code == 0
        table = parse_csv_table(out)
        for row in range(3):
            assert abs(float(cell(table, "mass_sum", row)) - 1) <= 1e-12
        assert float(cell(table, "gap_ratio", 2)) == pytest.approx(0.01, rel=1e-3)

    def test_ensemble_past_int64(self, capsys):
        # --n-list is not capped: N = 10^20 has counts that no int64 holds
        code, out = run_cli(capsys, ["ensemble", "--n-list", "1000," + str(10**20), "--m", "10"])
        assert code == 0
        table = parse_csv_table(out)
        assert abs(float(cell(table, "mass_sum", 1)) - 1) <= 1e-12
        assert float(cell(table, "gap", 1)) <= 1e-12

    @pytest.mark.parametrize("argv", [
        ["epsilon", "--epsilon", "0.2", "--exact-tails", "--m-range", "20000"],
        ["mc", "--strategy", "classical-eps", "--m", "100000", "--epsilon", "0.2",
         "--experiments", "20000", "--seed", "3"],
    ])
    def test_more_than_1e4_binomial_terms(self, capsys, argv):
        code, out = run_cli(capsys, argv)
        assert code == 0
        assert parse_csv_table(out).rows


class TestMcCommand:
    def test_calibration_run(self, capsys):
        code, out = run_cli(capsys, ["mc", "--strategy", "quantum-dj", "--m", "2",
                                     "--nu", "0.5", "--experiments", "50000",
                                     "--seed", "5"])
        assert code == 0
        table = parse_csv_table(out)
        assert float(cell(table, "analytic_error")) == pytest.approx(0.125)
        assert cell(table, "z_ok") == "true"

    def test_seed_repeat_is_bit_identical(self, capsys):
        argv = ["mc", "--strategy", "classical-dj", "--m", "3",
                "--experiments", "30000", "--seed", "9"]
        _, first = run_cli(capsys, argv)
        _, second = run_cli(capsys, argv)
        assert first == second

    def test_strict_requires_seed(self, capsys):
        code, _ = run_cli(capsys, ["mc", "--strategy", "classical-dj", "--m", "3",
                                   "--experiments", "1000", "--strict"])
        assert code == 2

    def test_zero_wald_error_uses_analytic_spread(self, capsys):
        # no errors against a target of 1.9e-9: the Wald standard error is 0
        code, out = run_cli(capsys, ["mc", "--strategy", "quantum-eps", "--m", "2000",
                                     "--epsilon", "0.1", "--truth", "epsilon",
                                     "--experiments", "10000", "--seed", "1"])
        assert code == 0
        table = parse_csv_table(out)
        assert float(cell(table, "empirical_error")) == 0.0
        assert abs(float(cell(table, "z_score"))) <= 4
        assert cell(table, "z_ok") == "true"

    def test_implicit_seed_is_recorded(self, capsys):
        code, out = run_cli(capsys, ["mc", "--strategy", "classical-dj", "--m", "3",
                                     "--experiments", "1000"])
        assert code == 0
        table = parse_csv_table(out)
        assert table.metadata["seed"] != ""


class TestInputContract:
    @pytest.mark.parametrize("argv", [
        ["decide", "--m-range", "1", "--nu-range", "1.5"],
        ["decide", "--m-range", "2", "--nu-range", "0:1:0"],
        ["decide", "--m-range", "2", "--nu-range", "1:0:0.5"],
        ["decide", "--m-range", "2", "--nu-range", "0:1"],
        ["mc", "--strategy", "quantum-dj", "--m", "2", "--nu", "1.7",
         "--experiments", "1000", "--seed", "3"],
        ["mc", "--strategy", "classical-dj", "--m", "3", "--experiments", "1000",
         "--seed", "-5"],
        ["mc", "--strategy", "classical-dj", "--m", "3", "--experiments", "1000",
         "--seed", str(2**64)],
        ["decide", "--m-range", "5:1", "--nu-range", "0.5"],
        ["decide", "--m-range", "1:3:1:9", "--nu-range", "0.5"],
        ["mc", "--strategy", "quantum-eps", "--m", "5", "--epsilon", "1.5",
         "--experiments", "100", "--seed", "1"],
        ["mc", "--strategy", "classical-eps", "--m", "5", "--epsilon", "1.5",
         "--experiments", "100", "--seed", "1"],
        ["mc", "--strategy", "quantum-dj", "--m", "2", "--experiments", "10",
         "--seed", "1", "--likelihood", "exact-n", "--n", "-1"],
        ["mc", "--strategy", "quantum-dj", "--m", "2", "--experiments", "10",
         "--seed", "1", "--likelihood", "exact-n", "--n", "0"],
        ["epsilon", "--epsilon", "0.5", "--m-range", "2", "--n", "0"],  # not --nu
        ["decide", "--m-range", "1", "--nu-range", "0.5", "--mode", "exact-n", "--n", "-1"],
        ["decide", "--m-range", "1", "--nu-range", "0.5", "--mode", "exact-n", "--n", "0"],
        ["ensemble", "--n-list", "20,40", "--m", "0"],  # an empty subsequence
        ["walk", "--n", "8", "--promise", "epsilon", "--epsilon", "inf"],
    ])
    def test_bad_input_exits_2(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_path_count_error_names_flag(self, capsys, n):
        for argv in (["mc", "--strategy", "quantum-dj", "--m", "2", "--experiments", "10",
                      "--seed", "1", "--likelihood", "exact-n"],
                     ["decide", "--m-range", "1", "--nu-range", "0.5", "--mode", "exact-n"]):
            assert main(argv + ["--n", n]) == 2
            assert capsys.readouterr().err == "error: --n must be at least 1\n"


class TestListLengthCap:
    # only inputs that are rejected: the cap is checked before a range expands
    @pytest.mark.parametrize("argv, flag", [
        (["decide", "--m-range", "1:100000000", "--nu-range", "0.5"], "--m-range"),
        (["decide", "--m-range", "1", "--nu-range", "0:1:1e-12"], "--nu-range"),
        (["decide", "--m-range", "1", "--nu-range", "0:1:1e-300"], "--nu-range"),
        (["epsilon", "--epsilon", "0.5", "--m-range", f"1:{MAX_LIST_VALUES + 1}"], "--m-range"),
        (["epsilon", "--epsilon", "0.5", "--m-range", "1:10000:2,1:10000:2,7"], "--m-range"),
        (["ensemble", "--m", "1", "--n-list", "10:1000000000000"], "--n-list"),
        (["ensemble", "--m", "1", "--n-list", "10," * MAX_LIST_VALUES + "10"], "--n-list"),
    ])
    def test_long_lists_exit_2(self, capsys, argv, flag):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} must list at most {MAX_LIST_VALUES} values\n"

    @pytest.mark.parametrize("nu_range", ["0:inf:1", "0:1:nan", "0:1:inf"])
    def test_non_finite_float_ranges_exit_2(self, capsys, nu_range):
        assert main(["decide", "--m-range", "1", "--nu-range", nu_range]) == 2
        assert capsys.readouterr().err.startswith(f"error: float range {nu_range!r}")


class TestSizeCaps:
    BIG = str(2**64)

    @pytest.mark.parametrize("argv, message", [
        (["mc", "--strategy", "classical-eps", "--m", BIG, "--epsilon", "0.5", "--seed", "1"],
         f"--m must be at most {MAX_TRIALS}"),
        (["mc", "--strategy", "quantum-dj", "--m", str(MAX_TRIALS + 1), "--seed", "1"],
         f"--m must be at most {MAX_TRIALS}"),
        (["mc", "--strategy", "quantum-dj", "--m", "2", "--experiments", BIG, "--seed", "1"],
         f"--experiments must be at most {MAX_EXPERIMENTS}"),
        (["mc", "--strategy", "quantum-dj", "--m", "2", "--experiments", "0", "--seed", "1"],
         "--experiments must be at least 1"),
        (["mc", "--strategy", "classical-dj", "--m", "2", "--sampling", "hypergeom",
          "--n", BIG, "--seed", "1"], f"--n must be at most {MAX_PATHS}"),
        (["walk", "--n", BIG, "--promise", "constant"], f"--n must be at most {MAX_PATHS}"),
        (["walk", "--n", str(MAX_PATHS + 1), "--promise", "constant"],
         f"--n must be at most {MAX_PATHS}"),
        (["walk", "--n", "0", "--promise", "constant"], "--n must be at least 1"),
        (["decide", "--m-range", BIG, "--nu-range", "0.5"],
         f"--m-range values must be at most {MAX_TRIALS}"),
        (["decide", "--m-range", "1", "--nu-range", "0.5", "--mode", "exact-n", "--n", BIG],
         f"--n must be at most {MAX_PATHS}"),
        (["epsilon", "--epsilon", "0.5", "--m-range", f"1,{MAX_TRIALS + 1}"],
         f"--m-range values must be at most {MAX_TRIALS}"),
        (["ensemble", "--n-list", BIG, "--m", BIG], f"--m must be at most {MAX_TRIALS}"),
    ])
    def test_sizes_above_the_cap_exit_2(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestParserReuse:
    """``main`` builds its parser once per process; no call leaks into the next."""

    A = ["epsilon", "--epsilon", "0.2", "--m-range", "50,100", "--nu", "0.9", "--exact-tails"]
    MC = ["mc", "--strategy", "quantum-dj", "--m", "2", "--experiments", "500"]

    def _fresh(self, argv):
        src = os.path.dirname(os.path.dirname(cohwalk.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-m", "cohwalk.cli", *argv], env=env,
                                capture_output=True, text=True, timeout=120)
        return result.returncode, result.stdout, result.stderr

    def _run(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_a_b_a_matches_a_fresh_run(self, capsys):
        first = self._run(capsys, self.A)
        between = [
            self._run(capsys, self.MC),                               # implicit seed
            self._run(capsys, self.MC + ["--strict"]),                # strict, no seed
            self._run(capsys, ["walk", "--n", "4", "--promise", "constant", "--bogus"]),
            self._run(capsys, ["decide", "--m-range", "1:3", "--nu-range", "0.5",
                               "--strict", "--format", "json"]),
        ]
        third = self._run(capsys, self.A)
        assert first == third == self._fresh(self.A)
        assert [code for code, _, _ in between] == [0, 2, 2, 0]

    def test_no_state_leaks_between_calls(self, capsys):
        _, out, _ = self._run(capsys, self.MC + ["--seed", "7"])
        assert parse_csv_table(out).metadata["seed"] == "7"
        _, out, _ = self._run(capsys, self.MC)
        assert parse_csv_table(out).metadata["seed"] not in ("", "7")
        # an implicit seed drawn by the previous call is not a default now
        code, out, err = self._run(capsys, self.MC + ["--strict"])
        assert (code, out) == (2, "")
        assert err == "error: --strict runs require an explicit --seed\n"
        _, out, _ = self._run(capsys, ["walk", "--n", "4", "--promise", "constant",
                                       "--format", "json"])
        assert json.loads(out)["metadata"]["format"] == "json"
        _, out, _ = self._run(capsys, ["walk", "--n", "4", "--promise", "constant"])
        assert parse_csv_table(out).metadata["format"] == "csv"


# Random command lines: a valid base per subcommand, some of its flags
# dropped, odd values given to its own or foreign flags, and now and then
# a junk token inserted.
BASES = {
    "walk": ["--n", "8", "--promise", "epsilon", "--epsilon", "0.5", "--nu", "0.5",
             "--exact-oracle"],
    "decide": ["--m-range", "1:3", "--nu-range", "0:1:0.5", "--mode", "exact-n", "--n", "8"],
    "epsilon": ["--epsilon", "0.5", "--m-range", "1,8", "--exact-tails"],
    "ensemble": ["--n-list", "20,40", "--m", "2", "--p", "0.5"],
    "mc": ["--strategy", "classical-eps", "--m", "3", "--epsilon", "0.5",
           "--experiments", "200", "--seed", "1", "--truth", "epsilon"],
}
OWN_FLAGS = {
    "walk": ["--n", "--promise", "--epsilon", "--nu"],
    "decide": ["--m-range", "--nu-range", "--mode", "--n"],
    "epsilon": ["--epsilon", "--m-range", "--nu"],
    "ensemble": ["--n-list", "--p", "--m"],
    "mc": ["--strategy", "--m", "--nu", "--epsilon", "--experiments", "--seed",
           "--sampling", "--likelihood", "--n", "--truth"],
}
SWITCHES = ["--exact-oracle", "--exact-tails", "--strict"]
FLAGS = sorted({flag for flags in OWN_FLAGS.values() for flag in flags} | {"--format"})
VALUES = ["0", "1", "2", "3", "8", "13", "-1", "0.5", "0.25", "1.5", "1e-300", "nan", "inf",
          "", "x", "1:3", "3:1", "0:1:0.25", "0:1:0", "0:inf:1", "1:2:3:4", "2,4", "0.5,",
          "constant", "balanced", "epsilon", "idealized", "exact-n", "iid", "hypergeom",
          "quantum-dj", "classical-dj", "quantum-eps", "classical-eps", "prior", "json",
          "csv", str(MAX_PATHS + 1), str(2**64)]
JUNK = ["--", "-", "--bogus", "-x", "--n=", "--nu=0.5", "--exact", "walk", "extra", "-h"]


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("out")


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from([*BASES, "bogus"]))
    base = BASES.get(command, [])
    # base flags as (flag, value) pairs, switches alone
    items, i = [], 0
    while i < len(base):
        width = 1 if base[i] in SWITCHES else 2
        items.append(base[i:i + width])
        i += width
    items = [item for item in items if draw(st.integers(0, 5))]
    flags = st.sampled_from(OWN_FLAGS.get(command, FLAGS) + ["--format"])
    items += draw(st.lists(st.one_of(
        st.tuples(flags, st.sampled_from(VALUES)).map(list),
        st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)).map(list),
        st.sampled_from(SWITCHES).map(lambda flag: [flag]),
    ), max_size=2))
    argv = [command] + [token for item in draw(st.permutations(items)) for token in item]
    if not draw(st.integers(0, 3)):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(JUNK)))
    output = draw(st.sampled_from([None, None, "dir", "file", "missing"]))
    return argv, output


@settings(max_examples=150, deadline=None)
@given(command_lines())
@example((["ensemble", "--n-list", "20,40", "--m", "0"], None))
@example((["ensemble", "--n-list", "20,40", "--m", "2", "--p", "0"], None))
@example((["ensemble", "--n-list", "20,40", "--m", "2", "--p", "inf"], None))
@example((["decide", "--m-range", "1", "--nu-range", "0:inf:1"], None))
@example((["walk", "--n", "4", "--promise", "constant"], "dir"))
@example((["mc", "--strategy", "quantum-dj", "--m", str(2**64), "--seed", "1"], None))
@example((["walk", "--n", str(2**64), "--promise", "constant"], None))
def test_exit_contract_over_random_argv(out_dir, case):
    argv, output = case
    if output is not None:  # only ever written inside out_dir
        target = {"dir": out_dir, "file": out_dir / "t.csv",
                  "missing": out_dir / "missing" / "t.csv"}[output]
        argv = argv + ["--output", str(target)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help and -h
            code = exc.code
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out.getvalue() == ""
        assert err.startswith("error:") and err.count("\n") == 1
    else:
        assert "error:" not in err


class TestOutputContract:
    @pytest.mark.parametrize("argv", [
        ["walk", "--n", "8", "--promise", "epsilon", "--epsilon", "0.5",
         "--nu", "0.75", "--exact-oracle"],
        ["decide", "--m-range", "1:4", "--nu-range", "0:1:0.25",
         "--mode", "exact-n", "--n", "200"],
        ["epsilon", "--epsilon", "0.2", "--m-range", "50,100,200",
         "--exact-tails"],
        ["ensemble", "--n-list", "100,400", "--p", "0.5", "--m", "8"],
        ["mc", "--strategy", "quantum-eps", "--m", "50", "--nu", "0.8",
         "--epsilon", "0.2", "--experiments", "20000", "--seed", "77",
         "--truth", "epsilon"],
    ])
    def test_metadata_round_trip(self, capsys, argv):
        _, first = run_cli(capsys, argv)
        table = parse_csv_table(first)
        _, second = run_cli(capsys, rebuild_argv(table))
        assert first == second

    def test_json_carries_same_cells(self, capsys):
        base = ["epsilon", "--epsilon", "0.1", "--m-range", "100"]
        _, csv_text = run_cli(capsys, base)
        _, json_text = run_cli(capsys, base + ["--format", "json"])
        csv_table = parse_csv_table(csv_text)
        payload = json.loads(json_text)
        assert payload["columns"] == csv_table.columns
        assert payload["rows"] == csv_table.rows

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out = run_cli(capsys, ["walk", "--n", "4", "--promise", "constant",
                                     "--output", str(target)])
        assert code == 0
        assert out == ""
        assert "p_analytic" in target.read_text()
