"""CLI tests: subcommand output, checks, exit codes, reproducibility."""

import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import cohwalk
from cohwalk.cli import (
    MAX_EXPERIMENTS, MAX_LIST_VALUES, MAX_PATHS, MAX_TRIALS, TOLERANCES, OutputTable,
    _float_list, build_parser, main,
)
from cohwalk.decoherence import AncillaSpec, compute_X, overlaps
from cohwalk.montecarlo import TrialConfig, analytic_error

BOOL_FLAGS = {"exact_oracle", "exact_tails", "strict"}
NON_FLAG_KEYS = {"command", "version"}
# one run per subcommand with every optional check on
CHECKED_RUNS = {
    "walk": ["walk", "--n", "8", "--promise", "epsilon", "--epsilon", "0.5", "--nu", "0.9",
             "--exact-oracle"],
    "decide": ["decide", "--m-range", "1:4", "--nu-range", "0:1:0.25", "--mode", "exact-n",
               "--n", "40"],
    "epsilon": ["epsilon", "--epsilon", "0.2", "--m-range", "1,10,100", "--nu", "0.8",
                "--exact-tails"],
    "ensemble": ["ensemble", "--n-list", "100,1000,10000", "--m", "5", "--p", "0.3"],
    "mc": ["mc", "--strategy", "quantum-dj", "--m", "3", "--nu", "0.6", "--experiments", "1000",
           "--seed", "1"],
}


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

    def test_oracle_pins_the_finite_n_leak_at_the_cap(self, capsys):
        # balanced leak (1 - nu) N / (N+1)^2; doubling it gives 0.00311 here
        code, out = run_cli(capsys, ["walk", "--n", "512", "--promise", "balanced",
                                     "--nu", "0.2", "--exact-oracle"])
        assert code == 0
        table = parse_csv_table(out)
        assert cell(table, "oracle_ok") == "true"
        assert abs(float(cell(table, "p_oracle")) - 0.8 * 512 / 513**2) <= 1e-10

    def test_epsilon_requires_value(self, capsys):
        code, _ = run_cli(capsys, ["walk", "--n", "4", "--promise", "epsilon"])
        assert code == 2

    @pytest.mark.parametrize("n", [2, 3, 4, 12, 64, 512, 513])
    @pytest.mark.parametrize("nu", ["0", "0.3", "0.7", "1"])
    def test_coherence_x_matches_dense_overlaps(self, capsys, n, nu):
        # the walk's inline X and the overlap route's must agree bit for bit
        code, out = run_cli(capsys, ["walk", "--n", str(n), "--promise", "constant",
                                     "--nu", nu])
        assert code == 0
        spec_route = compute_X(overlaps(AncillaSpec.uniform(float(nu), n)))
        assert float(cell(parse_csv_table(out), "coherence_x")) == spec_route


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

    @pytest.mark.parametrize("nu_range, nus", [
        ("0:1:0.25", ["0.0", "0.25", "0.5", "0.75", "1.0"]),
        ("0:0.5:0.3", ["0.0", "0.3"]),  # once also 0.6
        ("0:1:0.35", ["0.0", "0.35", "0.7"]),  # once also 1.05, which exited 2
        ("0:0.3:0.1", ["0.0", "0.1", "0.2", "0.3"]),  # 0.3/0.1 < 3, and 3 * 0.1 > 0.3
        ("1:0:-0.4", ["1.0", "0.6", "0.19999999999999996"]),
        ("0.3:0:-0.1", ["0.3", "0.19999999999999998", "0.09999999999999998", "0.0"]),
    ])
    def test_float_ranges_never_pass_stop(self, capsys, nu_range, nus):
        code, out = run_cli(capsys, ["decide", "--m-range", "1", "--nu-range", nu_range])
        assert code == 0
        assert [row[1] for row in parse_csv_table(out).rows] == nus

    def test_no_float_range_to_one_passes_one(self):
        # 414 of the grid's ranges once gave a value above 1, and the last two
        # reach 1 + 2**-52 by rounding
        grid = [f"0.{start}:1:{step / 100:.2f}"
                for start, step in itertools.product(range(10), range(1, 101))]
        for text in grid + ["0.09:1:0.035", "0.09:1:0.07"]:
            assert max(_float_list(text, "--nu-range")) <= 1, text

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

    @pytest.mark.parametrize("n_list", ["1000,1000", "1000,100", "100,1000,500"])
    def test_n_list_must_increase(self, capsys, n_list):
        # decreasing_ok compares each gap to the one before: 1000,1000 once exited 1
        assert main(["ensemble", "--n-list", n_list, "--m", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --n-list must be strictly increasing\n"

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


    def test_each_law_built_once(self, capsys, monkeypatch):
        # one kernel call holds every N's hypergeometric law (2 * 11 + 1 counts
        # x each), shared by convergence_gap and mass_sum, and one builds the
        # binomial limit (11 counts) that every N shares
        calls = count_kernel_calls(monkeypatch)
        code, _ = run_cli(capsys, ["ensemble", "--n-list", "100,1000,10000", "--m", "10"])
        assert code == 0
        assert sorted(calls) == [11, 3 * 23]

    def test_first_bad_n_is_reported(self, capsys):
        # N = 100 breaks m <= N/10 and N = 1001 the p * N rule; N is checked in order
        assert main(["ensemble", "--n-list", "100,1001", "--m", "11", "--p", "0.5"]) == 2
        assert capsys.readouterr().err == "error: --m 11 too large for N=100: need m <= N/10\n"
        assert main(["ensemble", "--n-list", "1001,10000", "--m", "11", "--p", "0.5"]) == 2
        assert capsys.readouterr().err == "error: p * n_total = 500.5 is not an integer\n"


def count_kernel_calls(monkeypatch):
    """The number of counts x of each ``_log_binomial`` call, as a list that
    fills while the patch lasts."""
    calls, kernel = [], cohwalk.ensemble._log_binomial

    def counting_kernel(x, *rest):
        calls.append(len(x))
        return kernel(x, *rest)

    monkeypatch.setattr(cohwalk.ensemble, "_log_binomial", counting_kernel)
    return calls


class TestKernelCalls:
    """A run builds the count laws of all its m, or all its N, in shared
    kernel calls, not one per law."""

    @pytest.mark.parametrize("argv, expected", [
        (["decide", "--m-range", "1:10", "--nu-range", "0:1:0.1", "--mode", "exact-n",
          "--n", "1000"], 1),
        (["epsilon", "--epsilon", "0.5", "--m-range", "1:50", "--nu", "0.8", "--exact-tails"], 1),
        (["mc", "--strategy", "quantum-eps", "--m", "50", "--epsilon", "0.2", "--nu", "0.5",
          "--experiments", "1000", "--seed", "1"], 1),
        # the four hypergeometric laws in one call, the binomial limit in another
        (["ensemble", "--n-list", "1000,10000,100000,1000000", "--m", "100"], 2),
    ], ids=["decide", "epsilon", "mc", "ensemble"])
    def test_kernel_calls_per_run(self, capsys, monkeypatch, argv, expected):
        calls = count_kernel_calls(monkeypatch)
        code, _ = run_cli(capsys, argv)
        assert code == 0
        assert len(calls) == expected


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

    def test_ensemble_composition_exact_past_2_53(self, capsys):
        # pN from the float product would print 4999999999999999817948147482624
        code, out = run_cli(capsys, ["ensemble", "--n-list", str(10**31), "--m", "10"])
        assert code == 0
        assert cell(parse_csv_table(out), "n_plus") == str(5 * 10**30)

    def test_ensemble_inexact_composition_past_2_53_rejected(self, capsys):
        # the float 0.3 times 10^17 is no integer, though 0.3 * 1e17 rounds to one
        code = main(["ensemble", "--n-list", str(10**17), "--p", "0.3", "--m", "10"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_inexact_composition_names_p_and_the_nearest_integer(self, capsys):
        # past 2^53 the message names the given p and N, not their exact Fraction product
        code = main(["ensemble", "--n-list", str(10**17), "--p", "0.3", "--m", "10"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: p * n_total = 0.3 * {10**17} (nearest integer 29999999999999999)"
            " is not an integer\n")
        # below 2^53 it still prints the float product
        assert main(["ensemble", "--n-list", "1111", "--p", "0.3", "--m", "10"]) == 2
        assert capsys.readouterr().err == "error: p * n_total = 333.3 is not an integer\n"

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

    @pytest.mark.parametrize("n, walk_flags, mc_flags, message", [
        ("101", ["--promise", "balanced"], ["--strategy", "quantum-dj"],
         "balanced patterns need an even number of paths"),
        ("1001", ["--promise", "epsilon", "--epsilon", "0.3"],
         ["--strategy", "quantum-eps", "--epsilon", "0.3"],
         "(1+epsilon)*N/2 = 650.65 is not an integer"),
    ])
    def test_exact_n_rejects_what_walk_rejects(self, capsys, n, walk_flags, mc_flags, message):
        # these once printed analytic_error 0.1809 and 0.4607 for patterns that
        # cannot exist, and exited 0
        assert main(["walk", "--n", n, *walk_flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        code = main(["mc", *mc_flags, "--likelihood", "exact-n", "--n", n, "--m", "3",
                     "--nu", "0.3", "--experiments", "1000", "--seed", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("strategy, m, flags, reads_n", [
        ("quantum-dj", 5, [], False),
        ("quantum-dj", 5, ["--sampling", "hypergeom"], False),
        ("quantum-dj", 5, ["--likelihood", "exact-n"], True),
        ("classical-dj", 3, [], False),
        ("classical-dj", 3, ["--likelihood", "exact-n"], False),
        ("classical-dj", 3, ["--sampling", "hypergeom"], True),
    ], ids=lambda v: ("=".join(v)[2:] or "no-flag") if isinstance(v, list) else None)
    def test_n_reaches_only_the_law_its_flag_names(self, capsys, strategy, m, flags, reads_n):
        # exit laws read N under exact-n, shifter draws under hypergeom; a quantum
        # run draws no shifters, so m > N under --sampling hypergeom once exited 2
        argv = ["mc", "--strategy", strategy, "--m", str(m), "--n", "4", "--nu", "0.3",
                "--seed", "1", "--experiments", "100"]
        code, out = run_cli(capsys, argv + flags)
        assert code == 0
        _, plain = run_cli(capsys, argv)
        flagged, unflagged = parse_csv_table(out), parse_csv_table(plain)
        n_paths = 4 if reads_n else None
        want = analytic_error(TrialConfig(strategy, m, 1, 0, n_paths=n_paths, nu=0.3))
        assert float(cell(flagged, "analytic_error")) == want
        if reads_n:
            large_n = analytic_error(TrialConfig(strategy, m, 1, 0, nu=0.3))
            assert float(cell(unflagged, "analytic_error")) == large_n != want
        else:  # an ignored flag shows only in its own column and metadata line
            ignored = {flag[2:] for flag in flags[::2]}

            def rest(table):
                return ({k: v for k, v in table.metadata.items() if k not in ignored},
                        [v for c, v in zip(table.columns, table.rows[0]) if c not in ignored])
            assert rest(flagged) == rest(unflagged)

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
        # rejected by argparse itself
        ["bogus"],
        ["walk", "--promise", "constant"],
        ["walk", "--n", "x", "--promise", "constant"],
        ["walk", "--n", "4", "--promise", "sideways"],
        ["walk", "--n", "4", "--promise", "constant", "--bogus"],
    ])
    def test_bad_input_exits_2(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
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

    def test_known_command_builds_only_its_own_parser(self, capsys):
        build_parser.cache_clear()
        assert self._run(capsys, ["walk", "--n", "4", "--promise", "constant"])[0] == 0
        assert self._run(capsys, self.A)[0] == 0
        assert build_parser.cache_info().currsize == 2
        assert self._run(capsys, ["bogus"])[0] == 2  # the full parser, and every command's
        assert build_parser.cache_info().currsize == 6

    @pytest.mark.parametrize("argv", CHECKED_RUNS.values(), ids=list(CHECKED_RUNS))
    @pytest.mark.parametrize("extra", [["--bogus"], ["extra", "--bogus=1"]])
    def test_leftover_arguments_name_the_program(self, capsys, argv, extra):
        code, out, err = self._run(capsys, argv + extra)
        assert (code, out) == (2, "")
        assert err == f"error: cohwalk: unrecognized arguments: {' '.join(extra)}\n"

    def test_help_lists_every_command_and_its_flags(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["-h"])
        assert exit_.value.code == 0
        listing = capsys.readouterr().out
        assert listing.startswith("usage: cohwalk [-h] {walk,decide,epsilon,ensemble,mc} ...")
        for command, argv in CHECKED_RUNS.items():
            with pytest.raises(SystemExit):
                main([command, "--help"])
            usage = capsys.readouterr().out
            assert usage.startswith(
                f"usage: cohwalk {command} [-h] [--format {{csv,json}}] [--output OUTPUT]")
            assert all(flag in usage for flag in argv if flag.startswith("--"))


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

    # flags given out of order, and --strict, which is not recorded
    @pytest.mark.parametrize("argv, keys", [
        (["walk", "--promise", "constant", "--n", "4"],
         ["n", "promise", "epsilon", "nu", "exact_oracle"]),
        (["decide", "--nu-range", "0.5", "--m-range", "1"], ["m_range", "nu_range", "mode", "n"]),
        (["epsilon", "--m-range", "5", "--epsilon", "0.2"],
         ["epsilon", "m_range", "nu", "exact_tails"]),
        (["ensemble", "--m", "2", "--n-list", "100"], ["n_list", "p", "m"]),
        (["mc", "--seed", "1", "--experiments", "10", "--m", "2", "--strategy", "classical-dj"],
         ["strategy", "m", "nu", "epsilon", "experiments", "seed", "sampling", "likelihood",
          "n", "truth"]),
    ])
    def test_metadata_key_order(self, capsys, argv, keys):
        want = ["command", *keys, "format", "version"]
        _, out = run_cli(capsys, argv + ["--strict"])
        assert list(parse_csv_table(out).metadata) == want
        _, out = run_cli(capsys, argv + ["--format", "json"])
        assert list(json.loads(out)["metadata"]) == want

    @pytest.mark.parametrize("argv, columns", [
        (["walk", "--n", "4", "--promise", "constant"],
         ["n", "promise", "epsilon", "nu", "p_analytic", "p_statevector_ideal", "ideal_dev",
          "ideal_ok", "p_oracle", "oracle_dev", "oracle_ok", "coherence_x"]),
        (["decide", "--m-range", "1:2", "--nu-range", "0.5"],
         ["m", "nu", "classical_error", "quantum_error", "nu_threshold", "bayes_dev",
          "bayes_ok"]),
        (["epsilon", "--epsilon", "0.2", "--m-range", "5,10"],
         ["m", "epsilon", "nu", "quantum_miss", "quantum_miss_approx", "bound_false_eps",
          "bound_false_bal", "bound_approx", "exact_false_eps", "exact_false_bal",
          "dominance_dev", "dominance_ok"]),
        (["ensemble", "--n-list", "100,200", "--m", "2"],
         ["n_total", "p", "m", "n_plus", "gap", "gap_ratio", "decreasing_ok", "mass_sum",
          "normalization_dev", "normalization_ok"]),
        (["mc", "--strategy", "classical-dj", "--m", "2", "--experiments", "10", "--seed", "1"],
         ["strategy", "m", "nu", "epsilon", "n", "experiments", "seed", "sampling",
          "likelihood", "truth", "empirical_error", "std_error", "analytic_error", "z_score",
          "z_ok"]),
    ])
    def test_column_order(self, capsys, argv, columns):
        _, out = run_cli(capsys, argv)
        table = parse_csv_table(out)
        assert table.columns == columns
        assert all(len(row) == len(columns) for row in table.rows)
        _, out = run_cli(capsys, argv + ["--format", "json"])
        payload = json.loads(out)
        assert payload["columns"] == columns
        assert payload["rows"] == table.rows

    @pytest.mark.parametrize("argv", CHECKED_RUNS.values(), ids=list(CHECKED_RUNS))
    def test_each_ok_follows_its_deviation(self, capsys, argv):
        code, out = run_cli(capsys, argv)
        assert code == 0
        table = parse_csv_table(out)
        for i, name in enumerate(table.columns):
            if not name.endswith("_ok") or name in ("z_ok", "decreasing_ok"):
                continue
            check = name[:-len("_ok")]
            assert table.columns[i - 1] == f"{check}_dev"
            for row in table.rows:
                assert row[i] == ("true" if float(row[i - 1]) <= TOLERANCES[check] else "false")

    # a run of each check; at m = 1 the two ensemble laws coincide, so every gap
    # is float noise, where a strictly falling gap would pass whatever the limit
    FAILING_RUNS = dict(
        ideal=CHECKED_RUNS["walk"], oracle=CHECKED_RUNS["walk"], bayes=CHECKED_RUNS["decide"],
        dominance=CHECKED_RUNS["epsilon"], normalization=CHECKED_RUNS["ensemble"],
        decreasing=["ensemble", "--n-list", "100,200", "--m", "1"], z=CHECKED_RUNS["mc"])

    @pytest.mark.parametrize("check", TOLERANCES)
    def test_failed_check_exits_1(self, capsys, monkeypatch, check):
        # the table is still written; the exit status reports the failed check
        monkeypatch.setitem(TOLERANCES, check, -1.0)
        code, out = run_cli(capsys, self.FAILING_RUNS[check])
        assert code == 1
        assert cell(parse_csv_table(out), f"{check}_ok", -1) == "false"

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
