"""CLI tests: subcommand output, checks, exit codes, reproducibility."""

import json
import math

import pytest

from cohwalk.cli import main, parse_csv_table
from cohwalk.decoherence import AncillaSpec, compute_X, overlaps

BOOL_FLAGS = {"exact_oracle", "exact_tails", "strict"}
NON_FLAG_KEYS = {"command", "version"}


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
