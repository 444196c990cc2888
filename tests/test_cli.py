"""End-to-end CLI behavior: output formats, config merging, exit codes."""
import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from hiercoop import SuiteResult, cli, selfcheck
from hiercoop.cli import SWEEP_COLUMNS, ConfigError, main
import memos

GOLDEN = pathlib.Path(__file__).parent / "golden"
GOLDEN_SWEEP = GOLDEN / "sweep_21pt.csv"


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def as_dict(text_out):
    pairs = (line.split(" = ", 1) for line in text_out.strip().splitlines())
    return {k: v for k, v in pairs}


class TestAnalyzeText:
    def test_reference_network(self, capsys):
        rc, out, err = run_cli(capsys, "analyze", "--n", "131072")
        assert rc == 0 and err == ""
        got = as_dict(out)
        assert got["n"] == "131072"
        assert got["beta1"] == "2"
        assert got["beta"] == "2.82842712475"
        assert got["c"] == "4"
        assert got["regime"] == "dense"
        assert got["area_factor"] == "1"
        assert got["threshold"] == "131071"
        assert got["h_exact"] == "3.21823903721"
        assert got["h_approx"] == "4"
        assert got["h_int"] == "3"
        assert got["M1_int"] == "512"
        assert got["T1_int"] == "85.3333333333"
        assert got["P1"] == "262144"
        assert got["P2"] == "262144"
        assert got["P3"] == "262144"
        assert got["T1_smooth"] == "76.1092553602"
        assert got["T1_area"] == "76.1092553602"
        assert got["T_orig"] == "63.7574612656"
        assert got["ratio"] == "1.19373095869"
        assert "multihop" not in got  # only reported when --c-mh is given

    def test_fast_exchange_network(self, capsys):
        rc, out, _ = run_cli(capsys, "analyze", "--n", "20000", "--rate-q", "24")
        assert rc == 0
        got = as_dict(out)
        assert got["beta"] == "10"
        assert got["h_int"] == "2"
        assert got["M1_int"] == "20"
        assert got["T1_int"] == "5"
        assert got["P1"] == "1600"
        assert got["P2"] == "40000"
        assert got["P3"] == "38400"
        assert got["h_orig"] == "2"
        assert got["T_orig"] == "5"

    def test_domain_edge_at_the_largest_size(self, capsys):
        # Q/R = 1/4 + 1e-9: log(beta1) and the depth root keep their digits;
        # the expected values are the 50-digit ones, rounded
        rc, out, _ = run_cli(
            capsys, "analyze", "--n", "4611686018427387904", "--rate-q", "0.250000001"
        )
        assert rc == 0
        got = as_dict(out)
        assert got["h_exact"] == "40.6725367964"
        assert got["h_approx"] == "145399.410156"
        assert got["T1_smooth"] == "3.16992736712e+12"
        assert got["ratio"] == "0.519469893451"

    def test_report_runs_one_depth_search(self, capsys):
        # layer_choice, optimal_modified and ratio_original share one search
        with memos.counted() as traffic:
            rc, out, _ = run_cli(capsys, "analyze", "--n", "131072")
        assert rc == 0 and as_dict(out)["h_int"] == "3"
        assert traffic.searches == 1

    def test_sparse_network_attenuates_the_smooth_figure(self, capsys):
        rc, out, _ = run_cli(capsys, "analyze", "--n", "100000", "--area", "1e6", "--alpha", "4")
        assert rc == 0
        got = as_dict(out)
        assert got["regime"] == "sparse"
        assert got["area_factor"] == "1e-07"
        assert got["T1_smooth"] == "63.0645305053"
        assert got["T1_area"] == "6.30645305053e-06"

    def test_multihop_column_appears_on_request(self, capsys):
        rc, out, _ = run_cli(capsys, "analyze", "--n", "131072", "--c-mh", "1")
        assert rc == 0
        assert as_dict(out)["multihop"] == "362.038671968"

    def test_infeasible_depth_prints_none_not_an_error(self, capsys):
        rc, out, err = run_cli(capsys, "analyze", "--n", "4", "--rate-q", "100")
        assert rc == 0 and err == ""
        got = as_dict(out)
        for key in ("h_exact", "h_approx", "h_int", "M1_int", "T1_int", "P1", "P2", "P3"):
            assert got[key] == "none"
        assert float(got["T1_smooth"]) > 0.0  # smooth figure survives

    def test_depth_cap_is_honored(self, capsys):
        rc, out, _ = run_cli(capsys, "analyze", "--n", "1073741824", "--h-max", "2")
        assert rc == 0
        assert as_dict(out)["h_int"] == "2"


class TestAnalyzeJsonl:
    def test_line_parses_and_types_survive(self, capsys):
        rc, out, _ = run_cli(capsys, "analyze", "--n", "131072", "--format", "jsonl")
        assert rc == 0
        record = json.loads(out)
        assert record["n"] == 131072
        assert record["h_int"] == 3
        assert record["regime"] == "dense"
        assert record["T1_int"] == pytest.approx(256.0 / 3.0, rel=1e-11)
        assert record["T1_smooth"] == pytest.approx(76.10925536017415, rel=1e-11)

    def test_infeasible_fields_are_null(self, capsys):
        rc, out, _ = run_cli(
            capsys, "analyze", "--n", "4", "--rate-q", "100", "--format", "jsonl"
        )
        assert rc == 0
        record = json.loads(out)
        assert record["h_int"] is None
        assert record["T1_int"] is None
        assert record["T1_smooth"] > 0.0

    def test_csv_is_refused(self, capsys):
        rc, _, err = run_cli(capsys, "analyze", "--n", "1024", "--format", "csv")
        assert rc == 2
        assert "config error" in err

    def test_text_format_is_the_default_spelled_out(self, capsys):
        plain = run_cli(capsys, "analyze", "--n", "1000")
        assert plain[0] == 0
        assert run_cli(capsys, "analyze", "--n", "1000", "--format", "text") == plain


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("analyze_131072.txt", ("analyze", "--n", "131072")),
        ("analyze_20000_q24.jsonl",
         ("analyze", "--n", "20000", "--rate-q", "24", "--format", "jsonl")),
        ("tradeoff_200.txt",
         ("tradeoff", "--n", "200", "--area", "100", "--alpha", "4",
          "--candidate", "2:1:1", "--candidate", "1:1:1")),
        ("verify_seed0.txt", ("verify",)),
        ("verify_q24_seed3.txt", ("verify", "--rate-q", "24", "--seed", "3")),
        # its three lowest rows fit no depth: "T1_int": null
        ("sweep_q24.jsonl",
         ("sweep", "--grid", "4:4611686018427387904:25:log", "--c-mh", "1",
          "--rate-q", "24", "--format", "jsonl")),
        # at the Q/R -> 1/4 edge, where the smooth depth is largest; pins the
        # ratio column as it stands, below 1 at the top sizes
        ("sweep_q0p250000001.jsonl",
         ("sweep", "--grid", "4:4611686018427387904:25:log", "--c-mh", "1",
          "--rate-q", "0.250000001", "--format", "jsonl")),
        # near the Q/R -> 1/4 edge, where the most depths fit: 293 bound_checks cases
        ("verify_q03_seed7.txt", ("verify", "--rate-q", "0.3", "--seed", "7")),
        # every depth of the suites' walks fits every size, so none leaves: 20/50/330 cases
        ("verify_q0p250000001.txt", ("verify", "--rate-q", "0.250000001")),
        # depth 2 alone fits, so every size leaves the walks at depth 3: 4/10/30 cases
        ("verify_q1e6.txt", ("verify", "--rate-q", "1e6")),
        # one dense candidate (area_factor 1), one sparse, two failures with nulls
        ("tradeoff_200_mixed.jsonl",
         ("tradeoff", "--n", "200", "--area", "100", "--alpha", "4",
          "--candidate", "60:1:1", "--candidate", "2:1:1", "--candidate=-1:1:1",
          "--candidate", "1:1:0.2", "--format", "jsonl")),
        # a lin grid just under 2**62: its rows are n_min, an integer midpoint and n_max
        ("sweep_lin_top.csv",
         ("sweep", "--grid", "4611686018427387000:4611686018427387903:3:lin", "--c-mh", "1")),
        # area n**0.6: an n < 4 row, dense rows, then sparse ones from n = 316693
        ("sweep_nu_regimes.csv",
         ("sweep", "--grid", "2:1048576:12:log", "--c-mh", "1", "--nu", "0.6",
          "--alpha", "4", "--c0", "10")),
        # a fixed area of 1e6: sparse up to n = 56431603, dense from n = 1518500250
        ("sweep_area_fixed.csv",
         ("sweep", "--grid", "4:1099511627776:9:log", "--c-mh", "1", "--area", "1e6")),
    ],
)
def test_stdout_matches_its_golden_file(capsys, golden, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0 and err == ""
    assert out == (GOLDEN / golden).read_text()


class TestSweep:
    def test_undersized_row_has_one_message_with_or_without_nu(self, capsys):
        argv = ("sweep", "--grid", "0:10:3:lin", "--c-mh", "1")
        rc, fixed, _ = run_cli(capsys, *argv)
        assert rc == 0
        rc, grown, _ = run_cli(capsys, *argv, "--nu", "1")
        assert rc == 0
        row0 = [out.splitlines()[1] for out in (fixed, grown)]
        assert row0 == ['0,,,,,,,,,"n must be an integer >= 4, got 0"'] * 2

    def test_golden_csv_byte_identical(self, capsys):
        rc, out, err = run_cli(
            capsys, "sweep", "--grid", "1024:1073741824:21:log", "--c-mh", "1"
        )
        assert rc == 0 and err == ""
        assert out == GOLDEN_SWEEP.read_text()

    def test_header_row(self, capsys):
        rc, out, _ = run_cli(capsys, "sweep", "--grid", "1024:1024:1:log", "--c-mh", "1")
        assert rc == 0
        assert out.splitlines()[0] == ",".join(SWEEP_COLUMNS)
        assert (
            out.splitlines()[0]
            == "n,T1_smooth,T1_int,T_orig,multihop,ratio,ratio_log_adj,per_pair,area_factor,error"
        )

    def test_jsonl_rows(self, capsys):
        rc, out, _ = run_cli(
            capsys, "sweep", "--grid", "1024:1048576:3:log", "--c-mh", "1",
            "--format", "jsonl",
        )
        assert rc == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["n"] for r in records] == [1024, 32768, 1048576]
        for r in records:
            assert r["error"] is None
            assert r["ratio"] == pytest.approx(r["T1_smooth"] / r["T_orig"], rel=1e-9)

    def test_csv_and_jsonl_agree_number_for_number(self, capsys):
        args = ("sweep", "--grid", "1024:1048576:5:log", "--c-mh", "2.5")
        rc, csv_out, _ = run_cli(capsys, *args)
        assert rc == 0
        rc, jsonl_out, _ = run_cli(capsys, *args, "--format", "jsonl")
        assert rc == 0
        csv_rows = [line.split(",") for line in csv_out.strip().splitlines()[1:]]
        records = [json.loads(line) for line in jsonl_out.strip().splitlines()]
        assert len(csv_rows) == len(records) == 5
        for cells, record in zip(csv_rows, records):
            for i, col in enumerate(SWEEP_COLUMNS[:-1]):
                assert float(cells[i]) == record[col]

    def test_area_attenuation_column_reacts_to_nu(self, capsys):
        rc, out, _ = run_cli(
            capsys, "sweep", "--grid", "1024:1048576:3:log", "--c-mh", "1",
            "--nu", "1", "--c0", "0.001", "--format", "jsonl",
        )
        assert rc == 0
        factors = [json.loads(line)["area_factor"] for line in out.strip().splitlines()]
        assert all(f < 1.0 for f in factors)
        assert factors[0] > factors[1] > factors[2]

    def test_every_point_failing_sets_exit_code_3(self, capsys):
        rc, out, err = run_cli(capsys, "sweep", "--grid", "2:3:2:lin", "--c-mh", "1")
        assert rc == 3
        assert "sweep: every grid point failed" in err
        lines = out.strip().splitlines()
        assert len(lines) == 3  # header plus two annotated rows
        assert "n must be an integer >= 4" in lines[1]

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--log-base", "1", "log base must exceed 1, got 1.0"),
            ("--nu", "-0.5", "area exponent must be >= 0 and finite, got -0.5"),
            ("--c-mh", "0", "multihop constant must be positive, got 0.0"),
        ],
        ids=["log-base", "nu", "c-mh"],
    )
    def test_constant_no_row_can_use_is_refused_once_before_any_row(
        self, capsys, flag, value, message
    ):
        # the owner's message once on stderr, no rows, exit 3
        rc, out, err = run_cli(
            capsys, "sweep", "--grid", "16:1024:5:log", "--c-mh", "1", flag, value
        )
        assert (rc, out, err) == (3, "", f"error: {message}\n")

    def test_overflowing_area_names_n_and_nu(self, capsys):
        rc, out, err = run_cli(
            capsys, "sweep", "--grid", "4:100:3:log", "--c-mh", "1", "--nu", "300"
        )
        assert rc == 0 and err == ""
        lines = out.strip().splitlines()
        assert lines[2] == '20,,,,,,,,,"n**nu overflows at n=20, nu=300"'
        assert lines[3] == '100,,,,,,,,,"n**nu overflows at n=100, nu=300"'

    def test_non_finite_metric_fails_only_its_row(self, capsys):
        rc, out, err = run_cli(
            capsys, "sweep", "--grid", "4:4611686018427387904:5:log", "--c-mh", "1e300"
        )
        assert rc == 0 and err == ""
        lines = out.strip().splitlines()
        assert len(lines) == 6
        for line in lines[1:5]:
            cells = line.split(",")
            assert cells[-1] == ""
            assert all(math.isfinite(float(cell)) for cell in cells[:-1] if cell)
        assert lines[5] == (
            "4611686018427387904,,,,,,,,,"
            "metric multihop is not finite at n=4611686018427387904"
        )

    def test_one_point_grid_needs_equal_ends(self, capsys):
        rc, out, err = run_cli(capsys, "sweep", "--grid", "4:100:1:log", "--c-mh", "1")
        assert (rc, out) == (2, "")
        assert err == "config error: grid: a 1-point grid needs n_min == n_max\n"

    @pytest.mark.parametrize(
        "grid, sizes",
        [
            ("4611686018427387000:4611686018427387903:3:lin",
             [4611686018427387000, 4611686018427387451, 4611686018427387903]),
            ("3:4611686018427387903:3:log", [3, 3719550787, 4611686018427387903]),
            ("4286487623419242263:4611686018427387903:3:log",
             [4286487623419242263, 4446114600534332416, 4611686018427387903]),
        ],
    )
    def test_grid_holds_exactly_the_sizes_asked_for(self, grid, sizes):
        # floats are 512-1024 apart near 2**62; the ends are taken as given
        assert cli._parse_grid("grid", grid) == sizes

    @settings(max_examples=300)
    @given(
        n_min=st.integers(1, 2**62) | st.integers(2**62 - 2**40, 2**62),
        span=st.integers(0, 2**62) | st.integers(0, 2**12),
        points=st.integers(2, 50),
        spacing=st.sampled_from(["log", "lin"]),
    )
    def test_every_grid_runs_from_its_ends_strictly_up(self, n_min, span, points, spacing):
        n_max = min(n_min + span, 2**62)
        try:
            grid = cli._parse_grid("grid", f"{n_min}:{n_max}:{points}:{spacing}")
        except ConfigError as exc:
            assert "duplicate points" in str(exc)
            return
        assert (grid[0], grid[-1], len(grid)) == (n_min, n_max, points)
        assert all(type(n) is int for n in grid)
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_missing_grid_or_baseline_constant(self, capsys):
        rc, _, err = run_cli(capsys, "sweep", "--c-mh", "1")
        assert rc == 2 and "--grid" in err
        rc, _, err = run_cli(capsys, "sweep", "--grid", "16:1024:4:log")
        assert rc == 2 and "--c-mh" in err

    @pytest.mark.parametrize(
        "grid",
        [
            "16:1024:zz:log",
            "16:1024:4",
            "1024:16:4:log",
            "16:1024:0:log",
            "16:17:5:log",
            "16:1024:4:geo",
            "0:1024:4:log",
            "5:5:2:lin",
            "16:9223372036854775808:4:log",
        ],
    )
    def test_bad_grids_are_config_errors(self, capsys, grid):
        rc, _, err = run_cli(capsys, "sweep", "--grid", grid, "--c-mh", "1")
        assert rc == 2
        assert "config error" in err


class TestVerify:
    def test_passes_and_prints_per_suite_lines(self, capsys):
        rc, out, err = run_cli(capsys, "verify")
        assert rc == 0 and err == ""
        assert out.count("PASS") == 6  # five suites plus the overall verdict
        assert "FAIL" not in out
        worst = float(re.search(r"worst_rel_err_overall=(\S+)", out).group(1))
        assert worst <= 1e-9
        assert out.strip().endswith("verify: PASS")

    def test_deterministic_output(self, capsys):
        rc1, out1, _ = run_cli(capsys, "verify")
        rc2, out2, _ = run_cli(capsys, "verify")
        assert (rc1, out1) == (rc2, out2)

    def test_other_seeds_and_rates_still_pass(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--seed", "1", "--rate-q", "2")
        assert rc == 0
        assert out.strip().endswith("verify: PASS")

    def test_nan_suite_error_fails_verify(self, capsys, monkeypatch):
        # no real suite returns NaN (_rel_err refuses non-finite operands), so
        # the overall worst is a plain max; the NaN suite still fails verify
        results = [
            SuiteResult("low", True, 1e-16, 3, 1e-9),
            SuiteResult("broken", False, math.nan, 3, 1e-9),
            SuiteResult("high", True, 1e-15, 3, 1e-9),
        ]
        # verify imports run_all from selfcheck when it runs, so patch it there
        monkeypatch.setattr(selfcheck, "run_all", lambda params, seed=0: results)
        rc, out, _ = run_cli(capsys, "verify")
        assert "suite broken: FAIL cases=3 worst_rel_err=nan tol=1e-09" in out.splitlines()
        assert out.endswith("verify: FAIL\n")
        assert rc == 1

    def test_a_suites_row_is_its_own_line_in_table_order(self, capsys, monkeypatch):
        def extra(params, seed):
            return [1e-13, 2e-13]

        monkeypatch.setattr(selfcheck, "SUITES", (*selfcheck.SUITES, (extra, 1e-12)))
        rc, out, _ = run_cli(capsys, "verify")
        names = [line.split(":")[0].removeprefix("suite ") for line in out.splitlines()[:-2]]
        assert names == [suite.__name__ for suite, _ in selfcheck.SUITES]
        assert names[-1] == "extra"
        assert "suite extra: PASS cases=2 worst_rel_err=2e-13 tol=1e-12" in out.splitlines()
        assert rc == 0


class TestTradeoff:
    ARGS = (
        "tradeoff", "--n", "200", "--area", "100", "--alpha", "4",
        "--candidate", "1:1:1", "--candidate", "2:1:1", "--candidate", "1:1:0.2",
    )

    def test_ranked_text_output(self, capsys):
        rc, out, err = run_cli(capsys, *self.ARGS)
        assert rc == 0 and err == ""
        lines = out.strip().splitlines()
        assert lines[0].startswith("1. c0=2 R=1 Q=1 value=")
        assert lines[1].startswith("2. c0=1 R=1 Q=1 value=")
        assert lines[2].startswith("3. c0=1 R=1 Q=0.2 error: Q/R must exceed 0.25")
        assert "area_factor=0.04" in lines[0]
        assert "area_factor=0.02" in lines[1]

    def test_jsonl_ranks_values_and_nulls(self, capsys):
        rc, out, _ = run_cli(capsys, *self.ARGS, "--format", "jsonl")
        assert rc == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["rank"] for r in records] == [1, 2, 3]
        assert records[0]["value"] == pytest.approx(2.0 * records[1]["value"], rel=1e-12)
        assert records[2]["value"] is None
        assert records[2]["area_factor"] is None
        assert "0.25" in records[2]["error"]

    def test_all_candidates_failing_sets_exit_code_3(self, capsys):
        rc, _, err = run_cli(
            capsys, "tradeoff", "--n", "200", "--candidate=-1:1:1"
        )
        assert rc == 3
        assert "tradeoff: every candidate failed" in err

    def test_help_names_the_equals_form_for_a_leading_dash(self, capsys):
        rc, out, _ = run_cli(capsys, "tradeoff", "--help")
        assert rc == 0
        assert "a value that starts with '-' needs --candidate=C0:R:Q" in " ".join(out.split())

    def test_leading_dash_without_the_equals_form_is_a_usage_error(self, capsys):
        # argparse reads -1:1:1 as a flag; the equals form reaches the ranking
        rc, out, err = run_cli(capsys, "tradeoff", "--n", "200", "--candidate", "-1:1:1")
        assert (rc, out) == (2, "")
        assert err.splitlines()[-1] == (
            "hiercoop tradeoff: error: argument --candidate: expected one argument"
        )
        assert "Traceback" not in err

    def test_candidates_are_required(self, capsys):
        rc, _, err = run_cli(capsys, "tradeoff", "--n", "200")
        assert rc == 2
        assert "--candidate" in err

    def test_an_empty_candidate_list_is_the_missing_candidates_error(self, capsys):
        rc, out, err = run_cli(capsys, "tradeoff", "--n", "200", "--candidate", ",")
        assert (rc, out) == (2, "")
        assert err == (
            "config error: tradeoff needs candidates; pass --candidate C0:R:Q "
            "(repeatable) or a [tradeoff] candidates line in the config file\n"
        )

    def test_csv_is_refused(self, capsys):
        rc, _, err = run_cli(capsys, *self.ARGS, "--format", "csv")
        assert rc == 2
        assert "config error" in err

    def test_text_format_is_the_default_spelled_out(self, capsys):
        plain = run_cli(capsys, *self.ARGS)
        assert plain[0] == 0
        assert run_cli(capsys, *self.ARGS, "--format", "text") == plain

    def test_reused_parser_keeps_no_flag_value_between_calls(self, capsys):
        parser, commands = cli._build_parser()
        assert cli._build_parser()[0] is parser
        assert cli._build_parser()[1]["tradeoff"] is commands["tradeoff"]
        rc, _, err = run_cli(capsys, "tradeoff", "--candidate", "2:1:1", "--candidate", "1:1:1")
        assert rc == 2 and "tradeoff needs a network size" in err
        rc, _, err = run_cli(capsys, "tradeoff", "--n", "200")
        assert rc == 2 and "tradeoff needs candidates" in err


class TestConfigFile:
    def test_file_supplies_defaults_flags_override(self, capsys, tmp_path):
        ini = tmp_path / "net.ini"
        ini.write_text("[params]\nrate-q = 24\n\n[network]\nn = 20000\n")
        rc, out, _ = run_cli(capsys, "analyze", "--config", str(ini))
        assert rc == 0
        assert as_dict(out)["T1_int"] == "5"
        rc, out, _ = run_cli(
            capsys, "analyze", "--config", str(ini), "--rate-q", "1", "--n", "131072"
        )
        assert rc == 0
        got = as_dict(out)
        assert got["T1_int"] == "85.3333333333"  # flags beat the file
        assert got["n"] == "131072"

    def test_sweep_options_from_file_sections(self, capsys, tmp_path):
        ini = tmp_path / "sweep.ini"
        ini.write_text(
            "[sweep]\ngrid = 1024:1048576:3:log\n\n[options]\nc-mh = 1\n"
        )
        rc, out, _ = run_cli(capsys, "sweep", "--config", str(ini))
        assert rc == 0
        assert len(out.strip().splitlines()) == 4

    def test_candidates_from_file(self, capsys, tmp_path):
        ini = tmp_path / "cand.ini"
        ini.write_text(
            "[network]\nn = 200\narea = 100\nalpha = 4\n\n"
            "[tradeoff]\ncandidates = 1:1:1, 2:1:1\n"
        )
        rc, out, _ = run_cli(capsys, "tradeoff", "--config", str(ini))
        assert rc == 0
        assert out.startswith("1. c0=2")

    def test_unknown_key_is_rejected(self, capsys, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[network]\nbogus = 1\n")
        rc, _, err = run_cli(capsys, "analyze", "--config", str(ini), "--n", "1024")
        assert rc == 2
        assert "bogus" in err

    def test_unknown_section_is_rejected(self, capsys, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[misc]\nn = 1024\n")
        rc, _, err = run_cli(capsys, "analyze", "--config", str(ini), "--n", "1024")
        assert rc == 2
        assert "unknown config section" in err

    def test_missing_file_is_a_config_error(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "analyze", "--config", str(tmp_path / "nope.ini"), "--n", "1024"
        )
        assert rc == 2
        assert "cannot read config file" in err

    def test_malformed_file_is_a_config_error(self, capsys, tmp_path):
        ini = tmp_path / "mangled.ini"
        ini.write_text("not an ini\n")
        rc, _, err = run_cli(capsys, "analyze", "--config", str(ini), "--n", "1024")
        assert rc == 2
        assert "malformed config file" in err

    def test_non_utf8_file_is_a_config_error(self, capsys, tmp_path):
        ini = tmp_path / "utf16.ini"
        ini.write_bytes(b"\xff\xfe[params]\n")
        rc, _, err = run_cli(capsys, "analyze", "--n", "1024", "--config", str(ini))
        assert rc == 2
        assert err.startswith(f"config error: config file {ini} is not UTF-8 text")

    @pytest.mark.parametrize("raw", ["1%", "%(x)s"])
    def test_percent_signs_are_literal_text(self, capsys, tmp_path, raw):
        # no interpolation: the value is the text itself, which is no number
        ini = tmp_path / "percent.ini"
        ini.write_text(f"[params]\nrate-r = {raw}\n")
        rc, _, err = run_cli(capsys, "analyze", "--n", "1024", "--config", str(ini))
        assert rc == 2
        assert err == f"config error: rate-r: expected a number, got {raw!r}\n"

    @settings(max_examples=200)
    @given(
        data=st.one_of(
            st.binary(max_size=64),
            st.lists(
                st.one_of(
                    st.sampled_from([
                        b"[params]\n", b"[network]\n", b"[options]\n", b"[DEFAULT]\n",
                        b"rate-r", b"rate-q", b"n", b"area", b"h-max", b"format",
                        b" = ", b":", b"%", b"%(n)s", b"\n", b"\r\n", b"\t", b"1e308",
                        b"2", b"-1", b"\xff", b"\xc3\xa9", b"\x00",
                    ]),
                    st.binary(max_size=4),
                ),
                max_size=24,
            ).map(b"".join),
        )
    )
    @example(data=b"\xff\xfe[params]\n")
    @example(data=b"[params]\nrate-r = %(x)s\n")
    def test_any_bytes_as_the_file_give_an_answer_or_a_typed_error(self, tmp_path_factory, data):
        ini = tmp_path_factory.getbasetemp() / "arbitrary.ini"
        ini.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["analyze", "--n", "1000", "--config", str(ini)])
        assert rc in (0, 2, 3)


class TestExitCodes:
    def test_undersized_network_is_a_config_error(self, capsys):
        rc, _, err = run_cli(capsys, "analyze", "--n", "3")
        assert rc == 2
        assert "n must be an integer >= 4" in err

    def test_rate_ratio_under_the_floor_is_a_domain_error(self, capsys):
        rc, _, err = run_cli(capsys, "analyze", "--n", "1024", "--rate-q", "0.2")
        assert rc == 3
        assert err.startswith("error: ")
        assert "Q/R" in err

    def test_underflowed_three_phase_throughput_is_a_domain_error(self, capsys):
        n = "4611686018427387904"
        tiny = ("--rate-r", "5e-324", "--rate-q", "5e-324")
        rc, out, err = run_cli(capsys, "analyze", "--n", n, *tiny)
        assert (rc, out) == (3, "")
        assert err == f"error: three-phase throughput underflows to 0 at n={n}\n"
        rc, out, err = run_cli(capsys, "sweep", "--grid", f"4:{n}:5:log", "--c-mh", "1", *tiny)
        assert rc == 3
        assert out.splitlines()[-1].endswith(f"three-phase throughput underflows to 0 at n={n}")
        assert err == "sweep: every grid point failed\n"

    def test_analyze_needs_a_size(self, capsys):
        rc, _, err = run_cli(capsys, "analyze")
        assert rc == 2
        assert "--n" in err

    def test_nonfinite_flag_is_rejected(self, capsys):
        rc, _, err = run_cli(capsys, "analyze", "--n", "1024", "--rate-q", "inf")
        assert rc == 2
        assert "finite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--n", "1000", "--area", "1e300"),
            ("analyze", "--n", "1000", "--alpha", "1e308", "--area", "2"),
            ("analyze", "--n", "1000", "--rate-r", "1e308", "--rate-q", "1e308"),
            ("analyze", "--n", "1000", "--c-mh", "1e308"),
            ("analyze", "--n", "1000", "--c-mh", "1e308", "--format", "jsonl"),
            ("tradeoff", "--n", "1000", "--area", "1e300", "--candidate", "1:1:1"),
            ("tradeoff", "--n", "1000000", "--candidate", "1:1e308:1e308"),
            ("verify", "--rate-q", "1e100"),
        ],
    )
    def test_overflowing_inputs_are_domain_errors(self, capsys, argv):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 3
        assert "inf" not in out
        assert "error: " in out + err  # tradeoff ranks a failed candidate on stdout
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--n", "1000"),
            ("sweep", "--grid", "4:64:3:log", "--c-mh", "1"),
            ("tradeoff", "--n", "1000", "--candidate", "1:1:1"),
        ],
        ids=["analyze", "sweep", "tradeoff"],
    )
    def test_overflowing_area_is_refused_once_by_every_command(self, capsys, argv):
        # no row or candidate can use the geometry: its owner's message, once
        rc, out, err = run_cli(capsys, *argv, "--area", "1e300", "--alpha", "4")
        assert (rc, out, err) == (
            3, "", "error: area**(alpha/2) overflows at area=1e+300, alpha=4\n"
        )

    @pytest.mark.parametrize("fmt", ["text", "jsonl"])
    def test_overflowing_threshold_alone_is_reported_missing(self, capsys, fmt):
        # c0*n overflows, so only the auxiliary margin is not finite
        extra = ("--format", "jsonl") if fmt == "jsonl" else ()
        rc, out, err = run_cli(capsys, "analyze", "--n", "1000", "--c0", "1e308", *extra)
        assert rc == 0 and err == ""
        got = json.loads(out) if fmt == "jsonl" else as_dict(out)
        assert got["threshold"] == (None if fmt == "jsonl" else "none")
        assert got["regime"] == "dense"
        assert got["h_int"] in (2, "2")

    def test_overflowing_verify_suite_is_named(self, capsys):
        rc, out, err = run_cli(capsys, "verify", "--rate-q", "1e100")
        assert rc == 3 and out == ""
        assert err == (
            "error: suite recursion_vs_closed_form overflowed at R=1, Q=1e+100: "
            "slot count leaves float range at layer 5 of 6\n"
        )

    @pytest.mark.parametrize(
        "rate, suite",
        [("1e-300", "recursion_vs_closed_form"), ("1e300", "bound_checks")],
    )
    def test_extreme_rate_scale_overflow_is_named_not_failed(self, capsys, rate, suite):
        # a valid rate pair whose suite arithmetic leaves float range: exit 3, not 1
        rc, out, err = run_cli(capsys, "verify", "--rate-r", rate, "--rate-q", rate)
        assert rc == 3 and out == ""
        pair = f"R={float(rate):g}, Q={float(rate):g}"
        assert err.startswith(f"error: suite {suite} overflowed at {pair}: ")

    @settings(max_examples=60, deadline=None)
    @given(
        R=st.floats(-307.0, 307.0).map(lambda e: 10.0**e),
        ratio=st.floats(0.26, 1000.0),
    )
    @example(R=1e-300, ratio=1.0)
    @example(R=1e300, ratio=1.0)
    def test_valid_rate_pairs_never_fail_verify(self, R, ratio):
        # exit 1 means a wrong identity; overflow is 3, a Q past float range 2
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["verify", f"--rate-r={R!r}", f"--rate-q={R * ratio!r}"])
        assert rc in (0, 2, 3), out.getvalue()

    def test_large_rate_ratio_verifies_on_shifted_grids(self, capsys):
        # depth 2 needs n >= 8*(1 + 1e10); the n grids start there
        rc, out, _ = run_cli(capsys, "verify", "--rate-q", "1e10")
        assert rc == 0 and out.endswith("verify: PASS\n")
        assert "cases=0 " not in out

    def test_rate_ratio_beyond_every_size_is_infeasible(self, capsys):
        # depth 2 would need n >= 8e20 > 2**62: nothing to check is exit 3, not 1
        rc, out, err = run_cli(capsys, "verify", "--rate-q", "1e20")
        assert rc == 3 and out == ""
        assert err.startswith("error: suite phase_balance has no case at R=1, Q=1e+20: ")

    @pytest.mark.parametrize("cmd", ["analyze", "tradeoff"])
    def test_area_too_small_for_a_float_is_dense(self, capsys, cmd):
        extra = ("--candidate", "1:1:1") if cmd == "tradeoff" else ()
        rc, out, err = run_cli(capsys, cmd, "--n", "1000", "--area", "1e-300", *extra)
        assert rc == 0 and err == ""
        assert "area_factor = 1\n" in out or "area_factor=1\n" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--n", "1000", "--h-max", "-5"),
            ("analyze", "--n", "1000", "--h-max", "65"),
            ("analyze", "--n", str(10**26)),
            ("analyze", "--n", str(2**62 + 1)),
            ("tradeoff", "--n", str(2**62 + 1), "--candidate", "1:1:1"),
            ("sweep", "--grid", "4:4611686018427387904:100000000:lin", "--c-mh", "1"),
        ],
    )
    def test_out_of_range_values_are_config_errors(self, capsys, argv):
        rc, _, err = run_cli(capsys, *argv)
        assert rc == 2
        assert err.startswith("config error: ")

    def test_largest_network_size_is_accepted(self, capsys):
        rc, out, _ = run_cli(capsys, "analyze", "--n", str(2**62))
        assert rc == 0
        assert as_dict(out)["n"] == str(2**62)

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--grid", "1024:1048576:3:log", "--c-mh", "1", "--h-max", "2"),
            ("verify", "--format", "jsonl"),
            ("verify", "--n", "1024"),
            ("tradeoff", "--n", "200", "--candidate", "1:1:1", "--c0", "2"),
            ("analyze", "--n", "1024", "--seed", "1"),
        ],
    )
    def test_flag_the_subcommand_does_not_read(self, capsys, argv):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2 and out == ""
        assert "unrecognized arguments" in err

    def test_shared_config_file_may_carry_unread_keys(self, capsys, tmp_path):
        ini = tmp_path / "shared.ini"
        ini.write_text(
            "[network]\nn = 1024\n\n[sweep]\ngrid = 1024:4096:3:log\n\n"
            "[options]\nh-max = 2\nseed = 1\nc-mh = 1\nformat = jsonl\n"
        )
        rc, out, _ = run_cli(capsys, "verify", "--config", str(ini))
        assert rc == 0 and out.strip().endswith("verify: PASS")
        rc, out, _ = run_cli(capsys, "sweep", "--config", str(ini))
        assert rc == 0 and [json.loads(line)["n"] for line in out.splitlines()] == [
            1024, 2048, 4096
        ]
        rc, out, _ = run_cli(capsys, "analyze", "--config", str(ini))
        assert rc == 0 and json.loads(out)["h_int"] == 2

    def test_text_is_a_format_but_not_sweeps(self, capsys, tmp_path):
        rc, out, err = run_cli(
            capsys, "sweep", "--grid", "16:1024:5:log", "--c-mh", "1", "--format", "text"
        )
        assert rc == 2 and out == ""
        assert err == "config error: sweep prints csv or jsonl, not text\n"
        rc, _, err = run_cli(capsys, "analyze", "--n", "1000", "--format", "xml")
        assert rc == 2
        assert err == "config error: format: expected csv, jsonl or text, got 'xml'\n"
        # verify does not read format, so a shared file's text is no error for it
        ini = tmp_path / "shared.ini"
        ini.write_text("[options]\nformat = text\n")
        rc, out, _ = run_cli(capsys, "verify", "--config", str(ini))
        assert rc == 0 and out.endswith("verify: PASS\n")

    def test_unknown_flag(self, capsys):
        rc, _, _ = run_cli(capsys, "analyze", "--n", "1024", "--frobnicate")
        assert rc == 2

    def test_no_subcommand(self, capsys):
        rc, _, _ = run_cli(capsys)
        assert rc == 2


class TestSubprocessSmoke:
    def test_package_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hiercoop", "analyze", "--n", "1024"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert "T1_smooth = " in proc.stdout

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hiercoop.cli", "verify", "--rate-q", "2"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().endswith("verify: PASS")

    def test_verify_loads_only_the_standard_library(self):
        # the runtime stays stdlib-only; test-only mpmath must not leak in
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "from hiercoop.cli import main\n"
            "rc = main(['verify'])\n"
            "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print(sorted(loaded - set(sys.stdlib_module_names) - {'hiercoop'}))\n"
            "sys.exit(rc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_a_reader_that_stops_early_gets_exit_141_and_no_traceback(self):
        # the sweep prints far more than a pipe buffer holds, so closing the
        # read end after one line makes its next write fail
        proc = subprocess.Popen(
            [sys.executable, "-m", "hiercoop", "sweep",
             "--grid", "1024:4611686018427387904:2000:log", "--c-mh", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline().startswith(b"n,T1_smooth,")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert err == b""

    def test_a_closed_pipe_on_a_short_output_exits_141_quietly(self):
        # analyze prints less than a pipe buffer holds, so with buffered stdout
        # nothing is written until main flushes; that flush meets the closed pipe
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "hiercoop", "analyze", "--n", "1024"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == b""



_NUMBERS = st.one_of(
    st.just(0),
    st.floats(1e-308, 1e308),
    st.floats(-1e308, -1e-308),
    st.integers(-(2**70), 2**70),
).map(str)
_INTS = st.integers(-(2**70), 2**70).map(str)
_VALUES = {
    cli._parse_int: _INTS,
    cli._parse_n: _INTS,
    cli._parse_depth: _INTS,
    cli._parse_format: st.sampled_from(["text", "csv", "jsonl"]),
    cli._parse_grid: st.tuples(_INTS, _INTS, _INTS, st.sampled_from(["log", "lin"])).map(
        ":".join
    ),
    cli._parse_candidates: st.tuples(_NUMBERS, _NUMBERS, _NUMBERS).map(":".join),
}


@st.composite
def _argv(draw, command):
    """The subcommand plus a random subset of its flags, each with a random value."""
    argv = [command]
    for name, opt in cli._OPTIONS.items():
        if command not in opt.commands or not draw(st.booleans()):
            continue
        values = _VALUES.get(opt.parse, _NUMBERS)
        repeats = draw(st.integers(1, 3)) if opt.flag else 1
        argv += [f"--{opt.flag or name}={draw(values)}" for _ in range(repeats)]
    return argv


#: Runs at the two edges of the domain that derive builds, with their stdout:
#: Q/R = 0.25 + 2**-54, where beta1 is exactly 1 and c = 1 + 2**-52, and
#: Q/R = 1e308, where c is inf. SchemeParams admits both.
DOMAIN_EDGE_RUNS = [
    (
        ["analyze", "--n", "1024", "--rate-q", "0.25000000000000006"],
        0,
        "n = 1024\nR = 1\nQ = 0.25\nbeta1 = 1\nbeta = 2.2360679775\nc = 1\n"
        "regime = dense\narea_factor = 1\nthreshold = 1023\nh_exact = 4.62888671261\n"
        "h_approx = 237043947.22\nh_int = 5\nM1_int = 81.146531454\nT1_int = 8.1146531454\n"
        "P1 = 6553.6\nP2 = 2048\nP3 = 1638.4\nT1_smooth = 4.31987386755e-07\n"
        "T1_area = 4.31987386755e-07\nper_pair = 4.21862682378e-10\n"
        "h_orig = 2.78427334242\nT_orig = 4.65499848089\nratio = 9.28007578366e-08\n",
    ),
    (
        ["sweep", "--grid", "4:1000000:4:log", "--c-mh", "1", "--rate-q", "1e308"],
        0,
        "n,T1_smooth,T1_int,T_orig,multihop,ratio,ratio_log_adj,per_pair,area_factor,error\n"
        "4,2.1193559184e+142,,2.1193559184e+142,2,1,1.66096404744,5.29838979599e+141,1,\n"
        "252,2.13537466944e+121,,2.13537466944e+121,15.8745078664,1,0.416423659035,"
        "8.4737090057e+118,1,\n"
        "15874,8.69668420275e+109,,8.69668420275e+109,125.992063242,1,0.238056334251,"
        "5.47857137631e+105,1,\n"
        "1000000,2.56082432608e+101,,2.56082432608e+101,1000,1,0.166666666667,"
        "2.56082432608e+95,1,\n",
    ),
    (
        ["tradeoff", "--n", "1000", "--candidate", "1:1:1e308", "--candidate", "1:1:1"],
        0,
        "1. c0=1 R=1 Q=1e+308 value=1.15926689887e+117 area_factor=1\n"
        "2. c0=1 R=1 Q=1 value=3.31487451833 area_factor=1\n",
    ),
    (["analyze", "--n", "1000", "--rate-q", "1e308"], 3, ""),
]


class TestDomainEdges:
    @pytest.mark.parametrize(
        "argv,rc,out", DOMAIN_EDGE_RUNS, ids=["beta1-one", "c-inf-sweep", "c-inf-tradeoff", "c-inf"]
    )
    def test_edge_of_the_domain_keeps_its_output(self, capsys, argv, rc, out):
        got_rc, got_out, err = run_cli(capsys, *argv)
        assert (got_rc, got_out) == (rc, out)
        assert err == ("error: c is not finite: inf\n" if rc else "")


class TestTotality:
    @settings(max_examples=400)
    @given(argv=st.sampled_from(["analyze", "sweep", "verify", "tradeoff"]).flatmap(_argv))
    @example(argv=["analyze", "--n=1000", "--area=1e-300"])
    @example(argv=["tradeoff", "--n=1000", "--area=1e300", "--candidate=1:1:1"])
    @example(argv=["analyze", "--n=1000", "--rate-r=1e308", "--rate-q=1e308"])
    @example(argv=["analyze", "--n=1000", "--c-mh=1e308", "--format=jsonl"])
    @example(argv=["verify", "--rate-q=1e100"])
    @example(argv=["analyze", "--n=1000", "--c0=1e308"])
    @example(argv=["analyze", "--n=1000", "--rate-q=4.49e307"])
    @example(argv=["analyze", "--n=4611686018427387904", "--rate-r=5e-324", "--rate-q=5e-324"])
    @example(
        argv=["sweep", "--grid=4:4611686018427387904:5:log", "--c-mh=1",
              "--rate-r=5e-324", "--rate-q=5e-324"]
    )
    def test_every_argv_gives_an_answer_or_a_typed_error(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in ({0, 1, 2, 3} if argv[0] == "verify" else {0, 2, 3})
        if "--format=jsonl" in argv:
            for line in out.getvalue().splitlines():
                json.loads(line)


#: A value each flag accepts, small enough that a sweep stays cheap; a flag
#: missing here gets "1". No good --config exists, so it names a missing file.
_GOOD = {
    "--rate-q": "2", "--n": "1024", "--grid": "16:1024:3:log", "--h-max": "4",
    "--format": "jsonl", "--candidate": "2:1:1", "--config": "no-such-file.ini",
}
_FLAGS = ["--config", *(f"--{opt.flag or name}" for name, opt in cli._OPTIONS.items())]
#: Values that some or all flags refuse, in argparse or after it.
_BAD = ["-3", "x", "inf", "", "1e400", "-1:1:1", "4:64:0:log"]
#: Words that are no flag's value: the separator, help, unknown, ambiguous and
#: abbreviated flags, subcommand names out of place, stray positionals.
_JUNK = [
    "--", "-h", "--help", "--bogus", "--rate", "--conf", "--c", "-", "-x", "x", "--=1",
    "analyze", "verify",
]


@st.composite
def _words(draw):
    """A flag alone, with a good or bad value spaced or joined by '=', or a junk word."""
    kind = draw(st.sampled_from(["alone", "spaced", "joined", "junk"]))
    if kind == "junk":
        return [draw(st.sampled_from(_JUNK))]
    flag = draw(st.sampled_from(_FLAGS))
    value = draw(st.sampled_from([_GOOD.get(flag, "1"), *_BAD]))
    return {"alone": [flag], "spaced": [flag, value], "joined": [f"{flag}={value}"]}[kind]


@st.composite
def _command_lines(draw):
    """Mostly a subcommand and then words; one line in five starts with a word."""
    head = draw(st.sampled_from([*cli._COMMANDS, None]))
    words = [w for group in draw(st.lists(_words(), max_size=6)) for w in group]
    return ([head] if head else []) + words


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def _root_parse(argv):
    # the reference route: the root parser scans argv, then hands the words
    # after the subcommand to that subcommand's parser
    return cli._build_parser()[0].parse_args(argv)


class TestParseOnce:
    @settings(max_examples=300, deadline=None)
    @given(argv=_command_lines())
    @example(argv=["analyze", "--n", "1024", "--bogus"])
    @example(argv=["analyze", "--n", "1024", "stray"])
    @example(argv=["analyze", "--n"])
    @example(argv=["tradeoff", "--n", "200", "--candidate", "-1:1:1"])
    @example(argv=["frobnicate", "--n", "1024"])
    @example(argv=[])
    @example(argv=["-h"])
    @example(argv=["analyze", "-h"])
    @example(argv=["analyze", "--n", "1024", "--rate", "2"])
    @example(argv=["analyze", "--n=1024"])
    @example(argv=["analyze", "--n", "1024", "--", "--rate-q", "2"])
    @example(argv=["sweep", "--", "--grid", "16:1024:3:log", "--c-mh", "1"])
    @example(argv=["analyze", "--n", "1024", "--n", "2048"])
    @example(argv=["verify", "--n", "1024"])
    @example(argv=["--", "analyze", "--n", "1024"])
    @example(argv=["analyze", "--n", "1024", "--conf", "no-such-file.ini"])
    @example(argv=["analyze", "--n", "1024", "--rate-q", "-3"])
    def test_subcommand_parse_matches_the_root_parse(self, argv):
        # exit code, stdout and stderr, usage and error texts included
        got = _outcome(argv)
        with mock.patch.object(cli, "_parse", _root_parse):
            assert got == _outcome(argv)

    @pytest.mark.parametrize(
        "argv, parser",
        [
            (["analyze", "--n", "131072"], "hiercoop analyze"),
            (["analyze", "--n", "20000", "--rate-q", "24", "--format", "jsonl"],
             "hiercoop analyze"),
            (["tradeoff", "--n", "200", "--candidate", "2:1:1"], "hiercoop tradeoff"),
            (["sweep", "--grid", "16:1024:3:log", "--c-mh", "1"], "hiercoop sweep"),
            (["verify"], "hiercoop verify"),
            (["analyze", "--bogus"], "hiercoop analyze"),
            (["-h"], None),
            (["frobnicate"], None),
        ],
        ids=["analyze", "analyze-jsonl", "tradeoff", "sweep", "verify", "leftover", "help",
             "unknown-command"],
    )
    def test_a_subcommand_line_is_parsed_once(self, capsys, monkeypatch, argv, parser):
        # the root route scans argv, then hands it on to a second scan
        seen = []
        scan = argparse.ArgumentParser.parse_known_args

        def counted(self, *args, **kwargs):
            seen.append(self.prog)
            return scan(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        run_cli(capsys, *argv)
        assert seen == ([parser] if parser else ["hiercoop"])
        seen.clear()
        with mock.patch.object(cli, "_parse", _root_parse):
            run_cli(capsys, *argv)
        assert seen == (["hiercoop", parser] if parser else ["hiercoop"])

    def test_leftover_words_get_the_root_parsers_error(self, capsys):
        rc, out, err = run_cli(capsys, "analyze", "--n", "1024", "--bogus", "x")
        assert (rc, out) == (2, "")
        assert err.splitlines()[0].startswith("usage: hiercoop [-h]")
        assert err.splitlines()[-1] == "hiercoop: error: unrecognized arguments: --bogus x"
