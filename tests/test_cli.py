"""Command-line surface: pipelines, exit codes, determinism."""
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import bellkit
from bellkit import cli, lhv, pvalues
from bellkit.heralding import WindowConfig
from bellkit.trials import read_trials
from oracles import message_to_bit


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestAnalyze:
    def test_all_win_file(self, capsys, tmp_path):
        trials_file = str(tmp_path / "ref.jsonl")
        run_json(
            capsys,
            "simulate-reference",
            "--win-prob-minus",
            "1.0",
            "--attempts",
            "64",
            "--seed",
            "3",
            "--trials-out",
            trials_file,
        )
        report = run_json(capsys, "analyze", trials_file)
        assert report["s_weighted"] == 4.0
        assert report["p_complete"] == pytest.approx(0.75**64, rel=1e-9, abs=0)
        assert report["p_conventional"] is None  # sigma is zero here
        assert report["version"] and report["config_hash"]

    def test_identity_on_balanced_synthetic_data(self, capsys, tmp_path):
        # Exactly equal setting counts in one state: S = 8 k / n - 4.
        trials_file = tmp_path / "balanced.jsonl"
        rows = []
        index = 1
        outcomes = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        for round_idx in range(8):
            for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
                oa, ob = outcomes[(round_idx + a + 2 * b) % 4]
                rows.append(
                    {"index": index, "tag": -1, "setting_a": a, "setting_b": b, "outcome_a": oa, "outcome_b": ob}
                )
                index += 1
        trials_file.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        report = run_json(capsys, "analyze", str(trials_file))
        assert report["s_weighted"] == pytest.approx(8 * report["k"] / report["n"] - 4, abs=1e-12)

    def test_empty_file_is_error(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        code, _, err = run(capsys, "analyze", str(empty))
        assert code == 1 and "no trials" in err

    def test_malformed_line_reports_line_number(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"index": 1, "tag": 5, "setting_a": 0, "setting_b": 0, "outcome_a": 1, "outcome_b": 1}\n')
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 1 and "line 1" in err

    def test_repeated_index_names_file_and_line(self, capsys, tmp_path):
        bad = tmp_path / "repeated.jsonl"
        record = '{"index": 1, "tag": -1, "setting_a": 0, "setting_b": 0, "outcome_a": 1, "outcome_b": 1}\n'
        bad.write_text(record * 2, encoding="utf-8")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 1
        assert f"{bad}: line 2: trial indices must be strictly increasing, got 1 after 1" in err

    def test_missing_file_is_io_error(self, capsys):
        code, _, err = run(capsys, "analyze", "/nonexistent/trials.jsonl")
        assert code == 2


class TestCombine:
    def test_merge_reference_counts(self, capsys):
        report = run_json(capsys, "combine", "--mode", "merge", "--counts", "245:196,300:237")
        assert report["method"] == "merged"
        assert report["p"] == pytest.approx(8.0e-3, abs=1e-3)
        assert report["inputs"]["n"] == 545 and report["inputs"]["k"] == 433
        assert "note" in report

    def test_fisher_reference_pvalues(self, capsys):
        report = run_json(capsys, "combine", "--mode", "fisher", "--pvalues", "0.039,0.061")
        assert report["p"] == pytest.approx(0.017, abs=5e-4)

    def test_fisher_all_ones(self, capsys):
        report = run_json(capsys, "combine", "--mode", "fisher", "--pvalues", "1.0,1.0")
        assert report["p"] == 1.0

    def test_fisher_requires_two(self, capsys):
        code, _, err = run(capsys, "combine", "--mode", "fisher", "--pvalues", "0.05")
        assert code == 1

    def test_invalid_pvalue_domain(self, capsys):
        code, _, err = run(capsys, "combine", "--mode", "fisher", "--pvalues", "0.0,0.5")
        assert code == 1

    def test_unparsable_pvalue_names_the_option(self, capsys):
        code, _, err = run(capsys, "combine", "--mode", "fisher", "--pvalues", "0.1,abc")
        assert (code, err) == (1, "error: could not parse --pvalues: '0.1,abc'\n")

    def test_unparsable_count_names_the_option(self, capsys):
        code, _, err = run(capsys, "combine", "--mode", "merge", "--counts", "10:x")
        assert (code, err) == (1, "error: could not parse --counts: '10:x'\n")

    def test_merge_rejects_run_with_more_wins_than_trials(self, capsys):
        code, out, err = run(capsys, "combine", "--mode", "merge", "--counts", "10:8,5:7")
        assert (code, out, err) == (1, "", "error: --counts pair '5:7' needs n >= 1 and 0 <= k <= n\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--mode", "merge", "--counts", "10:5", "--pvalues", "0.1,0.2"), "--pvalues needs --mode fisher"),
            (("--mode", "fisher", "--pvalues", "0.1,0.2", "--counts", "10:5"), "--counts needs --mode merge"),
            (("--mode", "fisher", "--pvalues", "0.1,0.2", "--f", "0.01"), "--f needs --mode merge"),
            (("--mode", "fisher", "--pvalues", "0.1,0.2", "--tau", "0.1"), "--tau needs --mode merge"),
        ],
        ids=["merge-pvalues", "fisher-counts", "fisher-f", "fisher-tau"],
    )
    def test_option_of_the_other_mode_exits_one(self, capsys, argv, message):
        # An option that the chosen mode does not read would be silently ignored.
        code, out, err = run(capsys, "combine", *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_merge_rejects_negative_run(self, capsys):
        # The sums (5, 5) alone would pass; each run is checked on its own.
        code, out, err = run(capsys, "combine", "--mode", "merge", "--counts", "10:8,-5:-3")
        assert (code, out, err) == (1, "", "error: --counts pair '-5:-3' needs n >= 1 and 0 <= k <= n\n")


class TestRangeOptions:
    """Grids and errors of start:stop:step options (herald sweep --offsets, bound --tau-grid)."""

    @pytest.mark.parametrize(
        "text, grid",
        [("-800:0:400", [-800, -400, 0]), ("0:0:1", [0]), ("5:-5:-5", [5, 0, -5])],
    )
    def test_integer_grids(self, text, grid):
        assert cli._parse_range(text) == grid

    @pytest.mark.parametrize(
        "text, grid",
        [
            ("0:0.5:0.1", [0.0, 0.1, 0.2, 0.30000000000000004, 0.4, 0.5]),
            # 3 * 0.1 overshoots 0.3 by less than 1e-12 and is clamped to it.
            ("0:0.3:0.1", [0.0, 0.1, 0.2, 0.3]),
        ],
    )
    def test_float_grids(self, text, grid):
        assert cli._parse_float_range(text) == grid

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1:2", "expected start:stop:step, got '1:2'"),
            ("1:2:3:4", "expected start:stop:step, got '1:2:3:4'"),
            ("a:2:1", "expected integers in start:stop:step, got 'a:2:1'"),
            ("0:1:0.5", "expected integers in start:stop:step, got '0:1:0.5'"),
            ("0:1:0", "step must be nonzero"),
            ("5:0:1", "empty range '5:0:1'"),
            ("0:5:-1", "empty range '0:5:-1'"),
        ],
    )
    def test_integer_errors(self, text, message):
        with pytest.raises(cli.CliError) as caught:
            cli._parse_range(text)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1:2", "expected start:stop:step, got '1:2'"),
            ("1:2:3:4", "expected start:stop:step, got '1:2:3:4'"),
            ("0:1:x", "expected numbers in start:stop:step, got '0:1:x'"),
            ("0:1:nan", "expected finite numbers in start:stop:step, got '0:1:nan'"),
            ("0:inf:1", "expected finite numbers in start:stop:step, got '0:inf:1'"),
            ("0:1:0", "step must be positive"),
            ("0:1:-0.1", "step must be positive"),
            ("0:1:-inf", "step must be positive"),
            ("1:0:0.1", "empty range '1:0:0.1'"),
        ],
    )
    def test_float_errors(self, text, message):
        with pytest.raises(cli.CliError) as caught:
            cli._parse_float_range(text)
        assert str(caught.value) == message

    def test_errors_reach_the_command_line(self, capsys, tmp_path):
        code, _, err = run(capsys, "bound", "--n", "10", "--k", "5", "--tau-grid", "0:0.5:0")
        assert (code, err) == (1, "error: step must be positive\n")
        detections, attempts = tmp_path / "d.csv", tmp_path / "a.jsonl"
        detections.write_text("attempt_id,channel,time_ps\r\n0,0,5\r\n", newline="")
        attempts.write_text('{"attempt_id":0,"setting_a":0,"setting_b":0,"outcome_a":1,"outcome_b":1}\n')
        code, _, err = run(
            capsys, "herald", "sweep", "--detections", str(detections), "--attempts", str(attempts),
            "--offsets=5:0:1", "--sweep-out", str(tmp_path / "s.csv"),
        )
        assert (code, err) == (1, "error: empty range '5:0:1'\n")


class TestBound:
    def test_prints_both_forms(self, capsys):
        report = run_json(capsys, "bound", "--f", "0.001", "--tau", "0")
        assert report["beta_lemma"] > report["beta_expanded"]
        assert report["beta_lemma"] == pytest.approx(0.75 + 0.001 - 0.001**2, abs=1e-12)

    def test_zero_params(self, capsys):
        report = run_json(capsys, "bound", "--f", "0", "--tau", "0")
        assert report["beta_lemma"] == 0.75 and report["beta_expanded"] == 0.75

    def test_curve_file(self, capsys, tmp_path):
        curve_file = str(tmp_path / "curve.csv")
        report = run_json(
            capsys,
            "bound",
            "--f",
            "0",
            "--tau",
            "1e-4",
            "--n",
            "300",
            "--k",
            "237",
            "--tau-grid",
            "0:0.001:0.0005",
            "--curve-out",
            curve_file,
        )
        assert report["p_complete"] == pytest.approx(0.061, abs=0.004)
        lines = open(curve_file).read().strip().splitlines()
        assert lines[0] == "tau,p"
        ps = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(ps) == 3 and ps == sorted(ps)

    def test_beta_one_gives_p_one(self, capsys):
        # tau = 1/2 makes the lemma bound exactly 1: Pr[Bin(n, 1) >= k] = 1.
        report = run_json(capsys, "bound", "--tau", "0.5", "--n", "10", "--k", "5")
        assert (report["beta_lemma"], report["p_complete"]) == (1.0, 1.0)
        report = run_json(capsys, "bound", "--tau-grid", "0:0.5:0.25", "--n", "10", "--k", "5")
        assert [tau for tau, _ in report["curve"]] == [0.0, 0.25, 0.5]
        assert report["curve"][0][1] == report["p_complete"] < report["curve"][1][1] < 1.0
        assert report["curve"][2][1] == 1.0

    @pytest.mark.parametrize(
        "args, message",
        [
            (("--n", "300"), "--n needs --k"),
            (("--k", "237"), "--k needs --n"),
            (("--n", "300", "--tau-grid", "0:0.01:0.001"), "--n needs --k"),
            (("--tau-grid", "0:0.01:0.001"), "--tau-grid needs --n and --k"),
            (("--n", "300", "--k", "237", "--curve-out", "c.csv"), "--curve-out needs --tau-grid"),
            (("--curve-out", "c.csv"), "--curve-out needs --tau-grid"),
        ],
        ids=["n-without-k", "k-without-n", "grid-without-k", "grid-without-n-and-k", "curve-without-grid",
             "curve-alone"],
    )
    def test_option_without_the_options_it_needs_exits_one(self, capsys, tmp_path, monkeypatch, args, message):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "bound", *args)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize(
    "argv, n, k, beta_path",
    [
        (("analyze", "ref.jsonl"), 64, 64, ("beta",)),
        (("combine", "--mode", "merge", "--counts", "245:196,300:237"), 545, 433, ("inputs", "beta")),
        (("bound", "--n", "300", "--k", "237"), 300, 237, ("beta_lemma",)),
    ],
    ids=["analyze", "combine", "bound"],
)
def test_complete_pvalue_at_the_lemma_bound(capsys, tmp_path, monkeypatch, argv, n, k, beta_path):
    # At f = 0.05, tau = 0.01 the expanded form lies below the lemma bound;
    # every P-value is taken at the lemma bound.
    monkeypatch.chdir(tmp_path)
    run_json(capsys, "simulate-reference", "--win-prob-minus", "1.0", "--attempts", "64", "--trials-out", "ref.jsonl")
    report = run_json(capsys, *argv, "--f", "0.05", "--tau", "0.01")
    bias = pvalues.BiasParams(f=0.05, tau=0.01)
    beta = pvalues.beta_win_lemma(bias)
    assert beta > pvalues.beta_win_expanded(bias)
    reported = report
    for key in beta_path:
        reported = reported[key]
    assert reported == beta
    assert report.get("p_complete", report.get("p")) == pvalues.pvalue_complete(n, k, beta)


class TestSimulateAndAdversary:
    def test_simulate_writes_trials(self, capsys, tmp_path):
        trials_file = str(tmp_path / "lhv.jsonl")
        report = run_json(
            capsys,
            "simulate",
            "--strategy",
            "classical-optimal",
            "--attempts",
            "500",
            "--seed",
            "1",
            "--trials-out",
            trials_file,
        )
        assert report["heralded"] == 500
        ts = read_trials(trials_file)
        assert len(ts) == 500

    def test_adversary_report(self, capsys):
        report = run_json(
            capsys,
            "adversary",
            "--n",
            "50",
            "--runs",
            "200",
            "--alpha",
            "0.05",
            "--seed",
            "2",
            "--strategies",
            "classical-optimal",
        )
        assert report["runs"] == 200
        assert report["rejection_rate"] <= 0.05 + 3 * report["mc_error"] + 1e-9

    @pytest.mark.parametrize("alpha", ["1.5", "-0.2", "nan"])
    def test_adversary_alpha_outside_unit_interval_exits_one(self, capsys, alpha):
        code, out, err = run(capsys, "adversary", "--n", "10", "--runs", "4", "--alpha", alpha)
        assert (code, out) == (1, "")
        assert err == f"error: alpha must lie in [0, 1], got {float(alpha)}\n"

    def test_simulate_unknown_strategy_exits_one(self, capsys):
        # lhv.make_strategy checks the name for simulate as it does for adversary.
        code, out, err = run(capsys, "simulate", "--strategy", "bogus", "--attempts", "10")
        assert (code, out) == (1, "")
        assert err == f"error: unknown strategy 'bogus', expected one of {sorted(lhv.CATALOG)}\n"

    @pytest.mark.parametrize("strategies", ["", "coin-flip,"])
    def test_adversary_empty_strategy_name_exits_one(self, capsys, strategies):
        # An empty --strategies names one empty strategy; it does not fall back to the default catalog.
        code, out, err = run(capsys, "adversary", "--n", "10", "--runs", "4", "--strategies", strategies)
        assert (code, out) == (1, "")
        assert err.startswith("error: unknown strategy '', expected one of ['classical-optimal', ")

    def test_adversary_repeated_strategy_exits_one(self, capsys):
        code, out, err = run(
            capsys, "adversary", "--n", "20", "--runs", "12", "--strategies", "coin-flip,coin-flip,classical-optimal"
        )
        assert (code, out) == (1, "")
        assert err == "error: strategy 'coin-flip' is named more than once\n"

    def test_adversary_fewer_runs_than_strategies_exits_one(self, capsys):
        code, out, err = run(
            capsys, "adversary", "--n", "5", "--runs", "2", "--strategies", "coin-flip,classical-optimal,loss-switching"
        )
        assert (code, out) == (1, "")
        assert err == "error: runs must be at least the number of strategies, 3, got 2\n"

    def test_adversary_with_every_bit_early(self, capsys):
        # f = 1 makes the bound 1: every run wins every trial and none is rejected.
        report = run_json(capsys, "adversary", "--n", "10", "--runs", "4", "--f", "1.0")
        assert (report["beta"], report["runs"], report["rejection_rate"]) == (1.0, 4, 0.0)


class TestHerald:
    def test_synth_and_sweep_pipeline(self, capsys, tmp_path):
        detections = str(tmp_path / "d.csv")
        attempts = str(tmp_path / "a.jsonl")
        sweep_csv = str(tmp_path / "sweep.csv")
        run_json(
            capsys,
            "herald",
            "synth",
            "--attempts",
            "3000",
            "--seed",
            "5",
            "--entangle-prob",
            "0.5",
            "--decay-ps",
            "2500",
            "--detections-out",
            detections,
            "--attempts-out",
            attempts,
        )
        report = run_json(
            capsys,
            "herald",
            "sweep",
            "--detections",
            detections,
            "--attempts",
            attempts,
            "--offsets=-800:0:400",
            "--sweep-out",
            sweep_csv,
        )
        assert report["rows"] == 3
        lines = open(sweep_csv).read().strip().splitlines()
        assert lines[0] == "offset_ps,S,sigma,n,k,p_local"
        assert len(lines) == 4
        rows = [line.split(",") for line in lines[1:]]
        assert report["attempts"] == 3000
        assert [c["offset_ps"] for c in report["herald_counts"]] == [-800, -400, 0]
        for counts, row in zip(report["herald_counts"], rows):
            assert counts["heralded"] == int(row[3])
            parts = counts["heralded"] + counts["extra_click"] + counts["missing_round"] + counts["no_click"]
            assert parts == report["attempts"]
        p_local = [float(row[5]) for row in rows]
        assert report["p_local_min"] == min(p_local)
        assert report["p_local_min_offset_ps"] == [-800, -400, 0][p_local.index(min(p_local))]
        assert report["p_bonferroni"] == min(1.0, 3 * min(p_local))

    def test_sweep_rejects_detections_of_unknown_attempts(self, capsys, tmp_path):
        detections = tmp_path / "d.csv"
        detections.write_text("attempt_id,channel,time_ps\r\n0,0,5426100\r\n99,1,5425200\r\n", encoding="utf-8")
        attempts = tmp_path / "a.jsonl"
        attempts.write_text('{"attempt_id":0,"setting_a":0,"setting_b":0,"outcome_a":1,"outcome_b":1}\n')
        code, _, err = run(
            capsys, "herald", "sweep", "--detections", str(detections), "--attempts", str(attempts),
            "--offsets=0:0:1", "--sweep-out", str(tmp_path / "sweep.csv"),
        )
        assert code == 1 and "1 detections" in err and "99" in err

    @pytest.mark.parametrize("beta", ["0.5", "1.5"])
    def test_sweep_rejects_beta_outside_three_quarters_to_one(self, capsys, tmp_path, beta):
        detections = str(tmp_path / "d.csv")
        attempts = str(tmp_path / "a.jsonl")
        sweep_csv = tmp_path / "sweep.csv"
        run_json(capsys, "herald", "synth", "--attempts", "2000", "--seed", "3", "--detections-out", detections,
                 "--attempts-out", attempts)
        code, out, err = run(
            capsys, "herald", "sweep", "--detections", detections, "--attempts", attempts, "--offsets=-1000:0:500",
            "--beta", beta, "--sweep-out", str(sweep_csv),
        )
        assert (code, out, err) == (1, "", f"error: beta must lie in [3/4, 1], got {float(beta)}\n")
        assert not sweep_csv.exists()

    def test_sweep_rejects_non_integer_window_field(self, capsys, tmp_path):
        detections = str(tmp_path / "d.csv")
        attempts = str(tmp_path / "a.jsonl")
        run_json(capsys, "herald", "synth", "--attempts", "100", "--detections-out", detections, "--attempts-out", attempts)
        windows = tmp_path / "windows.json"
        windows.write_text(json.dumps({"len_first_ps": True}), encoding="utf-8")
        code, out, err = run(
            capsys, "herald", "sweep", "--detections", detections, "--attempts", attempts,
            "--window-config", str(windows), "--offsets=0:0:1", "--sweep-out", str(tmp_path / "sweep.csv"),
        )
        assert code == 1 and out == ""
        assert f"{windows}: len_first_ps must be an integer" in err

    def test_sweep_rejects_overlapping_rounds(self, capsys, tmp_path):
        detections = str(tmp_path / "d.csv")
        attempts = str(tmp_path / "a.jsonl")
        run_json(capsys, "herald", "synth", "--attempts", "100", "--detections-out", detections, "--attempts-out", attempts)
        windows = tmp_path / "windows.json"
        windows.write_text(json.dumps({"second_window_offset_ps": 0}), encoding="utf-8")
        code, out, err = run(
            capsys, "herald", "sweep", "--detections", detections, "--attempts", attempts,
            "--window-config", str(windows), "--offsets=0:0:1", "--sweep-out", str(tmp_path / "sweep.csv"),
        )
        assert code == 1 and out == ""
        assert "second_window_offset_ps (0) must be at least len_first_ps (50000)" in err
        assert not (tmp_path / "sweep.csv").exists()

    def test_experiment_mode_requires_attempts_out(self, capsys, tmp_path, monkeypatch):
        # Checked before anything is synthesised or written.
        monkeypatch.setattr(cli.heralding, "synth_experiment", None)
        code, _, err = run(
            capsys,
            "herald",
            "synth",
            "--attempts",
            "10",
            "--seed",
            "0",
            "--detections-out",
            str(tmp_path / "d.csv"),
        )
        assert code == 1 and "attempts-out" in err
        assert list(tmp_path.iterdir()) == []


def sha256(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


class TestHeraldOutputsPinned:
    """Digests of the per-click generator and classifier's outputs, which the columnar code must reproduce."""

    def test_experiment_synth_and_sweep_bytes(self, capsys, tmp_path):
        windows = tmp_path / "windows.json"
        windows.write_text(json.dumps(dataclasses.asdict(WindowConfig())), encoding="utf-8")
        detections, attempts, sweep_csv = (str(tmp_path / n) for n in ("d.csv", "a.jsonl", "sweep.csv"))
        run_json(
            capsys, "herald", "synth", "--attempts", "30000", "--seed", "11", "--window-config", str(windows),
            "--entangle-prob", "0.55", "--decay-ps", "2500", "--reflection-amplitude", "2.0",
            "--reflection-center-ps=-1800", "--reflection-sigma-ps", "250", "--afterpulse-prob", "0.02",
            "--dark-rate", "0.005", "--detections-out", detections, "--attempts-out", attempts,
        )
        report = run_json(
            capsys, "herald", "sweep", "--detections", detections, "--attempts", attempts,
            "--window-config", str(windows), "--offsets=-2000:0:500", "--sweep-out", sweep_csv,
        )
        assert sha256(detections) == "37b86e5b5d187a73944df3c4d2ade8ab67886e58993f42b239b738488bf0e548"
        assert sha256(attempts) == "5a7566abf9bce34c96ed5ac5601fd6f024548ceb9831d4a7e3b6f2e55e83f665"
        # Every p_local is a sum of saddle-point binomial terms; at offsets -2000 to -1000 (n = 295, 5,765
        # and 9,189) they are 1.0, 0.9999996622482066 and 1.6530884723123416e-99, each within 1.6e-14
        # relative of the exact tail.
        assert sha256(sweep_csv) == "b9ef80efa8a7a6934bffeea6ba0a4fba22337f0c1a1a340358a5e63bf9d230ed"
        assert report["attempts"] == 30000


class TestTrialOutputsPinned:
    """Digests of trial files and their analyze reports as the per-row Trial code wrote them.

    The reports' p_complete are the saddle-point binomial tails,
    2.9914868880754306e-08 and 0.7277307449733202, within 2.1e-16 relative
    of the exact values. Run in the temporary directory with relative file
    names, since each report's config hash covers the trial file path.
    """

    @pytest.mark.parametrize(
        "simulate_args, trials_file, trials_digest, report_digest",
        [
            (
                ("simulate-reference", "--attempts", "5000", "--win-prob-minus", "0.78", "--win-prob-plus", "0.78",
                 "--herald-rate", "0.3", "--seed", "11"),
                "ref.jsonl",
                "73f7aa3dd2d4a24a56d2e44ca0e2411263fe5653090a7fe4b0b6914025a295ef",
                "04c7a10b61a4fbc3d95b0149cc3b77f3ce64bddf172ce031854a512d866c630d",
            ),
            (
                ("simulate", "--strategy", "herald-gating", "--attempts", "3000", "--seed", "11"),
                "lhv.jsonl",
                "4757374fd2649d2203d787aa833523294e511b37cf5c3367e2118a83b747854b",
                "9a7e74e3e3e3cc9b439db43c288859231daf40342102138577e2e2fe5dba10c0",
            ),
        ],
        ids=["simulate-reference", "simulate"],
    )
    def test_trial_file_and_analyze_bytes(
        self, capsys, tmp_path, monkeypatch, simulate_args, trials_file, trials_digest, report_digest
    ):
        monkeypatch.chdir(tmp_path)
        run_json(capsys, *simulate_args, "--trials-out", trials_file)
        code, _, err = run(capsys, "analyze", trials_file, "--out", "report.json")
        assert code == 0, err
        assert sha256(trials_file) == trials_digest
        assert sha256("report.json") == report_digest


class TestLhvOutputsPinned:
    """Digests of simulate and adversary outputs as the class-per-strategy simulator wrote them.

    Cases with f, tau > 0 play the one bias law, a point mass at tau; their
    trial files are the ones the simulator wrote under that law. Run in the
    temporary directory with relative file names, since the simulate
    report's config hash covers the trial file path. The adversary reports
    also give each strategy's rejection rate its Monte Carlo error.
    """

    SIMULATE = {
        "classical-optimal": (
            "c147e97c7944bb3656ebf562f8d47549e384e4f915282cacbf69884c783b51a9",
            "f8e2f9918ea31473e8e8eb1373353da6d229f725ece74fe67de58f80c03d57f4",
        ),
        "coin-flip": (
            "fa83fe41f514b653cc91b4bfc542d01bc00a6df71c5d8fb3a8a0b27b14b5b1e8",
            "b731432ed7c55186dc543a0f3e074b6e0bf885156e3e37adf44ecfc506911b2d",
        ),
        "herald-gating": (
            "6f2e0bd1cba4915fc92e9a26f22e0d6a6feb09ebb7455d2855d597fb1302b5aa",
            "d0fca77073168ec77ec8c5cd09509bbd7da06b2704e0622deb7627aaefdd90f0",
        ),
        "loss-switching": (
            "c7dfa6546802fa4ab935e8b92531972a8b72783e76c206c2b6c68112cc514342",
            "07649987c2723b28b5d55a21acc0716f1e66a31949ec3da49ad4d5d7b6cc4726",
        ),
        "state-mixing": (
            "4d0a1c3f1407caaf355b5a3886a57ec4ec2cfca2103695313e657488c040d032",
            "b436258c643332981cf15048f580931b95ce3fcae5de051282c46d86874f624c",
        ),
        "streak-keyed": (
            "3c832c8888e7ea191f63352f09ac8b046ebfa771907a59e459c7ae388962661b",
            "a75a8f00019af678fd6662afb0795e07854ca2d40d34c3f65b8bd19ac52f22af",
        ),
    }

    @pytest.mark.parametrize("strategy", sorted(SIMULATE))
    def test_simulate_bytes(self, capsys, tmp_path, monkeypatch, strategy):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(
            capsys, "simulate", "--strategy", strategy, "--attempts", "3000", "--f", "0.03", "--tau", "0.08",
            "--seed", "11", "--trials-out", "trials.jsonl", "--out", "report.json",
        )
        assert code == 0, err
        assert (sha256("trials.jsonl"), sha256("report.json")) == self.SIMULATE[strategy]

    @pytest.mark.parametrize(
        "args, digests",
        [
            (
                ("--tau", "0.5"),
                (
                    "79fb72258cc6e942fb65a8f43d54cfb09cd80b04a5ede25bb8c89d553e1d63c5",
                    "cff51c225ccf0540189e095142053ce4ebd8863055b690680dc20b73c3ce7c15",
                ),
            ),
        ],
        ids=["point-tau-half"],
    )
    def test_herald_gating_simulate_bytes(self, capsys, tmp_path, monkeypatch, args, digests):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(
            capsys, "simulate", "--strategy", "herald-gating", "--attempts", "3000", *args, "--seed", "11",
            "--trials-out", "trials.jsonl", "--out", "report.json",
        )
        assert code == 0, err
        assert (sha256("trials.jsonl"), sha256("report.json")) == digests

    @pytest.mark.parametrize(
        "args, digest",
        [
            ((), "8c6a0a4f8447eaf02a4c621297c88e05e4c05644ca5eb213b52a39630eb45cfe"),
            (
                ("--f", "0.05", "--tau", "0.1", "--strategies",
                 "classical-optimal,coin-flip,loss-switching,streak-keyed,herald-gating,state-mixing"),
                "da19b510f39eceeba345bd2b3bca58a9b4bf12d07229c7138bb934f095164706",
            ),
            (
                ("--f", "0.03", "--tau", "0.08", "--strategies",
                 "classical-optimal,coin-flip,loss-switching,streak-keyed,herald-gating,state-mixing"),
                "6a5da81de170a156599268ba73d487a389a5a13aa3144d7366213a8e2e9260cd",
            ),
        ],
        ids=["default-catalog", "all-strategies", "all-strategies-low-bias"],
    )
    def test_adversary_report_bytes(self, capsys, tmp_path, args, digest):
        out = str(tmp_path / "adversary.json")
        code, _, err = run(capsys, "adversary", "--n", "50", "--runs", "600", "--seed", "3", *args, "--out", out)
        assert code == 0, err
        assert sha256(out) == digest

    def test_adversary_one_herald_bytes(self, capsys, tmp_path):
        out = str(tmp_path / "adversary.json")
        code, _, err = run(capsys, "adversary", "--n", "1", "--runs", "600", "--seed", "3", "--out", out)
        assert code == 0, err
        assert sha256(out) == "077c3015cb0e97502dfd7aac59521c2040dd78853201778014e4129f7dcfbe9b"

    def test_adversary_bytes_across_batches(self, capsys, tmp_path):
        # 150 runs per strategy of max(64, 1.5 * 400) = 600 tape rows each
        # fill more than one batch of lhv._BATCH_ROWS rows.
        assert 150 * 600 > lhv._BATCH_ROWS
        out = str(tmp_path / "adversary.json")
        code, _, err = run(capsys, "adversary", "--n", "400", "--runs", "600", "--seed", "3", "--out", out)
        assert code == 0, err
        assert sha256(out) == "a55b4b8e4713a0cd666b00abb140d8c0fcf93c7e912cb2518568af6769dc7c9e"


class TestAuditOutputsPinned:
    """Digests of audit reports.

    n4000 is the report as the bisecting, twice-taped audit wrote it, except
    p_joint_uniform, (1 + hits) / (1 + 100,000) = 9687/100001 against the
    reference sample, and p_threshold, Bonferroni's 0.05 / 4 = 0.0125 where
    the tape's order statistic gave 0.01932, whose true joint rate is
    0.05705. The reports no longer name an ordering or a label, and their
    config hash no longer covers a reps, a format or a label option, so the
    hash moved. At the paper counts (n = 245) every value is exact:
    p_joint_uniform 0.053090226750840304, p_joint_lee 0.12070714715975546
    and p_threshold 0.0212478182155012, each with error 0.0, where the tape
    of 10^4 tables gave 0.1163 and 0.021259986479515453.
    """

    @pytest.mark.parametrize(
        "args, digest",
        [
            (("--counts", "53,79,62,51"), "20fa0207cbb682f531cd7408efb18e9e93321beec72afafc04398e9b5da3b628"),
            (
                ("--counts", "942,985,1040,1033", "--lee-reps", "2000"),
                "105686063ec36edc3c3fe83ab550d415f8fc13fbdcdd3c9b3530dea5703fd2e5",
            ),
        ],
        ids=["paper-counts", "n4000"],
    )
    def test_report_bytes(self, capsys, tmp_path, args, digest):
        out = str(tmp_path / "audit.json")
        code, _, err = run(capsys, "audit", *args, "--seed", "11", "--out", out)
        assert code == 0, err
        assert sha256(out) == digest


class TestRngOutputsPinned:
    """Digests of bit files and rng reports as the tuple-of-ints BitStream code wrote them.

    Run in the temporary directory with relative file names, since each
    report's config hash covers the file paths. That hash no longer covers
    a packed, a max-chars or a truncate option, so it moved. The bias report
    now counts the bits its last part-block leaves unused (0 of 800 here).
    """

    DIGESTS = {
        "bits.txt": "fccbe6709147c31fc39f2c93d5b0efc14c0644460700d9ea50580d91059849dc",
        "combined.txt": "4fd92e01248b8b5c965603e52a5d3176f7f3f87bdc0873441febb5f7bbd4b675",
        "extract.json": "6c1aa205fcf2e0cefeda4d94849ea90ef86550642c5b4f7f0daeb20765b1d3ff",
        "bias.json": "680aa70c255ab3d5c8cd232b0dd1d062c8737dde55b8be68a5e7365a1e05dea9",
        "combine.json": "8892f016094176183d6336697a5dbe4e62cf5a05353bdea020f35f3eb7cb0bf6",
        "independence.json": "b8c93f74c168a33b5430cc1c1dce14c8030403c9956026141e1dff5ac021c96b",
    }

    def test_bit_files_and_report_bytes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        # 800 messages of 1 to 140 characters mixing one- to four-byte UTF-8 code points.
        # 800 messages of 1 to 140 characters mixing one- to four-byte UTF-8
        # code points, and 100 quantum bits, from a linear congruential sequence.
        alphabet = "abc XYZ 019 éüαω中文\U0001F600"
        state = [11]

        def draw(m):
            state[0] = (6364136223846793005 * state[0] + 1442695040888963407) % 2**64
            return (state[0] >> 33) % m

        lines = ["".join(alphabet[draw(len(alphabet))] for _ in range(1 + draw(140))) for _ in range(800)]
        with open("messages.txt", "w", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for line in lines))
        with open("quantum.txt", "w", encoding="utf-8") as handle:
            handle.write("".join(f"{draw(2)}\n" for _ in range(100)))
        commands = [
            ("extract.json", "rng", "extract", "--messages", "messages.txt", "--bits-out", "bits.txt"),
            ("bias.json", "rng", "bias", "--bits", "bits.txt", "--block8"),
            ("combine.json", "rng", "combine", "--classical", "bits.txt", "--quantum", "quantum.txt",
             "--bits-out", "combined.txt"),
            ("independence.json", "rng", "independence", "--a", "combined.txt", "--b", "quantum.txt"),
        ]
        for report, *argv in commands:
            code, _, err = run(capsys, *argv, "--out", report)
            assert code == 0, err
        assert {name: sha256(name) for name in self.DIGESTS} == self.DIGESTS


class TestRng:
    def test_extract_bias_combine_independence(self, capsys, tmp_path):
        messages = tmp_path / "messages.txt"
        messages.write_text("".join(f"msg {i}\n" for i in range(80)), encoding="utf-8")
        bits = str(tmp_path / "bits.txt")
        report = run_json(capsys, "rng", "extract", "--messages", str(messages), "--bits-out", bits)
        assert report["bits"] == 80

        report = run_json(capsys, "rng", "bias", "--bits", bits, "--block8")
        assert (report["n"], report["unused_bits"]) == (10, 0)
        assert run_json(capsys, "rng", "bias", "--bits", bits)["unused_bits"] == 0
        assert report["uncertainty"] == pytest.approx(1 / (2 * math.sqrt(10)), rel=1e-12, abs=0)

        quantum = tmp_path / "quantum.txt"
        quantum.write_text("".join(f"{i % 2}\n" for i in range(10)), encoding="utf-8")
        combined = str(tmp_path / "combined.txt")
        report = run_json(
            capsys, "rng", "combine", "--classical", bits, "--quantum", str(quantum), "--bits-out", combined
        )
        assert report["bits"] == 10

        report = run_json(capsys, "rng", "independence", "--a", combined, "--b", str(quantum))
        assert report["n"] == 10 and 0.0 < report["p"] <= 1.0

    def test_extract_names_file_and_line_of_over_long_message(self, capsys, tmp_path):
        messages = tmp_path / "messages.txt"
        messages.write_text("short\n" + "x" * 141 + "\n", encoding="utf-8")
        code, out, err = run(capsys, "rng", "extract", "--messages", str(messages), "--bits-out", str(tmp_path / "b.txt"))
        assert code == 1 and out == ""
        assert f"{messages}: line 2: message has 141 characters, limit is 140" in err

    def test_extract_splits_lines_as_text_mode_reads_them(self, capsys, tmp_path):
        # Lines end at \n, \r\n or a lone \r, and at nothing else (form feed, NEL and U+2028 stay
        # inside a message); the last line needs no terminator.
        texts = ["héllo", "", "中文 ok", "\U0001f600x", "", "", "\ufeffa\x0c\x1c\x85\u2028 b", "αω 1", "last"]
        ends = ["\r\n", "\r", "\n", "\r\n", "\r", "\r\n", "\n", "\r", ""]
        messages = tmp_path / "messages.txt"
        messages.write_bytes("".join(t + e for t, e in zip(texts, ends)).encode("utf-8"))
        with warnings.catch_warnings(record=True) as expected:
            warnings.simplefilter("always")
            want = [message_to_bit(text) for text in texts]
        bits = tmp_path / "bits.txt"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = run_json(capsys, "rng", "extract", "--messages", str(messages), "--bits-out", str(bits))
        assert report["messages"] == report["bits"] == len(texts)
        assert bits.read_text(encoding="ascii") == "".join(f"{b}\n" for b in want)
        assert [str(w.message) for w in caught] == [str(w.message) for w in expected] == ["empty message maps to bit 0"] * 3

    def test_independence_length_mismatch_without_truncate(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("0\n1\n0\n", encoding="utf-8")
        b.write_text("0\n1\n", encoding="utf-8")
        code, _, err = run(capsys, "rng", "independence", "--a", str(a), "--b", str(b))
        assert code == 1 and "equal length" in err


class TestAudit:
    def test_json_report(self, capsys):
        report = run_json(
            capsys,
            "audit",
            "--counts",
            "53,79,62,51",
            "--lee-reps",
            "1000",
            "--seed",
            "7",
        )
        assert report["n"] == 245
        assert report["independence_test"] == "fisher"
        assert report["p_independence"] == pytest.approx(0.029, abs=0.002)

    def test_counts_arity(self, capsys):
        code, _, err = run(capsys, "audit", "--counts", "1,2,3", "--seed", "0")
        assert code == 1 and "four" in err

    @pytest.mark.parametrize("counts", ["53,79,,62,51", "53,79,62,51,"])
    def test_counts_empty_field_exits_one(self, capsys, counts):
        code, out, err = run(capsys, "audit", "--counts", counts, "--lee-reps", "1000")
        assert code == 1 and out == "" and "--counts" in err

    def test_too_few_lee_reps_exit_one_at_every_alpha(self, capsys):
        for alpha in ("0.5", "1"):
            code, out, err = run(capsys, "audit", "--counts", "53,79,62,51", "--alpha", alpha, "--lee-reps", "5")
            assert (code, out) == (1, "") and "need at least 1000 Monte Carlo repetitions, got 5" in err, alpha

    @pytest.mark.parametrize("counts", ["5000,0,0,0", "2500,2500,0,0"])
    def test_pearson_on_a_zero_margin_is_one(self, capsys, counts):
        # At n = 5,000, where Pearson's chi-squared once took over, Fisher's test gives 1 on a zero margin.
        report = run_json(capsys, "audit", "--counts", counts, "--lee-reps", "1000")
        assert (report["independence_test"], report["p_independence"]) == ("fisher", 1.0)


def run_without_scipy(tmp_path, commands):
    """Run each CLI command in one fresh interpreter in which every scipy import fails.

    Asserts each command exits 0 and leaves scipy out of sys.modules; returns the JSON reports.
    """
    src = os.path.dirname(os.path.dirname(bellkit.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    script = (
        "import contextlib, importlib.abc, io, json, sys\n"
        "class BlockScipy(importlib.abc.MetaPathFinder):\n"
        "    def find_spec(self, name, path, target=None):\n"
        "        if name.partition('.')[0] == 'scipy':\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, BlockScipy())\n"
        "from bellkit import cli\n"
        "assert 'scipy' not in sys.modules, 'import bellkit.cli loaded scipy'\n"
        "reports = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    assert 'scipy' not in sys.modules, f'{argv} loaded scipy'\n"
        "    reports.append(json.loads(out.getvalue()))\n"
        "print(json.dumps(reports))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)], env=env, cwd=tmp_path, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


SYNTH = ("herald", "synth", "--attempts", "200", "--detections-out", "d.csv", "--attempts-out", "a.jsonl")


class TestInfrastructure:
    # scipy is a test oracle only: with every scipy import failing, each
    # subcommand still runs and never loads it.

    def test_import_leaves_scipy_unloaded(self, tmp_path):
        # Includes an audit at n = 5,000, where Fisher's look-elsewhere tape runs on the numpy kernel alone.
        (tmp_path / "messages.txt").write_text("".join(f"message {i}\n" for i in range(32)), encoding="utf-8")
        (tmp_path / "b.txt").write_text("\n".join("1100") + "\n", encoding="ascii")
        commands = [
            ["bound", "--n", "300", "--k", "237", "--tau-grid", "0:0.01:0.001"],
            ["combine", "--mode", "merge", "--counts", "245:196,300:237"],
            ["combine", "--mode", "fisher", "--pvalues", "0.039,0.061"],
            ["audit", "--counts", "53,79,62,51", "--lee-reps", "1000"],
            ["audit", "--counts", "1300,1250,1200,1250", "--lee-reps", "1000"],
            ["adversary", "--n", "10", "--runs", "4"],
            ["simulate", "--strategy", "streak-keyed", "--attempts", "200", "--trials-out", "lhv.jsonl"],
            ["rng", "extract", "--messages", "messages.txt", "--bits-out", "a.txt"],
            ["rng", "bias", "--bits", "a.txt"],
            ["rng", "combine", "--classical", "a.txt", "--quantum", "b.txt", "--bits-out", "c.txt"],
            ["rng", "independence", "--a", "b.txt", "--b", "c.txt"],
        ]
        big_audit = run_without_scipy(tmp_path, commands)[4]
        assert big_audit["n"] == 5000 and big_audit["independence_test"] == "fisher"

    def test_tails_above_the_sum_limit_leave_scipy_unloaded(self, tmp_path):
        # analyze on n of about 18,000 heralded trials and a sweep whose last offsets have
        # n = 10,138 and 10,824 take binomial tails above n = 10,000.
        (tmp_path / "windows.json").write_text(json.dumps(dataclasses.asdict(WindowConfig())), encoding="utf-8")
        commands = [
            ["simulate-reference", "--attempts", "60000", "--herald-rate", "0.3", "--win-prob-minus", "0.78",
             "--win-prob-plus", "0.78", "--seed", "11", "--trials-out", "ref.jsonl"],
            ["analyze", "ref.jsonl"],
            ["herald", "synth", "--attempts", "30000", "--seed", "11", "--window-config", "windows.json",
             "--entangle-prob", "0.55", "--decay-ps", "2500", "--reflection-amplitude", "2.0",
             "--reflection-center-ps=-1800", "--reflection-sigma-ps", "250", "--afterpulse-prob", "0.02",
             "--dark-rate", "0.005", "--detections-out", "d.csv", "--attempts-out", "a.jsonl"],
            ["herald", "sweep", "--detections", "d.csv", "--attempts", "a.jsonl", "--window-config", "windows.json",
             "--offsets=-1000:0:500", "--sweep-out", "sweep.csv"],
        ]
        reports = run_without_scipy(tmp_path, commands)
        assert reports[1]["n"] > 10_000
        assert max(row["heralded"] for row in reports[3]["herald_counts"]) > 10_000

    def test_determinism_byte_identical(self, capsys, tmp_path):
        out_a = str(tmp_path / "a.json")
        out_b = str(tmp_path / "b.json")
        for out in (out_a, out_b):
            code, _, err = run(
                capsys,
                "audit",
                "--counts",
                "53,79,62,51",
                "--lee-reps",
                "1000",
                "--seed",
                "9",
                "--out",
                out,
            )
            assert code == 0, err
        assert open(out_a, "rb").read() == open(out_b, "rb").read()

    def test_seed_changes_output(self, capsys):
        # Above 300 events, where the look-elsewhere law is a tape; up to 300 it is exact and the seed is only reported.
        a = run_json(capsys, "audit", "--counts", "80,75,78,82", "--lee-reps", "1000", "--seed", "1")
        b = run_json(capsys, "audit", "--counts", "80,75,78,82", "--lee-reps", "1000", "--seed", "2")
        assert a["p_joint_lee"] != b["p_joint_lee"]
        exact = [run_json(capsys, "audit", "--counts", "53,79,62,51", "--seed", seed) for seed in ("1", "2")]
        values = [{key: v for key, v in report.items() if key not in ("seed", "config_hash")} for report in exact]
        assert values[0] == values[1]

    def test_config_file_provides_defaults(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lee-reps": 1000, "seed": 11}), encoding="utf-8")
        report = run_json(capsys, "--config", str(config), "audit", "--counts", "53,79,62,51")
        assert report["seed"] == 11

    def test_flag_overrides_config(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lee-reps": 1000, "seed": 11}), encoding="utf-8")
        report = run_json(
            capsys, "--config", str(config), "audit", "--counts", "53,79,62,51", "--seed", "12"
        )
        assert report["seed"] == 12

    def test_config_key_naming_no_option_exits_one(self, capsys, tmp_path):
        trials_file = str(tmp_path / "ref.jsonl")
        run_json(capsys, "simulate-reference", "--win-prob-minus", "0.9", "--attempts", "200", "--trials-out", trials_file)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"tua": 0.01}), encoding="utf-8")
        code, out, err = run(capsys, "--config", str(config), "analyze", trials_file)
        assert code == 1 and "tua" in err and out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("--config", "{path}", "bound", "--f", "0.01"),
            ("herald", "sweep", "--detections", "d.csv", "--attempts", "a.jsonl", "--window-config", "{path}",
             "--offsets=0:0:1", "--sweep-out", "sweep.csv"),
        ],
        ids=["config", "window-config"],
    )
    def test_malformed_json_names_the_file(self, capsys, tmp_path, argv):
        path = tmp_path / "config.json"
        path.write_text('{"len_first_ps": ', encoding="utf-8")
        code, out, err = run(capsys, *(arg.format(path=path) for arg in argv))
        assert code == 1 and out == ""
        assert err == f"error: {path}: invalid JSON: Expecting value: line 1 column 18 (char 17)\n"

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (("simulate", "--attempts", "10"), "--bias-dist", "point"),
            (("adversary", "--n", "10", "--runs", "4"), "--bias-dist", "point"),
            (("audit", "--counts", "53,79,62,51", "--lee-reps", "1000"), "--ordering", "probability"),
            (("audit", "--counts", "53,79,62,51", "--lee-reps", "1000"), "--reps", "1000"),
            (("analyze", "ref.jsonl"), "--beta-form", "expanded"),
            (("combine", "--mode", "merge", "--counts", "245:196"), "--beta-form", "expanded"),
            (("bound", "--n", "300", "--k", "237"), "--beta-form", "expanded"),
            (SYNTH, "--mode", "stream"),
            (SYNTH, "--signal-prob", "0.5"),
            (("audit", "--counts", "53,79,62,51", "--lee-reps", "1000"), "--format", "csv"),
            (("rng", "extract", "--messages", "m.txt", "--bits-out", "b.txt"), "--packed", None),
            (("rng", "bias", "--bits", "b.txt"), "--packed", None),
            (("rng", "combine", "--classical", "b.txt", "--quantum", "q.txt", "--bits-out", "c.txt"), "--packed", None),
            (("rng", "independence", "--a", "b.txt", "--b", "q.txt"), "--packed", None),
            (("audit", "--counts", "53,79,62,51", "--lee-reps", "1000"), "--label", "run-1"),
            (("rng", "independence", "--a", "b.txt", "--b", "q.txt"), "--truncate", None),
            (("simulate-reference", "--win-prob-minus", "0.9", "--attempts", "200"), "--psi-plus-share", "0.25"),
            (("rng", "extract", "--messages", "m.txt", "--bits-out", "b.txt"), "--max-chars", "280"),
            (SYNTH, "--win-prob", "0.75"),
        ],
        ids=["simulate", "adversary", "audit", "audit-reps", "analyze-beta-form", "combine-beta-form",
             "bound-beta-form", "synth-mode", "synth-signal-prob", "audit-format", "extract-packed", "bias-packed",
             "combine-packed", "independence-packed", "audit-label", "independence-truncate",
             "reference-psi-plus-share", "extract-max-chars", "synth-win-prob"],
    )
    def test_removed_options_exit_one(self, capsys, tmp_path, argv, flag, value):
        # Settings have one bias law, the joint-uniformity test one ordering,
        # and the audit one null, whose size --lee-reps sets. Every P-value is
        # taken at the lemma bound, and herald synth draws one synthetic
        # experiment, detections and attempt records both. Every command
        # writes its JSON report, and every bit file is ASCII. An audit report
        # names no row, streams of unequal length are an error, the herald
        # gives both Bell states equally often, a message is at most 140
        # characters, and an entangled synthetic trial wins at Tsirelson's
        # bound. A value of None marks a flag that takes none; its config
        # value is true.
        given = (flag,) if value is None else (flag, value)
        code, out, err = run(capsys, *argv, *given)
        assert (code, out) == (1, "") and f"unrecognized arguments: {' '.join(given)}" in err
        config = tmp_path / "config.json"
        dest = flag[2:].replace("-", "_")
        for key in {flag[2:], dest}:
            config.write_text(json.dumps({key: True if value is None else value}), encoding="utf-8")
            code, out, err = run(capsys, "--config", str(config), *argv)
            assert (code, out) == (1, "") and f"keys ['{dest}'] name no option" in err

    def test_unknown_flag_exits_one(self, capsys):
        code, _, err = run(capsys, "audit", "--counts", "1,2,3,4", "--bogus")
        assert code == 1


class TestReportEnvelope:
    """Each report's config_hash covers every option of its command but --out, plus seed."""

    COMMANDS = [
        ("simulate-reference", "--win-prob-minus", "0.9", "--attempts", "200", "--trials-out", "ref.jsonl"),
        ("analyze", "ref.jsonl"),
        ("combine", "--mode", "merge", "--counts", "245:196"),
        ("bound", "--f", "0.01"),
        ("simulate", "--attempts", "100"),
        ("adversary", "--n", "10", "--runs", "4", "--strategies", "coin-flip"),
        ("herald", "synth", "--attempts", "200", "--detections-out", "d.csv", "--attempts-out", "a.jsonl"),
        ("herald", "sweep", "--detections", "d.csv", "--attempts", "a.jsonl", "--offsets=0:0:1",
         "--sweep-out", "s.csv"),
        ("rng", "extract", "--messages", "messages.txt", "--bits-out", "a.txt"),
        ("rng", "bias", "--bits", "a.txt"),
        ("rng", "combine", "--classical", "a.txt", "--quantum", "q.txt", "--bits-out", "c.txt"),
        ("rng", "independence", "--a", "c.txt", "--b", "q.txt"),
        ("audit", "--counts", "53,79,62,51", "--lee-reps", "1000"),
    ]

    @staticmethod
    def leaf_parsers(parser, path=()):
        """(command path, parser) of every parser that runs a command."""
        subparsers = [a for a in parser._actions if isinstance(a, cli.argparse._SubParsersAction)]
        if not subparsers:
            return [(path, parser)]
        children = subparsers[0].choices.items()
        return [leaf for name, child in children for leaf in TestReportEnvelope.leaf_parsers(child, (*path, name))]

    @staticmethod
    def expected(argv):
        """(command name, config hash) recomputed from build_parser() for argv."""
        root = cli.build_parser()
        namespace = root.parse_args(argv)
        path, parser = next((p, c) for p, c in TestReportEnvelope.leaf_parsers(root) if list(p) == argv[: len(p)])
        params = {a.dest: getattr(namespace, a.dest) for a in parser._actions if a.dest not in ("out", "help")}
        params.setdefault("seed", None)
        canonical = json.dumps(params, sort_keys=True, default=str)
        return " ".join(path), hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    @staticmethod
    def write_inputs(directory):
        """The messages and quantum bits that the rng commands in COMMANDS read."""
        (directory / "messages.txt").write_text("".join(f"msg {i}\n" for i in range(64)), encoding="utf-8")
        (directory / "q.txt").write_text("".join(f"{i % 2}\n" for i in range(8)), encoding="utf-8")

    @pytest.mark.parametrize(
        "argv", COMMANDS, ids=lambda argv: "-".join(argv[: 2 if argv[0] in ("herald", "rng") else 1])
    )
    def test_every_report_embeds_version_seed_hash(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        self.write_inputs(tmp_path)
        # The commands before argv write the files it reads.
        for before in self.COMMANDS[: self.COMMANDS.index(argv)]:
            run_json(capsys, *before)
        report = run_json(capsys, *argv)
        seed = getattr(cli.build_parser().parse_args(list(argv)), "seed", None)  # 0 by default, None without --seed
        assert (report["tool"], report["version"], report["seed"]) == ("bellkit", bellkit.__version__, seed)
        assert report["command"] == self.expected(list(argv))[0]
        assert len(report["config_hash"]) == 16

    def test_every_command_hashes_every_option_but_out(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        self.write_inputs(tmp_path)
        leaves = {path for path, _ in self.leaf_parsers(cli.build_parser())}
        assert {path for path in leaves for argv in self.COMMANDS if argv[: len(path)] == path} == leaves
        for argv in self.COMMANDS:
            report = run_json(capsys, *argv)
            command, config_hash = self.expected(list(argv))
            assert (report["command"], report["config_hash"]) == (command, config_hash), argv

    def test_output_paths_move_the_hash_and_out_does_not(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bound = ("bound", "--n", "300", "--k", "237", "--tau-grid", "0:0.01:0.001")
        one, two = (run_json(capsys, *bound, "--curve-out", name)["config_hash"] for name in ("a.csv", "b.csv"))
        assert one != two
        assert run(capsys, *bound, "--curve-out", "a.csv", "--out", "report.json")[0] == 0
        assert json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))["config_hash"] == one


class TestConfigValues:
    """A config value is converted and checked as the same flag's value would be."""

    @pytest.mark.parametrize(
        "config, argv, message",
        [
            ({"mode": "bogus"}, ("combine", "--mode", "merge"), "mode: 'bogus' is not one of ['fisher', 'merge']"),
            ({"seed": 1.5}, ("simulate", "--attempts", "10"), "seed: invalid int value 1.5"),
            ({"block8": "no"}, ("rng", "bias", "--bits", "b.txt"), 'block8 must be true or false, got "no"'),
            ({"lee-reps": 1500.5}, ("audit", "--counts", "53,79,62,51"), "lee-reps: invalid int value 1500.5"),
            ({"settings": None}, ("audit", "--counts", "53,79,62,51"),
             "settings must be a string or a number, got null"),
            ({"lee-reps": [1000]}, ("audit", "--counts", "53,79,62,51"),
             "lee-reps must be a string or a number, got [1000]"),
            ({"tau": {"value": 0.1}}, ("bound",), 'tau must be a string or a number, got {"value": 0.1}'),
            ({"tau": True}, ("bound",), "tau must be a string or a number, got true"),
        ],
        ids=["choice", "float-seed", "string-switch", "float-reps", "null", "list", "object", "bool"],
    )
    def test_bad_value_exits_one_naming_the_key(self, capsys, tmp_path, monkeypatch, config, argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        code, out, err = run(capsys, "--config", "config.json", *argv)
        assert (code, out, err) == (1, "", f"error: config.json: {message}\n")

    def test_values_act_as_their_flags(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = {"n": "300", "k": 237, "tau": 0, "curve-out": "curve.csv", "tau_grid": "0:0.002:0.001"}
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        flags = ("bound", "--n", "300", "--k", "237", "--tau", "0", "--curve-out", "curve.csv",
                 "--tau-grid", "0:0.002:0.001")
        assert run(capsys, "--config", "config.json", "bound") == run(capsys, *flags)

    def test_switch_takes_a_json_boolean(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bits.txt").write_text("0\n1\n1\n" * 8, encoding="ascii")
        bias = ("rng", "bias", "--bits", "bits.txt")
        for block8, flags, n in ((True, ("--block8",), 3), (False, (), 24)):
            (tmp_path / "config.json").write_text(json.dumps({"block8": block8}), encoding="utf-8")
            report = run_json(capsys, "--config", "config.json", *bias)
            assert report == run_json(capsys, *bias, *flags)
            assert (report["block8"], report["n"]) == (block8, n)


class TestAuditSettingsStream:
    def test_settings_file_input(self, capsys, tmp_path):
        settings = tmp_path / "settings.jsonl"
        rows = [{"setting_a": i % 2, "setting_b": (i // 2) % 2} for i in range(200)]
        settings.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        report = run_json(
            capsys,
            "audit",
            "--settings",
            str(settings),
            "--lee-reps",
            "1000",
            "--seed",
            "3",
        )
        assert report["n"] == 200

    def test_counts_and_settings_mutually_exclusive(self, capsys, tmp_path):
        settings = tmp_path / "settings.jsonl"
        settings.write_text('{"setting_a": 0, "setting_b": 0}\n', encoding="utf-8")
        code, _, err = run(
            capsys, "audit", "--counts", "1,2,3,4", "--settings", str(settings)
        )
        assert code == 1 and "exactly one" in err
