"""Trial scoring against truth-table and brute-force oracles."""
import io
import itertools
import json
import math
import re

import numpy as np
import pytest

from bellkit import heralding, trials
from bellkit.heralding import AttemptTable, DetectionTable
from bellkit.trials import (
    ChshEstimate,
    TrialSet,
    aggregate,
    chsh_s,
    correlators,
    read_trials,
    win_indicator,
    write_trials,
)


def win_rule_oracle(tag, setting_a, setting_b, outcome_a, outcome_b):
    """The two win rules written out separately, as a truth table."""
    if tag == -1:
        return 1 if (-1) ** (setting_a * setting_b) * outcome_a * outcome_b == 1 else 0
    if tag == +1:
        return 1 if (-1) ** (setting_a * (setting_b ^ 1)) * outcome_a * outcome_b == 1 else 0
    return 0


def make_trials(rows):
    columns = np.array(rows, dtype=np.int64).reshape(-1, 5).T
    return TrialSet(np.arange(1, len(rows) + 1), *columns)


def trial_rows(ts):
    """(index, tag, setting_a, setting_b, outcome_a, outcome_b) per trial."""
    fields = ("index", "tag", "setting_a", "setting_b", "outcome_a", "outcome_b")
    return list(zip(*(getattr(ts, f).tolist() for f in fields)))


class TestWinIndicator:
    def test_no_herald_never_wins(self):
        for sa, sb, oa, ob in itertools.product((0, 1), (0, 1), (1, -1), (1, -1)):
            assert win_indicator(0, sa, sb, oa, ob) == 0

    def test_handpicked_values(self):
        assert win_indicator(-1, 0, 0, 1, 1) == 1
        assert win_indicator(-1, 1, 1, 1, 1) == 0
        # exponent a*(b+1) = 2 is even, so (+,+) wins at settings (1,1).
        assert win_indicator(+1, 1, 1, 1, 1) == 1

    def test_truth_table_all_32_nonzero_combinations(self):
        for tag, sa, sb, oa, ob in itertools.product((-1, 1), (0, 1), (0, 1), (1, -1), (1, -1)):
            assert win_indicator(tag, sa, sb, oa, ob) == win_rule_oracle(tag, sa, sb, oa, ob)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            win_indicator(2, 0, 0, 1, 1)
        with pytest.raises(ValueError):
            win_indicator(-1, 2, 0, 1, 1)
        with pytest.raises(ValueError):
            win_indicator(-1, 0, 0, 0, 1)
        with pytest.raises(ValueError):
            win_indicator(-1, 0, 0, 1, 2)


class TestAggregate:
    def test_all_tags_zero(self):
        ts = make_trials([(0, 0, 0, 1, 1), (0, 1, 1, -1, 1)])
        assert aggregate(ts) == (0, 0)

    def test_four_trial_example(self):
        # Term by term: win, win (tag +1 at settings (1,0): exponent
        # a*(b+1) = 1 and the outcome product is -1, so the sign flips to
        # +1), skipped, loss.
        ts = make_trials(
            [
                (-1, 0, 0, 1, 1),
                (1, 1, 0, 1, -1),
                (0, 0, 0, 1, 1),
                (-1, 1, 1, 1, 1),
            ]
        )
        assert aggregate(ts) == (2, 3)

    def test_bounds_invariant_random_sets(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            rows = [
                (
                    int(rng.integers(-1, 2)),
                    int(rng.integers(0, 2)),
                    int(rng.integers(0, 2)),
                    int(1 - 2 * rng.integers(0, 2)),
                    int(1 - 2 * rng.integers(0, 2)),
                )
                for _ in range(int(rng.integers(0, 40)))
            ]
            ts = make_trials(rows)
            k, n = aggregate(ts)
            assert 0 <= k <= n <= len(ts)


class TestCorrelators:
    def test_perfect_correlation(self):
        ts = make_trials([(-1, 0, 0, 1, 1), (-1, 0, 0, -1, -1)])
        cell = correlators(ts)[(-1, 0, 0)]
        assert cell.e == 1.0 and cell.stderr == 0.0 and cell.count == 2

    def test_zero_correlation(self):
        ts = make_trials([(-1, 0, 0, 1, 1), (-1, 0, 0, 1, -1)])
        cell = correlators(ts)[(-1, 0, 0)]
        assert cell.e == 0.0
        assert cell.stderr == pytest.approx(math.sqrt(0.5))

    def test_single_anticorrelated(self):
        ts = make_trials([(-1, 1, 0, 1, -1)])
        cell = correlators(ts)[(-1, 1, 0)]
        assert cell.e == -1.0 and cell.stderr == 0.0

    def test_empty_cells_missing_not_zero(self):
        ts = make_trials([(-1, 0, 0, 1, 1), (0, 1, 1, 1, 1)])
        cells = correlators(ts)
        assert (-1, 0, 0) in cells
        assert (-1, 1, 1) not in cells
        assert (0, 1, 1) not in cells  # non-heralded trials never tabulated

    def test_stderr_zero_iff_perfect(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            outcomes = [(1, 1 - 2 * int(rng.integers(0, 2))) for _ in range(int(rng.integers(1, 9)))]
            ts = make_trials([(-1, 0, 0, oa, ob) for oa, ob in outcomes])
            cell = correlators(ts)[(-1, 0, 0)]
            assert (cell.stderr == 0.0) == (abs(cell.e) == 1.0)


def balanced_psi_minus(per_cell_outcomes):
    """One trial per setting pair per entry, all tag -1."""
    rows = []
    for outcomes in per_cell_outcomes:
        for (a, b), (oa, ob) in zip(trials.SETTING_PAIRS, outcomes):
            rows.append((-1, a, b, oa, ob))
    return make_trials(rows)


class TestChshS:
    def test_all_win_psi_minus_reaches_four(self):
        ts = balanced_psi_minus([[(1, 1), (1, 1), (1, 1), (1, -1)]])
        estimate = chsh_s(ts.cells())
        assert estimate.s_psi_minus == 4.0
        assert estimate.s_weighted == 4.0
        assert estimate.s_psi_plus is None

    def test_single_state_weighted_degenerates(self):
        ts = balanced_psi_minus([[(1, 1), (1, -1), (-1, 1), (1, 1)]])
        estimate = chsh_s(ts.cells())
        assert estimate.s_weighted == estimate.s_psi_minus

    def test_identity_s_equals_8k_over_n_minus_4_exhaustive(self):
        # Every single-state trial set with exactly one trial per setting
        # pair: 4 cells x 4 outcome combinations = 256 sets, checked exactly.
        outcome_pairs = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        for combo in itertools.product(outcome_pairs, repeat=4):
            ts = balanced_psi_minus([list(combo)])
            k, n = aggregate(ts)
            estimate = chsh_s(ts.cells())
            assert estimate.s_weighted == pytest.approx(8 * k / n - 4, abs=1e-12)

    def test_identity_holds_with_multiple_rounds(self):
        rng = np.random.default_rng(3)
        outcome_pairs = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        rounds = [
            [outcome_pairs[int(rng.integers(0, 4))] for _ in range(4)] for _ in range(6)
        ]
        ts = balanced_psi_minus(rounds)
        k, n = aggregate(ts)
        assert chsh_s(ts.cells()).s_weighted == pytest.approx(8 * k / n - 4, abs=1e-12)

    def test_missing_cell_error_names_cell(self):
        ts = make_trials([(-1, 0, 0, 1, 1), (-1, 0, 1, 1, 1), (-1, 1, 0, 1, 1)])
        with pytest.raises(ValueError, match=r"psi-minus.*\(1,1\)"):
            chsh_s(ts.cells())

    def test_no_heralds_error(self):
        ts = make_trials([(0, 0, 0, 1, 1)])
        with pytest.raises(ValueError, match="no heralded"):
            chsh_s(ts.cells())

    def test_lenient_form_skips_incomplete_state(self):
        complete_plus = [(1, a, b, 1, 1) for a, b in trials.SETTING_PAIRS]
        incomplete_minus = [(-1, 0, 0, 1, 1)]
        table = make_trials(complete_plus + incomplete_minus).cells()
        with pytest.raises(ValueError, match=r"psi-minus.*\(0,1\)"):
            chsh_s(table)
        lenient = chsh_s(table, strict=False)
        plus_only = chsh_s(make_trials(complete_plus).cells())
        assert lenient == plus_only
        assert chsh_s(make_trials([(0, 0, 0, 1, 1)]).cells(), strict=False) is None

    def test_weighted_average_uses_trial_counts(self):
        # Two psi-minus rounds and one psi-plus round at maximal scores:
        # weights 8:4.
        minus_rows = []
        for _ in range(2):
            for (a, b), (oa, ob) in zip(
                trials.SETTING_PAIRS, [(1, 1), (1, 1), (1, 1), (1, -1)]
            ):
                minus_rows.append((-1, a, b, oa, ob))
        plus_rows = [
            (1, a, b, 1, 1 if (a, b) != (1, 0) else -1) for a, b in trials.SETTING_PAIRS
        ]
        ts = make_trials(minus_rows + plus_rows)
        estimate = chsh_s(ts.cells())
        assert estimate.s_psi_minus == 4.0
        assert estimate.s_psi_plus == 4.0
        assert estimate.s_weighted == pytest.approx(4.0)
        assert (estimate.n_psi_minus, estimate.n_psi_plus) == (8, 4)


class TestTrialSetValidation:
    def test_indices_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            TrialSet([2, 2], [-1, -1], [0, 0], [0, 0], [1, 1], [1, 1])

    def test_index_positive(self):
        with pytest.raises(ValueError):
            TrialSet([0], [-1], [0], [0], [1], [1])


class TestJsonLines:
    def test_roundtrip(self):
        ts = make_trials([(-1, 0, 1, 1, -1), (0, 1, 0, -1, -1), (1, 1, 1, -1, 1)])
        buffer = io.StringIO()
        write_trials(buffer, ts)
        back = read_trials(io.StringIO(buffer.getvalue()))
        assert trial_rows(back) == trial_rows(ts)

    @pytest.mark.parametrize(
        "record",
        [
            {"index": 1, "tag": 2, "setting_a": 0, "setting_b": 0, "outcome_a": 1, "outcome_b": 1},
            {"index": 1, "tag": -1, "setting_a": 3, "setting_b": 0, "outcome_a": 1, "outcome_b": 1},
            {"index": 1, "tag": -1, "setting_a": 0, "setting_b": 0, "outcome_a": 0, "outcome_b": 1},
            {"index": 1, "tag": -1, "setting_a": 0, "setting_b": 0, "outcome_a": 1.0, "outcome_b": 1},
            {"index": 1, "tag": -1, "setting_a": 0, "setting_b": 0, "outcome_a": 1},
            {"index": 1, "tag": -1, "setting_a": 0, "setting_b": True, "outcome_a": 1, "outcome_b": 1},
            {"index": 99999999999999999999999, "tag": -1, "setting_a": 0, "setting_b": 0, "outcome_a": 1, "outcome_b": 1},
            {"index": 0, "tag": -1, "setting_a": 0, "setting_b": 0, "outcome_a": 1, "outcome_b": 1},
        ],
    )
    def test_rejects_out_of_domain(self, record):
        with pytest.raises(ValueError, match="line 1"):
            read_trials(io.StringIO(json.dumps(record) + "\n"))

    def test_rejects_bad_json_with_line_number(self):
        good = json.dumps(
            {"index": 1, "tag": -1, "setting_a": 0, "setting_b": 0, "outcome_a": 1, "outcome_b": 1}
        )
        with pytest.raises(ValueError, match="line 2"):
            read_trials(io.StringIO(good + "\nnot json\n"))

    @pytest.mark.parametrize(
        "index, message",
        [(1, r"line 3: trial indices must be strictly increasing, got 1 after 1"), (0, r"line 3: .*positive.*got 0")],
        ids=["repeated", "zero"],
    )
    def test_index_errors_name_their_line(self, tmp_path, index, message):
        record = {"tag": -1, "setting_a": 0, "setting_b": 0, "outcome_a": 1, "outcome_b": 1}
        path = tmp_path / "trials.jsonl"
        path.write_text(
            json.dumps({"index": 1, **record}) + "\n\n" + json.dumps({"index": index, **record}) + "\n", encoding="utf-8"
        )
        with pytest.raises(ValueError, match=message):
            read_trials(io.StringIO(path.read_text(encoding="utf-8")))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            read_trials(str(path))


CANONICAL_LINE = '{"index":3,"tag":1,"setting_a":0,"setting_b":1,"outcome_a":-1,"outcome_b":1}'

# Replacements for line 3 of a six-line trial file, each of which the
# writer never emits.
ODD_LINES = {
    "whitespace": CANONICAL_LINE.replace(":", ": "),
    "leading-space": " " + CANONICAL_LINE,
    "trailing-space": CANONICAL_LINE + " ",
    "reordered-keys": '{"tag":1,"index":3,"setting_a":0,"setting_b":1,"outcome_a":-1,"outcome_b":1}',
    "extra-key": CANONICAL_LINE[:-1] + ',"extra":7}',
    "extra-non-ascii-key": CANONICAL_LINE[:-1] + ',"é":7}',
    "extra-key-with-digits": CANONICAL_LINE[:-1] + ',"x-1":-2}',
    "missing-key": CANONICAL_LINE.replace(',"outcome_b":1', ""),
    "true": CANONICAL_LINE.replace('"setting_b":1', '"setting_b":true'),
    "float": CANONICAL_LINE.replace('"setting_b":1', '"setting_b":1.0'),
    "exponent": CANONICAL_LINE.replace('"index":3', '"index":1e3'),
    "leading-zero": CANONICAL_LINE.replace('"index":3', '"index":03'),
    "minus-zero": CANONICAL_LINE.replace('"setting_a":0', '"setting_a":-0'),
    "plus-sign": CANONICAL_LINE.replace('"tag":1', '"tag":+1'),
    "lone-minus": CANONICAL_LINE.replace('"tag":1', '"tag":-'),
    "double-minus": CANONICAL_LINE.replace('"tag":1', '"tag":--1'),
    "2**63": CANONICAL_LINE.replace('"index":3', f'"index":{2**63}'),
    "-2**63-1": CANONICAL_LINE.replace('"outcome_a":-1', f'"outcome_a":{-(2**63) - 1}'),
    "20-digit": CANONICAL_LINE.replace('"index":3', '"index":10000000000000000000'),
    "empty-line": "\n" + CANONICAL_LINE,
    "array": "[3,1,0,1,-1,1]",
    "string": '"3,1,0,1,-1,1"',
    "not-json": "not json",
    "tab": CANONICAL_LINE.replace(",", ",\t"),
}


def trial_lines(count=6):
    rows = [(i, (-1, 0, 1)[i % 3], i % 2, i // 2 % 2, 1 - 2 * (i % 2), 1 - 2 * (i // 3 % 2)) for i in range(1, count + 1)]
    return [trials._json_row(trials._TRIAL_FIELDS)[:-1] % row for row in rows]


def read_outcome(read):
    """(rows, lines) as lists, or the error message."""
    try:
        rows, lines = read()
    except ValueError as exc:
        return str(exc)
    return rows.tolist(), list(lines)


def both_paths(text, fields=trials._TRIAL_FIELDS):
    """The record reader's outcome and that of the json.loads path alone."""
    return (
        read_outcome(lambda: trials._read_records(io.StringIO(text), fields)),
        read_outcome(lambda: trials._json_records(io.StringIO(text), fields, 1)),
    )


class TestRecordReaderFastPath:
    """The compact-record fast path of _read_records against the json.loads path."""

    @pytest.fixture(params=[None, 40], ids=["one-chunk", "line-chunks"])
    def chunk(self, request, monkeypatch):
        if request.param:
            monkeypatch.setattr(trials, "_READ_CHUNK", request.param)

    @pytest.mark.parametrize("name", ODD_LINES)
    def test_odd_line_reads_as_with_json(self, chunk, name):
        lines = trial_lines()
        lines[2] = ODD_LINES[name]
        fast, slow = both_paths("\n".join(lines) + "\n")
        assert fast == slow
        assert trials._compact_rows(ODD_LINES[name] + "\n", trials._json_row(trials._TRIAL_FIELDS), 6) is None

    @pytest.mark.parametrize(
        "transform",
        [
            lambda text: text.replace("\n", "\r\n"),
            lambda text: text[:-1],
            lambda text: "﻿" + text,
            lambda text: text + "\n",
            lambda text: "",
            lambda text: "\n\n",
            lambda text: text.replace("\n", "\r"),
        ],
        ids=["crlf", "no-final-newline", "bom", "trailing-empty-line", "empty", "only-newlines", "cr"],
    )
    def test_odd_file_reads_as_with_json(self, chunk, transform):
        fast, slow = both_paths(transform("\n".join(trial_lines()) + "\n"))
        assert fast == slow

    @pytest.mark.parametrize(
        "fields",
        [trials._TRIAL_FIELDS, ("attempt_id", "setting_a", "setting_b", "outcome_a", "outcome_b"), ("setting_a", "setting_b")],
        ids=["trials", "attempts", "settings"],
    )
    def test_canonical_files_skip_json(self, chunk, monkeypatch, fields):
        rng = np.random.default_rng(5)
        rows = rng.integers(-(2**63), 2**63 - 1, size=(500, len(fields)), endpoint=True)
        rows[:50] = rng.integers(-3, 3, size=(50, len(fields)))
        rows[50], rows[51] = -(2**63), 2**63 - 1
        text = "".join(trials._json_row(fields) % tuple(row) for row in rows.tolist())
        fast, slow = both_paths(text, fields)
        assert fast == slow == (rows.tolist(), list(range(1, 501)))
        monkeypatch.setattr(trials, "_json_records", None)
        got, lines = trials._read_records(io.StringIO(text), fields)
        assert np.array_equal(got, rows) and list(lines) == list(range(1, 501))

    def test_written_trials_take_the_fast_path(self, monkeypatch, tmp_path):
        ts = make_trials([(-1, 0, 1, 1, -1), (0, 1, 0, -1, -1), (1, 1, 1, -1, 1)] * 100)
        path = tmp_path / "trials.jsonl"
        write_trials(str(path), ts)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        monkeypatch.setattr(trials, "_json_records", None)
        assert trial_rows(read_trials(str(path))) == trial_rows(ts)

    def test_errors_after_compact_chunks_name_their_line(self, monkeypatch):
        monkeypatch.setattr(trials, "_READ_CHUNK", 40)
        lines = trial_lines(8)
        lines[6] = re.sub('"tag":-?[01]', '"tag":true', lines[6])
        with pytest.raises(ValueError, match="^line 7: field tag must be an integer, got True$"):
            read_trials(io.StringIO("\n".join(lines) + "\n"))


# The row template of each integer record file.
ROW_TEMPLATES = {
    "trials": trials._json_row(trials._TRIAL_FIELDS),
    "attempts": trials._json_row(heralding._ATTEMPT_FIELDS),
    "detections": heralding._DETECTION_ROW,
}


def percent_formatted(rows, template):
    return ((template * len(rows)) % tuple(rows.ravel().tolist())).encode("ascii")


def edge_values():
    """0, +-1, +-(10^k - 1) and +-10^k up to 10^18, and the int64 extremes."""
    powers = [10**k for k in range(1, 19)]
    magnitudes = [0, 1, *powers, *(p - 1 for p in powers)]
    return [*magnitudes, *(-m for m in magnitudes), -(2**63), 2**63 - 1]


class TestFormatRows:
    """_format_rows, the one formatter of every integer record file, against %-formatting."""

    @pytest.mark.parametrize("name", ROW_TEMPLATES)
    def test_equals_percent_formatting(self, name):
        template = ROW_TEMPLATES[name]
        width = template.count("%d")
        rng = np.random.default_rng(28)
        edges = np.array(edge_values(), dtype=np.int64)
        # Each edge value in every column, beside other edge values.
        edge_rows = np.stack([np.roll(edges, 7 * j) for j in range(width)], axis=1)
        # Random values of every width, and random 64-bit patterns.
        widths = (10 ** rng.uniform(0, 18.9, size=(3000, width))).astype(np.int64)
        signed = widths * rng.choice([-1, 1], size=widths.shape)
        full = rng.integers(-(2**63), 2**63 - 1, size=(3000, width), endpoint=True)
        for rows in (edge_rows, widths, signed, full, np.abs(edge_rows[2:40]), signed[:1], signed[:0]):
            assert trials._format_rows(rows, template) == percent_formatted(rows, template)

    @pytest.mark.parametrize("name", ROW_TEMPLATES)
    def test_one_column_all_zero_or_all_negative(self, name):
        template = ROW_TEMPLATES[name]
        width = template.count("%d")
        for column in ([0, 0, 0], [-1, -10, -(2**63)], [5, -5, 0]):
            for j in range(width):
                rows = np.ones((3, width), dtype=np.int64)
                rows[:, j] = column
                assert trials._format_rows(rows, template) == percent_formatted(rows, template)

    @pytest.mark.parametrize(
        "fields",
        [trials._TRIAL_FIELDS, heralding._ATTEMPT_FIELDS, ("setting_a", "setting_b")],
        ids=["trials", "attempts", "settings"],
    )
    @pytest.mark.parametrize("odd", ["01", "+1", "-0", "00", "+0"])
    def test_compact_rows_rejects_non_canonical_integers(self, fields, odd):
        row = trials._json_row(fields)
        canonical = row % ((1,) * len(fields))
        assert trials._compact_rows(canonical * 3, row, len(fields)).tolist() == [[1] * len(fields)] * 3
        for j in range(len(fields)):
            line = row.replace("%d", "1", j).replace("%d", odd, 1).replace("%d", "1")
            assert trials._compact_rows(canonical + line + canonical, row, len(fields)) is None


# Valid columns of each record table, and one out-of-domain value per
# table: (field, row counted from 1, value, message).
RECORD_TABLES = {
    "TrialSet": (
        TrialSet,
        {"index": [1, 2, 3], "tag": [-1, 0, 1], "setting_a": [0, 1, 0], "setting_b": [1, 1, 0],
         "outcome_a": [1, -1, 1], "outcome_b": [-1, -1, 1]},
        ("tag", 2, 5, "row 2: tag must be -1, 0 or +1, got 5"),
    ),
    "AttemptTable": (
        AttemptTable,
        {"attempt_id": [0, 1, 2], "setting_a": [0, 1, 0], "setting_b": [1, 1, 0],
         "outcome_a": [1, -1, 1], "outcome_b": [-1, -1, 1]},
        ("outcome_b", 3, 0, "row 3: outcome_b must be +1 or -1, got 0"),
    ),
    "DetectionTable": (
        DetectionTable,
        {"attempt_id": [0, 0, 1], "channel": [0, 1, 1], "time_ps": [5, 6, 7]},
        ("time_ps", 2, -7, "row 2: time_ps must be >= 0, got -7"),
    ),
}


class TestRecordTableConstruction:
    """Every record table checks its columns, naming the row, and keeps read-only copies."""

    @pytest.mark.parametrize(
        "kind, defect",
        [
            (kind, defect)
            for kind, (_, columns, _) in RECORD_TABLES.items()
            for defect in ("two-dimensional", "float", "unequal-lengths", "out-of-domain")
            if defect != "unequal-lengths" or len(columns) > 1
        ],
    )
    def test_rejects(self, kind, defect):
        cls, columns, (field, row, value, domain_message) = RECORD_TABLES[kind]
        columns = {name: list(column) for name, column in columns.items()}
        first = next(iter(columns))
        if defect == "two-dimensional":
            columns[first] = [columns[first]]
            message = f"{first} must be a one-dimensional column of integers"
        elif defect == "float":
            columns[first] = [float(v) for v in columns[first]]
            message = f"{first} must be a one-dimensional column of integers"
        elif defect == "unequal-lengths":
            columns[field].pop()
            message = "columns must have equal lengths"
        else:
            columns[field][row - 1] = value
            message = domain_message
        with pytest.raises(ValueError, match=re.escape(message)):
            cls(**columns)

    @pytest.mark.parametrize("kind", RECORD_TABLES)
    def test_columns_are_read_only_copies(self, kind):
        cls, columns, _ = RECORD_TABLES[kind]
        given = {name: np.array(column) for name, column in columns.items()}
        table = cls(**given)
        for name, column in given.items():
            stored = memoryview(getattr(table, name))
            assert stored.ndim == 1 and stored.tolist() == column.tolist()
            assert stored.readonly
            assert column.flags.writeable

    def test_detection_channel_named_by_row(self):
        with pytest.raises(ValueError, match=r"^row 1: channel must be 0 or 1, got 2$"):
            DetectionTable(attempt_id=[0], channel=[2], time_ps=[5])
