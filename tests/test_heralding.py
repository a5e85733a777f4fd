"""Window classification, offset sweeps and the synthetic experiment."""
import math
import re
from dataclasses import asdict, replace

import numpy as np
import pytest
from oracles import in_first, in_second, len_second, round_clicks

from bellkit import heralding, trials
from bellkit.heralding import (
    AttemptTable,
    DetectionTable,
    StreamParams,
    WindowConfig,
    read_attempts,
    read_detections,
    sweep,
    synth_experiment,
    write_attempts,
    write_detections,
    write_sweep_csv,
)
from bellkit.pvalues import pvalue_complete
from bellkit.trials import CellTable, TrialSet, aggregate, chsh_s

WINDOWS = WindowConfig()


def text_file(tmp_path, text):
    """The path of a file in `tmp_path` holding `text` as UTF-8, its line ends as given."""
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8", newline="")
    return str(path)


def click(attempt, channel, time_ps):
    return (attempt, channel, time_ps)


def table(*clicks):
    """DetectionTable of (attempt_id, channel, time_ps) rows."""
    return DetectionTable(*np.array(clicks, dtype=np.int64).reshape(-1, 3).T)


def attempt_table(*records):
    """AttemptTable of (attempt_id, setting_a, setting_b, outcome_a, outcome_b) rows."""
    return AttemptTable(*np.array(records, dtype=np.int64).reshape(-1, 5).T)


def detection_rows(detections):
    """(attempt_id, channel, time_ps) of each detection, in table order."""
    return list(zip(detections.attempt_id.tolist(), detections.channel.tolist(), detections.time_ps.tolist()))


def shifted(windows, offset_ps):
    """`windows` with both channels' window starts moved by a common offset, as a sweep moves them."""
    return replace(windows, start_ch0_ps=windows.start_ch0_ps + offset_ps, start_ch1_ps=windows.start_ch1_ps + offset_ps)


def herald_tags(detections, attempts, windows):
    """Herald tag per row of `attempts`, by the rule the sweep applies at each offset."""
    rows = heralding._attempt_rows(detections, attempts)
    return round_clicks(detections, rows, len(attempts), windows)[2]


def tags_by_attempt(detections, windows):
    """Herald tag per attempt id that has clicks."""
    ids = np.unique(detections.attempt_id)
    bits, signs = np.zeros_like(ids), np.ones_like(ids)
    tags = herald_tags(detections, AttemptTable(ids, bits, bits, signs, signs), windows)
    return dict(zip(ids.tolist(), tags.tolist()))


def heralded_trials(detections, attempts, windows):
    """The attempts as trials in attempt_id order, indexed from 1, tagged at `windows`."""
    index = np.arange(1, len(attempts) + 1)
    tags = herald_tags(detections, attempts, windows)
    return TrialSet(index, tags, attempts.setting_a, attempts.setting_b, attempts.outcome_a, attempts.outcome_b)


def classify(clicks, windows):
    """Herald tag of one attempt's clicks: 0 when there are none."""
    tags = tags_by_attempt(table(*clicks), windows)
    assert len(tags) <= 1
    return next(iter(tags.values()), 0)


def first_click(channel, offset=100):
    return click(0, channel, WINDOWS.start(channel) + offset)


def second_click(channel, offset=100):
    return click(0, channel, WINDOWS.start(channel) + WINDOWS.second_window_offset_ps + offset)


class TestClassify:
    def test_different_channels_herald_minus(self):
        assert classify([first_click(0), second_click(1)], WINDOWS) == -1

    def test_same_channel_heralds_plus(self):
        assert classify([first_click(0), second_click(0)], WINDOWS) == +1

    def test_no_clicks(self):
        assert classify([], WINDOWS) == 0

    def test_single_round_only(self):
        assert classify([first_click(0)], WINDOWS) == 0
        assert classify([second_click(1)], WINDOWS) == 0

    def test_extra_in_window_click_vetoes(self):
        events = [first_click(0), first_click(1), second_click(1)]
        assert classify(events, WINDOWS) == 0

    def test_out_of_window_clicks_ignored(self):
        stray_early = click(0, 0, WINDOWS.start_ch0_ps - 500)
        stray_late = click(0, 1, WINDOWS.start_ch1_ps + WINDOWS.len_first_ps + 10_000)
        assert classify([stray_early, first_click(0), second_click(1), stray_late], WINDOWS) == -1

    def test_out_of_window_only(self):
        assert classify([click(0, 0, 100), click(0, 1, 200)], WINDOWS) == 0

    def test_window_boundaries_half_open(self):
        at_start = click(0, 0, WINDOWS.start_ch0_ps)
        at_end = click(0, 0, WINDOWS.start_ch0_ps + WINDOWS.len_first_ps)
        assert classify([at_start, second_click(1)], WINDOWS) == -1
        assert classify([at_end, second_click(1)], WINDOWS) == 0

    def test_per_channel_second_window_lengths(self):
        inside_ch0 = second_click(0, offset=3_500)
        assert classify([first_click(0), inside_ch0], WINDOWS) == +1
        beyond_ch1 = second_click(1, offset=3_500)  # channel 1 second window is 2.5 ns
        assert classify([first_click(0), beyond_ch1], WINDOWS) == 0


class TestWindowConfig:
    def test_dict_roundtrip(self):
        data = asdict(WINDOWS)
        assert WindowConfig.from_dict(data) == WINDOWS

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            WindowConfig.from_dict({"start_ch0_ps": 1, "bogus": 2})

    @pytest.mark.parametrize("value", [True, 5_426_000.5, "50000"])
    def test_rejects_non_integer_fields(self, value):
        with pytest.raises(ValueError, match=f"^len_first_ps must be an integer number of picoseconds, got {value!r}$"):
            WindowConfig.from_dict({"len_first_ps": value})

    def test_rejects_nonpositive_lengths(self):
        with pytest.raises(ValueError):
            WindowConfig(len_first_ps=0)

    @pytest.mark.parametrize("offset", [0, 49_999, -250_000])
    def test_rejects_rounds_that_overlap(self, offset):
        # At offset 0 one click 100 ps into round 1 also lies in round 2 and heralded a trial alone.
        with pytest.raises(ValueError, match="second_window_offset_ps .* must be at least len_first_ps"):
            WindowConfig(second_window_offset_ps=offset)

    def test_second_round_may_start_where_the_first_ends(self):
        assert WindowConfig(second_window_offset_ps=50_000).second_window_offset_ps == WINDOWS.len_first_ps


def small_dataset(*extra_clicks):
    events = table(
        first_click(0),
        second_click(1),
        click(1, 0, WINDOWS.start_ch0_ps + 50),
        click(1, 0, WINDOWS.start_ch0_ps + WINDOWS.second_window_offset_ps + 50),
        click(2, 1, WINDOWS.start_ch1_ps - 2_000),  # out of window at offset 0
        *extra_clicks,
    )
    # Rows of (attempt_id, setting_a, setting_b, outcome_a, outcome_b).
    attempts = attempt_table((0, 0, 0, 1, 1), (1, 1, 1, 1, 1), (2, 0, 1, -1, 1), (3, 1, 0, -1, -1))
    return events, attempts


class TestBuildAndSweep:
    def test_attempt_tags(self):
        events, attempts = small_dataset()
        assert herald_tags(events, attempts, WINDOWS).tolist() == [-1, 1, 0, 0]

    def test_sweep_offset_zero_matches_direct(self):
        events, attempts = small_dataset()
        rows = sweep(events, attempts, WINDOWS, [0])
        k, n = aggregate(heralded_trials(events, attempts, WINDOWS))
        assert rows[0].n == n and rows[0].k == k
        tags = herald_tags(events, attempts, WINDOWS).tolist()
        assert herald_tags(events, attempts, shifted(WINDOWS, 0)).tolist() == tags

    def test_sweep_no_extra_events_unchanged(self):
        events, attempts = small_dataset()
        # Earlier window starts that admit no additional clicks (the only
        # out-of-window click sits 2000 ps before the start) change nothing.
        rows = sweep(events, attempts, WINDOWS, [0, -200, -400])
        assert [(r.n, r.k) for r in rows] == [(rows[0].n, rows[0].k)] * 3

    def test_sweep_negative_offset_picks_up_early_click(self):
        events, attempts = small_dataset()
        rows = sweep(events, attempts, WINDOWS, [0, -2_100])
        assert rows[1].n == rows[0].n  # a lone click cannot herald
        assert rows[1].k == rows[0].k

    def test_empty_offset_row(self):
        events = table(first_click(0), second_click(1))
        attempts = attempt_table((0, 0, 0, 1, 1))
        rows = sweep(events, attempts, WINDOWS, [10_000_000])
        assert rows[0].n == 0 and rows[0].s is None and rows[0].p_local is None

    def test_sweep_rows_p_local_present(self):
        events, attempts = small_dataset()
        row = sweep(events, attempts, WINDOWS, [0])[0]
        assert row.p_local is not None and 0.0 < row.p_local <= 1.0


def loop_tag_and_reason(clicks, windows):
    """Per-attempt reference: herald tag and non-herald reason from the scalar window tests."""
    first = [c for c, t in clicks if in_first(windows, c, t)]
    second = [c for c, t in clicks if in_second(windows, c, t)]
    if len(first) == 1 and len(second) == 1:
        return (-1 if first[0] != second[0] else 1), "heralded"
    if len(first) > 1 or len(second) > 1:
        return 0, "extra_click"
    if first or second:
        return 0, "missing_round"
    return 0, "no_click"


def boundary_clicks(rng, windows, attempts):
    """Random click sets whose times sit on and next to every window edge of `windows`."""
    edges = []
    for channel in (0, 1):
        start = windows.start(channel)
        second = start + windows.second_window_offset_ps
        for edge in (start, start + windows.len_first_ps, second, second + len_second(windows, channel)):
            edges.extend([edge - 1, edge, edge + 1])
    lo = min(edges) - 3_000
    hi = max(edges) + 3_000
    clicks = {}
    for attempt in range(attempts):
        clicks[attempt] = [
            (
                int(rng.integers(0, 2)),
                int(rng.choice(edges)) if rng.random() < 0.6 else int(rng.integers(lo, hi)),
            )
            for _ in range(int(rng.integers(0, 5)))
        ]
    return clicks


class TestColumnarRule:
    # Window-start shifts of channel 0 and channel 1.
    SHIFTS = [(0, 0), (-1, -1), (1, 1), (-900, -900), (-100, -300), (250, 0), (0, -900)]

    def test_tags_match_per_attempt_loop(self):
        rng = np.random.default_rng(21)
        for shift_ch0, shift_ch1 in self.SHIFTS:
            windows = replace(
                WINDOWS, start_ch0_ps=WINDOWS.start_ch0_ps + shift_ch0, start_ch1_ps=WINDOWS.start_ch1_ps + shift_ch1
            )
            clicks = boundary_clicks(rng, windows, 400)
            events = [click(a, c, t) for a, pairs in clicks.items() for c, t in pairs]
            tags = tags_by_attempt(table(*events), windows)
            expected = {a: loop_tag_and_reason(pairs, windows)[0] for a, pairs in clicks.items() if pairs}
            assert tags == expected
            assert {a: classify([e for e in events if e[0] == a], windows) for a in range(25)} == {
                a: loop_tag_and_reason(clicks[a], windows)[0] for a in range(25)
            }

    def test_sweep_counts_match_per_attempt_loop(self):
        rng = np.random.default_rng(22)
        clicks = boundary_clicks(rng, WINDOWS, 600)
        events = table(*(click(a, c, t) for a, pairs in clicks.items() for c, t in pairs))
        attempts = attempt_table(
            *((a, int(rng.integers(0, 2)), int(rng.integers(0, 2)), 1, int(1 - 2 * rng.integers(0, 2))) for a in clicks)
        )
        offsets = [-1, 0, 1, -400]
        for row in sweep(events, attempts, WINDOWS, offsets):
            windows = shifted(WINDOWS, row.offset_ps)
            reasons = [loop_tag_and_reason(pairs, windows)[1] for pairs in clicks.values()]
            assert row.n == reasons.count("heralded")
            assert row.extra_click == reasons.count("extra_click")
            assert row.missing_round == reasons.count("missing_round")
            assert row.no_click == reasons.count("no_click")
            assert row.n + row.extra_click + row.missing_round + row.no_click == len(attempts)
            assert (row.k, row.n) == aggregate(heralded_trials(events, attempts, windows))


class TestInputChecks:
    def test_sweep_rejects_detections_of_unknown_attempts(self):
        events, attempts = small_dataset(click(99, 0, 5_426_100), click(99, 1, 5_425_200))
        with pytest.raises(ValueError, match=r"2 detections .*attempt_id 99"):
            sweep(events, attempts, WINDOWS, [0])
        with pytest.raises(ValueError, match=r"2 detections .*attempt_id 99"):
            herald_tags(events, attempts, WINDOWS)

    @pytest.mark.parametrize("beta", [0.5, math.nextafter(0.75, 0.0), math.nextafter(1.0, 2.0), 1.5, math.nan])
    def test_sweep_rejects_beta_outside_three_quarters_to_one(self, beta):
        # The check comes first: these detections of an unknown attempt would raise too.
        events, attempts = small_dataset(click(99, 0, 5_426_100))
        with pytest.raises(ValueError, match=r"^beta must lie in \[3/4, 1\], got "):
            sweep(events, attempts, WINDOWS, [0], beta=beta)

    @pytest.mark.parametrize("offset", [-1800.7, True, 2.0, np.float64(-400.0), "0", None])
    def test_sweep_rejects_an_offset_that_is_not_an_integer(self, offset):
        # Checked as a WindowConfig field is: a float offset is not truncated, and a bool is not an offset.
        events, attempts = small_dataset()
        message = f"offset must be an integer number of picoseconds, got {offset!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sweep(events, attempts, WINDOWS, [0, offset])

    def test_sweep_accepts_numpy_integer_offsets(self):
        events, attempts = small_dataset()
        offsets = [np.int32(-400), np.uint16(3), np.int64(0), 7]
        assert [row.offset_ps for row in sweep(events, attempts, WINDOWS, offsets)] == [-400, 3, 0, 7]
        assert sweep(events, attempts, WINDOWS, np.array([-400, 0])) == sweep(events, attempts, WINDOWS, [-400, 0])

    @pytest.mark.parametrize("beta", [0.75, 1.0])
    def test_sweep_accepts_beta_at_either_end(self, beta):
        events, attempts = small_dataset()
        assert len(sweep(events, attempts, WINDOWS, [0, 1], beta=beta)) == 2

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"attempt_id":1,"setting_a":7,"setting_b":0,"outcome_a":1,"outcome_b":1}', r"line 3: setting_a .* 7"),
            ('{"attempt_id":1,"setting_a":0,"setting_b":0,"outcome_a":1,"outcome_b":0}', r"line 3: outcome_b .* 0"),
            (
                '{"attempt_id":0,"setting_a":0,"setting_b":0,"outcome_a":1,"outcome_b":1}',
                r"line 3: duplicate attempt_id 0, first on line 1",
            ),
            (
                '{"attempt_id":9223372036854775808,"setting_a":0,"setting_b":0,"outcome_a":1,"outcome_b":1}',
                r"line 3: fields must fit in 64-bit integers",
            ),
        ],
    )
    def test_read_attempts_rejects_bad_records(self, tmp_path, line, message):
        good = '{"attempt_id":0,"setting_a":1,"setting_b":0,"outcome_a":-1,"outcome_b":1}'
        with pytest.raises(ValueError, match=message):
            read_attempts(text_file(tmp_path, f"{good}\n\n{line}\n"))

    @pytest.mark.parametrize(
        "columns, message",
        [
            ({"setting_a": [7]}, r"row 1: setting_a must be the bit 0 or 1, got 7"),
            ({"outcome_a": [5]}, r"row 1: outcome_a .* 5"),
            ({"attempt_id": [4, 4]}, r"row 2: duplicate attempt_id 4, first on row 1"),
        ],
    )
    def test_attempt_table_checks_on_construction(self, columns, message):
        size = len(next(iter(columns.values())))
        fields = {"attempt_id": list(range(size)), "setting_a": [0] * size, "setting_b": [1] * size,
                  "outcome_a": [1] * size, "outcome_b": [-1] * size, **columns}
        with pytest.raises(ValueError, match=message):
            AttemptTable(**fields)

    def test_readers_check_attempts_once(self, monkeypatch, tmp_path):
        calls = []
        check = trials._check_domains

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(trials, "_check_domains", counted)
        attempts = read_attempts(text_file(tmp_path, '{"attempt_id":1,"setting_a":0,"setting_b":1,"outcome_a":1,"outcome_b":-1}\n'))
        AttemptTable(attempts.attempt_id, attempts.setting_a, attempts.setting_b, attempts.outcome_a, attempts.outcome_b)
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0,0,5\r\n0,2,7\r\n", r"line 3: channel must be 0 or 1, got 2"),
            ("0,0,5\r\n\r\n0,1,-7\r\n", r"line 4: time_ps must be >= 0, got -7"),
            ("0,0,5\r\n0,x,7\r\n", r"line 3: .*'x'"),
            ("0,0,5\r\n0,1,7,9\r\n", r"line 3: expected 3 fields, got 4"),
            ("0,0,5\r\n9223372036854775808,1,7\r\n", r"line 3: .*int"),
            # int() reads these two, np.loadtxt does not.
            ("+5,0,05\r\n 0,1,-0\r\n2,0,1_000\r\n", r"^line 4: not an integer: '1_000'$"),
            ("0,0,5\r\n\r\n2,0,\u0663\r\n", r"^line 4: not an integer: '\u0663'$"),
        ],
    )
    def test_read_detections_names_bad_line(self, tmp_path, body, message):
        path = text_file(tmp_path, "attempt_id,channel,time_ps\r\n" + body)
        with pytest.raises(ValueError, match=f"^{re.escape(path)}: {message.removeprefix('^')}"):
            read_detections(path)

    def test_read_detections_takes_signs_blanks_and_leading_zeros(self, tmp_path):
        back = read_detections(text_file(tmp_path, "attempt_id,channel,time_ps\r\n+5,0,05\r\n 0,1,-0\r\n"))
        assert detection_rows(back) == [click(5, 0, 5), click(0, 1, 0)]

    def test_readers_given_a_path_name_the_file(self, tmp_path):
        attempts = tmp_path / "a.jsonl"
        attempts.write_text('{"attempt_id":0,"setting_a":2,"setting_b":0,"outcome_a":1,"outcome_b":1}\n')
        with pytest.raises(ValueError, match=f"^{re.escape(str(attempts))}: line 1: setting_a"):
            read_attempts(str(attempts))
        detections = tmp_path / "d.csv"
        detections.write_text("attempt_id,channel,time_ps\r\n0,2,5\r\n", newline="")
        with pytest.raises(ValueError, match=f"^{re.escape(str(detections))}: line 2: channel"):
            read_detections(str(detections))

    def test_read_detections_skips_empty_lines(self, tmp_path):
        back = read_detections(text_file(tmp_path, "attempt_id,channel,time_ps\r\n0,0,5\r\n\r\n1,1,6\r\n"))
        assert detection_rows(back) == [click(0, 0, 5), click(1, 1, 6)]
        assert len(read_detections(text_file(tmp_path, "attempt_id,channel,time_ps\r\n"))) == 0


def synth_detections(params, attempts, seed, entangle_prob):
    """The detections of `synth_experiment`, whose entangled attempts emit one photon per round."""
    return synth_experiment(params, WINDOWS, attempts=attempts, seed=seed, entangle_prob=entangle_prob)[0]


class TestSynthStream:
    """The detection stream that `synth_experiment` draws from `StreamParams`."""

    def test_no_reflection_no_dark_all_clicks_from_window_start(self):
        events = synth_detections(StreamParams(), attempts=2000, seed=1, entangle_prob=0.8)
        assert events
        for _, channel, time_ps in detection_rows(events):
            starts = [
                WINDOWS.start(channel),
                WINDOWS.start(channel) + WINDOWS.second_window_offset_ps,
            ]
            assert any(time_ps >= s for s in starts)
            assert time_ps >= min(starts)

    def test_reflection_places_clicks_before_window(self):
        params = StreamParams(reflection_amplitude=1.0)
        events = synth_detections(params, attempts=500, seed=2, entangle_prob=0.0)
        assert events
        early = [
            (channel, time_ps)
            for _, channel, time_ps in detection_rows(events)
            if time_ps < WINDOWS.start(channel)
            or WINDOWS.start(channel) + WINDOWS.len_first_ps
            < time_ps
            < WINDOWS.start(channel) + WINDOWS.second_window_offset_ps
        ]
        assert len(early) > 0.9 * len(events)

    def test_afterpulse_zero_means_no_retriggers(self):
        params = StreamParams(reflection_amplitude=0.5, afterpulse_prob=0.0)
        events = synth_detections(params, attempts=800, seed=3, entangle_prob=0.0)
        # Without afterpulses, dark counts or signal, nothing lands inside
        # the second windows: reflections sit ~1800 ps before each start.
        assert not any(in_second(WINDOWS, channel, time_ps) for _, channel, time_ps in detection_rows(events))

    def test_afterpulses_land_in_second_window_same_channel(self):
        quiet = StreamParams(reflection_amplitude=0.5, afterpulse_prob=0.0)
        loud = StreamParams(reflection_amplitude=0.5, afterpulse_prob=0.9)
        base = synth_detections(quiet, attempts=800, seed=4, entangle_prob=0.0)
        with_ap = synth_detections(loud, attempts=800, seed=4, entangle_prob=0.0)
        extra = len(with_ap) - len(base)
        assert extra > 100
        rows = detection_rows(with_ap)
        second_round = [row for row in rows if in_second(WINDOWS, row[1], row[2])]
        assert len(second_round) > 100
        # Each is an afterpulse: its attempt has an earlier click on the same channel.
        for attempt, channel, time_ps in second_round:
            assert any(a == attempt and c == channel and t < time_ps for a, c, t in rows)

    def test_decay_constant_recovered_within_five_percent(self):
        decay = 12_000.0
        events = synth_detections(StreamParams(decay_ps=decay), attempts=60_000, seed=5, entangle_prob=1.0)
        window = WINDOWS.len_first_ps
        dts = [
            time_ps - WINDOWS.start(channel)
            for _, channel, time_ps in detection_rows(events)
            if 0 <= time_ps - WINDOWS.start(channel) < window
        ]
        assert len(dts) > 50_000
        observed_mean = float(np.mean(dts))

        def truncated_mean(lam):
            z = window / lam
            return lam - window * math.exp(-z) / (1.0 - math.exp(-z))

        lo, hi = 100.0, 100_000.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if truncated_mean(mid) < observed_mean:
                lo = mid
            else:
                hi = mid
        assert abs(lo - decay) / decay < 0.05

    def test_psi_plus_fraction_rises_with_afterpulse(self):
        def plus_fraction(afterpulse, seed):
            params = StreamParams(afterpulse_prob=afterpulse)
            events = synth_detections(params, attempts=6000, seed=seed, entangle_prob=0.35)
            tags = tags_by_attempt(events, WINDOWS).values()
            plus = sum(1 for t in tags if t == 1)
            heralded = sum(1 for t in tags if t != 0)
            return plus / heralded

        for seed in (6, 7, 8):
            assert plus_fraction(0.3, seed) > plus_fraction(0.0, seed)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            StreamParams(afterpulse_prob=1.5)
        with pytest.raises(ValueError):
            StreamParams(reflection_amplitude=-1.0)
        with pytest.raises(ValueError):
            StreamParams(decay_ps=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", list(asdict(StreamParams())))
    def test_non_finite_param_names_its_field(self, name, value):
        # NaN passes every comparison check, and an infinite time constant or centre casts to a garbage time.
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            StreamParams(**{name: value})


class TestSynthExperiment:
    def test_entangled_attempts_violate_spurious_do_not(self):
        params = StreamParams(decay_ps=2_500.0)
        events, records = synth_experiment(params, WINDOWS, attempts=20_000, seed=9, entangle_prob=0.5)
        k, n = aggregate(heralded_trials(events, records, WINDOWS))
        assert n > 3000
        # Quantum-grade win rate on clean heralds.
        assert k / n > 0.8

    def test_reflection_degrades_s_at_deep_negative_offsets(self):
        params = StreamParams(
            decay_ps=2_500.0,
            reflection_amplitude=2.0,
            reflection_center_ps=-1_800.0,
            reflection_sigma_ps=250.0,
            afterpulse_prob=0.02,
            dark_rate=0.005,
        )
        events, records = synth_experiment(params, WINDOWS, attempts=12_000, seed=10, entangle_prob=0.55)
        rows = {r.offset_ps: r for r in sweep(events, records, WINDOWS, [-1500, -800, -400, 0])}
        s0 = rows[0]
        for offset in (-800, -400):
            diff = abs(rows[offset].s - s0.s)
            assert diff <= 2.0 * math.sqrt(rows[offset].sigma ** 2 + s0.sigma ** 2)
        drop = s0.s - rows[-1500].s
        assert drop > 2.0 * math.sqrt(rows[-1500].sigma ** 2 + s0.sigma ** 2)


class TestSynthOrder:
    """The one stable sort of synth_experiment's detections against np.lexsort((time, attempt))."""

    CASES = {
        # Equal times on both channels of an attempt, ties between attempts' blocks.
        "equal-times": ([2, 0, 2, 0, 1, 2, 1], [5.0, 5.0, 5.0, 3.0, 5.0, 3.0, 5.0]),
        "signed-zeros": ([1, 1, 0, 1, 0, 1], [0.0, -0.0, -0.0, 0.0, 0.0, -0.0]),
        "negative-times": ([0, 0, 1, 0, 1], [-1.5, -1e9, -0.0, 2.0, -1.5]),
        # Blocks each sorted by attempt but not with one another, as the draws are concatenated.
        "unsorted-blocks": ([0, 1, 2, 3, 0, 0, 2, 3, 1, 3], [9.0, 8.0, 7.0, 6.0, 1.0, 9.0, 7.0, 6.0, 8.5, 5.0]),
        "large-ids": ([2**52, 2**52 - 1, 2**52, 0], [1.0, 2.0, 0.5, 3.0]),
        "empty": ([], []),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_crafted(self, name):
        attempt, time = (np.array(column) for column in self.CASES[name])
        attempt = attempt.astype(np.int64)
        time = time.astype(np.float64)
        assert heralding._attempt_time_order(attempt, time).tolist() == np.lexsort((time, attempt)).tolist()

    def test_many_ties(self):
        rng = np.random.default_rng(28)
        attempt = rng.integers(0, 50, size=5000)
        time = rng.integers(-3, 4, size=5000).astype(np.float64) * rng.choice([1.0, -1.0], size=5000)
        assert heralding._attempt_time_order(attempt, time).tolist() == np.lexsort((time, attempt)).tolist()


def oracle_sweep_row(detections, attempts, offset, beta=0.75):
    """The SweepRow at one offset, from the per-offset rule `oracles.round_clicks` at the shifted windows."""
    rows = heralding._attempt_rows(detections, attempts)
    clicks_1, clicks_2, tag = round_clicks(detections, rows, len(attempts), shifted(WINDOWS, offset))
    cells = CellTable.from_columns(tag, attempts.setting_a, attempts.setting_b, attempts.outcome_a, attempts.outcome_b)
    k, n = cells.k_n()
    estimate = chsh_s(cells, strict=False)
    extra = (clicks_1 > 1) | (clicks_2 > 1)
    return heralding.SweepRow(
        offset_ps=offset,
        s=None if estimate is None else estimate.s_weighted,
        sigma=None if estimate is None else estimate.sigma,
        n=n,
        k=k,
        p_local=pvalue_complete(n, k, beta) if n >= 1 else None,
        no_click=int(np.count_nonzero((clicks_1 == 0) & (clicks_2 == 0))),
        missing_round=int(np.count_nonzero(~extra & ((clicks_1 > 0) != (clicks_2 > 0)))),
        extra_click=int(np.count_nonzero(extra)),
    )


class TestSweepAgainstRoundClicks:
    """sweep places each detection once; at every offset it must give what `oracles.round_clicks` gives."""

    @staticmethod
    def dataset(seed):
        rng = np.random.default_rng(seed)
        clicks = boundary_clicks(rng, WINDOWS, 400)
        events = table(*(click(a, c, t) for a, pairs in clicks.items() for c, t in pairs))
        attempts = attempt_table(
            *((a, *rng.integers(0, 2, size=2).tolist(), *rng.choice([-1, 1], size=2).tolist()) for a in clicks)
        )
        return events, attempts

    def test_offsets_on_window_edges(self):
        events, attempts = self.dataset(28)
        # Offsets that put some detection exactly on a window start or end, or one ps to either side.
        since = events.time_ps - np.where(events.channel == 1, WINDOWS.start_ch1_ps, WINDOWS.start_ch0_ps)
        second = since - WINDOWS.second_window_offset_ps
        second_len = np.where(events.channel == 1, WINDOWS.len_second_ch1_ps, WINDOWS.len_second_ch0_ps)
        ends = [since, since - WINDOWS.len_first_ps, second, second - second_len]
        rng = np.random.default_rng(29)
        edges = rng.choice(np.concatenate(ends), size=30, replace=False)
        offsets = [int(e) + d for e in edges for d in (-1, 0, 1)]
        rows = sweep(events, attempts, WINDOWS, offsets)
        assert rows == [oracle_sweep_row(events, attempts, offset) for offset in offsets]
        assert any(row.n for row in rows)

    def test_unsorted_offsets_with_repeats(self):
        events, attempts = self.dataset(30)
        offsets = [0, -1_800, 250, 0, -900, np.int64(-1_800), 3, -2, 250, 1_000_000, 0]
        rows = sweep(events, attempts, WINDOWS, offsets)
        assert rows == [oracle_sweep_row(events, attempts, int(offset)) for offset in offsets]
        assert [row.offset_ps for row in rows] == [int(offset) for offset in offsets]

    def test_synthetic_experiment(self):
        params = StreamParams(decay_ps=2_500.0, reflection_amplitude=2.0, reflection_center_ps=-1_800.0,
                              afterpulse_prob=0.02, dark_rate=0.005)
        events, records = synth_experiment(params, WINDOWS, attempts=3_000, seed=19, entangle_prob=0.55)
        offsets = list(range(-2_000, 1, 250))
        assert sweep(events, records, WINDOWS, offsets) == [oracle_sweep_row(events, records, o) for o in offsets]


class TestFileFormats:
    def test_detections_roundtrip(self, tmp_path):
        events = [click(0, 0, 5_426_100), click(1, 1, 5_425_200)]
        path = str(tmp_path / "d.csv")
        write_detections(path, table(*events))
        back = read_detections(path)
        assert detection_rows(back) == events

    def test_detections_header_required(self, tmp_path):
        with pytest.raises(ValueError, match="header"):
            read_detections(text_file(tmp_path, "1,2,3\n"))

    def test_attempts_roundtrip(self, tmp_path):
        records = [(0, 0, 1, 1, -1), (1, 1, 0, -1, -1)]
        path = str(tmp_path / "a.jsonl")
        write_attempts(path, attempt_table(*records))
        back = read_attempts(path)
        columns = (back.attempt_id, back.setting_a, back.setting_b, back.outcome_a, back.outcome_b)
        assert list(zip(*(column.tolist() for column in columns))) == records

    def test_attempts_rejects_bad_fields(self, tmp_path):
        with pytest.raises(ValueError, match="line 1"):
            read_attempts(text_file(tmp_path, '{"attempt_id": 0}\n'))

    def test_sweep_csv_missing_values_empty(self, tmp_path):
        rows = sweep(table(first_click(0), second_click(1)), attempt_table((0, 0, 0, 1, 1)), WINDOWS, [0, 9_999_999])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(str(path), rows)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "offset_ps,S,sigma,n,k,p_local"
        assert lines[2].endswith(",0,0,")
