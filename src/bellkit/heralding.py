"""Heralding-window classification of time-tagged photon detections.

Station C watches two detector channels over two excitation rounds per
attempt. An attempt becomes a trial when exactly one in-window click lands
in each round: clicks on different channels herald one Bell state (tag -1),
clicks on the same channel the other (tag +1). Everything else, including
extra in-window clicks, is no herald (tag 0). Out-of-window clicks are
ignored, never reused.

Detections travel as checked, read-only int64 columns (attempt_id,
channel, time_ps) in a `DetectionTable`, attempts as columns in an
`AttemptTable`, from the generators and readers through classification to
the sweep rows.

The window sweep re-runs that classification with both channel window
starts offset by a common shift and reports S, trial counts, the
complete-analysis P-value and the non-herald counts per offset. Swept
P-values are LOCAL: scanning offsets multiplies hypotheses, so they carry
no global significance.

`synth_experiment` draws a synthetic experiment. Its detections are
phenomenological: one photon per round from each entangled attempt,
decaying exponentially from the window start, a Gaussian reflection pulse
centred before the window, same-channel afterpulses in round 2 and uniform
dark counts. Its attempt records hold settings and outcomes whose
correlations are real only for entangled attempts, which is what makes
reflection-polluted windows degrade S.
"""
from __future__ import annotations

import csv
import io
import itertools
import math
import re
from dataclasses import InitVar, dataclass
from typing import IO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import rngstream
from .pvalues import pvalue_complete
from .trials import (
    HERALD_NONE,
    HERALD_PSI_MINUS,
    HERALD_PSI_PLUS,
    CellTable,
    _check_columns,
    _game_outcomes,
    _json_row,
    _read_only,
    _read_path,
    _read_records,
    _write_rows,
    chsh_s,
)

_WINDOW_FIELDS = (
    "start_ch0_ps",
    "start_ch1_ps",
    "len_first_ps",
    "len_second_ch0_ps",
    "len_second_ch1_ps",
    "second_window_offset_ps",
)


def _check_picoseconds(name: str, value: object) -> None:
    """Raise, naming `name`, unless `value` is a Python or numpy integer other than a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer number of picoseconds, got {value!r}")


@dataclass(frozen=True)
class WindowConfig:
    """Two-round heralding windows, per channel, all times in picoseconds.

    Round 1 on channel c covers [start_c, start_c + len_first); round 2
    starts second_window_offset later, no earlier than round 1 ends, and
    has its own per-channel length.
    The default inter-round separation is synthetic (the generator uses the
    same value, so it cancels in any analysis).
    """

    start_ch0_ps: int = 5_426_000
    start_ch1_ps: int = 5_425_100
    len_first_ps: int = 50_000
    len_second_ch0_ps: int = 4_000
    len_second_ch1_ps: int = 2_500
    second_window_offset_ps: int = 250_000

    def __post_init__(self) -> None:
        for name in _WINDOW_FIELDS:
            value = getattr(self, name)
            _check_picoseconds(name, value)
            if name.startswith("len_") and value <= 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if self.second_window_offset_ps < self.len_first_ps:
            raise ValueError(
                f"second_window_offset_ps ({self.second_window_offset_ps}) must be at least len_first_ps "
                f"({self.len_first_ps}), or one click can lie in both rounds"
            )

    def start(self, channel: int) -> int:
        return self.start_ch0_ps if channel == 0 else self.start_ch1_ps

    @classmethod
    def from_dict(cls, data: Mapping[str, int]) -> "WindowConfig":
        unknown = set(data) - set(_WINDOW_FIELDS)
        if unknown:
            raise ValueError(f"unknown window config keys: {sorted(unknown)}")
        return cls(**data)


_DETECTION_FIELDS = ("attempt_id", "channel", "time_ps")


@dataclass(frozen=True, eq=False)
class DetectionTable:
    """Time-tagged clicks (attempt, channel, picoseconds after sync) as read-only int64 columns.

    Construction checks every row: channel 0 or 1, time_ps at least 0.
    Errors name the row, counted from 1, or its file line when `lines`
    gives the line of each row. Classification ignores row order; the
    generators emit rows sorted by (attempt_id, time_ps) and the writer
    keeps the order it is given.
    """

    attempt_id: np.ndarray
    channel: np.ndarray
    time_ps: np.ndarray
    lines: InitVar[Sequence[int] | None] = None

    def __post_init__(self, lines: Sequence[int] | None) -> None:
        _check_columns(self, _DETECTION_FIELDS, lines)

    def __len__(self) -> int:
        return len(self.attempt_id)


_ATTEMPT_FIELDS = ("attempt_id", "setting_a", "setting_b", "outcome_a", "outcome_b")


@dataclass(frozen=True, eq=False)
class AttemptTable:
    """Herald-independent settings and outcomes per attempt as read-only int64 columns.

    Construction checks every row, vectorised: settings 0 or 1, outcomes
    +1 or -1, no attempt_id twice. It then sorts the rows by attempt_id.
    Errors name the row, counted from 1 in the given order, or its file
    line when `lines` gives the line of each row.
    """

    attempt_id: np.ndarray
    setting_a: np.ndarray
    setting_b: np.ndarray
    outcome_a: np.ndarray
    outcome_b: np.ndarray
    lines: InitVar[Sequence[int] | None] = None

    def __post_init__(self, lines: Sequence[int] | None) -> None:
        lines, unit = _check_columns(self, _ATTEMPT_FIELDS, lines)
        order = np.argsort(self.attempt_id, kind="stable")
        ids = self.attempt_id[order]
        repeats = np.flatnonzero(ids[1:] == ids[:-1])
        if repeats.size:
            later = order[repeats + 1]
            j = int(np.argmin(later))
            first = order[repeats[j]]
            raise ValueError(
                f"{unit} {lines[later[j]]}: duplicate attempt_id {ids[repeats[j]]}, first on {unit} {lines[first]}"
            )
        for name in _ATTEMPT_FIELDS:
            object.__setattr__(self, name, _read_only(getattr(self, name)[order]))

    def __len__(self) -> int:
        return len(self.attempt_id)


def _attempt_rows(detections: DetectionTable, attempts: AttemptTable) -> np.ndarray:
    """Row in `attempts` of each detection's attempt; unknown attempt ids raise."""
    rows = np.searchsorted(attempts.attempt_id, detections.attempt_id)
    known = rows < len(attempts)
    known[known] = attempts.attempt_id[rows[known]] == detections.attempt_id[known]
    if not known.all():
        unknown = np.flatnonzero(~known)
        raise ValueError(
            f"{unknown.size} detections name attempt ids missing from the attempt records, "
            f"first attempt_id {detections.attempt_id[unknown[0]]}"
        )
    return rows


@dataclass(frozen=True)
class SweepRow:
    """One window offset's reclassified analysis. P-values are local only.

    Attempts that do not herald are counted by the first reason that
    applies: more than one in-window click in some round (`extra_click`),
    in-window clicks in one round only (`missing_round`), none at all
    (`no_click`). With n, these add up to the number of attempts.
    """

    offset_ps: int
    s: float | None
    sigma: float | None
    n: int
    k: int
    p_local: float | None
    no_click: int
    missing_round: int
    extra_click: int


def sweep(
    detections: DetectionTable,
    table: AttemptTable,
    windows: WindowConfig,
    offsets_ps: Iterable[int],
    beta: float = 0.75,
) -> list[SweepRow]:
    """Reclassify at each common window-start offset and score the result.

    beta, the per-trial winning-probability bound, must lie in [3/4, 1].
    Each offset must be an integer, as a `WindowConfig` field must.
    Detections of an attempt id that has no record raise.
    """
    if not 0.75 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [3/4, 1], got {beta}")
    offsets_ps = list(offsets_ps)
    for offset in offsets_ps:
        _check_picoseconds("offset", offset)
    rows = _attempt_rows(detections, table)
    # Each detection placed once: time since its channel's window start, that
    # time less its round-2 window length, and its (attempt row, channel) cell.
    on_ch1 = detections.channel == 1
    since_start = detections.time_ps - np.where(on_ch1, windows.start_ch1_ps, windows.start_ch0_ps)
    less_second = since_start - np.where(on_ch1, windows.len_second_ch1_ps, windows.len_second_ch0_ps)
    cell = 2 * rows + detections.channel
    out = []
    for offset in offsets_ps:
        offset = int(offset)
        second_start = offset + windows.second_window_offset_ps
        first = (since_start >= offset) & (since_start < offset + windows.len_first_ps)
        second = (since_start >= second_start) & (less_second < second_start)
        # Clicks per (attempt row, channel); with one click per round, its channel is its channel-1 count.
        round_1, round_2 = (np.bincount(cell[hit], minlength=2 * len(table)).reshape(-1, 2) for hit in (first, second))
        clicks_1, clicks_2 = round_1.sum(axis=1), round_2.sum(axis=1)
        heralded = (clicks_1 == 1) & (clicks_2 == 1)
        same_channel = round_1[:, 1] == round_2[:, 1]
        tag = np.where(heralded, np.where(same_channel, HERALD_PSI_PLUS, HERALD_PSI_MINUS), HERALD_NONE)
        cells = CellTable.from_columns(tag, table.setting_a, table.setting_b, table.outcome_a, table.outcome_b)
        k, n = cells.k_n()
        estimate = chsh_s(cells, strict=False)
        extra = (clicks_1 > 1) | (clicks_2 > 1)
        out.append(
            SweepRow(
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
        )
    return out


# An entangled trial's chance to win its game: Tsirelson's bound, (2 + sqrt 2)/4.
TSIRELSON_WIN_PROB = (2.0 + math.sqrt(2.0)) / 4.0

# Mean delay of an afterpulse after its channel's second-round window start.
_AFTERPULSE_DECAY_PS = 1_500.0


@dataclass(frozen=True)
class StreamParams:
    """Knobs of the phenomenological detections that `synth_experiment` draws.

    Signal photons come from entangled attempts only, one per round, with
    emission times decaying at decay_ps; `synth_experiment`'s entangle_prob
    sets how many attempts are entangled. Rates are per attempt:
    reflection_amplitude is the Poisson mean of reflection clicks per
    channel and round, dark_rate the Poisson mean of dark counts per
    channel across the modelled span. The reflection centre is relative to
    the channel's window start and should be negative (before the window).
    """

    decay_ps: float = 12_000.0
    reflection_amplitude: float = 0.0
    reflection_center_ps: float = -2_000.0
    reflection_sigma_ps: float = 250.0
    afterpulse_prob: float = 0.0
    dark_rate: float = 0.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0.0 <= self.afterpulse_prob <= 1.0:
            raise ValueError(f"afterpulse_prob must lie in [0, 1], got {self.afterpulse_prob}")
        for name in ("reflection_amplitude", "dark_rate"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.decay_ps <= 0 or self.reflection_sigma_ps <= 0:
            raise ValueError("time constants must be positive")


def _round_anchor(windows: WindowConfig, channel: int, round_index: int) -> int:
    return windows.start(channel) + (windows.second_window_offset_ps if round_index == 1 else 0)


def _attempt_time_order(attempt: np.ndarray, time: np.ndarray) -> np.ndarray:
    """Row order by attempt, then time, ties kept: complex keys sort by real, then imaginary part."""
    key = np.empty(len(attempt), dtype=np.complex128)
    key.real, key.imag = attempt, time  # attempt ids are exact in float64
    return np.argsort(key, kind="stable")


def synth_experiment(
    params: StreamParams,
    windows: WindowConfig,
    attempts: int,
    seed: int,
    entangle_prob: float = 0.3,
) -> tuple[DetectionTable, AttemptTable]:
    """Detections plus per-attempt settings and outcomes.

    Entangled attempts emit one signal photon in each round, on a uniformly
    random channel; their outcomes win the game of the state implied by the
    two signal channels with probability TSIRELSON_WIN_PROB. All other
    attempts produce uncorrelated outcomes, so heralds caused by
    reflections, afterpulses or dark counts carry no violation. Detection
    rows come out sorted by (attempt, exact time) in one stable sort, ties
    in draw order, and times are rounded half to even and clamped at 0.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    if not 0.0 <= entangle_prob <= 1.0:
        raise ValueError(f"entangle_prob must lie in [0, 1], got {entangle_prob}")
    rng = rngstream.stream(seed)
    entangled = rng.random(attempts) < entangle_prob
    idx = np.flatnonzero(entangled)
    ch_round1 = rng.integers(0, 2, size=len(idx))
    ch_round2 = rng.integers(0, 2, size=len(idx))

    ids: list[np.ndarray] = []
    channels: list[np.ndarray] = []
    times: list[np.ndarray] = []

    def add(attempt: np.ndarray, channel: np.ndarray | int, time: np.ndarray) -> None:
        ids.append(attempt)
        channels.append(np.broadcast_to(channel, attempt.shape))
        times.append(time)

    for round_index, chans in enumerate((ch_round1, ch_round2)):
        anchors = np.where(chans == 0, _round_anchor(windows, 0, round_index), _round_anchor(windows, 1, round_index))
        add(idx, chans, anchors + rng.exponential(params.decay_ps, size=len(idx)))

    if params.reflection_amplitude > 0.0:
        for round_index in (0, 1):
            for channel in (0, 1):
                counts = rng.poisson(params.reflection_amplitude, size=attempts)
                hits = np.repeat(np.arange(attempts), counts)
                center = _round_anchor(windows, channel, round_index) + params.reflection_center_ps
                add(hits, channel, rng.normal(center, params.reflection_sigma_ps, size=len(hits)))

    if params.afterpulse_prob > 0.0:
        # Clicks that precede the second round can retrigger their channel.
        second_start = np.array([_round_anchor(windows, c, 1) for c in (0, 1)])
        attempt, channel, time = (np.concatenate(column) for column in (ids, channels, times))
        early = time < second_start[channel]
        candidates = int(np.count_nonzero(early))
        if candidates:
            fired = rng.random(candidates) < params.afterpulse_prob
            delays = rng.exponential(_AFTERPULSE_DECAY_PS, size=candidates)
            retriggered = channel[early][fired]
            add(attempt[early][fired], retriggered, second_start[retriggered] + delays[fired])

    if params.dark_rate > 0.0:
        lo = min(windows.start_ch0_ps, windows.start_ch1_ps) - 10_000
        hi = (
            max(windows.start_ch0_ps, windows.start_ch1_ps)
            + windows.second_window_offset_ps
            + windows.len_first_ps
        )
        for channel in (0, 1):
            counts = rng.poisson(params.dark_rate, size=attempts)
            hits = np.repeat(np.arange(attempts), counts)
            add(hits, channel, rng.uniform(lo, hi, size=len(hits)))

    attempt, channel, time = (np.concatenate(column) for column in (ids, channels, times))
    order = _attempt_time_order(attempt, time)
    detections = DetectionTable(attempt[order], channel[order], np.maximum(np.rint(time[order]), 0.0).astype(np.int64))

    true_tag = np.zeros(attempts, dtype=np.int64)
    true_tag[idx] = np.where(ch_round1 != ch_round2, HERALD_PSI_MINUS, HERALD_PSI_PLUS)
    u = rng.random((attempts, 5))
    settings_a = (u[:, 0] < 0.5).astype(np.int64)
    settings_b = (u[:, 1] < 0.5).astype(np.int64)
    out_a, out_b = _game_outcomes(true_tag, settings_a, settings_b, u[:, 3] < TSIRELSON_WIN_PROB, u[:, 2], u[:, 4])
    attempt_table = AttemptTable(np.arange(attempts, dtype=np.int64), settings_a, settings_b, out_a, out_b)
    return detections, attempt_table


# ---------------------------------------------------------------------------
# File formats

_DETECTION_HEADER = "attempt_id,channel,time_ps"
_DETECTION_ROW = "%d,%d,%d\r\n"

# An integer as np.loadtxt reads one once its surrounding blanks are
# stripped: ASCII digits after an optional sign.
_INT64_FIELD = re.compile(r"[+-]?[0-9]+")


def write_detections(target: str | IO[str], detections: DetectionTable) -> None:
    """CSV with header attempt_id,channel,time_ps and CRLF line ends, rows in the order given."""
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8", newline="") as handle:
            write_detections(handle, detections)
        return
    target.write(_DETECTION_HEADER + "\r\n")
    _write_rows(target, _DETECTION_ROW, [getattr(detections, f) for f in _DETECTION_FIELDS])


class _BodyLines:
    """(file line number, text) of each non-empty line of a detections CSV body; `[row]` finds one row's line."""

    def __init__(self, body: str) -> None:
        self._body = body

    def __iter__(self) -> Iterator[tuple[int, str]]:
        for lineno, line in enumerate(self._body.split("\n"), start=2):
            line = line.rstrip("\r")
            if line:
                yield lineno, line

    def __getitem__(self, row: int) -> int:
        return next(itertools.islice(self, row, None))[0]


def _malformed_detection_line(body: str) -> str:
    """Message naming the first line of a detections CSV body that is not three integers."""
    for lineno, line in _BodyLines(body):
        fields = line.split(",")
        try:
            if len(fields) != 3:
                raise ValueError(f"expected 3 fields, got {len(fields)}")
            for field in fields:
                if not _INT64_FIELD.fullmatch(field.strip()):
                    raise ValueError(f"not an integer: {field!r}")
                np.int64(int(field))
        except (ValueError, OverflowError) as exc:
            return f"line {lineno}: {exc}"
    return "detections are not rows of three integers"


def read_detections(source: str | IO[str]) -> DetectionTable:
    """Read a detections CSV into columns; a bad row raises, naming its line.

    Empty lines are skipped. Every other line must hold three integers, a
    channel of 0 or 1 and a time of at least 0. An integer is np.loadtxt's:
    ASCII digits after an optional sign, blanks around it ignored, so `+5`,
    ` 0`, `05` and `-0` read as 5, 0, 5 and 0, where the JSON-lines readers
    take only canonical integers. Given a path, errors also name the file.
    """
    if isinstance(source, str):
        return _read_path(source, read_detections, newline="")
    header = source.readline().rstrip("\r\n")
    if header != _DETECTION_HEADER:
        raise ValueError(f"expected header {_DETECTION_HEADER}, got {header!r}")
    body = source.read()
    if not body.strip("\r\n"):
        return DetectionTable([], [], [])
    try:
        rows = np.loadtxt(io.StringIO(body), delimiter=",", dtype=np.int64, ndmin=2, comments=None)
    except ValueError:
        rows = None
    if rows is None or rows.shape[1] != 3:
        raise ValueError(_malformed_detection_line(body))
    return DetectionTable(*rows.T, lines=_BodyLines(body))


def write_attempts(target: str | IO[str], table: AttemptTable) -> None:
    """JSON-lines of attempt records, compact, in attempt_id order."""
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as handle:
            write_attempts(handle, table)
        return
    _write_rows(target, _json_row(_ATTEMPT_FIELDS), [getattr(table, f) for f in _ATTEMPT_FIELDS])


def read_attempts(source: str | IO[str]) -> AttemptTable:
    """Read JSON-lines attempt records; a bad record raises, naming its line.

    Every field must be an integer, settings 0 or 1, outcomes +1 or -1, and
    no attempt_id may repeat. Given a path, errors also name the file.
    """
    if isinstance(source, str):
        return _read_path(source, read_attempts)
    rows, lines = _read_records(source, _ATTEMPT_FIELDS)
    return AttemptTable(*rows.T, lines=lines)


def write_sweep_csv(target: str | IO[str], rows: Sequence[SweepRow]) -> None:
    """CSV with header offset_ps,S,sigma,n,k,p_local; missing values empty."""
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8", newline="") as handle:
            write_sweep_csv(handle, rows)
        return
    writer = csv.writer(target)
    writer.writerow(["offset_ps", "S", "sigma", "n", "k", "p_local"])
    for row in rows:
        writer.writerow(
            [
                row.offset_ps,
                "" if row.s is None else repr(row.s),
                "" if row.sigma is None else repr(row.sigma),
                row.n,
                row.k,
                "" if row.p_local is None else repr(row.p_local),
            ]
        )
