"""Event-ready CHSH trial records and their scoring.

A trial is one event-ready attempt: a herald tag from the third station,
one binary setting and one +-1 outcome per side. The tag selects which of
the two sign-flipped CHSH games the pair of stations is playing:

* tag -1: win when (-1)^(a*b) * x * y = +1,
* tag +1: win when (-1)^(a*(b XOR 1)) * x * y = +1,
* tag  0: no herald, the attempt is never scored.

Both game variants share the single win indicator
|t| * ((-1)^(a*(b + (t+1)/2)) * x*y + 1) / 2, which `win_indicator`
implements verbatim. A `TrialSet` holds trials as checked int64 columns,
and k, n, the correlators and S are read from the `CellTable` tabulated
over them.

This module also owns what the record tables of trials, attempts and
detections share: one construction check that makes each column a
read-only int64 column and checks lengths and domains, and the JSON-lines
format of integer records: one reader and one chunked row writer, both
on one vectorised row formatter. Errors name the row, or the file line.
"""
from __future__ import annotations

import io
import itertools
import json
import math
import operator
import warnings
from dataclasses import InitVar, dataclass
from typing import IO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .pvalues import _reading

HERALD_PSI_MINUS = -1
HERALD_NONE = 0
HERALD_PSI_PLUS = 1

SETTING_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))

# Cell signs of the CHSH combination for each heralded state, in
# SETTING_PAIRS order.
CHSH_SIGNS = {
    HERALD_PSI_MINUS: (1, 1, 1, -1),
    HERALD_PSI_PLUS: (1, 1, -1, 1),
}

_TRIAL_FIELDS = ("index", "tag", "setting_a", "setting_b", "outcome_a", "outcome_b")

# Domain of each record field that has one, and how errors name it: a
# tuple of allowed values, or an int the values must be at least.
_DOMAINS = {
    "index": (1, "a positive integer"),
    "tag": ((HERALD_PSI_MINUS, HERALD_NONE, HERALD_PSI_PLUS), "-1, 0 or +1"),
    "setting_a": ((0, 1), "the bit 0 or 1"),
    "setting_b": ((0, 1), "the bit 0 or 1"),
    "outcome_a": ((-1, 1), "+1 or -1"),
    "outcome_b": ((-1, 1), "+1 or -1"),
    "channel": ((0, 1), "0 or 1"),
    "time_ps": (0, ">= 0"),
}


def _in_domain(name: str, column: np.ndarray) -> np.ndarray:
    allowed = _DOMAINS[name][0]
    return np.logical_or.reduce([column == v for v in allowed]) if isinstance(allowed, tuple) else column >= allowed


def _check_domains(columns: Mapping[str, np.ndarray], lines: Sequence[int], unit: str) -> None:
    """Raise if a column with a domain holds a value outside it.

    Names the first offending row i as `{unit} {lines[i]}`, and within it
    the first such field in column order.
    """
    names = [name for name in columns if name in _DOMAINS]
    valid = np.array([_in_domain(name, columns[name]) for name in names])
    bad = np.flatnonzero(~valid.all(axis=0))
    if bad.size:
        i = int(bad[0])
        name = names[int(np.flatnonzero(~valid[:, i])[0])]
        raise ValueError(f"{unit} {lines[i]}: {name} must be {_DOMAINS[name][1]}, got {columns[name][i]}")


def _read_only(column: np.ndarray) -> np.ndarray:
    column.flags.writeable = False
    return column


def _check_columns(table: object, fields: Sequence[str], lines: Sequence[int] | None) -> tuple[Sequence[int], str]:
    """Replace each of `fields` on the frozen dataclass `table` by a read-only 1-D int64 copy.

    The columns must have equal lengths and values inside their `_DOMAINS`;
    errors name the row, counted from 1, or its line in `lines`. Returns
    the lines and the unit that errors name, for the caller's own checks.
    """
    columns = {}
    for name in fields:
        column = np.asarray(getattr(table, name))
        if column.ndim != 1 or (column.size and column.dtype.kind not in "iu"):
            raise ValueError(f"{name} must be a one-dimensional column of integers")
        columns[name] = _read_only(column.astype(np.int64))
        object.__setattr__(table, name, columns[name])
    lengths = {name: len(column) for name, column in columns.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"{type(table).__name__} columns must have equal lengths, got {lengths}")
    unit = "row" if lines is None else "line"
    lines = range(1, len(columns[fields[0]]) + 1) if lines is None else lines
    _check_domains(columns, lines, unit)
    return lines, unit


@dataclass(frozen=True, eq=False)
class TrialSet:
    """Trials as equal-length, read-only int64 columns.

    Construction checks every row: index at least 1, tag -1, 0 or +1,
    settings 0 or 1, outcomes +1 or -1, then each index above the previous
    row's. Errors name the row, counted from 1, or its file line when
    `lines` gives the line of each row. Outcomes are recorded even when
    tag = 0, but such trials never enter any statistic.
    """

    index: np.ndarray
    tag: np.ndarray
    setting_a: np.ndarray
    setting_b: np.ndarray
    outcome_a: np.ndarray
    outcome_b: np.ndarray
    lines: InitVar[Sequence[int] | None] = None

    def __post_init__(self, lines: Sequence[int] | None) -> None:
        lines, unit = _check_columns(self, _TRIAL_FIELDS, lines)
        index = self.index
        bad = np.flatnonzero(index[1:] <= index[:-1])
        if bad.size:
            i = int(bad[0]) + 1
            raise ValueError(
                f"{unit} {lines[i]}: trial indices must be strictly increasing, got {index[i]} after {index[i - 1]}"
            )

    def __len__(self) -> int:
        return len(self.index)

    def cells(self) -> CellTable:
        """The heralded trials tabulated over the 2x4 (tag, setting_a, setting_b) cells."""
        return CellTable.from_columns(self.tag, self.setting_a, self.setting_b, self.outcome_a, self.outcome_b)


def win_indicator(tag: int, setting_a: int, setting_b: int, outcome_a: int, outcome_b: int) -> int:
    """1 if the trial wins its game, 0 otherwise (always 0 when tag = 0)."""
    for name, value in zip(_TRIAL_FIELDS[1:], (tag, setting_a, setting_b, outcome_a, outcome_b)):
        allowed, described = _DOMAINS[name]
        if isinstance(value, bool) or value not in allowed:
            raise ValueError(f"{name} must be {described}, got {value!r}")
    if tag == 0:
        return 0
    exponent = setting_a * (setting_b + (tag + 1) // 2)
    product = (-1) ** exponent * outcome_a * outcome_b
    return (product + 1) // 2


def _required_output_xor(tag, setting_a, setting_b):
    """XOR of the two output bits that wins the game of a heralded tag; scalars or integer arrays alike."""
    return setting_a & (setting_b ^ (tag == HERALD_PSI_PLUS))


def _game_outcomes(tags, settings_a, settings_b, wins, u_a, u_b):
    """(outcome_a, outcome_b) columns that win each heralded game where `wins` holds and lose it elsewhere.

    Outcome a is +1 where the uniform `u_a` is below 1/2. Outcome b follows
    from a and the game; on an attempt with no herald it is +1 where `u_b`
    is below 1/2.
    """
    out_a = np.where(u_a < 0.5, 1, -1)
    required = 1 - 2 * _required_output_xor(tags, settings_a, settings_b)
    out_b = np.where(
        tags == HERALD_NONE,
        np.where(u_b < 0.5, 1, -1),
        np.where(wins, required * out_a, -required * out_a),
    )
    return out_a, out_b


def aggregate(trials: TrialSet) -> tuple[int, int]:
    """(k, n): total wins and total heralded trials."""
    return trials.cells().k_n()


@dataclass(frozen=True)
class CorrelatorCell:
    """Mean outcome product and its binomial-style standard error."""

    e: float
    count: int
    stderr: float


@dataclass(frozen=True)
class CellTable:
    """Heralded trials tabulated over the 2x4 (tag, setting_a, setting_b) cells.

    Entry i of `count` and `product_sum` (the sum of outcome_a * outcome_b)
    belongs to cell i = 4 * (tag == +1) + 2 * setting_a + setting_b, so the
    four cells of each state follow SETTING_PAIRS. k, n, the correlators and
    S are all read from this table.
    """

    count: tuple[int, ...]
    product_sum: tuple[int, ...]

    @classmethod
    def from_columns(
        cls,
        tag: np.ndarray,
        setting_a: np.ndarray,
        setting_b: np.ndarray,
        outcome_a: np.ndarray,
        outcome_b: np.ndarray,
    ) -> "CellTable":
        """Tabulate equal-length integer columns of in-domain values; tag 0 rows are skipped."""
        heralded = tag != HERALD_NONE
        cell = 4 * (tag[heralded] > 0) + 2 * setting_a[heralded] + setting_b[heralded]
        agree = outcome_a[heralded] == outcome_b[heralded]
        count = np.bincount(cell, minlength=8)
        agreeing = np.bincount(cell[agree], minlength=8)
        return cls(count=tuple(count.tolist()), product_sum=tuple((2 * agreeing - count).tolist()))

    def _cells(self) -> Iterator[tuple[int, int, int, int, int, int]]:
        """(tag, a, b, win sign, count, product sum) per cell.

        The win sign (-1)^(a*(b + (t+1)/2)) of the win indicator equals the
        state's CHSH sign for that setting pair.
        """
        for t, (tag, signs) in enumerate(CHSH_SIGNS.items()):
            for p, ((a, b), sign) in enumerate(zip(SETTING_PAIRS, signs)):
                yield tag, a, b, sign, self.count[4 * t + p], self.product_sum[4 * t + p]

    def k_n(self) -> tuple[int, int]:
        """(k, n): wins and heralded trials; a cell wins (count + sign * product_sum) / 2 times."""
        k = sum((count + sign * total) // 2 for _, _, _, sign, count, total in self._cells())
        return k, sum(self.count)

    def correlators(self) -> dict[tuple[int, int, int], CorrelatorCell]:
        """Per populated (tag, setting_a, setting_b) cell: E = <x*y>, count, stderr."""
        out = {}
        for tag, a, b, _, count, total in self._cells():
            if count:
                e = total / count
                out[(tag, a, b)] = CorrelatorCell(
                    e=e, count=count, stderr=math.sqrt(max(0.0, 1.0 - e * e) / count)
                )
        return out


def correlators(trials: TrialSet) -> dict[tuple[int, int, int], CorrelatorCell]:
    """Per (tag, setting_a, setting_b) cell: E = <x*y>, count, stderr.

    stderr is sqrt((1 - E^2) / count). Cells without trials are absent from
    the result; they are never reported as zero correlation.
    """
    return trials.cells().correlators()


@dataclass(frozen=True)
class ChshEstimate:
    """CHSH S per heralded state plus their event-count-weighted average.

    A state absent from the data has value None and weight zero. sigma is
    the weighted-average uncertainty, propagated from the per-cell standard
    errors in quadrature (independent-cell assumption, no covariances).
    """

    s_psi_minus: float | None
    s_psi_plus: float | None
    s_weighted: float
    sigma: float
    n_psi_minus: int
    n_psi_plus: int


def chsh_s(table: CellTable, strict: bool = True) -> ChshEstimate | None:
    """CHSH combination per state and the count-weighted average, from `TrialSet.cells()`.

    A state that has heralded trials but misses one of its four setting
    cells raises, naming the cell, and so does a table with no heralded
    trials, when `strict`. Otherwise the state is left out, and with no
    state left the result is None instead of an error. Window sweeps use
    the lenient form, so a sparse offset still reports its (n, k) with S
    missing rather than guessed.
    """
    cells = table.correlators()
    per_state: dict[int, tuple[float, float, int]] = {}
    for tag, signs in CHSH_SIGNS.items():
        state_cells = [cells.get((tag, a, b)) for a, b in SETTING_PAIRS]
        count = sum(cell.count for cell in state_cells if cell is not None)
        if count == 0:
            continue
        if None in state_cells:
            if not strict:
                continue
            a, b = SETTING_PAIRS[state_cells.index(None)]
            state = "psi-minus" if tag == HERALD_PSI_MINUS else "psi-plus"
            raise ValueError(f"{state} has heralded trials but no events in setting cell ({a},{b})")
        s = 0.0
        var = 0.0
        for sign, cell in zip(signs, state_cells):
            s += sign * cell.e
            var += cell.stderr**2
        per_state[tag] = (s, var, count)
    if not per_state:
        if not strict:
            return None
        raise ValueError("no heralded trials: S is undefined")
    total = sum(count for _, _, count in per_state.values())
    s_weighted = sum(s * count for s, _, count in per_state.values()) / total
    sigma = math.sqrt(sum(var * (count / total) ** 2 for _, var, count in per_state.values()))
    minus = per_state.get(HERALD_PSI_MINUS)
    plus = per_state.get(HERALD_PSI_PLUS)
    return ChshEstimate(
        s_psi_minus=minus[0] if minus else None,
        s_psi_plus=plus[0] if plus else None,
        s_weighted=s_weighted,
        sigma=sigma,
        n_psi_minus=minus[2] if minus else 0,
        n_psi_plus=plus[2] if plus else 0,
    )


# ---------------------------------------------------------------------------
# JSON-lines records of integer fields

# Rows formatted per write call; bounds the transient arrays and strings of a large table.
_WRITE_CHUNK = 65_536
# Characters read per pass of the record reader's fast path, then up to the
# end of the line; bounds its transient copies.
_READ_CHUNK = 1 << 20
# Every byte but a digit or '-' as a space, so a compact record reads as its integers.
_INTEGER_BYTES = bytes(c if chr(c) in "0123456789-" else 32 for c in range(256))


def _json_row(fields: Sequence[str]) -> str:
    """The compact JSON-lines template of one record, keys in `fields` order."""
    return "{" + ",".join(f'"{name}":%d' for name in fields) + "}\n"


def _compact_rows(chunk: str, row: str, width: int) -> np.ndarray | None:
    """The rows of `chunk` if it is exactly what the writer emits with `row`, else None.

    The integers are parsed in one numpy call and kept only if
    `_format_rows` gives the bytes of `chunk` back, so leading zeros, +, -0,
    floats, bools, whitespace, other or reordered keys, empty lines, a
    missing final newline and values beyond 64 bits all give None.
    """
    try:
        data = chunk.encode("ascii")
        with warnings.catch_warnings():
            # numpy 1.x only warns where numpy 2 raises on unparsed text.
            warnings.simplefilter("error")
            values = np.fromstring(data.translate(_INTEGER_BYTES), dtype=np.int64, sep=" ")
    except (ValueError, Warning):
        return None
    if values.size % width:
        return None
    rows = values.reshape(-1, width)
    return rows if _format_rows(rows, row) == data else None


def _json_records(source: Iterable[str], fields: Sequence[str], first_line: int) -> tuple[np.ndarray, list[int]]:
    """(rows, line numbers) of JSON-lines text, parsed line by line with json.loads; see _read_records."""
    values_of = operator.itemgetter(*fields)
    rows = []
    lines = []
    for lineno, line in enumerate(source, start=first_line):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: invalid JSON ({exc.msg})") from None
        if not isinstance(record, dict):
            raise ValueError(f"line {lineno}: expected a JSON object, got {type(record).__name__}")
        try:
            rows.append(values_of(record))
        except KeyError:
            raise ValueError(f"line {lineno}: missing fields {[f for f in fields if f not in record]}") from None
        lines.append(lineno)
    # One pass over all values in C; the slow scan below only locates an error.
    if set(map(type, itertools.chain.from_iterable(rows))) - {int}:
        i, j = next((i, j) for i, row in enumerate(rows) for j, value in enumerate(row) if type(value) is not int)
        raise ValueError(f"line {lines[i]}: field {fields[j]} must be an integer, got {rows[i][j]!r}")
    try:
        return np.array(rows, dtype=np.int64).reshape(-1, len(fields)), lines
    except OverflowError:
        i = next(i for i, row in enumerate(rows) if not all(-(2**63) <= v < 2**63 for v in row))
        raise ValueError(f"line {lines[i]}: fields must fit in 64-bit integers") from None


def _read_records(source: IO[str], fields: Sequence[str]) -> tuple[np.ndarray, Sequence[int]]:
    """(rows, line numbers) of a JSON-lines file of integer records.

    Empty lines are skipped. Every other line must be a JSON object with an
    integer (not bool) for each of `fields` (two or more), within 64 bits;
    other keys are ignored. Row i holds the values in `fields` order and
    came from line `lines[i]`. A bad record raises, naming its line; JSON
    and missing-field errors are found in line order, type and range errors
    once the whole file is parsed.

    Lines end at "\n". The text is read in chunks of whole lines; a chunk
    written exactly as `_json_row(fields)` writes records is parsed as one
    array, and from the first chunk that is not, the rest of the file goes
    line by line through json.loads. Both give the same rows, lines and
    errors.
    """
    row = _json_row(fields)
    parts = []
    while chunk := source.read(_READ_CHUNK):
        if not chunk.endswith("\n"):
            chunk += source.readline()
        rows = _compact_rows(chunk, row, len(fields))
        if rows is None:
            done = sum(map(len, parts))
            rows, lines = _json_records(itertools.chain(io.StringIO(chunk), source), fields, done + 1)
            return np.concatenate([*parts, rows]), [*range(1, done + 1), *lines]
        parts.append(rows)
    rows = np.concatenate(parts) if parts else np.empty((0, len(fields)), dtype=np.int64)
    return rows, range(1, len(rows) + 1)


def _format_rows(rows: np.ndarray, row_format: str) -> bytes:
    """`row_format`, ASCII with one `%d` per column, %-formatted with each row of the int64 `rows` in turn.

    Each field's sign and digits go right-aligned into NUL-padded uint8 rows
    as wide as its column's widest value, between the literal text; the NULs are then dropped.
    """
    literals = [np.frombuffer(part, dtype=np.uint8)[:, None] for part in row_format.encode("ascii").split(b"%d")]
    blocks = [literals[0]]
    for column, literal in zip(rows.T, literals[1:]):
        negative = column < 0
        # -(2**63) negates to itself, which as uint64 is its magnitude.
        magnitude = np.where(negative, -column, column).astype(np.uint64)
        widest = int(magnitude.max(initial=0))
        if widest < 2**32:
            magnitude = magnitude.astype(np.uint32)  # divides several times faster
        digits = np.empty((len(str(widest)), len(rows)), dtype=np.uint8)
        for k in range(len(digits) - 1, -1, -1):
            quotient = magnitude // 10
            # A leading zero becomes NUL; the last digit always stays.
            digits[k] = (magnitude - 10 * quotient + 48) * ((magnitude != 0) | (k == len(digits) - 1))
            magnitude = quotient
        if negative.any():
            blocks.append(negative[None, :] * np.uint8(ord("-")))
        blocks += [digits, literal]
    text = np.concatenate([np.broadcast_to(block, (len(block), len(rows))) for block in blocks])
    return text.T.tobytes().translate(None, b"\0")


def _write_rows(target: IO[str], row_format: str, columns: Sequence[np.ndarray]) -> None:
    """Write `row_format` filled from each row of the integer columns, in chunks of rows."""
    rows = np.column_stack(columns)
    for begin in range(0, len(rows), _WRITE_CHUNK):
        target.write(_format_rows(rows[begin : begin + _WRITE_CHUNK], row_format).decode("ascii"))


def read_trials(path: str) -> TrialSet:
    """Read a JSON-lines trial file; a bad record raises, naming the file and its line."""
    with _reading(path) as source:
        rows, lines = _read_records(source, _TRIAL_FIELDS)
        return TrialSet(*rows.T, lines=lines)


def write_trials(path: str, trials: TrialSet) -> None:
    """Write trials as compact JSON-lines, one record per line, keys in field order."""
    with open(path, "w", encoding="utf-8", newline="") as target:
        _write_rows(target, _json_row(_TRIAL_FIELDS), [getattr(trials, name) for name in _TRIAL_FIELDS])
