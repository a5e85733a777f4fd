"""Event-ready CHSH trial data model and scoring.

A trial is one event-ready attempt: a herald tag from the third station,
one binary setting and one +-1 outcome per side. The tag selects which of
the two sign-flipped CHSH games the pair of stations is playing:

* tag -1: win when (-1)^(a*b) * x * y = +1,
* tag +1: win when (-1)^(a*(b XOR 1)) * x * y = +1,
* tag  0: no herald, the attempt is never scored.

Both game variants share the single win indicator
|t| * ((-1)^(a*(b + (t+1)/2)) * x*y + 1) / 2, which this module implements
verbatim. Everything here is a pure function over immutable values.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Mapping

import numpy as np

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

_TAGS = (-1, 0, 1)
_BITS = (0, 1)
_SIGNS = (-1, 1)


def _check_domains(tag: int, setting_a: int, setting_b: int, outcome_a: int, outcome_b: int) -> None:
    if tag not in _TAGS:
        raise ValueError(f"herald tag must be -1, 0 or +1, got {tag!r}")
    for name, value in (("setting_a", setting_a), ("setting_b", setting_b)):
        if value not in _BITS or isinstance(value, bool):
            raise ValueError(f"{name} must be the bit 0 or 1, got {value!r}")
    for name, value in (("outcome_a", outcome_a), ("outcome_b", outcome_b)):
        if value not in _SIGNS or isinstance(value, bool):
            raise ValueError(f"{name} must be +1 or -1, got {value!r}")


@dataclass(frozen=True, slots=True)
class Trial:
    """One event-ready attempt.

    Outcomes are recorded even when tag = 0, but such attempts never enter
    any statistic.
    """

    index: int
    tag: int
    setting_a: int
    setting_b: int
    outcome_a: int
    outcome_b: int

    def __post_init__(self) -> None:
        if isinstance(self.index, bool) or int(self.index) != self.index or self.index < 1:
            raise ValueError(f"trial index must be a positive integer, got {self.index!r}")
        _check_domains(self.tag, self.setting_a, self.setting_b, self.outcome_a, self.outcome_b)

    @property
    def heralded(self) -> bool:
        return self.tag != 0


@dataclass(frozen=True)
class TrialSet:
    """Ordered collection of trials with run provenance."""

    trials: tuple[Trial, ...]
    label: str = ""
    seed: int | None = None
    generator: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "trials", tuple(self.trials))
        last = 0
        for trial in self.trials:
            if trial.index <= last:
                raise ValueError(
                    f"trial indices must be strictly increasing, got {trial.index} after {last}"
                )
            last = trial.index

    def __len__(self) -> int:
        return len(self.trials)

    def __iter__(self) -> Iterator[Trial]:
        return iter(self.trials)

    def heralded_trials(self) -> tuple[Trial, ...]:
        return tuple(t for t in self.trials if t.tag != 0)


def win_indicator(tag: int, setting_a: int, setting_b: int, outcome_a: int, outcome_b: int) -> int:
    """1 if the trial wins its game, 0 otherwise (always 0 when tag = 0)."""
    _check_domains(tag, setting_a, setting_b, outcome_a, outcome_b)
    if tag == 0:
        return 0
    exponent = setting_a * (setting_b + (tag + 1) // 2)
    product = (-1) ** exponent * outcome_a * outcome_b
    return (product + 1) // 2


def aggregate(trials: TrialSet | Iterable[Trial]) -> tuple[int, int]:
    """(k, n): total wins and total heralded trials."""
    return CellTable.from_trials(trials).k_n()


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

    @classmethod
    def from_trials(cls, trials: TrialSet | Iterable[Trial]) -> "CellTable":
        rows = np.array(
            [(t.tag, t.setting_a, t.setting_b, t.outcome_a, t.outcome_b) for t in trials], dtype=np.int64
        ).reshape(-1, 5)
        return cls.from_columns(*rows.T)

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


def correlators(trials: TrialSet | Iterable[Trial]) -> dict[tuple[int, int, int], CorrelatorCell]:
    """Per (tag, setting_a, setting_b) cell: E = <x*y>, count, stderr.

    stderr is sqrt((1 - E^2) / count). Cells without trials are absent from
    the result; they are never reported as zero correlation.
    """
    return CellTable.from_trials(trials).correlators()


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


def chsh(table: CellTable, strict: bool = True) -> ChshEstimate | None:
    """CHSH combination per state and the count-weighted average.

    A state that has heralded trials but misses one of its four setting
    cells raises, naming the cell, when `strict`; otherwise the state is
    left out, and with no state left the result is None instead of an
    error. Window sweeps use the lenient form, so a sparse offset still
    reports its (n, k) with S missing rather than guessed.
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


def chsh_s(trials: TrialSet | Iterable[Trial]) -> ChshEstimate:
    """CHSH combination per state and the count-weighted average.

    Raises if a state that has heralded trials is missing one of its four
    setting cells, naming the cell, or if there are no heralded trials.
    """
    return chsh(CellTable.from_trials(trials))


_JSON_FIELDS = ("index", "tag", "setting_a", "setting_b", "outcome_a", "outcome_b")


def _trial_from_record(record: Mapping[str, object], where: str) -> Trial:
    if not isinstance(record, Mapping):
        raise ValueError(f"{where}: expected a JSON object, got {type(record).__name__}")
    missing = [f for f in _JSON_FIELDS if f not in record]
    if missing:
        raise ValueError(f"{where}: missing fields {missing}")
    values = {}
    for name in _JSON_FIELDS:
        value = record[name]
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{where}: field {name} must be an integer, got {value!r}")
        values[name] = value
    try:
        return Trial(**values)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def read_trials(source: str | IO[str], label: str = "") -> TrialSet:
    """Read a JSON-lines trial file, rejecting out-of-domain records."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return read_trials(handle, label=label or source)
    trials = []
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: invalid JSON ({exc.msg})") from None
        trials.append(_trial_from_record(record, f"line {lineno}"))
    return TrialSet(trials=tuple(trials), label=label)


def write_trials(target: str | IO[str], trials: TrialSet | Iterable[Trial]) -> None:
    """Write trials as JSON-lines, one record per line."""
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as handle:
            write_trials(handle, trials)
        return
    for t in trials:
        target.write(
            json.dumps(
                {
                    "index": t.index,
                    "tag": t.tag,
                    "setting_a": t.setting_a,
                    "setting_b": t.setting_b,
                    "outcome_a": t.outcome_a,
                    "outcome_b": t.outcome_b,
                },
                separators=(",", ":"),
            )
        )
        target.write("\n")
