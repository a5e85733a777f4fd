"""Local-hidden-variable adversaries for event-ready CHSH games.

Each adversary is a `Strategy`: a finite-state machine of at most 16
states, written as tables. A state fixes the event-ready box's herald rule
and each side's output per local setting; the next state is looked up from
the attempt's full record (tag, settings, output bits). The state is the
whole memory of the past, as in the memory model of the binomial bound
(Gill, arXiv:quant-ph/0301059; Hensen et al., Sci. Rep. 6, 30289, 2016).

Locality is structural. `_compile` turns a strategy into two tables
indexed by (row key, state): the attempt's record and the next state. The
row key holds each draw only through its own comparisons, so the herald
comes from the herald draw and the state, whatever the settings; A's bit
comes from A's setting, A's output draw and the state only, and B's from
B's. Everything else is allowed and adversarial:

* memory of the full past record, through the state, which also decides
  whether the box heralds, skips or picks the game variant,
* setting bits biased by tau towards setting 0, independently on each
  side: Pr[setting = 0] = 1/2 + tau. The all-0 classical optimum loses
  only at settings (1, 1), so this is the direction that helps it,
* "early" setting bits, produced soon enough to be signalled across, in
  which case the trial is scored as an outright win (the worst case).

Every random decision comes from a pre-drawn tape with a fixed layout, so
a run is reproducible from its seed, and a tape can be re-run with single
draws changed to check locality. The point of the module is to validate
empirically that the winning-probability bound in `pvalues` dominates
every representable strategy.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import rngstream
from .pvalues import BiasParams, beta_win_lemma, pvalue_complete
from .trials import HERALD_NONE, HERALD_PSI_MINUS, HERALD_PSI_PLUS, TrialSet, _game_outcomes, _required_output_xor

# Tape column layout, one row of uniform draws per attempt. The two bias
# columns are drawn but not read, so that every other column keeps its place.
_T_HERALD, _T_EARLY_A, _T_EARLY_B, _T_BIAS_A, _T_BIAS_B, _T_SET_A, _T_SET_B, _T_OUT_A, _T_OUT_B = range(9)

# _play_heralded gives up on a strategy that needs more attempts than this
# many per requested herald.
_MAX_ATTEMPT_FACTOR = 1000

# _play_heralded draws at most this many tape rows at once, so its memory
# does not grow with the number of runs.
_BATCH_ROWS = 1 << 14


@dataclass(frozen=True)
class Strategy:
    """A local adversary as a finite-state machine that starts in state 0.

    herald[s] = (cut, tag_below, tag_above): in state s the event-ready box
    emits tag_below if its draw is below cut, else tag_above; cut = 1.0
    means always, since draws lie in [0, 1).
    outputs[s][side][setting]: the probability that side 0 (A) or 1 (B)
    outputs bit 1 at its own setting. The bit is 1 if the side's draw is
    below it, so 0 and 1 are fixed answers and 1/2 is a coin.
    next_state[s][item]: the state after an attempt whose full record is
    item = 16 (tag + 1) + 8 setting_a + 4 setting_b + 2 bit_a + bit_b.
    """

    name: str
    herald: tuple[tuple[float, int, int], ...]
    outputs: tuple[tuple[tuple[float, float], tuple[float, float]], ...]
    next_state: tuple[tuple[int, ...], ...]


def _fields(item):
    """(tag, setting_a, setting_b, bit_a, bit_b) of the attempt record `item`; scalars or integer arrays alike."""
    return item // 16 - 1, item >> 3 & 1, item >> 2 & 1, item >> 1 & 1, item & 1


def _lost(item):
    """Whether the attempt with record `item` was heralded and lost; scalars or integer arrays alike."""
    tag, setting_a, setting_b, bit_a, bit_b = _fields(item)
    return (tag != HERALD_NONE) & ((bit_a ^ bit_b) != _required_output_xor(tag, setting_a, setting_b))


_RECORD_HERALDED = _fields(np.arange(48))[0] != HERALD_NONE
_RECORD_WON = _RECORD_HERALDED & ~_lost(np.arange(48))


# The 16 deterministic output tables; table i is (a0, a1, b0, b1) = i in binary.
_DETERMINISTIC_OUTPUTS = [
    ((float(i >> 3 & 1), float(i >> 2 & 1)), (float(i >> 1 & 1), float(i & 1))) for i in range(16)
]
_ZEROS = ((0.0, 0.0), (0.0, 0.0))
_ALWAYS_PSI_MINUS = (1.0, HERALD_PSI_MINUS, HERALD_PSI_MINUS)


def _machine(name: str, herald, outputs, step=lambda s, item: s) -> Strategy:
    """The Strategy with these herald and output rows, one per state, whose state s moves to step(s, item)."""
    next_state = tuple(tuple(step(s, item) for item in range(48)) for s in range(len(herald)))
    return Strategy(name, tuple(herald), tuple(outputs), next_state)


CATALOG: dict[str, Strategy] = {
    strategy.name: strategy
    for strategy in (
        # Memoryless deterministic outputs, all 0: the classical optimum.
        _machine("classical-optimal", [_ALWAYS_PSI_MINUS], [_ZEROS]),
        # Uniformly random outputs on both sides; wins half the time.
        _machine("coin-flip", [_ALWAYS_PSI_MINUS], [((0.5, 0.5), (0.5, 0.5))]),
        # Cycles to the next deterministic table after every scored loss.
        _machine(
            "loss-switching", [_ALWAYS_PSI_MINUS] * 16, _DETERMINISTIC_OUTPUTS, lambda s, item: (s + _lost(item)) % 16
        ),
        # Deterministic table d & 15 of the rolling hash of the full record,
        # d <- (d * 1000003 + item + 1) & (2^61 - 1). The mask keeps the low
        # bits and 1000003 = 3 (mod 16), so d & 15 steps to (3 s + item + 1)
        # mod 16 from its own old value s alone: 16 states play the hash.
        _machine(
            "streak-keyed", [_ALWAYS_PSI_MINUS] * 16, _DETERMINISTIC_OUTPUTS, lambda s, item: (3 * s + item + 1) % 16
        ),
        # Event-ready box that mostly heralds only after a win: state 0 after
        # a won trial (or none yet), 1 after a lost one, unchanged by an
        # attempt not heralded. A 25% escape rate keeps runs finite.
        _machine(
            "herald-gating",
            [_ALWAYS_PSI_MINUS, (0.25, HERALD_PSI_MINUS, HERALD_NONE)],
            [_ZEROS] * 2,
            lambda s, item: s if item // 16 - 1 == HERALD_NONE else int(_lost(item)),
        ),
        # Heralds the two game variants in equal proportion, classical outputs.
        _machine("state-mixing", [(0.5, HERALD_PSI_PLUS, HERALD_PSI_MINUS)], [_ZEROS]),
    )
}

MEMORY_CATALOG = ("classical-optimal", "loss-switching", "streak-keyed", "herald-gating")


def make_strategy(name: str) -> Strategy:
    try:
        return CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown strategy {name!r}, expected one of {sorted(CATALOG)}") from None


@dataclass(frozen=True)
class SimStats:
    """Bookkeeping from one simulation run."""

    attempts: int
    heralded: int
    wins: int
    early_a: int
    early_b: int
    early_any: int

    @property
    def win_rate(self) -> float:
        return self.wins / self.heralded if self.heralded else math.nan


def _compile(strategy: Strategy) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
    """The strategy as tables of the record and the next state over (row key, state).

    A row key is the state-free part of a tape row: both settings, whether
    either side is early, the early coin, and the class of each of the
    herald, A output and B output draws among the strategy's distinct
    thresholds for that draw, returned first. A draw's class is the number
    of thresholds at or below it, so the draw is below threshold c exactly
    when its class is at most c's index. Both tables have the shape of the
    key's fields, then the state.
    """
    cut, tag_below, tag_above = np.array(strategy.herald).T
    outputs = np.array(strategy.outputs)
    # Sorted and deduplicated in Python: np.unique would load numpy.ma.
    cuts = tuple(np.array(sorted(set(v.ravel().tolist()))) for v in (cut, outputs[:, 0], outputs[:, 1]))
    shape = (2, 2, 2, 2, *(len(c) + 1 for c in cuts), len(strategy.herald))
    setting_a, setting_b, early, coin, h, a, b, s = np.indices(shape, sparse=True)
    tag = np.where(h <= np.searchsorted(cuts[0], cut)[s], tag_below[s], tag_above[s]).astype(np.int64)
    below_a = a <= np.searchsorted(cuts[1], outputs[:, 0])[s, setting_a]
    below_b = b <= np.searchsorted(cuts[2], outputs[:, 1])[s, setting_b]
    bit_a = np.where(early, coin, below_a)
    bit_b = np.where(early, bit_a ^ _required_output_xor(tag, setting_a, setting_b), below_b)
    record = 16 * (tag + 1) + 8 * setting_a + 4 * setting_b + 2 * bit_a + bit_b
    return cuts, record, np.array(strategy.next_state)[s, record]


def _run_tapes(
    strategy: Strategy,
    params: BiasParams,
    tapes: np.ndarray,
    state: np.ndarray,
    stop_after_heralds: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Play each run's tape, tapes[r] of shape (rows, 9), from machine state state[r].

    All runs step through their rows in lockstep. Run r stops after its
    stop_after_heralds[r]-th heralded attempt, or at the end of its tape.
    Returns the record of every row, played or not; the counts of each
    run, one row of the SimStats fields in order; and the state after the
    last attempt each run played.
    """
    cuts, record, step = _compile(strategy)
    n_states = record.shape[-1]
    early_a = tapes[..., _T_EARLY_A] < params.f
    early_b = tapes[..., _T_EARLY_B] < params.f
    early_any = early_a | early_b
    key = np.ravel_multi_index(
        (
            tapes[..., _T_SET_A] >= 0.5 + params.tau,
            tapes[..., _T_SET_B] >= 0.5 + params.tau,
            early_any,
            tapes[..., _T_OUT_A] < 0.5,
            *(np.searchsorted(c, tapes[..., i], side="right") for c, i in zip(cuts, (_T_HERALD, _T_OUT_A, _T_OUT_B))),
        ),
        record.shape[:-1],
    )
    runs, rows = key.shape
    at = key * n_states
    if n_states > 1:
        # walked[t] is every run's state before row t, walked[rows] after the last row.
        walked = np.empty((rows + 1, runs), dtype=np.int64)
        walked[0] = current = state
        step = step.ravel()
        for t, row in enumerate(np.ascontiguousarray(at.T), start=1):
            walked[t] = current = step[row + current]
        at += walked[:-1].T
    records = record.ravel()[at]
    heralded = _RECORD_HERALDED[records]
    played = np.full(runs, rows)
    if stop_after_heralds is not None:
        reached = np.cumsum(heralded, axis=1) >= stop_after_heralds[:, None]
        stopped = reached[:, -1]
        played[stopped] = reached[stopped].argmax(axis=1) + 1
        heralded &= np.arange(rows) < played[:, None]
    counted = np.stack([heralded, _RECORD_WON[records], early_a, early_b, early_any], axis=-1) & heralded[..., None]
    counts = np.column_stack([played, counted.sum(axis=1)])
    end = walked[played, np.arange(runs)] if n_states > 1 else state
    return records, counts, end


def simulate_with_stats(
    strategy: Strategy,
    params: BiasParams,
    attempts: int,
    seed: int,
) -> tuple[TrialSet, SimStats]:
    """Run `attempts` sequential attempts and return trials plus counters."""
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    tape = rngstream.stream(seed).random((1, attempts, 9))
    records, counts, _ = _run_tapes(strategy, params, tape, np.zeros(1, dtype=np.int64))
    return _trials(records[0]), SimStats(*counts[0].tolist())


def _trials(records: np.ndarray) -> TrialSet:
    """The attempts with these records as trials indexed from 1."""
    tag, setting_a, setting_b, bit_a, bit_b = _fields(records)
    return TrialSet(np.arange(1, len(records) + 1), tag, setting_a, setting_b, 1 - 2 * bit_a, 1 - 2 * bit_b)


def _play_heralded(strategy: Strategy, params: BiasParams, n_heralds: int, seed: int, runs: range) -> np.ndarray:
    """Each run's counts, one row of SimStats fields, after `n_heralds` scored trials.

    Run r draws its tape from rngstream.stream(seed, r) in blocks of
    max(64, 1.5 n) rows, only while it is short of heralds. Its state
    carries from one block into the next, so the blocks play as one tape.
    Runs play in batches whose blocks hold at most _BATCH_ROWS rows in all.
    """
    if n_heralds < 1:
        raise ValueError(f"n_heralds must be >= 1, got {n_heralds}")
    block = max(64, int(1.5 * n_heralds))
    counts = np.zeros((len(runs), 6), dtype=np.int64)
    state = np.zeros(len(runs), dtype=np.int64)
    batch = max(1, _BATCH_ROWS // block)
    for first in range(0, len(runs), batch):
        rngs = [rngstream.stream(seed, run) for run in runs[first : first + batch]]
        active = np.arange(first, first + len(rngs))
        while active.size:
            # A run goes on only after playing its whole block, so every
            # active run has played as many attempts as the first.
            lead = counts[active[0]]
            if lead[0] >= _MAX_ATTEMPT_FACTOR * n_heralds:
                raise RuntimeError(
                    f"strategy {strategy.name!r} produced {lead[1]} heralds in {lead[0]} attempts; giving up"
                )
            tapes = np.empty((active.size, block, 9))
            for tape, run in zip(tapes, active):
                rngs[run - first].random(out=tape)
            need = n_heralds - counts[active, 1]
            _, played, state[active] = _run_tapes(strategy, params, tapes, state[active], need)
            counts[active] += played
            active = active[counts[active, 1] < n_heralds]
    return counts


def simulate_reference(win_prob_per_state: Mapping[int, float], herald_rate: float, attempts: int, seed: int) -> TrialSet:
    """I.i.d. synthetic experiment with uniform settings.

    Each attempt heralds with probability `herald_rate`; heralded attempts
    split evenly between the two states of `win_prob_per_state`, or all
    take its one state. The trial then wins its game with the state's
    probability, and outcomes consistent with the win or loss are
    synthesized. Not an adversary: this is the stand-in for
    entangled-state statistics.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    if not 0.0 < herald_rate <= 1.0:
        raise ValueError(f"herald_rate must lie in (0, 1], got {herald_rate}")
    if not win_prob_per_state:
        raise ValueError("win_prob_per_state must name at least one state")
    for state, w in win_prob_per_state.items():
        if state not in (HERALD_PSI_MINUS, HERALD_PSI_PLUS):
            raise ValueError(f"states must be -1 or +1, got {state!r}")
        if not 0.0 <= w <= 1.0:
            raise ValueError(f"win probability must lie in [0, 1], got {w}")
    plus_share = 0.5 if len(win_prob_per_state) == 2 else float(HERALD_PSI_PLUS in win_prob_per_state)

    rng = rngstream.stream(seed)
    u = rng.random((attempts, 7))
    heralded = u[:, 0] < herald_rate
    tags = np.where(heralded, np.where(u[:, 1] < plus_share, HERALD_PSI_PLUS, HERALD_PSI_MINUS), 0)
    settings_a = (u[:, 2] < 0.5).astype(int)
    settings_b = (u[:, 3] < 0.5).astype(int)
    win_prob = np.zeros(attempts)
    for state, w in win_prob_per_state.items():
        win_prob[tags == state] = w
    out_a, out_b = _game_outcomes(tags, settings_a, settings_b, u[:, 4] < win_prob, u[:, 5], u[:, 6])
    return TrialSet(np.arange(1, attempts + 1), tags, settings_a, settings_b, out_a, out_b)


@dataclass(frozen=True)
class AdversaryReport:
    """False-rejection audit of the complete analysis against the catalog."""

    n: int
    alpha: float
    beta: float
    runs: int
    rejections: int
    by_strategy: Mapping[str, tuple[int, int]]

    @property
    def rejection_rate(self) -> float:
        return self.rejections / self.runs

    @property
    def mc_error(self) -> float:
        return _rate_error(self.rejections, self.runs)

    def to_dict(self) -> dict[str, object]:
        return {
            "n": self.n,
            "alpha": self.alpha,
            "beta": self.beta,
            "runs": self.runs,
            "rejection_rate": self.rejection_rate,
            "mc_error": self.mc_error,
            "by_strategy": {
                name: {"rejections": r, "runs": m, "rate": r / m, "mc_error": _rate_error(r, m)}
                for name, (r, m) in self.by_strategy.items()
            },
        }


def _rate_error(rejections: int, runs: int) -> float:
    """Binomial standard error sqrt(rate (1 - rate) / runs) of the rejection rate rejections / runs."""
    rate = rejections / runs
    return math.sqrt(rate * (1.0 - rate) / runs)


def _least_rejected_wins(n: int, beta: float, alpha: float) -> int:
    """Least k in 0..n with pvalue_complete(n, k, beta) <= alpha, or n + 1 if none.

    pvalue_complete is nonincreasing in k, so bisection finds it from
    O(log n) tails, where a table of all n + 1 tails costs O(n^2) pmf terms.
    """
    return bisect.bisect_left(range(n + 1), True, key=lambda k: pvalue_complete(n, k, beta) <= alpha)


def adversary_suite(
    n: int,
    runs: int,
    alpha: float,
    seed: int,
    f: float = 0.0,
    tau: float = 0.0,
    strategies: Sequence[str] | None = None,
) -> AdversaryReport:
    """False-rejection rate of pvalue_complete over adaptive LHV runs.

    Splits `runs` across `strategies` (default the memory catalog), each
    named at most once and given at least one run; every run plays until
    n trials are scored and rejects when pvalue_complete(n, k, beta) <=
    alpha with beta the lemma-form bound at (f, tau). Validity contract: the rate stays at or
    below alpha up to Monte Carlo error, for each strategy and pooled.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    names = tuple(strategies) if strategies is not None else MEMORY_CATALOG
    if not names:
        raise ValueError("need at least one strategy")
    repeated = [name for i, name in enumerate(names) if name in names[:i]]
    if repeated:
        raise ValueError(f"strategy {repeated[0]!r} is named more than once")
    if runs < len(names):
        raise ValueError(f"runs must be at least the number of strategies, {len(names)}, got {runs}")
    params = BiasParams(f=f, tau=tau)
    beta = beta_win_lemma(params)
    k_reject = _least_rejected_wins(n, beta, alpha)

    per_strategy = {}
    run_index = 0
    for chunk, name in enumerate(names):
        quota = runs // len(names) + (1 if chunk < runs % len(names) else 0)
        strategy = make_strategy(name)
        wins = _play_heralded(strategy, params, n, seed, range(run_index, run_index + quota))[:, 2]
        per_strategy[name] = (int(np.count_nonzero(wins >= k_reject)), quota)
        run_index += quota
    return AdversaryReport(
        n=n,
        alpha=alpha,
        beta=beta,
        runs=runs,
        rejections=sum(r for r, _ in per_strategy.values()),
        by_strategy=per_strategy,
    )
