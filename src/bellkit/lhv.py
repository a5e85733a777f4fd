"""Local-hidden-variable adversaries for event-ready CHSH games.

Each adversary is a `Strategy`: a finite-state machine of at most 16
states, written as tables. A state fixes the event-ready box's herald rule
and each side's output per local setting; the next state is looked up from
the attempt's full record (tag, settings, output bits). The state is the
whole memory of the past, as in the memory model of the binomial bound
(Gill, arXiv:quant-ph/0301059; Hensen et al., Sci. Rep. 6, 30289, 2016).

Locality is structural: `_run_tape`, the one engine that plays a strategy,
reads the herald from the state before the settings are drawn, and looks
up side A's bit with A's setting only and B's with B's only. Everything
else is allowed and adversarial:

* memory of the full past record, through the state, which also decides
  whether the box heralds, skips or picks the game variant,
* setting bits whose per-trial bias b is drawn from a distribution with
  known mean. The bias always favours setting 0 on both sides:
  Pr[setting = 0] = 1/2 + b. The all-0 classical optimum loses only at
  settings (1, 1), so this is the direction that helps it,
* "early" setting bits, produced soon enough to be signalled across, in
  which case the trial is scored as an outright win (the worst case).

Every random decision comes from a pre-drawn tape with a fixed layout, so
a run is reproducible from its seed, and a tape can be re-run with single
draws changed to check locality. The point of the module is to validate
empirically that the winning-probability bound in `pvalues` dominates
every representable strategy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import rngstream
from .pvalues import BiasParams, beta_win_lemma, pvalue_complete
from .trials import HERALD_NONE, HERALD_PSI_MINUS, HERALD_PSI_PLUS, TrialSet

BIAS_DISTRIBUTIONS = ("point", "two_point", "uniform")

# Tape column layout, one row of uniform draws per attempt.
_T_HERALD, _T_EARLY_A, _T_EARLY_B, _T_BIAS_A, _T_BIAS_B, _T_SET_A, _T_SET_B, _T_OUT_A, _T_OUT_B = range(9)

# play_heralded gives up on a strategy that needs more attempts than this
# many per requested herald.
_MAX_ATTEMPT_FACTOR = 1000


@dataclass(frozen=True)
class RngModel:
    """Imperfect random number generator shared by both sides.

    f is the probability that a setting bit is early; tau is the mean of
    the per-trial bias distribution. Three bias shapes with the same mean
    are available: a point mass at tau, a {0, 1/2} two-point mixture
    (weight 2*tau on the predictable value), and uniform on [0, 2*tau].
    """

    f: float = 0.0
    tau: float = 0.0
    bias_dist: str = "point"

    def __post_init__(self) -> None:
        if not 0.0 <= self.f <= 1.0:
            raise ValueError(f"early probability f must lie in [0, 1], got {self.f}")
        if not 0.0 <= self.tau <= 0.5:
            raise ValueError(f"mean bias tau must lie in [0, 1/2], got {self.tau}")
        if self.bias_dist not in BIAS_DISTRIBUTIONS:
            raise ValueError(f"bias_dist must be one of {BIAS_DISTRIBUTIONS}, got {self.bias_dist!r}")

    def sample_bias(self, u: float) -> float:
        if self.bias_dist == "point":
            return self.tau
        if self.bias_dist == "two_point":
            return 0.5 if u < 2.0 * self.tau else 0.0
        return u * 2.0 * self.tau


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


def _required_output_xor(tag, setting_a, setting_b):
    """XOR of the two output bits that wins the game; scalars or integer arrays alike."""
    return setting_a & (setting_b ^ (tag == HERALD_PSI_PLUS))


def _lost(item: int) -> bool:
    """Whether the attempt with record `item` was heralded and lost."""
    tag, setting_a, setting_b, bit_a, bit_b = item // 16 - 1, item >> 3 & 1, item >> 2 & 1, item >> 1 & 1, item & 1
    return tag != HERALD_NONE and (bit_a ^ bit_b) != _required_output_xor(tag, setting_a, setting_b)


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


def _run_tape(
    strategy: Strategy,
    rng_model: RngModel,
    tape: Sequence[Sequence[float]],
    *,
    state: int = 0,
    stop_after_heralds: int | None = None,
    record: bool = True,
) -> tuple[TrialSet | None, SimStats, int]:
    """Play the tape sequentially from machine state `state`.

    Returns the trials, the counters and the state after the last attempt
    played. With `record`, the played attempts come back as trials indexed
    from 1; without, the trial set is None.
    """
    f = rng_model.f
    herald, outputs, next_state = strategy.herald, strategy.outputs, strategy.next_state
    rows: list[tuple[int, int, int, int, int]] = []
    heralded = wins = early_a = early_b = early_any = 0
    attempts = 0
    for row in tape:
        attempts += 1
        cut, tag_below, tag_above = herald[state]
        tag = tag_below if row[_T_HERALD] < cut else tag_above
        is_early_a = row[_T_EARLY_A] < f
        is_early_b = row[_T_EARLY_B] < f
        bias_a = rng_model.sample_bias(row[_T_BIAS_A])
        bias_b = rng_model.sample_bias(row[_T_BIAS_B])
        setting_a = 0 if row[_T_SET_A] < 0.5 + bias_a else 1
        setting_b = 0 if row[_T_SET_B] < 0.5 + bias_b else 1
        if is_early_a or is_early_b:
            # Early bit: the trial is scored as won outright. Outcomes are
            # synthesized to win the tag's game at the realized settings.
            bit_a = 1 if row[_T_OUT_A] < 0.5 else 0
            bit_b = bit_a ^ _required_output_xor(tag, setting_a, setting_b)
        else:
            out_a, out_b = outputs[state]
            bit_a = 1 if row[_T_OUT_A] < out_a[setting_a] else 0
            bit_b = 1 if row[_T_OUT_B] < out_b[setting_b] else 0
        if tag != HERALD_NONE:
            heralded += 1
            wins += (bit_a ^ bit_b) == _required_output_xor(tag, setting_a, setting_b)
            early_a += is_early_a
            early_b += is_early_b
            early_any += is_early_a or is_early_b
        if record:
            rows.append((tag, setting_a, setting_b, bit_a, bit_b))
        state = next_state[state][16 * (tag + 1) + 8 * setting_a + 4 * setting_b + 2 * bit_a + bit_b]
        if stop_after_heralds is not None and heralded >= stop_after_heralds:
            break
    stats = SimStats(
        attempts=attempts,
        heralded=heralded,
        wins=wins,
        early_a=early_a,
        early_b=early_b,
        early_any=early_any,
    )
    if not record:
        return None, stats, state
    tag, setting_a, setting_b, bit_a, bit_b = np.array(rows, dtype=np.int64).reshape(-1, 5).T
    return TrialSet(np.arange(1, attempts + 1), tag, setting_a, setting_b, 1 - 2 * bit_a, 1 - 2 * bit_b), stats, state


def simulate_with_stats(
    strategy: Strategy,
    rng_model: RngModel,
    attempts: int,
    seed: int,
) -> tuple[TrialSet, SimStats]:
    """Run `attempts` sequential attempts and return trials plus counters."""
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    tape = rngstream.stream(seed).random((attempts, 9)).tolist()
    trialset, stats, _ = _run_tape(strategy, rng_model, tape)
    return trialset, stats


def play_heralded(
    strategy: Strategy,
    rng_model: RngModel,
    n_heralds: int,
    rng: np.random.Generator,
) -> SimStats:
    """Run attempts until `n_heralds` trials are scored; counters only.

    The tape is generated in blocks from `rng`, so adaptive heralding can
    stretch a run without a preallocated bound. The machine state carries
    from one block to the next, so the blocks play as one tape.
    """
    if n_heralds < 1:
        raise ValueError(f"n_heralds must be >= 1, got {n_heralds}")
    block = max(64, int(1.5 * n_heralds))
    totals = [0, 0, 0, 0, 0, 0]
    remaining = n_heralds
    attempts_budget = _MAX_ATTEMPT_FACTOR * n_heralds
    state = 0
    while remaining > 0:
        if totals[0] >= attempts_budget:
            raise RuntimeError(
                f"strategy {strategy.name!r} produced {totals[1]} heralds in {totals[0]} attempts; giving up"
            )
        tape = rng.random((block, 9)).tolist()
        _, stats, state = _run_tape(strategy, rng_model, tape, state=state, stop_after_heralds=remaining, record=False)
        totals[0] += stats.attempts
        totals[1] += stats.heralded
        totals[2] += stats.wins
        totals[3] += stats.early_a
        totals[4] += stats.early_b
        totals[5] += stats.early_any
        remaining = n_heralds - totals[1]
    return SimStats(*totals)


def simulate_reference(
    win_prob_per_state: Mapping[int, float],
    herald_rate: float,
    attempts: int,
    seed: int,
    psi_plus_share: float = 0.5,
) -> TrialSet:
    """I.i.d. synthetic experiment with uniform settings.

    Each attempt heralds with probability `herald_rate`; heralded attempts
    split between the two states per `psi_plus_share` (restricted to the
    states present in `win_prob_per_state`). The trial then wins its game
    with the state's probability, and outcomes consistent with the win or
    loss are synthesized. Not an adversary: this is the stand-in for
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
    if not 0.0 <= psi_plus_share <= 1.0:
        raise ValueError(f"psi_plus_share must lie in [0, 1], got {psi_plus_share}")
    if HERALD_PSI_PLUS not in win_prob_per_state:
        psi_plus_share = 0.0
    elif HERALD_PSI_MINUS not in win_prob_per_state:
        psi_plus_share = 1.0

    rng = rngstream.stream(seed)
    u = rng.random((attempts, 7))
    heralded = u[:, 0] < herald_rate
    tags = np.where(heralded, np.where(u[:, 1] < psi_plus_share, HERALD_PSI_PLUS, HERALD_PSI_MINUS), 0)
    settings_a = (u[:, 2] < 0.5).astype(int)
    settings_b = (u[:, 3] < 0.5).astype(int)
    win_prob = np.zeros(attempts)
    for state, w in win_prob_per_state.items():
        win_prob[tags == state] = w
    wins = u[:, 4] < win_prob
    out_a = np.where(u[:, 5] < 0.5, 1, -1)
    required = 1 - 2 * _required_output_xor(tags, settings_a, settings_b)
    out_b = np.where(
        tags == HERALD_NONE,
        np.where(u[:, 6] < 0.5, 1, -1),
        np.where(wins, required * out_a, -required * out_a),
    )
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
        rate = self.rejection_rate
        return math.sqrt(rate * (1.0 - rate) / self.runs)

    def to_dict(self) -> dict[str, object]:
        return {
            "n": self.n,
            "alpha": self.alpha,
            "beta": self.beta,
            "runs": self.runs,
            "rejection_rate": self.rejection_rate,
            "mc_error": self.mc_error,
            "by_strategy": {
                name: {"rejections": r, "runs": m, "rate": r / m}
                for name, (r, m) in self.by_strategy.items()
            },
        }


def adversary_suite(
    n: int,
    runs: int,
    alpha: float,
    seed: int,
    f: float = 0.0,
    tau: float = 0.0,
    bias_dist: str = "point",
    strategies: Sequence[str] | None = None,
) -> AdversaryReport:
    """False-rejection rate of pvalue_complete over adaptive LHV runs.

    Splits `runs` across the strategy catalog; every run plays until n
    trials are scored and rejects when pvalue_complete(n, k, beta) <= alpha
    with beta the lemma-form bound at (f, tau). Validity contract: the rate
    stays at or below alpha up to Monte Carlo error, for each strategy and
    pooled.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    names = tuple(strategies) if strategies is not None else MEMORY_CATALOG
    if not names:
        raise ValueError("need at least one strategy")
    rng_model = RngModel(f=f, tau=tau, bias_dist=bias_dist)
    beta = beta_win_lemma(BiasParams(f=f, tau=tau))
    p_table = [pvalue_complete(n, k, beta) for k in range(n + 1)]

    per_strategy = {name: [0, 0] for name in names}
    run_index = 0
    for chunk, name in enumerate(names):
        quota = runs // len(names) + (1 if chunk < runs % len(names) else 0)
        strategy = make_strategy(name)
        for _ in range(quota):
            stats = play_heralded(strategy, rng_model, n, rngstream.stream(seed, run_index))
            run_index += 1
            per_strategy[name][1] += 1
            if p_table[stats.wins] <= alpha:
                per_strategy[name][0] += 1
    total_reject = sum(r for r, _ in per_strategy.values())
    return AdversaryReport(
        n=n,
        alpha=alpha,
        beta=beta,
        runs=runs,
        rejections=total_reject,
        by_strategy={name: (r, m) for name, (r, m) in per_strategy.items() if m > 0},
    )
