"""Uniformity tests on recorded setting choices and their joint significance.

Four null-hypothesis tests run against one 2x2 table of setting-pair
counts:

1. side A's marginal is Binomial(n, 1/2)  (exact two-tailed test),
2. side B's marginal likewise,
3. the four counts are jointly Multinomial(n; 1/4 each)  (exact to n = 300),
4. the sides are independent  (Fisher's exact two-sided test at every n).

Running several tests on one dataset inflates the chance that some local
P-value dips below any fixed threshold (the look-elsewhere effect).
`look_elsewhere` corrects for it from one Monte Carlo tape of per-rep
smallest local P-values under uniform settings (common random numbers).
It returns the joint probability that some test rejects at the per-test
level alpha, and the largest per-test threshold whose joint rejection
probability stays at alpha. On that tape the joint rate is a step function
of the threshold, so the threshold is an order statistic of the tape, read
off without a search.

The tape is scored by numpy kernels over whole supports, in log space on a
view of `pvalues._log_factorial`; the observed table's own binomial and
Fisher tests are the scalar ones in `bellkit.pvalues`. Fisher's kernel
sums about n/2 support cells per tape table, so the tape's time grows as
reps * n (about 11 s per 10^4 reps at n = 100,000); `_FISHER_MAX_CELLS`
bounds its memory.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import astuple, dataclass
from typing import IO, Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import pvalues, rngstream
from .pvalues import _LOG_TIE, _check_counts
from .trials import _check_domains, _read_path, _read_records

# Exact enumeration of the joint-uniformity null is used up to this n
# (about 4.7 million tables); larger n falls back to a Monte Carlo
# reference sample of the log pmf.
_ENUMERATION_LIMIT = 300

_MIN_MC_REPS = 1000

# Float guard when comparing log pmfs for "at least as extreme".
_STAT_TOL = 1e-9

# A joint-uniformity null: the sorted log pmf statistic and, where exact, its cumulative probabilities.
_Null = tuple[np.ndarray, np.ndarray | None]

# Most entries in the padded support matrix of one chunk of `fisher_two_sided_tables`.
_FISHER_MAX_CELLS = 4_000_000


@dataclass(frozen=True)
class SettingCounts:
    """Counts of the four setting pairs (a, b)."""

    n00: int
    n01: int
    n10: int
    n11: int

    def __post_init__(self) -> None:
        for name in ("n00", "n01", "n10", "n11"):
            value = getattr(self, name)
            try:
                count = -1 if isinstance(value, bool) else operator.index(value)
            except TypeError:
                count = -1
            if count < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
            object.__setattr__(self, name, count)

    @property
    def total(self) -> int:
        return self.n00 + self.n01 + self.n10 + self.n11

    @property
    def marginal_a(self) -> int:
        """Number of events with setting a = 1."""
        return self.n10 + self.n11

    @property
    def marginal_b(self) -> int:
        """Number of events with setting b = 1."""
        return self.n01 + self.n11

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]], lines: Sequence[int] | None = None) -> "SettingCounts":
        """Tabulate (setting_a, setting_b) pairs.

        A pair that is not two bits raises, naming its row, counted from 1,
        or its file line when `lines` gives the line of each pair.
        """
        pairs = np.asarray(pairs)
        if pairs.size and pairs.dtype.kind not in "iu":
            raise ValueError("settings must be integers")
        setting_a, setting_b = pairs.astype(np.int64).reshape(-1, 2).T
        unit = "row" if lines is None else "line"
        lines = range(1, len(setting_a) + 1) if lines is None else lines
        _check_domains({"setting_a": setting_a, "setting_b": setting_b}, lines, unit)
        return cls(*np.bincount(2 * setting_a + setting_b, minlength=4).tolist())


def read_settings_stream(source: str | IO[str]) -> SettingCounts:
    """Tabulate a raw settings stream: JSON-lines of setting_a, setting_b.

    A bad record raises, naming its line (and the file, given a path).
    """
    if isinstance(source, str):
        return _read_path(source, read_settings_stream)
    return SettingCounts.from_pairs(*_read_records(source, ("setting_a", "setting_b")))


@dataclass(frozen=True)
class McPValue:
    """P-value with its Monte Carlo binomial standard error; an error of 0.0 means the value is exact."""

    p: float
    mc_error: float


def _log_factorial(size: int) -> np.ndarray:
    """lg[k] = log k! for at least k = 0..size-1: a read-only view of the one table, `pvalues._log_factorial`."""
    return np.frombuffer(memoryview(pvalues._log_factorial(size)).toreadonly())


def binom_two_sided_table(n: int) -> np.ndarray:
    """[pvalues.binom_two_sided(k, n) for k in 0..n] in O(n log n): the log pmf sorted, accumulated and looked up."""
    _check_counts(0, n)
    k = np.arange(n + 1)
    lg = _log_factorial(n + 1)
    lp = lg[n] - lg[k] - lg[n - k] + k * math.log(0.5) + (n - k) * math.log1p(-0.5)
    order = np.argsort(lp, kind="stable")
    cum = np.cumsum(np.exp(lp[order]))
    pos = np.searchsorted(lp[order], lp + _LOG_TIE, side="right")
    return np.minimum(cum[np.maximum(pos, 1) - 1], 1.0)


def fisher_two_sided_tables(tables: np.ndarray) -> np.ndarray:
    """Two-sided Fisher exact test of each [n00, n01, n10, n11] row of `tables` (R, 4).

    Rows are processed in chunks of at most `_FISHER_MAX_CELLS` support
    entries, on one log k! table up to the largest grand total.
    """
    tables = np.asarray(tables, dtype=np.int64)
    if tables.ndim != 2 or tables.shape[1] != 4:
        raise ValueError("tables must have shape (R, 4)")
    if (tables < 0).any():
        raise ValueError("cell counts must be nonnegative")
    out = np.empty(len(tables))
    width_bound = int(tables.sum(axis=1).max()) + 1 if len(tables) else 1
    log_factorial = _log_factorial(width_bound)
    chunk = max(1, _FISHER_MAX_CELLS // width_bound)
    for lo in range(0, len(tables), chunk):
        out[lo : lo + chunk] = _fisher_chunk(tables[lo : lo + chunk], log_factorial)
    return out


def _fisher_chunk(tables: np.ndarray, lg: np.ndarray) -> np.ndarray:
    """Fisher P-values of one chunk; `lg[k]` is log k! for every k the chunk needs.

    Each row's four log k! terms are runs of `lg`, two read forward and two
    backward from a per-row start, so they are taken as whole rows of
    window views over a zero-padded copy rather than cell by cell. Cells
    past a row's support hold padding and are masked out.
    """
    r0 = tables[:, 0] + tables[:, 1]
    r1 = tables[:, 2] + tables[:, 3]
    c0 = tables[:, 0] + tables[:, 2]
    n = r0 + r1
    a_min = np.maximum(0, c0 - r1)
    span = np.minimum(r0, c0) - a_min
    width = int(span.max()) + 1
    valid = np.arange(width)[None, :] <= span[:, None]
    size = int(n.max()) + 1
    padded = np.concatenate([np.zeros(width), lg[:size], np.zeros(width)])
    # forward[s + width] = lg[s], lg[s + 1], ...; backward[size + width - 1 - s] = lg[s], lg[s - 1], ...
    forward = sliding_window_view(padded, width)
    backward = sliding_window_view(padded[::-1], width)
    lp = (
        (lg[r0] + lg[r1] - lg[n] + lg[c0] + lg[n - c0])[:, None]
        - forward[a_min + width]
        - backward[size + width - 1 - (r0 - a_min)]
        - backward[size + width - 1 - (c0 - a_min)]
        - forward[r1 - c0 + a_min + width]
    )
    lp_obs = lp[np.arange(len(tables)), tables[:, 0] - a_min]
    keep = (lp <= lp_obs[:, None] + _LOG_TIE) & valid
    p = np.exp(lp, out=np.zeros_like(lp), where=keep).sum(axis=1)
    degenerate = (r0 == 0) | (r1 == 0) | (c0 == 0) | (c0 == n)
    return np.where(degenerate, 1.0, np.minimum(p, 1.0))


def uniform4_logpmf(counts: np.ndarray, n: int) -> np.ndarray:
    """log pmf of Multinomial(n; 1/4, 1/4, 1/4, 1/4) at `counts` (..., 4)."""
    counts = np.asarray(counts)
    lg = _log_factorial(n + 1)
    return lg[n] - lg[counts].sum(axis=-1) + n * math.log(0.25)


def fisher_2x2(counts: SettingCounts) -> float:
    """Two-sided Fisher exact test on [[n00, n01], [n10, n11]]."""
    if counts.total < 1:
        raise ValueError("need at least one event")
    return pvalues.fisher_two_sided(counts.n00, counts.n01, counts.n10, counts.n11)


def _uniform4_null_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact null CDF of the log pmf statistic under Multinomial(n; 1/4 each).

    Enumerates every table (c0, c1, c2, c3) with sum n, one block of fixed
    c0 at a time in (c0, c1, c2) order. Returns the sorted statistic values
    and the cumulative probability up to each; tied statistics have equal
    probabilities, so their order within a tie leaves the sums unchanged.
    The sums add numpy's `exp`, whose last bits depend on the CPU: at n = 245
    `cum` differs with numpy's AVX-512 kernels off, but not at the paper
    counts (53, 79, 62, 51), 0.05309022675083941.
    """
    lg = _log_factorial(n + 1)
    ln_quarter = n * math.log(0.25)
    stat = np.empty((n + 1) * (n + 2) * (n + 3) // 6)
    start = 0
    for c0 in range(n + 1):
        m = n - c0
        runs = np.arange(m + 1, 0, -1)  # number of c2 values for c1 = 0..m
        c1 = np.repeat(np.arange(m + 1), runs)
        c2 = np.arange(c1.size) - np.repeat(np.cumsum(runs) - runs, runs)
        c3 = m - c1 - c2
        stat[start : start + c1.size] = lg[n] - (lg[c0] + lg[c1] + lg[c2] + lg[c3]) + ln_quarter
        start += c1.size
    stat.sort()
    cum = np.exp(stat)
    np.cumsum(cum, out=cum)
    return stat, np.minimum(cum, 1.0, out=cum)


def _uniform4_null(n: int, reps: int, seed: int) -> _Null:
    """`_uniform4_null_table(n)` to the enumeration limit, else a sorted sample from stream 1 with `cum` None."""
    if n <= _ENUMERATION_LIMIT:
        return _uniform4_null_table(n)
    draws = rngstream.stream(seed, 1).multinomial(n, [0.25] * 4, size=max(reps, 100_000))
    return np.sort(uniform4_logpmf(draws, n)), None


def _joint_uniform_pvalue(counts: SettingCounts, null: _Null) -> McPValue:
    """Probability that a uniform table is no more probable than `counts`, against `null` (`_uniform4_null`).

    Exact on the enumerated null. On a sample of `size` tables it is
    (1 + hits) / (1 + size), which counts the observed table as one of the
    draws, so it is never zero (Phipson & Smyth, SAGMB 9, 2010).
    """
    stat_sorted, cum = null
    stat_obs = uniform4_logpmf(astuple(counts), counts.total)
    hits = int(np.searchsorted(stat_sorted, stat_obs + _STAT_TOL, side="right"))
    if cum is not None:
        return McPValue(p=float(cum[hits - 1]), mc_error=0.0)
    p = (1 + hits) / (1 + stat_sorted.size)
    return McPValue(p=p, mc_error=math.sqrt(p * (1.0 - p) / stat_sorted.size))


def _lee_local_pvalues(n: int, reps: int, seed: int, null: _Null) -> np.ndarray:
    """(reps, 4) local P-values of the four tests under uniform settings.

    Draws the tables from stream 0 of the seed. The joint-uniformity test
    is scored against `null`, which is `_uniform4_null(n, reps, seed)`.
    """
    if n < 1:
        raise ValueError("need at least one event")
    rng = rngstream.stream(seed, 0)
    draws = rng.multinomial(n, [0.25] * 4, size=reps)

    binom_table = binom_two_sided_table(n)
    p_a = binom_table[draws[:, 2] + draws[:, 3]]
    p_b = binom_table[draws[:, 1] + draws[:, 3]]

    stat_sorted, cum = null
    pos = np.searchsorted(stat_sorted, uniform4_logpmf(draws, n) + _STAT_TOL, side="right")
    p_joint = pos / stat_sorted.size if cum is None else cum[np.maximum(pos, 1) - 1]

    return np.column_stack([p_a, p_b, p_joint, fisher_two_sided_tables(draws)])


def look_elsewhere(n: int, alpha: float, reps: int, seed: int) -> tuple[McPValue, float]:
    """Joint rejection probability at `alpha` and the per-test threshold, from one tape.

    Monte Carlo over `reps` uniform setting tables of size n: the
    probability that at least one of the four tests yields p < alpha, and
    the largest per-test threshold whose joint rate stays at or below alpha
    (`_threshold_quantile`). A threshold of 1 rejects by convention (every
    P-value is at most 1), so alpha = 1 gives exactly (1, 1.0) with no tape
    and no null.
    """
    return _look_elsewhere(n, alpha, reps, seed, functools.partial(_uniform4_null, n, reps, seed))


def _look_elsewhere(n: int, alpha: float, reps: int, seed: int, null: Callable[[], _Null]) -> tuple[McPValue, float]:
    """`look_elsewhere` on a tape scored against `null()`, called only once `alpha` and `reps` pass their checks."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if reps < _MIN_MC_REPS:
        raise ValueError(f"need at least {_MIN_MC_REPS} Monte Carlo repetitions, got {reps}")
    if alpha == 1.0:
        return McPValue(p=1.0, mc_error=0.0), 1.0
    min_p = _lee_local_pvalues(n, reps, seed, null()).min(axis=1)
    p = float(np.mean(min_p < alpha))
    return McPValue(p=p, mc_error=math.sqrt(p * (1.0 - p) / reps)), _threshold_quantile(min_p, alpha)


_THRESHOLD_GRID = 2.0**60


def _threshold_quantile(min_p: np.ndarray, target: float) -> float:
    """Largest per-test threshold with joint rejection probability <= target.

    On a fixed Monte Carlo tape (common random numbers) the joint rate
    `mean(min_p < t)` counts the reps whose smallest local P-value lies
    below t. With k the largest count such that k / reps <= target, the
    rate stays within the target exactly for t up to the k-th smallest
    min_p (counted from 0), which is therefore the threshold. It is
    floored to a multiple of 2^-60, the grid a 60-step bisection of
    [0, 1] resolves; this changes only thresholds below 1/256, where
    float64 is finer than that grid.

    The result is a Monte Carlo quantile and is reported with no error:
    at n = 245 and target 0.05 with 10^4 reps it ranged over
    0.0150-0.0213 across seeds 0-1499.
    """
    reps = min_p.size
    # k / reps is the same correctly rounded division np.mean makes.
    k = min(int(target * reps), reps - 1)
    while k + 1 < reps and (k + 1) / reps <= target:
        k += 1
    while k > 0 and k / reps > target:
        k -= 1
    v = float(np.partition(min_p, k)[k])
    return math.floor(v * _THRESHOLD_GRID) / _THRESHOLD_GRID


@dataclass(frozen=True)
class AuditRow:
    """One dataset's audit: four local P-values plus the joint significance."""

    n: int
    p_rng_a: float
    p_rng_b: float
    p_joint_uniform: McPValue
    p_independence: float
    p_threshold: float
    p_joint_lee: McPValue
    alpha: float
    seed: int

    def to_dict(self) -> dict[str, object]:
        return {
            "n": self.n,
            "p_rng_a": self.p_rng_a,
            "p_rng_b": self.p_rng_b,
            "p_joint_uniform": self.p_joint_uniform.p,
            "p_joint_uniform_mc_error": self.p_joint_uniform.mc_error,
            "independence_test": "fisher",
            "p_independence": self.p_independence,
            "p_threshold": self.p_threshold,
            "p_joint_lee": self.p_joint_lee.p,
            "p_joint_lee_mc_error": self.p_joint_lee.mc_error,
            "alpha": self.alpha,
            "seed": self.seed,
        }


def audit_row(counts: SettingCounts, seed: int, lee_reps: int, alpha: float = 0.05) -> AuditRow:
    """Run all four tests plus the look-elsewhere correction on one table.

    One null (`_uniform4_null`), built once `alpha` and `lee_reps` pass
    their checks, scores the observed table, as `p_joint_uniform`, and the
    tape of `look_elsewhere(n, alpha, lee_reps, seed)`.
    """
    n = counts.total
    null = functools.cache(functools.partial(_uniform4_null, n, lee_reps, seed))
    p_joint_lee, p_threshold = _look_elsewhere(n, alpha, lee_reps, seed, null)
    return AuditRow(
        n=n,
        p_rng_a=pvalues.binom_two_sided(counts.marginal_a, n),
        p_rng_b=pvalues.binom_two_sided(counts.marginal_b, n),
        p_joint_uniform=_joint_uniform_pvalue(counts, null()),
        p_independence=fisher_2x2(counts),
        p_threshold=p_threshold,
        p_joint_lee=p_joint_lee,
        alpha=alpha,
        seed=seed,
    )
