"""Uniformity tests on recorded setting choices and their joint significance.

Four null-hypothesis tests run against one 2x2 table of setting-pair
counts:

1. side A's marginal is Binomial(n, 1/2)  (exact two-tailed test),
2. side B's marginal likewise,
3. the four counts are jointly Multinomial(n; 1/4 each)  (exact to n = 300),
4. the sides are independent  (Fisher's exact two-sided test at every n).

Running several tests on one dataset inflates the chance that some local
P-value dips below any fixed threshold (the look-elsewhere effect; Gross &
Vitells, EPJC 70, 525 (2010)). `look_elsewhere` corrects for it from the
law of the smallest of the four local P-values under uniform settings. It
returns the joint probability that some test rejects at the per-test level
alpha, and a per-test threshold whose joint rejection probability stays at
alpha.

`_null` alone picks how the law is found: exactly (`_ExactNull`) up to
n = 300, by sampling (`_SampledNull`) above. Both answer `p_joint_uniform`
and `look_elsewhere`. In the exact law, the margins m_a and m_b are
independent Bin(n, 1/2) under uniform settings, and n11 given both is
hypergeometric (Mehta & Patel, JASA 78, 427 (1983)), so one hypergeometric
row per margin pair gives every table's probability and its Fisher
P-value. The threshold, the largest whose joint rate is at most alpha, is
an atom of the law (the rate is a step function of it), read off without a
search. The reported masses are sums of libm's `exp` by `math.fsum`, and
the threshold is the atom's table scored by the scalar tests that score
the observed one, so they have the same bits on every CPU.

Above n = 300 the joint rate comes from a Monte Carlo tape of uniform
tables (common random numbers), scored against a reference sample of the
log pmf (`_SampledNull`), and the threshold is Bonferroni's alpha / 4,
which needs no draws. The tape is scored by numpy kernels over whole
supports, in log space on a view of `pvalues._log_factorial`. Fisher's
kernel sums about n/2 support cells per tape table, so the tape's time
grows as reps * n (about 11 s per 10^4 reps at n = 100,000);
`_FISHER_MAX_CELLS` bounds its memory.
"""
from __future__ import annotations

import math
import operator
from dataclasses import astuple, dataclass
from typing import IO, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import pvalues, rngstream
from .pvalues import _LOG_TIE, _check_counts
from .trials import _check_domains, _read_path, _read_records

# The null and the look-elsewhere law are exact up to this n (4.6 million
# tables, 585,276 of them one per symmetry orbit); above it they are a
# Monte Carlo reference sample of the log pmf and a Monte Carlo tape.
_ENUMERATION_LIMIT = 300

_MIN_MC_REPS = 1000

# Float guard when comparing log pmfs for "at least as extreme".
_STAT_TOL = 1e-9

# The exact law scores only the tables within this much of the most probable one in log P. The rest
# (mass 7e-8 at n = 245) count as one atom at the largest P-value any of them can have; a law whose
# threshold or alpha falls at or below that atom is recomputed from every table.
_DROP_LOG_P = 18.0

# Below the largest term of a mass by this much in log, a term is left out of the sum.
_NEGLIGIBLE_LOG = 60.0

# P-values within this relative distance are one atom of the min-P law: its numpy sums and the scalar
# tests agree to about 1e-13.
_P_TIE = 1e-9

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
    """[pvalues.binom_two_sided(k, n) for k in 0..n] in O(n log n): the log pmf as one row of `_two_sided_rows`."""
    _check_counts(0, n)
    k = np.arange(n + 1)
    lg = _log_factorial(n + 1)
    lp = lg[n] - lg[k] - lg[n - k] + k * math.log(0.5) + (n - k) * math.log1p(-0.5)
    return _two_sided_rows(lp[None])[0]


def _two_sided_rows(log_p: np.ndarray, row_log_p: np.ndarray | float = 0.0) -> np.ndarray:
    """Two-sided P-value of every entry of the rows of log P `log_p` (padded with -inf), row masses exp(`row_log_p`).

    Each row is ranked and its probabilities summed; an entry's P-value is
    the sum up to the last entry at most `_LOG_TIE` more probable.
    `row_log_p` broadcasts against `log_p`, one value per row.
    """
    order = np.argsort(log_p, axis=1)
    ranked = np.take_along_axis(log_p, order, axis=1)
    cum = np.cumsum(np.exp(ranked - row_log_p), axis=1)
    width = log_p.shape[1]
    last = np.full(log_p.shape, width - 1)
    last[:, :-1] = np.where(ranked[:, 1:] > ranked[:, :-1] + _LOG_TIE, np.arange(width - 1), width - 1)
    last = np.minimum.accumulate(last[:, ::-1], axis=1)[:, ::-1]
    p = np.empty_like(log_p)
    np.put_along_axis(p, order, np.minimum(np.take_along_axis(cum, last, axis=1), 1.0), axis=1)
    return p


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


class _ExactNull:
    """The uniform null at n <= `_ENUMERATION_LIMIT`, one row of tables per margin pair.

    A pair (m_a, m_b) holds the tables with n10 + n11 = m_a and
    n01 + n11 = m_b, indexed by x = n11; their log probabilities are one
    hypergeometric row shifted by log P(m_a) + log P(m_b). The null and all
    four tests are invariant under swapping rows, swapping columns and
    transposing, so one pair with m_a <= m_b <= n/2 stands for its orbit,
    weighted by the orbit's size, and its row is x = 0..m_a.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("need at least one event")
        self.n = n
        lg = _log_factorial(n + 1)
        k = np.arange(n + 1)
        log_binom = lg[n] - lg[k] - lg[n - k] + n * math.log(0.5)
        self.m_a, self.m_b = np.triu_indices(n // 2 + 1)
        self.weight = np.where(self.m_a == self.m_b, 4, 8)
        self.weight[2 * self.m_b == n] = 4
        self.weight[2 * self.m_a == n] = 1
        self.row_log_p = log_binom[self.m_a] + log_binom[self.m_b]
        mode = (self.m_a + 1) * (self.m_b + 1) // (n + 2)
        self.row_max = self._log_p(self.m_a, self.m_b, mode)

    def _log_p(self, m_a: np.ndarray, m_b: np.ndarray, x: np.ndarray) -> np.ndarray:
        """log P of the table with margins (m_a, m_b) and n11 = x."""
        n = self.n
        lg = _log_factorial(n + 1)
        return lg[n] - (lg[n - m_a - m_b + x] + lg[m_b - x] + lg[m_a - x] + lg[x]) + n * math.log(0.25)

    def rows(self, which: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """log P of every table in rows `which`, one line per row padded with -inf to the widest, and its mask."""
        m_a, m_b = self.m_a[which, None], self.m_b[which, None]
        x = np.arange(int(m_a.max(initial=0)) + 1)
        valid = x <= m_a
        return np.where(valid, self._log_p(m_a, m_b, np.minimum(x, m_a)), -np.inf), valid

    def _mass(self, whole: np.ndarray, log_p: np.ndarray, weight: np.ndarray) -> float:
        """Mass of the rows marked `whole` and of the tables `log_p`, by libm's exp and `math.fsum`.

        Terms more than `_NEGLIGIBLE_LOG` below the largest are left out: at
        n <= 300 all of them together are under 2e-19 of the sum.
        """
        logs = np.concatenate([self.row_log_p[whole], log_p])
        weights = np.concatenate([self.weight[whole], weight])
        keep = logs >= logs.max(initial=-math.inf) - _NEGLIGIBLE_LOG
        terms = map(operator.mul, map(math.exp, logs[keep].tolist()), weights[keep].tolist())
        return min(1.0, math.fsum(terms))

    def p_joint_uniform(self, log_p: float) -> McPValue:
        """Probability that a uniform table is no more probable than log P = `log_p`: the joint-uniformity P-value.

        A row that lies wholly at or below `log_p` adds its margin
        probability; the other rows add their tables one by one.
        """
        limit = log_p + _STAT_TOL
        whole = self.row_max <= limit
        part = np.flatnonzero(~whole)
        table_log_p, valid = self.rows(part)
        take = valid & (table_log_p <= limit)
        weight = np.broadcast_to(self.weight[part, None], take.shape)
        return McPValue(p=self._mass(whole, table_log_p[take], weight[take]), mc_error=0.0)

    def look_elsewhere(self, alpha: float) -> tuple[McPValue, float]:
        """The joint rejection probability at `alpha` and the threshold, from the min-P law: both exact."""
        top = float(self.row_max.max())
        return self._law_above(alpha, top - _DROP_LOG_P) or self._law_above(alpha, -math.inf)

    def _law_above(self, alpha: float, cut: float) -> tuple[McPValue, float] | None:
        """`look_elsewhere` scoring the tables with log P >= `cut`, or None if the tables below could change it."""
        rows = np.flatnonzero(self.row_max >= cut)
        log_p, valid = self.rows(rows)
        m_a, m_b = self.m_a[rows, None], self.m_b[rows, None]
        weight = np.broadcast_to(self.weight[rows, None], log_p.shape)

        p_fisher = _two_sided_rows(log_p, self.row_log_p[rows, None])
        p_fisher[m_a[:, 0] == 0] = 1.0  # a zero margin, as in `pvalues.fisher_two_sided`

        # The joint test over the scored tables, the dropped ones below them all.
        scored = valid & (log_p >= cut)
        scored_log_p = log_p[scored]
        scored_mass = weight[scored] * np.exp(scored_log_p)
        dropped = max(0.0, 1.0 - float(scored_mass.sum())) if cut > -math.inf else 0.0
        order = np.argsort(scored_log_p)
        ranked = scored_log_p[order]
        cum = dropped + np.cumsum(scored_mass[order])
        p_joint = np.empty_like(ranked)
        p_joint[order] = cum[np.searchsorted(ranked, ranked + _STAT_TOL, side="right") - 1]
        # No dropped table has a joint-uniformity P-value, and so no smallest P-value, above `ceiling`.
        ceiling = dropped + float(scored_mass[scored_log_p <= cut + _STAT_TOL].sum())

        p_binom = binom_two_sided_table(self.n)
        min_p = np.minimum.reduce([
            p_binom[np.broadcast_to(m_a, scored.shape)[scored]],
            p_binom[np.broadcast_to(m_b, scored.shape)[scored]],
            p_fisher[scored],
            np.minimum(p_joint, 1.0),
        ])

        # The law's atoms, the dropped tables' one first; F is the mass below each atom.
        values = np.concatenate([[ceiling], min_p])
        order = np.argsort(values, kind="stable")
        ranked = values[order]
        masses = np.concatenate([[dropped], scored_mass])[order]
        first = np.concatenate([[True], ranked[1:] > ranked[:-1] * (1.0 + _P_TIE)])
        atom = np.cumsum(first) - 1
        below = (np.cumsum(masses) - masses)[first]
        chosen = int(np.searchsorted(below, alpha, side="right")) - 1
        if cut > -math.inf and (chosen <= atom[np.flatnonzero(order == 0)[0]] or ceiling * (1.0 + _P_TIE) >= alpha):
            return None

        # The rejecting tables, summed by whole rows where a row holds nothing else.
        reject = valid & ~scored
        reject[scored] = min_p * (1.0 + _P_TIE) < alpha
        whole = np.ones(self.m_a.size, dtype=bool)
        whole[rows] = (reject == valid).all(axis=1)
        some = reject & ~whole[rows, None]
        p = self._mass(whole, log_p[some], weight[some])

        # The threshold, from the scalar tests of the first table (row by row, x up) at the chosen atom.
        table = int(order[atom == chosen].min()) - 1
        row, x = (int(i[table]) for i in np.nonzero(scored))
        a, b = int(m_a[row, 0]), int(m_b[row, 0])
        threshold = min(
            pvalues.binom_two_sided(a, self.n),
            pvalues.binom_two_sided(b, self.n),
            pvalues.fisher_two_sided(self.n - a - b + x, b - x, a - x, x),
            self.p_joint_uniform(float(log_p[row, x])).p,
        )
        return McPValue(p=p, mc_error=0.0), threshold


def _uniform4_sample(n: int, reps: int, seed: int) -> np.ndarray:
    """Sorted log pmf of max(reps, 100,000) uniform tables from stream 1: the reference null above the enumeration limit."""
    draws = rngstream.stream(seed, 1).multinomial(n, [0.25] * 4, size=max(reps, 100_000))
    return np.sort(uniform4_logpmf(draws, n))


def _lee_local_pvalues(n: int, reps: int, seed: int, sample: np.ndarray) -> np.ndarray:
    """(reps, 4) local P-values of the four tests on `reps` uniform tables: the look-elsewhere tape.

    Draws the tables from stream 0 of the seed. The joint-uniformity test
    is scored against `sample`, which is `_uniform4_sample(n, reps, seed)`.
    """
    draws = rngstream.stream(seed, 0).multinomial(n, [0.25] * 4, size=reps)
    binom_table = binom_two_sided_table(n)
    p_a = binom_table[draws[:, 2] + draws[:, 3]]
    p_b = binom_table[draws[:, 1] + draws[:, 3]]
    p_joint = np.searchsorted(sample, uniform4_logpmf(draws, n) + _STAT_TOL, side="right") / sample.size
    return np.column_stack([p_a, p_b, p_joint, fisher_two_sided_tables(draws)])


class _SampledNull:
    """The uniform null above `_ENUMERATION_LIMIT`: the reference sample (`_uniform4_sample`) and the tape it scores."""

    def __init__(self, n: int, reps: int, seed: int) -> None:
        self.n, self.reps, self.seed = n, reps, seed
        self.sample = _uniform4_sample(n, reps, seed)

    def p_joint_uniform(self, log_p: float) -> McPValue:
        """(1 + hits) / (1 + size): the observed table counts as a draw, so never 0 (Phipson & Smyth, SAGMB 9, 2010)."""
        hits = int(np.searchsorted(self.sample, log_p + _STAT_TOL, side="right"))
        p = (1 + hits) / (1 + self.sample.size)
        return McPValue(p=p, mc_error=math.sqrt(p * (1.0 - p) / self.sample.size))

    def look_elsewhere(self, alpha: float) -> tuple[McPValue, float]:
        """The joint rejection rate at `alpha` on one tape of `reps` tables from `seed`, and Bonferroni's alpha / 4.

        Each of the four valid P-values falls below alpha / 4 with probability at most alpha / 4, so the
        joint rate there is at most alpha, with no draws and the same value on every CPU.
        """
        min_p = _lee_local_pvalues(self.n, self.reps, self.seed, self.sample).min(axis=1)
        p = float(np.mean(min_p < alpha))
        return McPValue(p=p, mc_error=math.sqrt(p * (1.0 - p) / self.reps)), alpha / 4


def _null(n: int, reps: int, seed: int) -> _ExactNull | _SampledNull:
    """The uniform null of n events: exact to the enumeration limit, else sampled. The one switch between the two."""
    return _ExactNull(n) if n <= _ENUMERATION_LIMIT else _SampledNull(n, reps, seed)


def _check_lee(alpha: float, reps: int) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if reps < _MIN_MC_REPS:
        raise ValueError(f"need at least {_MIN_MC_REPS} Monte Carlo repetitions, got {reps}")


# A threshold of 1 rejects every table by convention, so alpha = 1 gives these look-elsewhere values with no null.
_REJECT_ALL = (McPValue(p=1.0, mc_error=0.0), 1.0)


def look_elsewhere(n: int, alpha: float, reps: int, seed: int) -> tuple[McPValue, float]:
    """Joint rejection probability at `alpha` and the per-test threshold, for uniform tables of n events.

    The probability that at least one of the four tests yields p < alpha,
    and a per-test threshold whose joint rate stays at or below alpha. Up
    to n = 300 both are exact, from the law of the smallest P-value: the
    threshold is the largest such, and `reps` and `seed` are only checked.
    Above, the rate comes from one tape of `reps` tables drawn from `seed`,
    and the threshold is Bonferroni's alpha / 4, which needs no draws. A
    P-value within 1e-9 (relative) of alpha counts as equal to it. A
    threshold of 1 rejects by convention (every P-value is at most 1), so
    alpha = 1 gives exactly (1, 1.0) with no null. The null (`_null`) is
    built only once `alpha` and `reps` pass their checks.
    """
    _check_lee(alpha, reps)
    return _REJECT_ALL if alpha == 1.0 else _null(n, reps, seed).look_elsewhere(alpha)


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

    One null (`_null`), built once `alpha` and `lee_reps` pass their
    checks, scores the observed table, as `p_joint_uniform`, and gives
    `look_elsewhere(n, alpha, lee_reps, seed)`.
    """
    n = counts.total
    _check_lee(alpha, lee_reps)
    null = _null(n, lee_reps, seed)
    p_joint_lee, p_threshold = _REJECT_ALL if alpha == 1.0 else null.look_elsewhere(alpha)
    return AuditRow(
        n=n,
        p_rng_a=pvalues.binom_two_sided(counts.marginal_a, n),
        p_rng_b=pvalues.binom_two_sided(counts.marginal_b, n),
        p_joint_uniform=null.p_joint_uniform(float(uniform4_logpmf(astuple(counts), n))),
        p_independence=fisher_2x2(counts),
        p_threshold=p_threshold,
        p_joint_lee=p_joint_lee,
        alpha=alpha,
        seed=seed,
    )
