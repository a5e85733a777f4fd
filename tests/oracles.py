"""Scalar reference forms that bellkit's array code is tested against, and the array forms its scalar tails replaced."""
import itertools
import math
import warnings
from dataclasses import astuple, dataclass
from fractions import Fraction

import numpy as np

from bellkit import rngstream, settings_audit
from bellkit.pvalues import _LGAM_A, _LOG_2PI, _LS2PI, _STIRLERR_TABLE, _STIRLING_S, TIE_RELATIVE_EPS, _sum_exp
from bellkit.lhv import (
    _T_EARLY_A,
    _T_EARLY_B,
    _T_HERALD,
    _T_OUT_A,
    _T_OUT_B,
    _T_SET_A,
    _T_SET_B,
    SimStats,
)
from bellkit.randomness import MAX_MESSAGE_CHARS
from bellkit.trials import HERALD_NONE, HERALD_PSI_MINUS, HERALD_PSI_PLUS, TrialSet

_HASH_MULT = 1000003
_HASH_MASK = (1 << 61) - 1


@dataclass(frozen=True)
class DeterministicStrategy:
    """Output bit per local setting for both sides; exactly 16 exist."""

    output_a0: int
    output_a1: int
    output_b0: int
    output_b1: int

    def output_a(self, setting):
        return self.output_a1 if setting else self.output_a0

    def output_b(self, setting):
        return self.output_b1 if setting else self.output_b0


def all_deterministic_strategies():
    return tuple(DeterministicStrategy(*bits) for bits in itertools.product((0, 1), repeat=4))


def streak_digests(items):
    """The streak-keyed adversary's rolling hash of the record, from 0, after each of `items`.

    Each item is an attempt's record, 16 (tag + 1) + 8 setting_a +
    4 setting_b + 2 bit_a + bit_b; the adversary plays deterministic table
    `digest & 15`.
    """
    digest = 0
    digests = []
    for item in items:
        digest = (digest * _HASH_MULT + item + 1) & _HASH_MASK
        digests.append(digest)
    return digests


def run_tape(strategy, params, tape, *, state=0, stop_after_heralds=None):
    """Play the tape one row at a time from machine state `state`.

    Returns the played attempts as trials indexed from 1, the counters and
    the state after the last attempt played.
    """
    f, tau = params.f, params.tau
    herald, outputs, next_state = strategy.herald, strategy.outputs, strategy.next_state
    rows = []
    heralded = wins = early_a = early_b = early_any = 0
    attempts = 0
    for row in tape:
        attempts += 1
        cut, tag_below, tag_above = herald[state]
        tag = tag_below if row[_T_HERALD] < cut else tag_above
        is_early_a = row[_T_EARLY_A] < f
        is_early_b = row[_T_EARLY_B] < f
        setting_a = 0 if row[_T_SET_A] < 0.5 + tau else 1
        setting_b = 0 if row[_T_SET_B] < 0.5 + tau else 1
        if is_early_a or is_early_b:
            # Early bit: the trial is scored as won outright. Outcomes are
            # synthesized to win the tag's game at the realized settings.
            bit_a = 1 if row[_T_OUT_A] < 0.5 else 0
            bit_b = bit_a ^ winning_xor(tag, setting_a, setting_b)
        else:
            out_a, out_b = outputs[state]
            bit_a = 1 if row[_T_OUT_A] < out_a[setting_a] else 0
            bit_b = 1 if row[_T_OUT_B] < out_b[setting_b] else 0
        if tag != HERALD_NONE:
            heralded += 1
            wins += (bit_a ^ bit_b) == winning_xor(tag, setting_a, setting_b)
            early_a += is_early_a
            early_b += is_early_b
            early_any += is_early_a or is_early_b
        rows.append((tag, setting_a, setting_b, bit_a, bit_b))
        state = next_state[state][16 * (tag + 1) + 8 * setting_a + 4 * setting_b + 2 * bit_a + bit_b]
        if stop_after_heralds is not None and heralded >= stop_after_heralds:
            break
    stats = SimStats(attempts, heralded, wins, early_a, early_b, early_any)
    tag, setting_a, setting_b, bit_a, bit_b = np.array(rows, dtype=np.int64).reshape(-1, 5).T
    return TrialSet(np.arange(1, attempts + 1), tag, setting_a, setting_b, 1 - 2 * bit_a, 1 - 2 * bit_b), stats, state


def play_heralded(strategy, params, n_heralds, rng):
    """Counters of one run drawn from `rng` in blocks of max(64, 1.5 n) rows until `n_heralds` trials are scored."""
    block = max(64, int(1.5 * n_heralds))
    totals = [0] * 6
    state = 0
    while totals[1] < n_heralds:
        tape = rng.random((block, 9)).tolist()
        _, stats, state = run_tape(strategy, params, tape, state=state, stop_after_heralds=n_heralds - totals[1])
        totals = [total + count for total, count in zip(totals, astuple(stats))]
    return SimStats(*totals)


def message_to_bit(text):
    """Parity of the total number of ones across the code points of `text`, one character at a time.

    An over-long message raises; an empty message yields 0 (the empty
    parity) with a warning rather than an error.
    """
    if len(text) > MAX_MESSAGE_CHARS:
        raise ValueError(f"message has {len(text)} characters, limit is {MAX_MESSAGE_CHARS}")
    if not text:
        warnings.warn("empty message maps to bit 0", stacklevel=2)
        return 0
    parity = 0
    for ch in text:
        parity ^= ord(ch).bit_count() & 1
    return parity


def winning_xor(tag, setting_a, setting_b):
    """The XOR of the two output bits that wins the game of the heralded `tag` at the given settings."""
    return setting_a & (setting_b ^ 1 if tag == HERALD_PSI_PLUS else setting_b)


def wins(strategy, setting_a, setting_b, tag=HERALD_PSI_MINUS):
    """Whether the deterministic `strategy` wins the game of `tag` at the given settings."""
    return (strategy.output_a(setting_a) ^ strategy.output_b(setting_b)) == winning_xor(tag, setting_a, setting_b)


def best_deterministic_winprob(tau_a, tau_b):
    """Brute-force maximum win probability over the 16 deterministic strategies.

    Setting probabilities are pushed to the boundary the adversary prefers:
    Pr[setting = 0] = 1/2 + tau on each side. The maximum equals
    3/4 + (tau_a + tau_b)/2 - tau_a*tau_b.
    """
    for name, tau in (("tau_a", tau_a), ("tau_b", tau_b)):
        if not 0.0 <= tau <= 0.5:
            raise ValueError(f"{name} must lie in [0, 1/2], got {tau}")
    p_a = (0.5 + tau_a, 0.5 - tau_a)
    p_b = (0.5 + tau_b, 0.5 - tau_b)
    best = -1.0
    argmax = None
    for strategy in all_deterministic_strategies():
        win = 0.0
        for sa in (0, 1):
            for sb in (0, 1):
                if wins(strategy, sa, sb):
                    win += p_a[sa] * p_b[sb]
        if win > best:
            best, argmax = win, strategy
    return best, argmax


def len_second(windows, channel):
    return windows.len_second_ch0_ps if channel == 0 else windows.len_second_ch1_ps


def in_first(windows, channel, time_ps):
    """Whether a click at `time_ps` on `channel` lies in round 1's half-open window."""
    start = windows.start(channel)
    return start <= time_ps < start + windows.len_first_ps


def in_second(windows, channel, time_ps):
    """Whether a click at `time_ps` on `channel` lies in round 2's half-open window."""
    start = windows.start(channel) + windows.second_window_offset_ps
    return start <= time_ps < start + len_second(windows, channel)


def fisher_chunk_gather(tables: np.ndarray, lg: np.ndarray) -> np.ndarray:
    """`settings_audit._fisher_chunk` as an element gather per cell: the reference its window views must match bit for bit."""
    r0 = tables[:, 0] + tables[:, 1]
    r1 = tables[:, 2] + tables[:, 3]
    c0 = tables[:, 0] + tables[:, 2]
    n = r0 + r1
    a_min = np.maximum(0, c0 - r1)
    a_max = np.minimum(r0, c0)
    width = int((a_max - a_min).max()) + 1
    a = a_min[:, None] + np.arange(width)[None, :]
    valid = a <= a_max[:, None]
    a = np.where(valid, a, 0)
    b = c0[:, None] - a
    lp = (
        (lg[r0] + lg[r1] - lg[n] + lg[c0] + lg[n - c0])[:, None]
        - lg[a]
        - lg[np.where(valid, r0[:, None] - a, 0)]
        - lg[np.where(valid, b, 0)]
        - lg[np.where(valid, r1[:, None] - b, 0)]
    )
    lp = np.where(valid, lp, -np.inf)
    lp_obs = lp[np.arange(len(tables)), tables[:, 0] - a_min]
    keep = lp <= lp_obs[:, None] + np.log1p(TIE_RELATIVE_EPS)
    p = np.where(keep, np.exp(lp), 0.0).sum(axis=1)
    degenerate = (r0 == 0) | (r1 == 0) | (c0 == 0) | (c0 == n)
    return np.where(degenerate, 1.0, np.minimum(p, 1.0))


def fisher_two_sided_array(n00, n01, n10, n11):
    """Fisher's two-sided test on one table as numpy evaluated it over the support: the scalar form's reference."""
    r0, r1 = n00 + n01, n10 + n11
    c0 = n00 + n10
    n = r0 + r1
    if r0 == 0 or r1 == 0 or c0 == 0 or c0 == n:
        return 1.0
    a_min = max(0, c0 - r1)
    a = np.arange(a_min, min(r0, c0) + 1)
    lg = settings_audit._log_factorial(n + 1)
    lp = (
        lg[r0]
        - lg[a]
        - lg[r0 - a]
        + lg[r1]
        - lg[c0 - a]
        - lg[r1 - (c0 - a)]
        - (lg[n] - lg[c0] - lg[n - c0])
    )
    keep = lp <= lp[n00 - a_min] + math.log1p(TIE_RELATIVE_EPS)
    return min(1.0, _sum_exp(lp[keep].tolist()))


def binom_two_sided_array(k, n):
    """The two-tailed binomial test at p = 1/2 as numpy evaluated it over the support: the scalar form's reference."""
    j = np.arange(n + 1)
    lg = settings_audit._log_factorial(n + 1)
    lp = lg[n] - lg[j] - lg[n - j] + j * math.log(0.5) + (n - j) * math.log1p(-0.5)
    keep = lp <= lp[k] + math.log1p(TIE_RELATIVE_EPS)
    return min(1.0, _sum_exp(lp[keep].tolist()))


def lgam_whole(lo, hi):
    """log k! for k = lo..hi-1 as numpy arrays, the form the package's log k! table was built with.

    The cephes `lgam` steps for whole x = k + 1: the log of the exact
    product (x-1)! below 13, Stirling's series above, on libm's log.
    """
    start = max(lo, 12) + 1
    small = [math.log(math.factorial(k)) for k in range(lo, min(hi, 12))]
    x = np.arange(start, hi + 1, dtype=float)
    q = (x - 0.5) * np.fromiter(map(math.log, range(start, hi + 1)), float, x.size) - x + _LS2PI
    p = 1.0 / (x * x)
    series = np.full_like(p, _LGAM_A[0])
    for a in _LGAM_A[1:]:
        series = series * p + a
    series = np.where(
        x >= 1000.0,
        (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p + 0.0833333333333333333333,
        series,
    )
    q = np.where(x > 1.0e8, q, q + series / x)
    return np.concatenate([small, q])


def sum_exp_array(log_terms):
    """Compensated sum of exp(log_terms), with numpy's exp."""
    if log_terms.size == 0:
        return 0.0
    m = float(np.max(log_terms))
    if m == -math.inf:
        return 0.0
    return math.exp(m + math.log(math.fsum(np.exp(log_terms - m).tolist())))


def stirlerr_array(m):
    """Loader's delta(m) over an array of whole m >= 0."""
    m = np.asarray(m)
    x = np.maximum(m, 16).astype(float)
    nn = x * x
    s0, s1, s2, s3, s4 = _STIRLING_S
    series = (s0 - (s1 - (s2 - (s3 - s4 / nn) / nn) / nn) / nn) / x
    return np.where(m <= 15, np.array(_STIRLERR_TABLE)[np.minimum(m, 15)], series)


def bd0_array(x, mean):
    """Loader's deviance over an array, with the series where |x - mean| < 0.1 (x + mean)."""
    x = np.asarray(x, dtype=float)
    out = x * np.log(x / mean) + mean - x
    near = np.abs(x - mean) < 0.1 * (x + mean)
    if near.any():
        xs = x[near]
        d = xs - mean
        v = d / (xs + mean)
        s = d * v
        ej = 2.0 * xs * v
        v2 = v * v
        j = 1
        while True:
            ej = ej * v2
            s_next = s + ej / (2 * j + 1)
            if np.array_equal(s_next, s):
                break
            s = s_next
            j += 1
        out[near] = s
    return out


def binom_logpmf_array(k, n, p):
    """Loader's saddle-point log pmf of Binomial(n, p) over an array of whole 0 <= k <= n."""
    k = np.asarray(k)
    out = np.where(k == 0, n * math.log1p(-p), n * math.log(p))
    inner = (k > 0) & (k < n)
    x = k[inner]
    y = n - x
    out[inner] = (
        stirlerr_array(n)
        - stirlerr_array(x)
        - stirlerr_array(y)
        - bd0_array(x, n * p)
        - bd0_array(y, n * (1.0 - p))
        - 0.5 * (_LOG_2PI + np.log(x) + np.log1p(-x / n))
    )
    return out


def binom_survival_array(k, n, p):
    """Pr[Bin(n, p) >= k], 0 < k <= n, 0 < p < 1: every Loader term k..n summed with numpy's exp and log."""
    return min(1.0, sum_exp_array(binom_logpmf_array(np.arange(k, n + 1), n, p)))


def chi2_survival_array(x, df):
    """Pr[chi-squared with even df >= x], x > 0, as a numpy sum of the Poisson terms."""
    i = np.arange(df // 2)
    return min(1.0, sum_exp_array(-x / 2.0 + i * math.log(x / 2.0) - lgam_whole(0, df // 2)))


def binom_two_sided_oracle(k: int, n: int, p: Fraction) -> Fraction:
    """Minlike two-tailed binomial P-value, exact rational arithmetic."""
    pmf = [Fraction(math.comb(n, j)) * p**j * (1 - p) ** (n - j) for j in range(n + 1)]
    return sum(q for q in pmf if q <= pmf[k])


def fisher_two_sided_oracle(n00: int, n01: int, n10: int, n11: int) -> Fraction:
    """Brute-force hypergeometric table enumeration, exact rational arithmetic."""
    r0, r1, c0 = n00 + n01, n10 + n11, n00 + n10
    n = r0 + r1
    denom = Fraction(math.comb(n, c0))
    support = range(max(0, c0 - r1), min(r0, c0) + 1)
    pmf = {a: Fraction(math.comb(r0, a) * math.comb(r1, c0 - a)) / denom for a in support}
    observed = pmf[n00]
    return sum(q for q in pmf.values() if q <= observed)


def tables_of(n: int, c0: int) -> np.ndarray:
    """Every table (c0, c1, c2, c3) of n events with the given c0, in (c1, c2) order, as an (m, 4) array."""
    m = n - c0
    runs = np.arange(m + 1, 0, -1)  # number of c2 values for c1 = 0..m
    c1 = np.repeat(np.arange(m + 1), runs)
    c2 = np.arange(c1.size) - np.repeat(np.cumsum(runs) - runs, runs)
    return np.column_stack([np.full(c1.size, c0), c1, c2, m - c1 - c2])


def uniform4_null_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact null CDF of the log pmf statistic under Multinomial(n; 1/4 each).

    Enumerates every table (c0, c1, c2, c3) with sum n, one block of fixed
    c0 at a time in (c0, c1, c2) order. Returns the sorted statistic values
    and the cumulative probability up to each; tied statistics have equal
    probabilities, so their order within a tie leaves the sums unchanged.
    The audit scored its tape against this null up to n = 300 until the
    margin decomposition replaced it. The sums add numpy's `exp`, whose last
    bits depend on the CPU: at n = 245 `cum` differs with numpy's AVX-512
    kernels off, but not at the paper counts (53, 79, 62, 51),
    0.05309022675083941.
    """
    lg = settings_audit._log_factorial(n + 1)
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


def local_pvalues(tables: np.ndarray, n: int, null: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """(m, 4) local P-values of `tables` (m, 4) of n events, each by the numpy kernel the tape used.

    The joint-uniformity test is scored against `null`, `uniform4_null_table(n)`.
    """
    stat, cum = null
    binom = settings_audit.binom_two_sided_table(n)
    pos = np.searchsorted(stat, settings_audit.uniform4_logpmf(tables, n) + settings_audit._STAT_TOL, side="right")
    return np.column_stack([
        binom[tables[:, 2] + tables[:, 3]],
        binom[tables[:, 1] + tables[:, 3]],
        cum[np.maximum(pos, 1) - 1],
        settings_audit.fisher_two_sided_tables(tables),
    ])


def enumerated_min_p_law(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(smallest local P-value, probability) of every table of n events, by full enumeration."""
    null = uniform4_null_table(n)
    min_p, prob = np.empty_like(null[0]), np.empty_like(null[0])
    start = 0
    for c0 in range(n + 1):
        tables = tables_of(n, c0)
        end = start + len(tables)
        min_p[start:end] = local_pvalues(tables, n, null).min(axis=1)
        prob[start:end] = np.exp(settings_audit.uniform4_logpmf(tables, n))
        start = end
    return min_p, prob


def lee_tape(n: int, reps: int, seed: int) -> np.ndarray:
    """(reps, 4) local P-values of the tape the audit drew at n <= 300 before its law was exact, from stream 0 of `seed`."""
    draws = rngstream.stream(seed, 0).multinomial(n, [0.25] * 4, size=reps)
    return local_pvalues(draws, n, uniform4_null_table(n))


def fraction_min_p_law(n: int) -> list[tuple[Fraction, Fraction]]:
    """(smallest local P-value, probability) of every table of n events, each an exact rational."""
    half = Fraction(1, 2)
    binom = [binom_two_sided_oracle(k, n, half) for k in range(n + 1)]
    tables = [(*t, n - sum(t)) for t in itertools.product(range(n + 1), repeat=3) if sum(t) <= n]
    prob = {t: Fraction(math.factorial(n), math.prod(math.factorial(c) for c in t) * 4**n) for t in tables}
    law = []
    for t in tables:
        joint = sum(q for q in prob.values() if q <= prob[t])
        fisher = fisher_two_sided_oracle(*t) if 0 < t[0] + t[1] < n and 0 < t[0] + t[2] < n else Fraction(1)
        law.append((min(binom[t[2] + t[3]], binom[t[1] + t[3]], joint, fisher), prob[t]))
    return law


def law_values(law, alpha):
    """The joint rejection probability P(min_p < alpha) and the largest atom t with P(min_p < t) <= alpha, of `law`."""
    joint = sum(q for p, q in law if p < alpha)
    threshold = max(t for t, _ in law if sum(q for p, q in law if p < t) <= alpha)
    return joint, threshold
