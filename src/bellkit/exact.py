"""Exact and numerically careful distribution primitives.

Log-space implementations of the binomial, hypergeometric and multinomial
pmfs plus the tail probabilities and two-sided exact tests built on them.
Everything in this module is deterministic; Monte Carlo layers live in the
calling modules. It needs numpy and the standard library only.

Two-sided tests use the probability ordering ("minlike") convention: the
P-value is the total probability of all outcomes whose pmf does not exceed
the observed outcome's pmf, with a small relative tolerance for ties.

Every log k! comes from one table, `_log_factorial`, whose entries equal
`scipy.special.gammaln(k + 1)` bit for bit: the reports were pinned with
gammaln, and a one-ulp change in a log pmf can move a tie or the last
printed digit of a P-value. The binomial tail sums Loader's saddle-point
pmf at every n, which needs only log, log1p and a 16-entry table and keeps
each term to about 1e-16 relative, where log k! differences lose about
log10(n) digits.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Relative tolerance when comparing pmf values for "as extreme or more
# extreme" orderings; the usual exact-test tie convention.
TIE_RELATIVE_EPS = 1e-7

_LOG_TIE = math.log1p(TIE_RELATIVE_EPS)


# Constants of the cephes `lgam` routine behind scipy.special.gammaln.
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)

_log_factorial_table = np.zeros(0)

_LOG_2PI = 1.8378770664093454836  # log(2 pi)

# Loader's delta(m) = log m! - (m + 1/2) log m + m - log sqrt(2 pi) for
# m = 0..15; delta(0) is +inf, and the ends k = 0 and k = n never need it.
_STIRLERR_TABLE = np.array([
    math.inf,
    0.0810614667953272582196702, 0.0413406959554092940938221, 0.02767792568499833914878929,
    0.02079067210376509311152277, 0.01664469118982119216319487, 0.01387612882307074799874573,
    0.01189670994589177009505572, 0.010411265261972096497478567, 0.009255462182712732917728637,
    0.008330563433362871256469318, 0.007573675487951840794972024, 0.006942840107209529865664152,
    0.006408994188004207068439631, 0.005951370112758847735624416, 0.005554733551962801371038690,
])
# Coefficients of Stirling's series for delta(m), in powers 1/m, 1/m**3, ..., 1/m**9.
_STIRLING_S = (1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188)


def _lgam_whole(lo: int, hi: int) -> np.ndarray:
    """log k! for k = lo..hi-1, bit-equal to scipy.special.gammaln(k + 1).

    The cephes `lgam` steps for whole x = k + 1: the log of the exact
    product (x-1)! below 13, Stirling's series above. The logarithm is
    libm's, through `math.log`; numpy's vectorised log may differ from it
    in the last bit.
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


def _log_factorial(size: int) -> np.ndarray:
    """Read-only table with lg[k] = log k! for at least k = 0..size-1.

    Built on first use and extended on demand; an extension computes only
    the new entries.
    """
    global _log_factorial_table
    table = _log_factorial_table
    if size > table.size:
        table = np.concatenate([table, _lgam_whole(table.size, size)])
        table.flags.writeable = False
        _log_factorial_table = table
    return table


def _sum_exp(log_terms: np.ndarray) -> float:
    """Compensated sum of exp(log_terms), stable against under/overflow."""
    if log_terms.size == 0:
        return 0.0
    m = float(np.max(log_terms))
    if m == -math.inf:
        return 0.0
    acc = math.fsum(np.exp(log_terms - m).tolist())
    return math.exp(m + math.log(acc))


def _check_counts(k: int, n: int) -> None:
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")


def _check_binom_args(k: int, n: int, p: float) -> None:
    _check_counts(k, n)
    if not 0.0 < p < 1.0:
        raise ValueError(f"success probability must lie in (0, 1), got {p}")


def binom_logpmf_vector(n: int, p: float) -> np.ndarray:
    """log pmf of Binomial(n, p) over k = 0..n."""
    k = np.arange(n + 1)
    lg = _log_factorial(n + 1)
    return (
        lg[n]
        - lg[k]
        - lg[n - k]
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )


def _stirlerr(m) -> np.ndarray:
    """Loader's delta(m) = log m! - (m + 1/2) log m + m - log sqrt(2 pi), for whole m >= 0.

    The table up to m = 15; above it Stirling's series to the m**-9 term,
    whose truncation error is 1.1e-16 at m = 16 and falls as m**-11.
    """
    m = np.asarray(m)
    x = np.maximum(m, 16).astype(float)
    nn = x * x
    s0, s1, s2, s3, s4 = _STIRLING_S
    series = (s0 - (s1 - (s2 - (s3 - s4 / nn) / nn) / nn) / nn) / x
    return np.where(m <= 15, _STIRLERR_TABLE[np.minimum(m, 15)], series)


def _bd0(x: np.ndarray, mean: float) -> np.ndarray:
    """The deviance x log(x / mean) + mean - x, without its cancellation near x = mean.

    Where |x - mean| < 0.1 (x + mean) it sums the series
    (x - mean) v + 2x (v**3/3 + v**5/5 + ...), v = (x - mean) / (x + mean),
    until a term no longer changes the sum; elsewhere the direct form has
    no cancellation to lose digits to.
    """
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


def _binom_logpmf_loader(k: np.ndarray, n: int, p: float) -> np.ndarray:
    """log pmf of Binomial(n, p) at whole 0 <= k <= n, Loader's saddle-point form.

    log pmf(k) = delta(n) - delta(k) - delta(n - k) - bd0(k, np) - bd0(n - k, nq)
    - log(2 pi k (n - k) / n) / 2, every term small or free of cancellation
    (C. Loader, "Fast and Accurate Computation of Binomial Probabilities",
    2000). The ends are exact: n log(1 - p) at k = 0, n log p at k = n.
    """
    k = np.asarray(k)
    out = np.where(k == 0, n * math.log1p(-p), n * math.log(p))
    inner = (k > 0) & (k < n)
    x = k[inner]
    y = n - x
    out[inner] = (
        _stirlerr(n)
        - _stirlerr(x)
        - _stirlerr(y)
        - _bd0(x, n * p)
        - _bd0(y, n * (1.0 - p))
        - 0.5 * (_LOG_2PI + np.log(x) + np.log1p(-x / n))
    )
    return out


def binom_survival(k: int, n: int, p: float) -> float:
    """Pr[Bin(n, p) >= k], for 0 < p <= 1.

    A compensated sum of the pmf terms k..n in log space, each in Loader's
    saddle-point form. At p = 1 every draw is n, so the tail is exactly 1.
    """
    _check_counts(k, n)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"success probability must lie in (0, 1], got {p}")
    if k <= 0 or p == 1.0:
        return 1.0
    return min(1.0, _sum_exp(_binom_logpmf_loader(np.arange(k, n + 1), n, p)))


def binom_two_sided(k: int, n: int, p: float = 0.5) -> float:
    """Exact two-tailed binomial test, probability ordering."""
    _check_binom_args(k, n, p)
    lp = binom_logpmf_vector(n, p)
    keep = lp <= lp[k] + _LOG_TIE
    return min(1.0, _sum_exp(lp[keep]))


def binom_two_sided_table(n: int, p: float = 0.5) -> np.ndarray:
    """Two-tailed binomial P-value for every k = 0..n at once.

    Equivalent to [binom_two_sided(k, n, p) for k in 0..n] but O(n log n):
    sort the pmf, accumulate, and look each k up in the sorted order.
    """
    _check_binom_args(0, n, p)
    lp = binom_logpmf_vector(n, p)
    order = np.argsort(lp, kind="stable")
    cum = np.cumsum(np.exp(lp[order]))
    pos = np.searchsorted(lp[order], lp + _LOG_TIE, side="right")
    return np.minimum(cum[np.maximum(pos, 1) - 1], 1.0)


def fisher_two_sided(n00: int, n01: int, n10: int, n11: int) -> float:
    """Two-sided Fisher exact test on [[n00, n01], [n10, n11]].

    Enumerates the hypergeometric support with the row and column margins
    fixed and sums the probability of every table at most as likely as the
    observed one. A table with an empty row or column admits a single
    configuration, so the P-value is 1.
    """
    cells = (n00, n01, n10, n11)
    if any(int(c) != c or c < 0 for c in cells):
        raise ValueError(f"cell counts must be nonnegative integers, got {cells}")
    n00, n01, n10, n11 = (int(c) for c in cells)
    r0, r1 = n00 + n01, n10 + n11
    c0 = n00 + n10
    n = r0 + r1
    if r0 == 0 or r1 == 0 or c0 == 0 or c0 == n:
        return 1.0
    a_min = max(0, c0 - r1)
    a_max = min(r0, c0)
    a = np.arange(a_min, a_max + 1)
    lg = _log_factorial(n + 1)
    lp = (
        lg[r0]
        - lg[a]
        - lg[r0 - a]
        + lg[r1]
        - lg[c0 - a]
        - lg[r1 - (c0 - a)]
        - (lg[n] - lg[c0] - lg[n - c0])
    )
    lp_obs = lp[n00 - a_min]
    keep = lp <= lp_obs + _LOG_TIE
    return min(1.0, _sum_exp(lp[keep]))


def fisher_two_sided_tables(tables: np.ndarray, max_cells: int = 4_000_000) -> np.ndarray:
    """Vectorized two-sided Fisher exact test.

    `tables` has shape (R, 4) holding [n00, n01, n10, n11] rows that all
    share the same grand total. Rows are processed in chunks so the padded
    support matrix never exceeds `max_cells` entries. log k! is evaluated
    once for k = 0..N, N the largest grand total, and looked up per cell.
    """
    tables = np.asarray(tables, dtype=np.int64)
    if tables.ndim != 2 or tables.shape[1] != 4:
        raise ValueError("tables must have shape (R, 4)")
    if (tables < 0).any():
        raise ValueError("cell counts must be nonnegative")
    out = np.empty(len(tables))
    width_bound = int(tables.sum(axis=1).max()) + 1 if len(tables) else 1
    log_factorial = _log_factorial(width_bound)
    chunk = max(1, max_cells // width_bound)
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


def chi2_survival(x: float, df: int) -> float:
    """Pr[chi-squared with df degrees of freedom >= x].

    Closed forms for df = 1 and even df, all this package needs; any other
    df raises.
    """
    if df < 1 or (df > 1 and df % 2):
        raise ValueError(f"degrees of freedom must be 1 or even, got {df}")
    if x <= 0.0:
        return 1.0
    if df == 1:
        return float(math.erfc(math.sqrt(x / 2.0)))
    m = df // 2
    i = np.arange(m)
    log_terms = -x / 2.0 + i * math.log(x / 2.0) - _log_factorial(m)[:m]
    return min(1.0, _sum_exp(log_terms))


def normal_survival(z: float) -> float:
    """Upper tail of the standard normal distribution."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def uniform4_logpmf(counts: np.ndarray, n: int) -> np.ndarray:
    """log pmf of Multinomial(n; 1/4, 1/4, 1/4, 1/4) at `counts` (..., 4)."""
    counts = np.asarray(counts)
    lg = _log_factorial(n + 1)
    return (
        lg[n]
        - lg[counts].sum(axis=-1)
        + n * math.log(0.25)
    )
