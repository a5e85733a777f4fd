"""Exact tests over whole supports, in numpy.

The two-sided binomial test (at one k or every k), Fisher's exact test on
a batch of tables and the uniform multinomial log pmf, all in log space
and deterministic; Monte Carlo layers live in the calling modules. This
module needs numpy. The scalar tails (binomial, chi-squared, normal) and
Fisher's test on one table are in `bellkit.pvalues`, which does not.

Two-sided tests use the probability ordering ("minlike") convention: the
P-value is the total probability of all outcomes whose pmf does not exceed
the observed outcome's pmf, with the tie tolerance `pvalues.TIE_RELATIVE_EPS`.

Every log k! comes from one table, `pvalues._log_factorial`, viewed here
as a numpy array: `pvalues._log_k_factorial` mapped over k, bit-equal to
`scipy.special.gammaln(k + 1)`. A scalar test sums with `pvalues._sum_exp`,
on libm's exp, so it has the same bits on every CPU.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import pvalues
from .pvalues import _LOG_TIE, _check_counts, _sum_exp


def _log_factorial(size: int) -> np.ndarray:
    """lg[k] = log k! for at least k = 0..size-1: a read-only view of the one table, `pvalues._log_factorial`."""
    return np.frombuffer(memoryview(pvalues._log_factorial(size)).toreadonly())


def _check_binom_args(k: int, n: int, p: float) -> None:
    _check_counts(k, n)
    if not 0.0 < p < 1.0:
        raise ValueError(f"success probability must lie in (0, 1), got {p}")


def binom_logpmf_vector(n: int, p: float) -> np.ndarray:
    """log pmf of Binomial(n, p) over k = 0..n."""
    k = np.arange(n + 1)
    lg = _log_factorial(n + 1)
    return lg[n] - lg[k] - lg[n - k] + k * math.log(p) + (n - k) * math.log1p(-p)


def binom_two_sided(k: int, n: int, p: float = 0.5) -> float:
    """Exact two-tailed binomial test, probability ordering."""
    _check_binom_args(k, n, p)
    lp = binom_logpmf_vector(n, p)
    keep = lp <= lp[k] + _LOG_TIE
    return min(1.0, _sum_exp(lp[keep].tolist()))


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


def uniform4_logpmf(counts: np.ndarray, n: int) -> np.ndarray:
    """log pmf of Multinomial(n; 1/4, 1/4, 1/4, 1/4) at `counts` (..., 4)."""
    counts = np.asarray(counts)
    lg = _log_factorial(n + 1)
    return lg[n] - lg[counts].sum(axis=-1) + n * math.log(0.25)
