"""P-value computations for event-ready CHSH data.

Two analyses of the same (k wins out of n trials) record:

* complete: an upper tail of Binomial(n, beta), where beta bounds the
  per-trial winning probability of any local model with memory, partially
  predictable inputs and an adversarial event-ready box. Valid without
  independence or distributional assumptions.
* conventional: a one-sided Gaussian tail of (S - 2) / sigma, assuming
  independent trials, perfect random inputs and Gaussian statistics.

The winning-probability bound accounts for imperfect random number
generators through two knobs: f, the probability that a setting bit is
produced early enough to be signalled across, and tau, the mean of the
per-trial bias distribution. Every P-value is taken at `beta_win_lemma`,
the rigorous form
2f - f^2 + (1-f)^2 (3/4 + tau' - tau'^2) with
tau' = min((2 tau + f) / (2 (1 - f)), 1/2), which folds the early-number
budget into the effective on-time bias. At tau = 0 it reduces to
3/4 + f - f^2.

`beta_win_expanded` is the weaker polynomial obtained by substituting tau
directly for tau', expanding to
3/4 + f/2 - f^2/4 + tau - tau^2 - 2 f tau + f^2 tau + 2 f tau^2
- f^2 tau^2. It makes the f/2 <-> tau exchange symmetry explicit:
expanded(f, 0) = expanded(0, f/2). The `bound` command prints it for
comparison only: no P-value uses it, because it lies below the lemma
bound wherever 0 < f < 1 and tau < 1/2 (0.7744 against 0.7975 at
f = 0.05, tau = 0), and a local strategy can reach the lemma bound, so a
tail taken at the expanded form would be anti-conservative.

Also here: Fisher's method for combining independent P-values and the tau
sensitivity curve of the complete analysis.

Every scalar test is here too: the tails (binomial in Loader's saddle-point
form, chi-squared, normal), the two-tailed binomial test at p = 1/2 and
Fisher's exact test on one 2x2 table, with the compensated sum of
exponentials and the one log k! table, which `bellkit.settings_audit` views
as a numpy array. They use `math` (libm) alone: this module needs no numpy,
and a P-value has the same bits on every CPU.

It also holds the opener, `_reading`, through which every reader of a
text input opens its file: UTF-8 with universal newlines, errors named by
file and line. It sits here because every command that reads a file
already loads this numpy-free module, so the `rng` commands stay without
numpy and no command loads a module for it.
"""
from __future__ import annotations

import contextlib
import math
from array import array
from dataclasses import dataclass
from itertools import count
from typing import IO, Iterable, Iterator, Sequence

# Probabilities below double precision are floored so reports always carry
# a representable positive P-value.
_MIN_P = 5e-324

# Constants of the cephes `lgam` routine behind scipy.special.gammaln.
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)

_LOG_2PI = 1.8378770664093454836  # log(2 pi)

# Relative tolerance when comparing pmf values for "as extreme or more
# extreme" orderings; the usual exact-test tie convention.
TIE_RELATIVE_EPS = 1e-7
_LOG_TIE = math.log1p(TIE_RELATIVE_EPS)

_log_factorial_table = array("d")

# Loader's delta(m) = log m! - (m + 1/2) log m + m - log sqrt(2 pi) for
# m = 0..15; delta(0) is +inf, and the ends k = 0 and k = n never need it.
_STIRLERR_TABLE = (
    math.inf,
    0.0810614667953272582196702, 0.0413406959554092940938221, 0.02767792568499833914878929,
    0.02079067210376509311152277, 0.01664469118982119216319487, 0.01387612882307074799874573,
    0.01189670994589177009505572, 0.010411265261972096497478567, 0.009255462182712732917728637,
    0.008330563433362871256469318, 0.007573675487951840794972024, 0.006942840107209529865664152,
    0.006408994188004207068439631, 0.005951370112758847735624416, 0.005554733551962801371038690,
)
# Coefficients of Stirling's series for delta(m), in powers 1/m, 1/m**3, ..., 1/m**9.
_STIRLING_S = (1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188)


def _log_k_factorial(k: int) -> float:
    """log k! for whole k >= 0, bit-equal to scipy.special.gammaln(k + 1).

    The cephes `lgam` steps for whole x = k + 1: the log of the exact
    product (x-1)! below 13, Stirling's series above (three terms from
    x = 1000, none above 1e8). The reports were pinned with gammaln: a
    one-ulp change in a log pmf can move a tie or a printed digit.
    """
    if k < 12:
        return math.log(math.factorial(k))
    x = k + 1.0
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        series = (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p + 0.0833333333333333333333
    else:
        series = _LGAM_A[0]
        for a in _LGAM_A[1:]:
            series = series * p + a
    return q + series / x


def _log_factorial(size: int) -> array:
    """Table with lg[k] = log k! (`_log_k_factorial`) for at least k = 0..size-1, built on first use.

    An extension computes only the new entries, into a new table: `bellkit.settings_audit` views the buffer.
    """
    global _log_factorial_table
    old = _log_factorial_table
    if size > len(old):
        _log_factorial_table = old + array("d", map(_log_k_factorial, range(len(old), size)))
    return _log_factorial_table


def _sum_exp(log_terms: Sequence[float]) -> float:
    """Compensated sum of exp(log_terms), stable against under/overflow."""
    m = max(log_terms, default=-math.inf)
    if m == -math.inf:
        return 0.0
    acc = math.fsum([math.exp(t - m) for t in log_terms])
    return math.exp(m + math.log(acc))


def _stirlerr(m: int) -> float:
    """Loader's delta(m) = log m! - (m + 1/2) log m + m - log sqrt(2 pi), for whole m >= 0.

    The table up to m = 15; above it Stirling's series to the m**-9 term,
    whose truncation error is 1.1e-16 at m = 16 and falls as m**-11.
    """
    if m <= 15:
        return _STIRLERR_TABLE[m]
    x = float(m)
    nn = x * x
    s0, s1, s2, s3, s4 = _STIRLING_S
    return (s0 - (s1 - (s2 - (s3 - s4 / nn) / nn) / nn) / nn) / x


def _bd0(x: float, mean: float) -> float:
    """The deviance x log(x / mean) + mean - x, without its cancellation near x = mean.

    Where |x - mean| < 0.1 (x + mean) it sums the series
    (x - mean) v + 2x (v**3/3 + v**5/5 + ...), v = (x - mean) / (x + mean),
    until a term no longer changes the sum; elsewhere the direct form has
    no cancellation to lose digits to.
    """
    d = x - mean
    if abs(d) >= 0.1 * (x + mean):
        return x * math.log(x / mean) + mean - x
    v = d / (x + mean)
    s = d * v
    ej = 2.0 * x * v
    v2 = v * v
    for j in count(3, 2):
        ej = ej * v2
        s_next = s + ej / j
        if s_next == s:
            return s
        s = s_next


def _binom_logpmf(k: int, n: int, p: float) -> float:
    """log pmf of Binomial(n, p) at whole 0 <= k <= n, Loader's saddle-point form.

    log pmf(k) = delta(n) - delta(k) - delta(n - k) - bd0(k, np) - bd0(n - k, nq)
    - log(2 pi k (n - k) / n) / 2, every term small or free of cancellation
    (C. Loader, "Fast and Accurate Computation of Binomial Probabilities",
    2000). The ends are exact: n log(1 - p) at k = 0, n log p at k = n.
    """
    if k == 0:
        return n * math.log1p(-p)
    if k == n:
        return n * math.log(p)
    y = n - k
    return (_stirlerr(n) - _stirlerr(k) - _stirlerr(y) - _bd0(float(k), n * p) - _bd0(float(y), n * (1.0 - p))
            - 0.5 * (_LOG_2PI + math.log(k) + math.log1p(-k / n)))


def _tail_log_terms(k: int, n: int, p: float) -> list[float]:
    """The log pmf terms of Pr[Bin(n, p) >= k] that exp can tell from 0, for 0 < k <= n.

    Walks out from the larger of k and the mode floor((n + 1) p), up to n
    and down to k, each way stopping after the first term 746 below the one
    it started from. The pmf falls monotonically away from its mode, so
    every term left out lies further below the largest, and exp, which is
    exactly 0 below -745.14, adds nothing for it to the compensated sum.
    """
    start = max(k, min(n, math.floor((n + 1) * p)))
    terms = [_binom_logpmf(start, n, p)]
    floor = terms[0] - 746.0
    for walk in (range(start + 1, n + 1), range(start - 1, k - 1, -1)):
        for j in walk:
            terms.append(_binom_logpmf(j, n, p))
            if terms[-1] < floor:
                break
    return terms


def _check_counts(k: int, n: int) -> None:
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")


def binom_survival(k: int, n: int, p: float) -> float:
    """Pr[Bin(n, p) >= k], for 0 < p <= 1.

    A compensated sum of the pmf terms k..n in log space, each in Loader's
    saddle-point form, which keeps each term to about 1e-16 relative where
    log k! differences lose about log10(n) digits. Terms whose exp is
    exactly 0 are not evaluated. At p = 1 every draw is n, so the tail is
    exactly 1.
    """
    _check_counts(k, n)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"success probability must lie in (0, 1], got {p}")
    if k <= 0 or p == 1.0:
        return 1.0
    return min(1.0, _sum_exp(_tail_log_terms(k, n, p)))


def chi2_survival(x: float, df: int) -> float:
    """Pr[chi-squared with df degrees of freedom >= x].

    The closed form for even df >= 2, all this package needs (Fisher's
    method has df = 2k); any other df raises.
    """
    if df < 2 or df % 2:
        raise ValueError(f"degrees of freedom must be even and at least 2, got {df}")
    if x <= 0.0:
        return 1.0
    log_half_x = math.log(x / 2.0)
    return min(1.0, _sum_exp([-x / 2.0 + i * log_half_x - _log_k_factorial(i) for i in range(df // 2)]))


def normal_survival(z: float) -> float:
    """Upper tail of the standard normal distribution."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def binom_two_sided(k: int, n: int) -> float:
    """Exact two-tailed binomial test of k successes in n trials at p = 1/2, probability ordering."""
    _check_counts(k, n)
    lg = _log_factorial(n + 1)
    log_p, log_q = math.log(0.5), math.log1p(-0.5)
    lp = [lg[n] - lg[j] - lg[n - j] + j * log_p + (n - j) * log_q for j in range(n + 1)]
    limit = lp[k] + _LOG_TIE
    return min(1.0, _sum_exp([t for t in lp if t <= limit]))


def fisher_two_sided(n00: int, n01: int, n10: int, n11: int) -> float:
    """Two-sided Fisher exact test on [[n00, n01], [n10, n11]].

    The summed probability of every table with the same row and column
    margins that is at most as likely as the observed one (probability
    ordering); a table with an empty row or column has P-value 1.
    """
    cells = (n00, n01, n10, n11)
    if any(int(c) != c or c < 0 for c in cells):
        raise ValueError(f"cell counts must be nonnegative integers, got {cells}")
    n00, n01, n10, n11 = (int(c) for c in cells)
    r0, r1, c0, n = n00 + n01, n10 + n11, n00 + n10, n00 + n01 + n10 + n11
    if r0 == 0 or r1 == 0 or c0 == 0 or c0 == n:
        return 1.0
    a_min = max(0, c0 - r1)
    lg = _log_factorial(n + 1)
    margins = lg[n] - lg[c0] - lg[n - c0]
    lp = [lg[r0] - lg[a] - lg[r0 - a] + lg[r1] - lg[c0 - a] - lg[r1 - (c0 - a)] - margins
          for a in range(a_min, min(r0, c0) + 1)]
    limit = lp[n00 - a_min] + _LOG_TIE
    return min(1.0, _sum_exp([t for t in lp if t <= limit]))


@dataclass(frozen=True)
class BiasParams:
    """Random-input imperfection budget: early probability f, mean bias tau."""

    f: float = 0.0
    tau: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.f <= 1.0:
            raise ValueError(f"early-number probability f must lie in [0, 1], got {self.f}")
        if not 0.0 <= self.tau <= 0.5:
            raise ValueError(f"mean bias tau must lie in [0, 1/2], got {self.tau}")


def tau_effective(params: BiasParams) -> float:
    """Effective on-time bias min((2 tau + f) / (2 (1 - f)), 1/2)."""
    if params.f >= 1.0:
        return 0.5
    return min((2.0 * params.tau + params.f) / (2.0 * (1.0 - params.f)), 0.5)


def beta_win_lemma(params: BiasParams) -> float:
    """Rigorous per-trial winning-probability bound (see module docstring)."""
    f = params.f
    tp = tau_effective(params)
    return 2.0 * f - f * f + (1.0 - f) ** 2 * (0.75 + tp - tp * tp)


def beta_win_expanded(params: BiasParams) -> float:
    """Expanded polynomial form of the bound, evaluated verbatim."""
    f, tau = params.f, params.tau
    return (
        0.75
        + 0.5 * f
        - 0.25 * f * f
        + tau
        - tau * tau
        - 2.0 * f * tau
        + f * f * tau
        + 2.0 * f * tau * tau
        - f * f * tau * tau
    )


def pvalue_complete(n: int, k: int, beta: float) -> float:
    """Pr[Bin(n, beta) >= k]: the memory-robust P-value bound.

    Nondecreasing in beta for fixed (n, k) and nonincreasing in k for
    fixed (n, beta).
    """
    if isinstance(n, bool) or isinstance(k, bool) or int(n) != n or int(k) != k:
        raise ValueError(f"n and k must be integers, got n={n!r}, k={k!r}")
    return max(binom_survival(int(k), int(n), beta), _MIN_P)


def pvalue_conventional(s: float, sigma: float) -> float:
    """One-sided Gaussian upper-tail P-value of (S - 2) / sigma."""
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return max(normal_survival((s - 2.0) / sigma), _MIN_P)


def fisher_combine(pvalues: Sequence[float]) -> float:
    """Fisher's method: chi-squared survival of -2 sum(log p) at 2m dof."""
    if len(pvalues) == 0:
        raise ValueError("need at least one P-value to combine")
    for p in pvalues:
        if not 0.0 < p <= 1.0:
            raise ValueError(f"P-values must lie in (0, 1], got {p}")
    statistic = -2.0 * math.fsum(math.log(p) for p in pvalues)
    return max(chi2_survival(statistic, 2 * len(pvalues)), _MIN_P)


def pvalue_vs_tau_curve(n: int, k: int, tau_grid: Iterable[float], f: float = 0.0) -> list[tuple[float, float]]:
    """Complete-analysis P-value at each mean bias tau in the grid.

    The curve is nondecreasing in tau because the winning-probability bound
    and the binomial upper tail both are.
    """
    curve = []
    for tau in tau_grid:
        beta = beta_win_lemma(BiasParams(f=f, tau=tau))
        curve.append((float(tau), pvalue_complete(n, k, beta)))
    return curve


def write_curve_csv(path: str, curve: Sequence[tuple[float, float]]) -> None:
    """Write a (tau, p) curve as two-column CSV."""
    with open(path, "w", encoding="utf-8", newline="") as target:
        target.write("tau,p\n")
        for tau, p in curve:
            target.write(f"{tau!r},{p!r}\n")


def _utf8_error(data: bytes, start: int = 0) -> str:
    """Where `data` stops being UTF-8 from `start` on: the line, counted from 1, and its first invalid byte.

    Lines end at \\n, \\r\\n or a lone \\r, as text mode reads them. For error
    paths only: a reader whose text-mode read of a file failed calls this on
    the file's bytes, read again, since the decoder's position is not one in
    the file.
    """
    try:
        str(memoryview(data)[start:], "utf-8")
    except UnicodeDecodeError as exc:
        at = start + exc.start
        line = data.count(b"\n", 0, at) + data.count(b"\r", 0, at) - data.count(b"\r\n", 0, at) + 1
        return f"line {line}: byte 0x{data[at]:02x} is not valid UTF-8 ({exc.reason})"
    return "not valid UTF-8 when first read, valid when read again"


@contextlib.contextmanager
def _reading(path: str) -> Iterator[IO[str]]:
    """The text file at `path`, read as UTF-8 with universal newlines.

    A ValueError raised in the block, the caller's checks of the content
    included, comes back prefixed with the path; an undecodable byte comes
    back as `_utf8_error` names it.
    """
    with open(path, "r", encoding="utf-8") as source:
        try:
            yield source
        except UnicodeDecodeError:
            with open(path, "rb") as raw:
                raise ValueError(f"{path}: {_utf8_error(raw.read())}") from None
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
