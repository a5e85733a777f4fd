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
per-trial bias distribution. Two algebraic forms of the bound are exposed
because they genuinely differ:

* `beta_win_lemma` is the rigorous form
  2f - f^2 + (1-f)^2 (3/4 + tau' - tau'^2) with
  tau' = min((2 tau + f) / (2 (1 - f)), 1/2), which folds the early-number
  budget into the effective on-time bias. At tau = 0 it reduces to
  3/4 + f - f^2.
* `beta_win_expanded` is the weaker polynomial obtained by substituting
  tau directly for tau', expanding to
  3/4 + f/2 - f^2/4 + tau - tau^2 - 2 f tau + f^2 tau + 2 f tau^2
  - f^2 tau^2. It makes the f/2 <-> tau exchange symmetry explicit:
  expanded(f, 0) = expanded(0, f/2).

The complete analysis defaults to the lemma form; pass form="expanded" to
select the other. Also here: Fisher's method for combining independent
P-values and the tau sensitivity curve of the complete analysis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, Iterable, Mapping, Sequence

from . import exact

BOUND_FORMS = ("lemma", "expanded")

REPORT_METHODS = ("conventional", "complete", "fisher", "merged")

# Probabilities below double precision are floored so reports always carry
# a representable positive P-value.
_MIN_P = 5e-324


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


def beta_win(params: BiasParams, form: str = "lemma") -> float:
    """Winning-probability bound in the requested algebraic form."""
    if form == "lemma":
        return beta_win_lemma(params)
    if form == "expanded":
        return beta_win_expanded(params)
    raise ValueError(f"unknown bound form {form!r}, expected one of {BOUND_FORMS}")


def pvalue_complete(n: int, k: int, beta: float) -> float:
    """Pr[Bin(n, beta) >= k]: the memory-robust P-value bound.

    Nondecreasing in beta for fixed (n, k) and nonincreasing in k for
    fixed (n, beta).
    """
    if isinstance(n, bool) or isinstance(k, bool) or int(n) != n or int(k) != k:
        raise ValueError(f"n and k must be integers, got n={n!r}, k={k!r}")
    return max(exact.binom_survival(int(k), int(n), beta), _MIN_P)


def pvalue_conventional(s: float, sigma: float) -> float:
    """One-sided Gaussian upper-tail P-value of (S - 2) / sigma."""
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return max(exact.normal_survival((s - 2.0) / sigma), _MIN_P)


def fisher_combine(pvalues: Sequence[float]) -> float:
    """Fisher's method: chi-squared survival of -2 sum(log p) at 2m dof."""
    if len(pvalues) == 0:
        raise ValueError("need at least one P-value to combine")
    for p in pvalues:
        if not 0.0 < p <= 1.0:
            raise ValueError(f"P-values must lie in (0, 1], got {p}")
    statistic = -2.0 * math.fsum(math.log(p) for p in pvalues)
    return max(exact.chi2_survival(statistic, 2 * len(pvalues)), _MIN_P)


def pvalue_vs_tau_curve(
    n: int,
    k: int,
    tau_grid: Iterable[float],
    f: float = 0.0,
    form: str = "lemma",
) -> list[tuple[float, float]]:
    """Complete-analysis P-value at each mean bias tau in the grid.

    The curve is nondecreasing in tau because the winning-probability bound
    and the binomial upper tail both are.
    """
    curve = []
    for tau in tau_grid:
        beta = beta_win(BiasParams(f=f, tau=tau), form=form)
        curve.append((float(tau), pvalue_complete(n, k, beta)))
    return curve


def write_curve_csv(target: str | IO[str], curve: Sequence[tuple[float, float]]) -> None:
    """Write a (tau, p) curve as two-column CSV."""
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as handle:
            write_curve_csv(handle, curve)
        return
    target.write("tau,p\n")
    for tau, p in curve:
        target.write(f"{tau!r},{p!r}\n")


@dataclass(frozen=True)
class PValueReport:
    """A P-value with the method that produced it and the inputs echoed."""

    method: str
    p: float
    inputs: Mapping[str, object] = field(default_factory=dict)
    note: str = ""

    def __post_init__(self) -> None:
        if self.method not in REPORT_METHODS:
            raise ValueError(f"method must be one of {REPORT_METHODS}, got {self.method!r}")
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"P-value must lie in (0, 1], got {self.p}")

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {"method": self.method, "p": self.p, "inputs": dict(self.inputs)}
        if self.note:
            out["note"] = self.note
        return out
