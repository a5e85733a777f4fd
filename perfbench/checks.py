"""Independent checks of bellkit's command outputs.

Every check recomputes what a command reported with code that shares
nothing with bellkit: its own file readers, numpy for counting and
scipy.stats for distributions. A check raises `CheckFailed` naming the
first value that disagrees.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy import stats

# Relative tolerance for P-values recomputed by scipy; bellkit sums the
# same tails in log space, so agreement is far tighter than this.
P_RTOL = 1e-6
# Absolute tolerance for correlators, S and sigma recomputed from counts.
STAT_ATOL = 1e-9

TRIAL_FIELDS = ("index", "tag", "setting_a", "setting_b", "outcome_a", "outcome_b")
ATTEMPT_FIELDS = ("attempt_id", "setting_a", "setting_b", "outcome_a", "outcome_b")


class CheckFailed(Exception):
    """A command's output disagrees with the independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close_p(got, want: float, what: str, rtol: float = P_RTOL) -> None:
    want = float(want)
    require(isinstance(got, (int, float)), f"{what}: expected a number, got {got!r}")
    # bellkit floors P-values at the smallest subnormal; scipy may return 0.
    if want < 1e-300:
        require(got < 1e-300, f"{what} = {got!r}, expected < 1e-300 (scipy {want!r})")
        return
    require(abs(got - want) <= rtol * want, f"{what} = {got!r}, scipy gives {want!r}")


def close(got, want: float, what: str, atol: float = STAT_ATOL) -> None:
    require(isinstance(got, (int, float)), f"{what}: expected a number, got {got!r}")
    require(abs(got - want) <= atol, f"{what} = {got!r}, recomputed {want!r}")


def equal(got, want, what: str) -> None:
    require(got == want, f"{what} = {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# Readers


def read_json_lines(path: Path, fields: tuple[str, ...]) -> np.ndarray:
    """Integer columns of a JSON-lines file, one row per non-blank line."""
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            rows.append([record[name] for name in fields])
    return np.array(rows, dtype=np.int64).reshape(-1, len(fields))


def read_bit_lines(path: Path) -> np.ndarray:
    text = path.read_text(encoding="ascii")
    bits = np.frombuffer(text.replace("\n", "").encode("ascii"), dtype=np.uint8) - ord("0")
    require(bool(np.all(bits <= 1)), f"{path.name}: non-bit characters")
    return bits.astype(np.int64)


def read_csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    require(len(lines) >= 1, f"{path.name}: empty file")
    return lines[0].split(","), [line.split(",") for line in lines[1:] if line]


# ---------------------------------------------------------------------------
# CHSH scoring, from the win rule: tag -1 wins when x*y = (-1)^(a*b),
# tag +1 when x*y = (-1)^(a*(1-b)); tag 0 is never scored.


def cell_sign(tag: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The outcome product that wins: +1 or -1 per trial."""
    return 1 - 2 * np.where(tag == 1, a * (1 - b), a * b)


def score(columns: np.ndarray) -> dict:
    """k, n, cells and S per state of trial columns (tag, a, b, x, y)."""
    tag, a, b, x, y = columns.T
    product = x * y
    heralded = tag != 0
    wins = heralded & (product == cell_sign(tag, a, b))
    cells = {}
    states = {}
    for state in (-1, 1):
        s = var = 0.0
        count_state = 0
        complete = True
        for ca in (0, 1):
            for cb in (0, 1):
                mask = (tag == state) & (a == ca) & (b == cb)
                count = int(mask.sum())
                if count == 0:
                    complete = False
                    continue
                e = float(product[mask].sum()) / count
                stderr = math.sqrt(max(0.0, 1.0 - e * e) / count)
                cells[(state, ca, cb)] = (e, count, stderr)
                s += int(cell_sign(np.int64(state), ca, cb)) * e
                var += stderr**2
                count_state += count
        if count_state:
            states[state] = (s, var, count_state, complete)
    return {"k": int(wins.sum()), "n": int(heralded.sum()), "cells": cells, "states": states}


def weighted_s(states: dict, require_complete: bool) -> tuple[float, float] | None:
    parts = [(s, var, c) for s, var, c, complete in states.values() if complete or not require_complete]
    if not parts:
        return None
    total = sum(c for _, _, c in parts)
    s_w = sum(s * c for s, _, c in parts) / total
    sigma = math.sqrt(sum(var * (c / total) ** 2 for _, var, c in parts))
    return s_w, sigma


def beta_lemma(f: float, tau: float) -> float:
    """2f - f^2 + (1-f)^2 (3/4 + t - t^2), t = min((2 tau + f) / (2 (1-f)), 1/2)."""
    t = 0.5 if f >= 1.0 else min((2.0 * tau + f) / (2.0 * (1.0 - f)), 0.5)
    return 2.0 * f - f * f + (1.0 - f) ** 2 * (0.75 + t - t * t)


def binom_upper(k: int, n: int, p: float) -> float:
    return float(stats.binom.sf(k - 1, n, p))


# ---------------------------------------------------------------------------
# analysis-chain


def check_simulate_reference(report: dict, trials: np.ndarray, attempts: int) -> None:
    equal(report.get("attempts"), attempts, "attempts")
    equal(len(trials), attempts, "trial lines")
    equal(trials[:, 0].tolist(), list(range(1, attempts + 1)), "trial indices")
    scored = score(trials[:, 1:])
    equal(report.get("n"), scored["n"], "n")
    equal(report.get("k"), scored["k"], "k")


def check_simulate(report: dict, trials: np.ndarray, attempts: int) -> None:
    """Counters match the trial file; the local strategy stays within 3/4 + 5 sigma."""
    equal(report.get("attempts"), attempts, "attempts")
    equal(len(trials), attempts, "trial lines")
    scored = score(trials[:, 1:])
    equal(report.get("heralded"), scored["n"], "heralded")
    equal(report.get("wins"), scored["k"], "wins")
    n = scored["n"]
    require(n > 0, "no heralded trials")
    close(report.get("win_rate"), scored["k"] / n, "win_rate", atol=1e-12)
    # A classical strategy's expected rate is exactly 3/4; 5 sigma keeps the
    # chance that a correct run fails this check below 1e-6 for any seed.
    limit = 0.75 + 5.0 * math.sqrt(0.75 * 0.25 / n)
    require(report["win_rate"] <= limit, f"win_rate {report['win_rate']} above 3/4 + 5 sigma = {limit}")


def check_analyze(report: dict, trials: np.ndarray) -> None:
    scored = score(trials[:, 1:])
    n, k = scored["n"], scored["k"]
    equal(report.get("n"), n, "n")
    equal(report.get("k"), k, "k")
    cells = report.get("correlators", {})
    equal(len(cells), len(scored["cells"]), "number of correlator cells")
    for (tag, a, b), (e, count, stderr) in scored["cells"].items():
        cell = cells.get(f"tag={tag},a={a},b={b}")
        require(cell is not None, f"correlator cell tag={tag},a={a},b={b} missing")
        equal(cell["count"], count, f"count of cell tag={tag},a={a},b={b}")
        close(cell["e"], e, f"E of cell tag={tag},a={a},b={b}")
        close(cell["stderr"], stderr, f"stderr of cell tag={tag},a={a},b={b}")
    states = scored["states"]
    for state, key in ((-1, "s_psi_minus"), (1, "s_psi_plus")):
        if state in states:
            close(report.get(key), states[state][0], key)
            equal(report.get(f"n_{key[2:]}"), states[state][2], f"n_{key[2:]}")
        else:
            equal(report.get(key), None, key)
            equal(report.get(f"n_{key[2:]}"), 0, f"n_{key[2:]}")
    s_w, sigma = weighted_s(states, require_complete=False)
    close(report.get("s_weighted"), s_w, "s_weighted")
    close(report.get("sigma"), sigma, "sigma")
    close(report.get("beta"), 0.75, "beta", atol=0.0)
    close_p(report.get("p_complete"), binom_upper(k, n, 0.75), "p_complete")
    if sigma > 0:
        close_p(report.get("p_conventional"), float(stats.norm.sf((s_w - 2.0) / sigma)), "p_conventional")
    else:  # every cell perfectly correlated: the Gaussian analysis is undefined
        equal(report.get("p_conventional"), None, "p_conventional")


def check_bound(report: dict, curve_csv: Path, n: int, k: int, taus: list[float]) -> None:
    """Both bound forms ordered, the tau curve nondecreasing and equal to scipy's tail."""
    require(report.get("beta_lemma", 0) >= report.get("beta_expanded", 1), "beta_lemma < beta_expanded")
    close(report["beta_lemma"], beta_lemma(0.0, 0.0), "beta_lemma", atol=1e-15)
    close_p(report.get("p_complete"), binom_upper(k, n, beta_lemma(0.0, 0.0)), "p_complete")
    header, rows = read_csv_rows(curve_csv)
    equal(header, ["tau", "p"], "curve header")
    equal(len(rows), len(taus), "curve points")
    curve = [(float(t), float(p)) for t, p in rows]
    for (tau, p), want_tau in zip(curve, taus):
        close(tau, want_tau, "curve tau", atol=1e-12)
        close_p(p, binom_upper(k, n, beta_lemma(0.0, want_tau)), f"curve p at tau={want_tau}")
    ps = [p for _, p in curve]
    require(all(lo <= hi for lo, hi in zip(ps, ps[1:])), "tau curve decreases")


def check_combine_merge(report: dict, pairs: list[tuple[int, int]]) -> None:
    n = sum(p[0] for p in pairs)
    k = sum(p[1] for p in pairs)
    inputs = report.get("inputs", {})
    equal((inputs.get("n"), inputs.get("k")), (n, k), "merged (n, k)")
    want = binom_upper(k, n, 0.75)
    close_p(report.get("p"), want, "merged p")
    require(0.006 <= report["p"] <= 0.010, f"merged p {report['p']} outside [0.006, 0.010]")


def check_combine_fisher(report: dict, pvalues: list[float]) -> None:
    statistic = -2.0 * sum(math.log(p) for p in pvalues)
    close_p(report.get("p"), float(stats.chi2.sf(statistic, 2 * len(pvalues))), "fisher p")


# ---------------------------------------------------------------------------
# herald-sweep


def read_detections(path: Path) -> np.ndarray:
    with open(path, encoding="utf-8") as handle:
        equal(handle.readline().strip(), "attempt_id,channel,time_ps", "detections header")
        return np.loadtxt(handle, delimiter=",", dtype=np.int64, ndmin=2)


def check_herald_synth(report: dict, detections: np.ndarray, attempts_table: np.ndarray, attempts: int) -> None:
    equal(report.get("attempts"), attempts, "attempts")
    equal(report.get("detections"), len(detections), "detections")
    equal(attempts_table[:, 0].tolist(), list(range(attempts)), "attempt ids")
    require(bool(np.isin(detections[:, 1], (0, 1)).all()), "detection channel outside {0, 1}")
    require(bool((detections[:, 2] >= 0).all()), "negative detection time")
    require(bool(np.isin(detections[:, 0], attempts_table[:, 0]).all()), "detection for an unknown attempt")


def reclassify(detections: np.ndarray, attempts_table: np.ndarray, windows: dict, offset: int) -> np.ndarray:
    """Herald tag per attempt under the two-round window rule at one offset.

    A click counts in round 1 when it lands in [start_c, start_c + len_first)
    of its channel c, in round 2 when it lands in the channel's second
    window. Exactly one click in each round heralds: tag -1 when the two
    clicks are on different channels, +1 on the same channel.
    """
    attempt, channel, t = detections.T
    start = np.array([windows["start_ch0_ps"], windows["start_ch1_ps"]], dtype=np.int64)[channel] + offset
    second = start + windows["second_window_offset_ps"]
    len_second = np.array([windows["len_second_ch0_ps"], windows["len_second_ch1_ps"]], dtype=np.int64)[channel]
    in_first = (t >= start) & (t < start + windows["len_first_ps"])
    in_second = (t >= second) & (t < second + len_second)
    row = np.searchsorted(attempts_table[:, 0], attempt)
    size = len(attempts_table)
    clicks_1 = np.bincount(row[in_first], minlength=size)
    clicks_2 = np.bincount(row[in_second], minlength=size)
    channel_1 = np.bincount(row[in_first], weights=channel[in_first], minlength=size)
    channel_2 = np.bincount(row[in_second], weights=channel[in_second], minlength=size)
    heralded = (clicks_1 == 1) & (clicks_2 == 1)
    return np.where(heralded, np.where(channel_1 != channel_2, -1, 1), 0)


def check_herald_sweep(
    report: dict,
    sweep_csv: Path,
    detections: np.ndarray,
    attempts_table: np.ndarray,
    windows: dict,
    offsets: list[int],
) -> None:
    """Every offset reclassified apart from bellkit; the window-pollution shape holds."""
    equal(report.get("offsets"), offsets, "offsets")
    header, rows = read_csv_rows(sweep_csv)
    equal(header, ["offset_ps", "S", "sigma", "n", "k", "p_local"], "sweep header")
    equal(len(rows), len(offsets), "sweep rows")
    s_at = {}
    for row, offset in zip(rows, offsets):
        equal(int(row[0]), offset, "sweep offset")
        tags = reclassify(detections, attempts_table, windows, offset)
        scored = score(np.column_stack([tags, attempts_table[:, 1:]]))
        equal(int(row[3]), scored["n"], f"n at offset {offset}")
        equal(int(row[4]), scored["k"], f"k at offset {offset}")
        if scored["n"]:
            close_p(float(row[5]), binom_upper(scored["k"], scored["n"], 0.75), f"p_local at offset {offset}")
        estimate = weighted_s(scored["states"], require_complete=True)
        if estimate is None:
            equal(row[1], "", f"S at offset {offset}")
            continue
        close(float(row[1]), estimate[0], f"S at offset {offset}")
        close(float(row[2]), estimate[1], f"sigma at offset {offset}")
        s_at[offset] = estimate
    require(0 in s_at, "no S at offset 0")
    s0, sigma0 = s_at[0]
    for offset, (s, sigma) in s_at.items():
        spread = 2.0 * math.hypot(sigma, sigma0)
        if -800 <= offset <= 0:
            require(abs(s - s0) <= spread, f"S({offset}) = {s:.4f} not within 2 sigma of S(0) = {s0:.4f}")
        elif offset <= -1500:
            require(s0 - s > spread, f"S({offset}) = {s:.4f} not degraded by 2 sigma from S(0) = {s0:.4f}")


# ---------------------------------------------------------------------------
# audits


def check_audit(report: dict, counts: tuple[int, int, int, int], alpha: float, paper: bool) -> None:
    """Exact tests agree with scipy; at the paper's table its Monte Carlo values hold.

    The look-elsewhere threshold is held to 0.021 +- 0.008, not the paper's
    +- 0.005: with 10^4 repetitions it ranged over 0.0150..0.0213 for seeds
    0..1499, and 74 of them fell below 0.016.
    """
    n00, n01, n10, n11 = counts
    n = sum(counts)
    equal(report.get("n"), n, "n")
    close_p(report.get("p_rng_a"), stats.binomtest(n10 + n11, n, 0.5).pvalue, "p_rng_a")
    close_p(report.get("p_rng_b"), stats.binomtest(n01 + n11, n, 0.5).pvalue, "p_rng_b")
    equal(report.get("independence_test"), "fisher", "independence_test")
    close_p(report.get("p_independence"), stats.fisher_exact([[n00, n01], [n10, n11]]).pvalue, "p_independence")
    require(report.get("p_threshold", 1.0) <= alpha, f"p_threshold {report.get('p_threshold')} exceeds alpha")
    if paper:
        paper_values = (("p_joint_uniform", 0.053, 0.012), ("p_joint_lee", 0.13, 0.02), ("p_threshold", 0.021, 0.008))
        for key, want, tol in paper_values:
            require(abs(report.get(key, math.inf) - want) <= tol, f"{key} = {report.get(key)}, paper {want} +- {tol}")


def check_adversary(report: dict, runs: int, alpha: float) -> None:
    """Run counts add up; pooled and per-strategy rejection within alpha + 3 sigma."""
    equal(report.get("runs"), runs, "runs")
    by_strategy = report.get("by_strategy", {})
    equal(sum(s["runs"] for s in by_strategy.values()), runs, "sum of runs per strategy")
    equal(sum(s["rejections"] for s in by_strategy.values()), round(report["rejection_rate"] * runs), "rejections")
    limit = alpha + 3.0 * math.sqrt(alpha * (1.0 - alpha) / runs)
    require(report["rejection_rate"] <= limit, f"pooled rejection rate {report['rejection_rate']} > {limit}")
    for name, s in by_strategy.items():
        limit = alpha + 3.0 * math.sqrt(alpha * (1.0 - alpha) / s["runs"])
        close(s["rate"], s["rejections"] / s["runs"], f"{name} rate", atol=1e-12)
        require(s["rate"] <= limit, f"{name} rejection rate {s['rate']} > {limit}")


def message_bits(path: Path) -> np.ndarray:
    """Parity bit per message line, as the parity of the XOR of its code points.

    popcount parity is linear over XOR, so this equals the XOR of the
    per-character popcount parities that the extractor computes.
    """
    codes = np.frombuffer(path.read_text(encoding="utf-8").encode("utf-32-le"), dtype="<u4")
    ends = np.flatnonzero(codes == ord("\n"))
    starts = np.concatenate([[0], ends[:-1] + 1])
    require(bool(np.all(ends > starts)), "empty message line")
    folded = np.bitwise_xor.reduceat(codes, starts)
    return (np.bitwise_count(folded) & 1).astype(np.int64)


def check_rng_extract(report: dict, bits: np.ndarray, expected: np.ndarray) -> None:
    equal(report.get("messages"), len(expected), "messages")
    equal(report.get("bits"), len(expected), "bits")
    require(np.array_equal(bits, expected), "extracted bits differ from the recomputed parities")


def block_xor(bits: np.ndarray) -> np.ndarray:
    return bits[: len(bits) // 8 * 8].reshape(-1, 8).sum(axis=1) % 2


def check_rng_bias(report: dict, extracted: np.ndarray) -> None:
    blocks = block_xor(extracted)
    m = len(extracted) // 8
    equal(report.get("n"), m, "block count")
    close(report.get("uncertainty"), 1.0 / (2.0 * math.sqrt(m)), "uncertainty", atol=1e-15)
    close(report.get("bias"), abs(blocks.mean() - 0.5), "bias", atol=1e-12)


def check_rng_combine(report: dict, combined: np.ndarray, extracted: np.ndarray, quantum: np.ndarray) -> None:
    want = block_xor(extracted) ^ quantum
    equal(report.get("bits"), len(want), "combined bits")
    require(np.array_equal(combined, want), "combined bits differ from the recomputed XOR")


def check_rng_independence(report: dict, a: np.ndarray, b: np.ndarray) -> None:
    equal(report.get("n"), len(a), "n")
    table = [[int(((a == 0) & (b == 0)).sum()), int(((a == 0) & (b == 1)).sum())],
             [int(((a == 1) & (b == 0)).sum()), int(((a == 1) & (b == 1)).sum())]]
    close_p(report.get("p"), stats.fisher_exact(table).pvalue, "independence p")
