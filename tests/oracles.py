"""Scalar reference forms that bellkit's array code is tested against."""
import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from bellkit.exact import TIE_RELATIVE_EPS
from bellkit.randomness import MAX_MESSAGE_CHARS
from bellkit.trials import HERALD_PSI_MINUS, HERALD_PSI_PLUS

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


def message_to_bit(text, max_chars=MAX_MESSAGE_CHARS):
    """Parity of the total number of ones across the code points of `text`, one character at a time.

    An over-long message raises; an empty message yields 0 (the empty
    parity) with a warning rather than an error.
    """
    if len(text) > max_chars:
        raise ValueError(f"message has {len(text)} characters, limit is {max_chars}")
    if not text:
        warnings.warn("empty message maps to bit 0", stacklevel=2)
        return 0
    parity = 0
    for ch in text:
        parity ^= ord(ch).bit_count() & 1
    return parity


def wins(strategy, setting_a, setting_b, tag=HERALD_PSI_MINUS):
    """Whether the deterministic `strategy` wins the game of `tag` at the given settings."""
    goal = setting_a & (setting_b ^ 1 if tag == HERALD_PSI_PLUS else setting_b)
    return (strategy.output_a(setting_a) ^ strategy.output_b(setting_b)) == goal


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
    """`exact._fisher_chunk` as an element gather per cell: the reference its window views must match bit for bit."""
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
