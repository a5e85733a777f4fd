"""Scalar reference forms that bellkit's array code is tested against."""
import warnings

from bellkit.lhv import all_deterministic_strategies
from bellkit.randomness import MAX_MESSAGE_CHARS
from bellkit.trials import HERALD_PSI_MINUS, HERALD_PSI_PLUS


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
