"""Seeded, counter-based random number streams.

Every stochastic routine in the package draws from a Philox generator
created here. Philox is counter-based, so distinct 128-bit keys yield
statistically independent, non-overlapping sequences by construction.
We derive the key from a (seed, stream) pair: parallel or chunked
consumers take one stream per logical unit (run index, sweep offset,
Monte Carlo chunk) and the merged result is independent of execution
order.
"""
from __future__ import annotations

import numpy as np

_U64_MAX = (1 << 64) - 1


def philox_key(seed: int, stream_id: int = 0) -> int:
    """128-bit Philox key for a (seed, stream) pair; distinct pairs never collide."""
    if not 0 <= int(seed) <= _U64_MAX:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    if not 0 <= int(stream_id) <= _U64_MAX:
        raise ValueError(f"stream_id must be an unsigned 64-bit integer, got {stream_id!r}")
    return (int(seed) << 64) | int(stream_id)


def stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Generator for the given (seed, stream) pair."""
    return np.random.Generator(np.random.Philox(key=philox_key(seed, stream_id)))
