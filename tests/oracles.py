"""Scalar reference forms that bellkit's array code is tested against."""
import warnings

from bellkit.randomness import MAX_MESSAGE_CHARS


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
