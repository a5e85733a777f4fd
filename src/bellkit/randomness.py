"""Text-stream randomness extraction and bit-stream auditing.

Pipeline: each short text message collapses to one bit (the parity of the
total popcount of its characters' code points), blocks of eight such bits
collapse to one whitened bit by XOR, and the result is finally XORed with
one fresh quantum bit per use. Auditing covers bias estimation against the
1/(2 sqrt(N)) counting uncertainty and a Fisher exact independence test
between two bit streams paired by index.

Parity is invariant under character reordering and under leading zeros in
the binary representation of a code point, so the popcount formulation is
representation independent. Data is `bytes` from end to end: the message
file's bytes go in, each message's bit comes from its UTF-8 bytes, bits
are `bytes`, one byte 0 or 1 per bit, and bit files are ASCII lines.
Every step is a C-level `bytes` or `int` operation: no numpy.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .pvalues import fisher_two_sided

MAX_MESSAGE_CHARS = 140
# Bytes of message data checked as UTF-8 per pass, then up to the end of the line; bounds the decoded copy.
_DECODE_CHUNK = 1 << 20

# Per UTF-8 byte, the parity of its ones, flipped for a lead byte (0xC0 and up): the marker bits of every
# multibyte sequence hold an odd number of ones, so a message's bytes give the parity of its code points.
_UTF8_PARITY = bytes((bin(b).count("1") + (b >= 0xC0)) & 1 for b in range(256))
# A line's characters are its UTF-8 bytes but the continuation bytes.
_CONTINUATION_BYTES = bytes(range(0x80, 0xC0))
# The bytes of even parity but the line feed: deleting them leaves each line's odd-parity bytes.
_EVEN_BYTES = bytes(b for b in range(256) if not _UTF8_PARITY[b] and b != 0x0A)


@dataclass(frozen=True, eq=False)
class BitStream:
    """Ordered bits as read-only bytes, one byte (0 or 1) per bit.

    Construction takes `bytes` alone; a byte other than 0 or 1 raises, naming its row, counted from 1.
    """

    bits: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.bits, bytes):
            raise ValueError(f"bits must be bytes, got {type(self.bits).__name__}")
        stray = self.bits.translate(None, b"\x00\x01")
        if stray:
            raise ValueError(f"row {self.bits.index(stray[0]) + 1}: bits must be 0 or 1, got {stray[0]}")

    def __len__(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class BiasEstimate:
    """|mean - 1/2| with its 1/(2 sqrt(n)) statistical uncertainty."""

    bias: float
    uncertainty: float
    n: int


def extract_bits(data: bytes) -> BitStream:
    """One bit per line of UTF-8 `data`: the parity of the total number of ones across its code points.

    Lines end at \\n, \\r\\n or a lone \\r, as text mode reads them; the last
    needs no terminator. An empty message yields 0 (the empty parity) with a
    warning; a message over MAX_MESSAGE_CHARS characters raises, naming its
    line counted from 1, after the empty ones before it warn. Data that is
    not UTF-8 raises, naming the line and the first undecodable byte.
    """
    start = 0
    while start < len(data):  # slices cut after a line feed, which no multibyte sequence holds
        end = data.find(b"\n", start + _DECODE_CHUNK) + 1 or len(data)
        try:
            data[start:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            at = start + exc.start  # the first invalid byte; lines end at \n, \r\n or \r, as text mode reads them
            line = data.count(b"\n", 0, at) + data.count(b"\r", 0, at) - data.count(b"\r\n", 0, at) + 1
            raise ValueError(f"line {line}: byte 0x{data[at]:02x} is not valid UTF-8 ({exc.reason})") from None
        start = end
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    lengths = list(map(len, data.translate(None, _CONTINUATION_BYTES).split(b"\n")))
    if lengths[-1] == 0:  # a final terminator, or no data at all, starts no message
        lengths.pop()
    over = None
    if max(lengths, default=0) > MAX_MESSAGE_CHARS:
        over = next(line for line, size in enumerate(lengths, start=1) if size > MAX_MESSAGE_CHARS)
    for _ in range(lengths[:over].count(0)):
        warnings.warn("empty message maps to bit 0", stacklevel=2)
    if over is not None:
        raise ValueError(f"line {over}: message has {lengths[over - 1]} characters, limit is {MAX_MESSAGE_CHARS}")
    odd = data.translate(None, _EVEN_BYTES).split(b"\n")
    return BitStream(bytes([len(line) & 1 for line in odd[: len(lengths)]]))


def _block_parities(bits: bytes) -> bytes:
    """Each whole block of eight bits XOR-folded, as one integer, into its first byte; a remainder is dropped."""
    size = len(bits) // 8 * 8
    folded = int.from_bytes(bits[:size], "little")
    for shift in (32, 16, 8):
        folded ^= folded >> shift
    return folded.to_bytes(size, "little")[::8]


def block8(stream: BitStream) -> BitStream:
    """XOR-combine consecutive blocks of eight bits into one bit each.

    A trailing remainder of fewer than eight bits is dropped.
    """
    if len(stream) < 8:
        raise ValueError(f"need at least 8 bits, got {len(stream)}")
    return BitStream(_block_parities(stream.bits))


def estimate_bias(stream: BitStream) -> BiasEstimate:
    """Deviation of the ones fraction from 1/2, with counting uncertainty."""
    n = len(stream)
    if n == 0:
        raise ValueError("cannot estimate bias of an empty stream")
    mean = stream.bits.count(1) / n
    return BiasEstimate(bias=abs(mean - 0.5), uncertainty=1.0 / (2.0 * math.sqrt(n)), n=n)


def combine_streams(classical: BitStream, quantum: BitStream) -> BitStream:
    """XOR of each block of eight classical bits and its one quantum bit.

    The classical stream must be exactly eight times as long as the quantum
    stream.
    """
    if len(classical) != 8 * len(quantum):
        raise ValueError(
            f"classical stream has {len(classical)} bits, need exactly 8 per quantum bit "
            f"({8 * len(quantum)} for {len(quantum)} quantum bits)"
        )
    return BitStream(bytes([p ^ q for p, q in zip(_block_parities(classical.bits), quantum.bits)]))


def independence_test(a: BitStream, b: BitStream) -> float:
    """Two-sided Fisher exact P-value for independence of index-paired bits."""
    if len(a) != len(b):
        raise ValueError(f"streams must have equal length, got {len(a)} and {len(b)}")
    if len(a) == 0:
        raise ValueError("cannot test empty streams")
    n11 = (int.from_bytes(a.bits, "little") & int.from_bytes(b.bits, "little")).bit_count()
    n10, n01 = a.bits.count(1) - n11, b.bits.count(1) - n11
    return fisher_two_sided(len(a) - n11 - n10 - n01, n01, n10, n11)


def write_bits(target: str, stream: BitStream) -> None:
    """Write bits as ASCII lines, one 0 or 1 each."""
    data = bytearray(b"\n" * (2 * len(stream)))
    data[::2] = stream.bits.translate(bytes.maketrans(b"\x00\x01", b"01"))
    with open(target, "wb") as handle:
        handle.write(data)


def read_bits(source: str) -> BitStream:
    """Read a bit file written by write_bits; a malformed file raises, naming it.

    The file holds one 0 or 1 per line, empty lines skipped; errors name
    the line.
    """
    with open(source, "r", encoding="utf-8") as handle:
        try:
            words = [line.strip() for line in handle.read().split("\n")]
            if set(words) - {"0", "1", ""}:
                lineno, word = next((i, w) for i, w in enumerate(words, start=1) if w not in ("0", "1", ""))
                raise ValueError(f"line {lineno}: expected 0 or 1, got {word!r}")
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from None
    return BitStream("".join(words).encode("ascii").translate(bytes.maketrans(b"01", b"\x00\x01")))
