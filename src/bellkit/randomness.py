"""Text-stream randomness extraction and bit-stream auditing.

Pipeline: each short text message collapses to one bit (the parity of the
total popcount of its characters' code points), blocks of eight such bits
collapse to one whitened bit by XOR, and the result is finally XORed with
one fresh quantum bit per use. Auditing covers bias estimation against the
1/(2 sqrt(N)) counting uncertainty and a Fisher exact independence test
between two bit streams paired by index.

Parity is invariant under character reordering and under leading zeros in
the binary representation of a code point, so the popcount formulation is
representation independent.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from . import exact
from .trials import _check_columns, _read_only, _read_path

MAX_MESSAGE_CHARS = 140
# Messages per array pass of extract_bits; bounds the joined text it holds.
_PARITY_CHUNK = 512


@dataclass(frozen=True, eq=False)
class BitStream:
    """Ordered bits as one read-only uint8 column.

    Construction takes a tuple or an array of integers and checks every
    bit, vectorised; bools are rejected. Errors name the row, counted from 1.
    """

    bits: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.bits, np.ndarray) and bool in set(map(type, self.bits)):
            raise ValueError("bits must be integers, not bools")
        _check_columns(self, ("bits",), None)
        object.__setattr__(self, "bits", _read_only(self.bits.astype(np.uint8)))

    def __len__(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class BiasEstimate:
    """|mean - 1/2| with its 1/(2 sqrt(n)) statistical uncertainty."""

    bias: float
    uncertainty: float
    n: int


def _parities(chunk: list[str], lengths: np.ndarray) -> np.ndarray:
    """Per message, the parity of the total popcount of its code points, as uint8."""
    codes = np.frombuffer("".join(chunk).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    folded = codes ^ (codes >> 16)
    for shift in (8, 4, 2, 1):
        folded ^= folded >> shift
    # The low bit of a running sum of code point parities (mod 256) gives
    # each message's XOR as the difference across its segment.
    running = np.zeros(len(codes) + 1, dtype=np.uint8)
    np.cumsum(folded.astype(np.uint8) & 1, dtype=np.uint8, out=running[1:])
    ends = np.cumsum(lengths)
    return (running[ends] - running[ends - lengths]) & 1


def extract_bits(messages: Iterable[str], max_chars: int = MAX_MESSAGE_CHARS) -> BitStream:
    """One bit per message: the parity of the total number of ones across its code points.

    An empty message yields 0 (the empty parity) with a warning rather than
    an error. An over-long message raises, naming its line: messages are
    counted from 1, as the lines of a message file. Messages are taken
    `_PARITY_CHUNK` at a time, each chunk as one array pass.
    """
    messages = iter(messages)
    parts = []
    first_line = 1
    while chunk := list(itertools.islice(messages, _PARITY_CHUNK)):
        lengths = np.fromiter(map(len, chunk), dtype=np.int64, count=len(chunk))
        over = np.flatnonzero(lengths > max_chars)
        stop = int(over[0]) if over.size else len(chunk)
        for _ in range(np.count_nonzero(lengths[:stop] == 0)):
            warnings.warn("empty message maps to bit 0", stacklevel=2)
        if over.size:
            raise ValueError(f"line {first_line + stop}: message has {lengths[stop]} characters, limit is {max_chars}")
        parts.append(_parities(chunk, lengths))
        first_line += len(chunk)
    return BitStream(np.concatenate(parts) if parts else np.zeros(0, dtype=np.uint8))


def block8(stream: BitStream) -> BitStream:
    """XOR-combine consecutive blocks of eight bits into one bit each.

    A trailing remainder of fewer than eight bits is dropped.
    """
    if len(stream) < 8:
        raise ValueError(f"need at least 8 bits, got {len(stream)}")
    return BitStream(np.bitwise_xor.reduce(stream.bits[: len(stream) // 8 * 8].reshape(-1, 8), axis=1))


def estimate_bias(stream: BitStream) -> BiasEstimate:
    """Deviation of the ones fraction from 1/2, with counting uncertainty."""
    n = len(stream)
    if n == 0:
        raise ValueError("cannot estimate bias of an empty stream")
    mean = int(np.count_nonzero(stream.bits)) / n
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
    return BitStream(np.bitwise_xor.reduce(classical.bits.reshape(-1, 8), axis=1) ^ quantum.bits)


def independence_test(a: BitStream, b: BitStream) -> float:
    """Two-sided Fisher exact P-value for independence of index-paired bits."""
    if len(a) != len(b):
        raise ValueError(f"streams must have equal length, got {len(a)} and {len(b)}")
    if len(a) == 0:
        raise ValueError("cannot test empty streams")
    n00, n01, n10, n11 = np.bincount(2 * a.bits + b.bits, minlength=4).tolist()
    return exact.fisher_two_sided(n00, n01, n10, n11)


def read_messages(source: str | IO[str]) -> list[str]:
    """Read one message per line (UTF-8); the line terminator is stripped.

    Given a path, a file that is not UTF-8 raises, naming the file and the
    line of the first undecodable byte.
    """
    if isinstance(source, str):
        try:
            with open(source, "r", encoding="utf-8") as handle:
                return read_messages(handle)
        except UnicodeDecodeError:
            raise ValueError(f"{source}: {_undecodable_line(source)}") from None
    return [line.rstrip("\r\n") for line in source]


def _undecodable_line(path: str) -> str:
    """Message naming the line and byte of the first invalid UTF-8 in the file at `path`."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[: exc.start]
        # Lines end at \n, \r\n or \r, as text mode reads them.
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return f"line {line}: byte 0x{raw[exc.start]:02x} is not valid UTF-8 ({exc.reason})"
    return "file is not valid UTF-8"


def write_bits(target: str, stream: BitStream, packed: bool = False) -> None:
    """Write bits as ASCII 0/1 lines, or packed binary with a length header.

    The packed format is an 8-byte big-endian bit count followed by the
    bits packed MSB-first.
    """
    if packed:
        with open(target, "wb") as handle:
            handle.write(len(stream).to_bytes(8, "big"))
            handle.write(np.packbits(stream.bits).tobytes())
        return
    lines = np.full((len(stream), 2), ord("\n"), dtype=np.uint8)
    lines[:, 0] = stream.bits + ord("0")
    with open(target, "w", encoding="utf-8") as handle:
        handle.write(lines.tobytes().decode("ascii"))


def _read_ascii_bits(handle: IO[str]) -> BitStream:
    words = [line.strip() for line in handle]
    if set(words) - {"0", "1", ""}:
        lineno, word = next((i, w) for i, w in enumerate(words, start=1) if w not in ("0", "1", ""))
        raise ValueError(f"line {lineno}: expected 0 or 1, got {word!r}")
    return BitStream(np.frombuffer("".join(words).encode("ascii"), dtype=np.uint8) - ord("0"))


def read_bits(source: str, packed: bool = False) -> BitStream:
    """Read a bit file written by write_bits; a malformed file raises, naming it.

    ASCII files hold one 0 or 1 per line, empty lines skipped; errors name
    the line. A packed file must be exactly as long as its header's bit
    count requires, with the pad bits of its last byte 0.
    """
    if not packed:
        return _read_path(source, _read_ascii_bits)
    with open(source, "rb") as handle:
        raw = handle.read()
    if len(raw) < 8:
        raise ValueError(f"{source}: truncated packed bit file")
    count = int.from_bytes(raw[:8], "big")
    size = -(-count // 8)
    if len(raw) - 8 != size:
        raise ValueError(f"{source}: header promises {count} bits in {size} bytes, file holds {len(raw) - 8}")
    packed_bits = np.frombuffer(raw, dtype=np.uint8, offset=8)
    if count % 8 and packed_bits[-1] & (0xFF >> count % 8):
        raise ValueError(f"{source}: pad bits after bit {count} must be 0, last byte is 0b{packed_bits[-1]:08b}")
    return BitStream(np.unpackbits(packed_bits, count=count))
