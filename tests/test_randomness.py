"""Randomness extraction pipeline: parity bits, whitening, audits."""
import io
import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest
from oracles import message_to_bit
from scipy import stats

from bellkit import cli, randomness, rngstream
from bellkit.randomness import (
    BitStream,
    block8,
    combine_streams,
    estimate_bias,
    extract_bits,
    independence_test,
    read_bits,
    write_bits,
)


def popcount_parity_oracle(text):
    return sum(bin(ord(ch)).count("1") for ch in text) % 2


def encode_lines(messages):
    """The UTF-8 bytes of a message file holding `messages`, one a line."""
    return "".join(text + "\n" for text in messages).encode("utf-8")


def bit(text):
    return int(extract_bits(encode_lines([text])).bits[0])


class TestBitStreamConstruction:
    # Bytes name their first byte that is not 0 or 1; anything else, integer columns included, is rejected whole.
    @pytest.mark.parametrize(
        "bits, message",
        [
            (np.array([False, True]), "bits must be bytes, got ndarray"),
            ((0, 1, 1.0), "bits must be bytes, got tuple"),
            ((0, True), "bits must be bytes, got tuple"),
            (b"\x00\x01\x02", "row 3: bits must be 0 or 1, got 2"),
            (b"\x00\xff\x01", "row 2: bits must be 0 or 1, got 255"),
            ([1, 0, 256], "bits must be bytes, got list"),
            (b"\x02\x01\x03", "row 1: bits must be 0 or 1, got 2"),
            (b"\x00\x01\x01\x00\x02", "row 5: bits must be 0 or 1, got 2"),
            (np.array([0, 1, 1, 2], dtype=np.uint8), "bits must be bytes, got ndarray"),
            (iter([0, True]), "bits must be bytes, got list_iterator"),
            ([0, 1], "bits must be bytes, got list"),
            (bytearray(b"\x00\x01"), "bits must be bytes, got bytearray"),
            ("01", "bits must be bytes, got str"),
        ],
        ids=["numpy-bools", "float", "bool", "two", "minus-one", "beyond-a-byte", "first-bad-row", "bytes-two",
             "array-two", "iterator-bool", "integer-list", "bytearray", "text"],
    )
    def test_rejects_naming_the_row(self, bits, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BitStream(bits)

    @pytest.mark.parametrize("bits", [b"\x00\x01\x01"])
    def test_keeps_bits_as_bytes(self, bits):
        stream = BitStream(bits)
        assert type(stream.bits) is bytes and stream.bits == b"\x00\x01\x01" and len(stream) == 3


class TestMessageToBit:
    def test_known_characters(self):
        # U+0041 has two ones, U+0061 has three.
        assert bit("A") == message_to_bit("A") == 0
        assert bit("a") == message_to_bit("a") == 1

    def test_empty_message_warns_and_returns_zero(self):
        with pytest.warns(UserWarning, match="^empty message maps to bit 0$"):
            assert bit("") == 0
        with pytest.warns(UserWarning, match="^empty message maps to bit 0$"):
            assert message_to_bit("") == 0

    def test_matches_oracle_on_mixed_unicode(self):
        samples = ["hello world", "Message #42!", "éèê", "\U0001f600\U0001f680", "0" * 140]
        assert list(extract_bits(encode_lines(samples)).bits) == [popcount_parity_oracle(text) for text in samples]
        for text in samples:
            assert message_to_bit(text) == popcount_parity_oracle(text)

    def test_reordering_invariance(self):
        rng = np.random.default_rng(0)
        text = "parity is commutative #2016"
        for _ in range(10):
            shuffled = "".join(rng.permutation(list(text)))
            assert bit(shuffled) == bit(text)

    def test_length_cap(self):
        bit("x" * 140)
        with pytest.raises(ValueError, match="^line 1: message has 141 characters, limit is 140$"):
            bit("x" * 141)
        with pytest.raises(ValueError, match="^message has 141 characters, limit is 140$"):
            message_to_bit("x" * 141)


def random_messages(seed, count, empty_share=0.05):
    """Messages of 0 to 141 code points mixing one- to four-byte UTF-8 characters, U+FEFF among them."""
    rng = np.random.default_rng(seed)
    alphabet = [0x41, 0x61, 0x20, 0x7F, 0xE9, 0x7FF, 0x800, 0x4E2D, 0xFEFF, 0xFFFF, 0x10000, 0x1F600, 0x10FFFF]
    lengths = rng.choice([0, 1, 2, 7, 70, 139, 140, 141], size=count,
                         p=[empty_share, 0.1, 0.1, 0.2, 0.3 - empty_share, 0.1, 0.1, 0.1])
    return ["".join(chr(c) for c in rng.choice(alphabet, size=n)) for n in lengths]


def oracle_run(messages):
    """(bits or the error message, warnings) of the scalar oracle applied message by message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            bits = []
            for lineno, text in enumerate(messages, start=1):
                try:
                    bits.append(message_to_bit(text))
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from None
            outcome = bits
        except ValueError as exc:
            outcome = str(exc)
    return outcome, [str(w.message) for w in caught]


def extract_run(messages):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = list(extract_bits(encode_lines(messages)).bits)
        except ValueError as exc:
            outcome = str(exc)
    return outcome, [str(w.message) for w in caught]


class TestVectorisedParity:
    """extract_bits against the one-character-at-a-time oracle."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_unicode_messages(self, seed):
        messages = [m for m in random_messages(seed, 3000) if len(m) <= 140]
        outcome, caught = extract_run(messages)
        assert (outcome, caught) == oracle_run(messages)
        assert caught

    def test_lengths_140_and_141(self):
        # The first 141-character message in a random mix is named, after the empty ones before it warn.
        messages = random_messages(7, 400)
        assert {140, 141} <= set(map(len, messages))
        outcome, caught = extract_run(messages)
        assert outcome.endswith("message has 141 characters, limit is 140")
        assert (outcome, caught) == oracle_run(messages)

    @pytest.mark.parametrize("line", [1, 1024, 1025, 2100])
    def test_over_long_message_names_its_line(self, line):
        messages = [m[:140] for m in random_messages(11, 2100, empty_share=0.2)]
        messages[line - 1] = "\U0001f600" * 141
        outcome, caught = extract_run(messages)
        assert outcome == f"line {line}: message has 141 characters, limit is 140"
        assert (outcome, caught) == oracle_run(messages)

    @pytest.mark.parametrize("chunk", [1, 5, 1024])
    def test_chunk_sizes_agree(self, chunk):
        # A bit depends on its message alone: extracting the messages `chunk`
        # at a time and joining the streams gives the oracle's bits and warnings.
        messages = [m for m in random_messages(12, 2500) if len(m) <= 140]
        runs = [extract_run(messages[lo : lo + chunk]) for lo in range(0, len(messages), chunk)]
        joined = [bit for outcome, _ in runs for bit in outcome], [w for _, caught in runs for w in caught]
        assert joined == oracle_run(messages)

    def test_lone_surrogates_and_nul(self):
        # NUL is a character like any other; an encoded surrogate is not UTF-8 at all.
        messages = ["\x00", "\x00\x00a"]
        assert extract_run(messages) == oracle_run(messages)
        for surrogate in ("\ud800", "a\udfff"):
            data = b"ok\n" + surrogate.encode("utf-8", "surrogatepass") + b"\n"
            with pytest.raises(ValueError, match="^line 2: byte 0xed is not valid UTF-8"):
                extract_bits(data)

    @pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 20])
    def test_utf8_checked_in_slices(self, monkeypatch, chunk):
        # Slices cut after a line feed find the first invalid byte that the whole file's decode
        # finds, and name it by its line in the whole file, whatever ends the lines before it.
        monkeypatch.setattr(randomness, "_DECODE_CHUNK", chunk)
        messages = [m for m in random_messages(13, 400) if 0 < len(m) <= 140]  # so no \r meets a \n
        lines = [text.encode("utf-8") for text in messages]
        ends = [(b"\n", b"\r\n", b"\r")[i % 3] for i in range(len(lines))]
        clean = b"".join(line + end for line, end in zip(lines, ends))
        for data in (clean, b"".join(line + b"\r" for line in lines), b"\n".join(lines)):
            assert list(extract_bits(data).bits) == [message_to_bit(text) for text in messages]
        for where in (0, 1, 150, len(lines) - 1):
            for bad in (b"\x80", b"\xe4\xb8", b"\xed\xa0\x80", b"\xff", b"\xf0\x9f\x98"):
                data = b"".join(line + end for line, end in zip(lines[:where], ends)) + bad + b"".join(
                    line + end for line, end in zip(lines[where:], ends[where:])
                )
                try:
                    data.decode("utf-8")
                except UnicodeDecodeError as exc:
                    error = exc
                line = io.StringIO(data[: error.start].decode("utf-8"), newline=None).read().count("\n") + 1
                message = f"line {line}: byte 0x{data[error.start]:02x} is not valid UTF-8 ({error.reason})"
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    extract_bits(data)

    def test_no_messages(self):
        assert len(extract_bits(b"")) == 0
        # One line feed is one empty message.
        with pytest.warns(UserWarning, match="^empty message maps to bit 0$"):
            assert extract_bits(b"\n").bits == b"\x00"


class TestBlock8:
    def test_sixteen_zeros(self):
        assert list(block8(BitStream(bytes(16))).bits) == [0, 0]

    def test_eight_ones_even_parity(self):
        assert list(block8(BitStream(b"\x01" * 8)).bits) == [0]

    def test_remainder_dropped(self, tmp_path, capsys):
        stream = BitStream(bytes((1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1)))
        assert list(block8(stream).bits) == [1]
        # `rng bias --block8` reports the part-block it leaves unused.
        path = str(tmp_path / "bits.txt")
        write_bits(path, stream)
        assert cli.main(["rng", "bias", "--bits", path, "--block8"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["n"], report["unused_bits"]) == (1, 3)

    def test_dataset_sizes(self):
        # 139952 = 17494 * 8 exactly; 134501 leaves a 5-bit remainder.
        assert len(block8(BitStream(bytes(139952)))) == 17494
        assert len(block8(BitStream(bytes(134501)))) == 16812

    def test_too_short(self):
        with pytest.raises(ValueError):
            block8(BitStream(bytes(7)))

    def test_xor_with_zero_stream_is_identity(self):
        rng = rngstream.stream(1)
        bits = rng.integers(0, 2, size=160).tolist()
        base = block8(BitStream(bytes(bits)))
        padded = bytes(b ^ 0 for b in bits)
        assert block8(BitStream(padded)).bits == base.bits

    def test_blockwise_parity_oracle(self):
        rng = rngstream.stream(2)
        bits = tuple(rng.integers(0, 2, size=83).tolist())
        got = tuple(block8(BitStream(bytes(bits))).bits)
        want = tuple(sum(bits[8 * j : 8 * j + 8]) % 2 for j in range(len(bits) // 8))
        assert got == want


class TestEstimateBias:
    def test_all_zeros(self):
        est = estimate_bias(BitStream(bytes(4)))
        assert est.bias == 0.5 and est.uncertainty == 0.25

    def test_balanced(self):
        est = estimate_bias(BitStream(b"\x00\x01" * 2))
        assert est.bias == 0.0 and est.uncertainty == 0.25

    def test_dataset_b_uncertainty(self):
        est = estimate_bias(BitStream(b"\x00\x01" * 8406))
        assert est.n == 16812
        assert est.uncertainty == pytest.approx(0.003856, abs=5e-6)
        assert round(est.uncertainty, 4) == 0.0039

    def test_uncertainty_halves_when_n_quadruples(self):
        small = estimate_bias(BitStream(b"\x00\x01" * 50))
        large = estimate_bias(BitStream(b"\x00\x01" * 200))
        assert large.uncertainty == pytest.approx(small.uncertainty / 2, rel=1e-12, abs=0)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            estimate_bias(BitStream(b""))


def xor_block(classical, quantum):
    """combine_streams on one block: eight classical bits and one quantum bit."""
    (bit,) = list(combine_streams(BitStream(bytes(classical)), BitStream(bytes([quantum]))).bits)
    return bit


class TestXorCombine:
    def test_all_zero(self):
        assert xor_block([0] * 8, 0) == 0

    def test_single_one(self):
        assert xor_block([1, 0, 0, 0, 0, 0, 0, 0], 0) == 1
        assert xor_block([0] * 8, 1) == 1

    def test_exhaustive_512_against_parity(self):
        for bits in itertools.product((0, 1), repeat=9):
            assert xor_block(bits[:8], bits[8]) == sum(bits) % 2

    def test_quantum_bit_always_flips(self):
        rng = rngstream.stream(3)
        for _ in range(50):
            classical = [int(b) for b in rng.integers(0, 2, size=8)]
            assert xor_block(classical, 0) ^ xor_block(classical, 1) == 1

    def test_arity_errors(self):
        with pytest.raises(ValueError, match="need exactly 8 per quantum bit"):
            xor_block([0] * 7, 0)
        with pytest.raises(ValueError, match="need exactly 8 per quantum bit"):
            xor_block([0] * 9, 0)
        with pytest.raises(ValueError, match="bits must be 0 or 1, got 2"):
            xor_block([0] * 8, 2)

    def test_randomized_bulk_against_reference(self):
        rng = rngstream.stream(4)
        blocks = rng.integers(0, 2, size=(100_000, 9))
        want = blocks.sum(axis=1) % 2
        classical, quantum = (BitStream(column.astype(np.uint8).tobytes()) for column in (blocks[:, :8], blocks[:, 8]))
        got = combine_streams(classical, quantum).bits
        assert list(got) == want.tolist()


class TestCombineStreams:
    def test_blockwise(self):
        classical = BitStream(bytes((1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0)))
        quantum = BitStream(b"\x00\x01")
        assert list(combine_streams(classical, quantum).bits) == [1, 1]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            combine_streams(BitStream(bytes(9)), BitStream(bytes(1)))


class TestIndependence:
    def test_identical_streams_detected(self):
        rng = rngstream.stream(5)
        stream = BitStream(bytes(rng.integers(0, 2, size=2000).tolist()))
        assert independence_test(stream, stream) < 1e-100

    def test_balanced_table_is_one(self):
        a = BitStream(bytes(10) + b"\x01" * 10)
        b = BitStream((bytes(5) + b"\x01" * 5) * 2)
        assert independence_test(a, b) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            independence_test(BitStream(b"\x00\x01"), BitStream(bytes(1)))

    def test_calibration_under_independence(self):
        # Independent fair streams: the P-value distribution should be close
        # to uniform. Kolmogorov-Smirnov on 200 replicates.
        rng = rngstream.stream(6)
        pvals = []
        for _ in range(200):
            a = BitStream(bytes(rng.integers(0, 2, size=20_000).tolist()))
            b = BitStream(bytes(rng.integers(0, 2, size=20_000).tolist()))
            pvals.append(independence_test(a, b))
        ks = stats.kstest(pvals, "uniform")
        assert ks.pvalue > 1e-3


class TestFileRoundtrip:
    def test_ascii_roundtrip(self, tmp_path):
        rng = rngstream.stream(7)
        stream = BitStream(bytes(rng.integers(0, 2, size=101).tolist()))
        path = str(tmp_path / "bits.txt")
        write_bits(path, stream)
        assert read_bits(path).bits == stream.bits

    def test_ascii_errors_name_file_and_line(self, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text("0\n\n1\n2\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 4: expected 0 or 1, got '2'$"):
            read_bits(str(path))

    def test_messages_preserve_trailing_spaces(self):
        # A space has one bit set, so a stripped space would flip the bit.
        assert message_to_bit("hello ") != message_to_bit("hello")
        assert list(extract_bits(b"hello \nworld\n").bits) == [message_to_bit("hello "), message_to_bit("world")]

    def test_bitstream_rejects_bools(self):
        with pytest.raises(ValueError, match="^bits must be bytes, got tuple$"):
            BitStream(bits=(1, True))
        with pytest.raises(ValueError, match="^bits must be bytes, got ndarray$"):
            BitStream(bits=np.array([True, False]))

    def test_extract_bits_names_over_long_line(self):
        with pytest.raises(ValueError, match="^line 2: message has 141 characters, limit is 140$"):
            extract_bits(b"ok\n" + b"x" * 141)

    def test_extract_bits_pipeline(self):
        stream = extract_bits(b"A\na\nAa")
        assert list(stream.bits) == [0, 1, 1]


class TestInputErrors:
    @pytest.mark.parametrize(
        "raw, line, byte",
        [(b"\xff\xfehello\n", 1, "0xff"), (b"ok\nfine\nab\xc3(\nlast\n", 3, "0xc3"), (b"a\r\nb\rc\n\x80\n", 4, "0x80")],
        ids=["bom-utf16", "line-3", "mixed-line-ends"],
    )
    def test_bad_utf8_names_file_and_line(self, tmp_path, capsys, raw, line, byte):
        path = tmp_path / "messages.txt"
        path.write_bytes(raw)
        message = f"line {line}: byte {byte} is not valid UTF-8"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            extract_bits(raw)
        code = cli.main(["rng", "extract", "--messages", str(path), "--bits-out", str(tmp_path / "bits.txt")])
        assert code == 1 and capsys.readouterr().err.startswith(f"error: {path}: {message}")
