import time

import numpy as np
import pytest

from conftest import pack_bits_reference, primary_table_loop
from ncpc.alphabetic import alphabetic_codewords, alphabetic_profile
from ncpc.bits import BitReader
from ncpc.codewords import check_kraft, revcanon_codewords
from ncpc.errors import InvalidStream, KraftViolation, TruncatedStream
from ncpc.revcanon import RevCanonCode, huffman_lengths
from ncpc.stream import SequenceCodec
from ncpc.table_codec import TableCode


def test_matches_per_symbol_encode(rng):
    # fixed lengths: empty, one symbol and either side of 2048; then short
    # random messages
    for trial in range(25):
        sigma = int(rng.integers(1, 400))
        code = RevCanonCode(huffman_lengths(rng.integers(1, 80, sigma).tolist()))
        sc = SequenceCodec.for_code(code)
        n = (0, 1, 2047, 2048, 5000)[trial] if trial < 5 else int(rng.integers(0, 300))
        msg = rng.integers(1, sigma + 1, n).tolist()
        data, nbits = sc.encode(msg)
        cws = [code.encode(m) for m in msg]
        assert (data, nbits) == pack_bits_reference([v for v, _ in cws], [l for _, l in cws])
        r = BitReader(data, nbits)
        for m in msg:
            assert code.decode(r)[0] == m
        assert r.remaining == 0


def test_long_codeword_fallback():
    # skewed weights force codewords longer than the 16-bit primary table
    freqs = [1 << max(0, 40 - i) for i in range(40)]
    code = RevCanonCode(huffman_lengths(freqs))
    assert code.L > 16
    sc = SequenceCodec.for_code(code)
    msg = list(range(1, 41)) * 3
    data, nbits = sc.encode(msg)
    assert sc.decode(data, len(msg), nbits).tolist() == msg


def test_long_codeword_no_match_is_invalid_stream():
    # an incomplete code: 0 and one 17-bit codeword; a stream of ones matches neither
    sc = SequenceCodec(np.array([0, 1 << 16], dtype=np.uint64), np.array([1, 17]))
    with pytest.raises(InvalidStream, match="invalid stream"):
        sc.decode(b"\xff" * 4, 1)


def test_truncation_detected(rng):
    code = RevCanonCode(huffman_lengths(rng.integers(1, 60, 100).tolist()))
    sc = SequenceCodec.for_code(code)
    msg = rng.integers(1, 101, 400).tolist()
    data, nbits = sc.encode(msg)
    with pytest.raises((TruncatedStream, ValueError)):
        sc.decode(data[:len(data) // 2], len(msg), nbits // 2)


def test_sigma_one():
    sc = SequenceCodec.for_code(RevCanonCode([0]))
    data, nbits = sc.encode([1, 1, 1])
    assert data == b"" and nbits == 0
    assert sc.decode(b"", 3).tolist() == [1, 1, 1]


def test_symbol_out_of_range():
    sc = SequenceCodec.for_code(RevCanonCode([1, 1]))
    with pytest.raises(ValueError):
        sc.encode([3])


LONG = list(range(1, 70)) + [69]  # Kraft-complete, codewords up to 69 bits


def test_codewords_over_64_bits_are_refused():
    # uint64 values used to drop the high bits: [65, 65, 65] came back as [1, 64, 1]
    with pytest.raises(ValueError, match="64 bits"):
        RevCanonCode(LONG)  # every decoder reads a codeword in one 64-bit peek
    with pytest.raises(ValueError, match="64 bits"):
        revcanon_codewords(LONG)
    with pytest.raises(ValueError, match="64 bits"):
        alphabetic_codewords(LONG)
    with pytest.raises(ValueError, match="64 bits"):
        TableCode([(1, 0, 1), (2, 1 << 64, 65)])
    with pytest.raises(ValueError, match="64 bits"):
        SequenceCodec(np.zeros(len(LONG), dtype=np.uint64), np.array(LONG))
    lens = list(range(1, 65)) + [64]  # 64 bits is the limit
    vals, _ = revcanon_codewords(lens)
    sc = SequenceCodec(vals, np.array(lens))
    data, nbits = sc.encode([64, 65, 1, 65])
    assert sc.decode(data, 4, nbits).tolist() == [64, 65, 1, 65]


def test_lengths_over_64_bits_are_refused_before_the_kraft_sum():
    # the Kraft sum works on integers as wide as the longest length
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="64 bits"):
        check_kraft([1, 10**5])
    with pytest.raises(ValueError, match="64 bits"):
        RevCanonCode([1, 10**5])
    with pytest.raises(ValueError, match="64 bits"):
        alphabetic_codewords([1, 10**5])  # before any 2^L codeword arithmetic
    assert time.perf_counter() - t0 < 0.5


def test_decode_checks_n_against_the_payload():
    sc = SequenceCodec.for_code(RevCanonCode([1, 2, 2]))
    t0 = time.perf_counter()
    with pytest.raises(TruncatedStream):
        sc.decode(b"", 5_000_000)
    assert time.perf_counter() - t0 < 0.5  # refused before any allocation or loop
    with pytest.raises(TruncatedStream):
        sc.decode(b"", 2 ** 63)  # not MemoryError
    with pytest.raises(TruncatedStream):
        sc.decode(b"\x00", 9)  # nine codewords of at least one bit in eight bits
    assert sc.decode(b"\x00", 8).tolist() == [1] * 8


def test_decode_refuses_nbits_past_the_buffer():
    # the zero padding after the payload used to decode as codewords
    sc = SequenceCodec.for_code(RevCanonCode([1, 2, 2]))
    for data, nbits in ((b"", 100), (b"\x00", 9), (b"\x00", -1)):
        with pytest.raises(ValueError, match="nbits exceeds the buffer"):
            sc.decode(data, 3, nbits)
    with pytest.raises(ValueError, match="nbits exceeds the buffer"):
        BitReader(b"", 100)  # the same refusal as the per-symbol reader


def test_decode_tables_match_the_per_character_fill(rng):
    """Both families, on random codes with and without codewords over 16 bits."""
    for case in range(40):
        sigma = int(rng.integers(1, 3000))
        if case % 2:   # geometric tails give codewords up to 40 bits
            freqs = [1 << max(0, 40 - int(i)) for i in rng.permutation(sigma)]
        else:
            freqs = rng.integers(1, 1000, sigma).tolist()
        for vals, lens in (revcanon_codewords(huffman_lengths(freqs)),
                           alphabetic_codewords(alphabetic_profile(freqs).depths)):
            sc = SequenceCodec(vals, lens)
            tlen, tsym, long = primary_table_loop(vals.tolist(), lens.tolist())
            assert (getattr(sc, "_tlen", []), getattr(sc, "_tsym", [])) == (tlen, tsym)
            assert sc._long == long
            assert list(sc._long) == sorted(long)  # decode probes lengths in this order


def test_decode_table_fill_refuses_codes_past_kraft():
    with pytest.raises(KraftViolation):
        SequenceCodec(np.zeros(4, dtype=np.uint64), np.ones(4, dtype=np.int64))
