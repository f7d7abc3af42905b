import numpy as np
import pytest

from conftest import bits_of
from ncpc.bits import BitReader, BitWriter
from ncpc.errors import InvalidStream, TruncatedStream
from ncpc.revcanon import RevCanonCode, huffman_lengths
from ncpc.table_codec import TableCode

FIVE = [1, 2, 3, 4, 4]


def test_build_from_five_char_code():
    tc = TableCode.from_code(RevCanonCode(FIVE))
    vals, chars = tc._buckets[4]
    assert list(zip(vals, chars)) == [(0b1110, 4), (0b1111, 5)]


def test_build_sigma1():
    tc = TableCode([(1, 0, 0)])
    assert tc.encode(1) == (0, 0)
    assert tc.decode(BitReader(b"", 0)) == (1, 0)


def test_build_rejects_duplicates():
    with pytest.raises(ValueError, match="character"):
        TableCode([(1, 0, 1), (1, 1, 1)])
    with pytest.raises(ValueError, match="codeword"):
        TableCode([(1, 0, 1), (2, 0, 1)])


def test_encode():
    tc = TableCode.from_code(RevCanonCode(FIVE))
    assert tc.encode(4) == (0b1110, 4)
    assert tc.encode(1) == (0b0, 1)
    with pytest.raises(IndexError):
        tc.encode(0)


def test_decode_probes_lengths_ascending():
    tc = TableCode.from_code(RevCanonCode(FIVE))
    w = BitWriter()
    w.write(0b110, 3)
    assert tc.decode(BitReader(w.getvalue(), 3)) == (3, 3)
    w = BitWriter()
    w.write(0b0, 1)
    assert tc.decode(BitReader(w.getvalue(), 1)) == (1, 1)


def test_decode_no_match_is_error():
    # sparse code: lengths 2 and 2 only cover prefixes 00,10; feed 11
    tc = TableCode([(1, 0b00, 2), (2, 0b01, 2)])
    w = BitWriter()
    w.write(0b11, 2)
    with pytest.raises(InvalidStream, match="invalid stream"):
        tc.decode(BitReader(w.getvalue(), 2))


def test_decode_truncated():
    tc = TableCode.from_code(RevCanonCode(FIVE))
    w = BitWriter()
    w.write(0b111, 3)  # prefix of 1110/1111
    with pytest.raises(TruncatedStream):
        tc.decode(BitReader(w.getvalue(), 3))


def test_differential_vs_rank_codec(rng):
    for _ in range(40):
        sigma = int(rng.integers(1, 700))
        code = RevCanonCode(huffman_lengths(rng.integers(1, 90, sigma).tolist()))
        tc = TableCode.from_code(code)
        for i in range(1, sigma + 1):
            assert tc.encode(i) == code.encode(i)
        msg = rng.integers(1, sigma + 1, 150).tolist()
        w = BitWriter()
        for m in msg:
            v, l = code.encode(m)
            w.write(v, l)
        r1 = BitReader(w.getvalue(), w.bit_length)
        r2 = BitReader(w.getvalue(), w.bit_length)
        for _ in msg:
            assert tc.decode(r1) == code.decode(r2)


def test_model_size_accounting():
    for sigma in (256, 1024):
        rng = np.random.default_rng(sigma)
        code = RevCanonCode(huffman_lengths(rng.integers(1, 1000, sigma).tolist()))
        tc = TableCode.from_code(code)
        L = tc.max_len
        lg = (sigma - 1).bit_length()
        assert tc.size_breakdown() == {"encode": sigma * L, "decode": sigma * (L + lg)}
        assert tc.model_size_bits() == sigma * L + sigma * (L + lg)
        assert tc.model_size_bits() >= sigma * L + sigma * (L + lg)
        assert tc.model_size_bits() > code.model_size_bits()
