import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pack_bits_reference
from ncpc.bits import _CHUNK, BitReader, pack_bits
from ncpc.errors import Underflow


def test_write_then_read_roundtrip():
    data, nbits = pack_bits([5], [3])
    assert nbits == 3
    assert BitReader(data, nbits).read(3) == 5


def test_msb_first_layout():
    data, nbits = pack_bits([1, 0, 1], [1, 1, 1])
    assert data[0] >> 5 == 0b101
    assert (data, nbits) == (bytes([0b1010_0000]), 3)  # zero-padded to a byte


def test_underflow():
    r = BitReader(*pack_bits([0b101], [3]))
    with pytest.raises(Underflow, match="underflow"):
        r.read(4)


def test_peek_pads_with_zeros():
    r = BitReader(*pack_bits([0b1], [1]))
    assert r.peek(4) == 0b1000
    assert r.remaining == 1


def test_value_must_fit_width():
    with pytest.raises(ValueError):
        pack_bits([4], [2])
    with pytest.raises(ValueError):
        pack_bits([1], [65])
    with pytest.raises(ValueError):
        pack_bits([1], [-1])
    with pytest.raises(ValueError):
        pack_bits([1], [0])
    with pytest.raises(ValueError):
        pack_bits([-1], [3])
    with pytest.raises(ValueError):
        pack_bits(np.array([-1]), [64])  # would wrap to 2^64 - 1 as uint64
    with pytest.raises(ValueError):
        pack_bits([1 << 64], [64])
    with pytest.raises(ValueError):
        pack_bits([1 << 63, -1], [64, 64])  # np.asarray alone would make these floats
    with pytest.raises(ValueError):
        pack_bits([1, 2], [1, 2, 3])


def test_skip_and_tell():
    r = BitReader(*pack_bits([0b110101], [6]))
    r.skip(2)
    assert r.tell() == 2
    assert r.read(4) == 0b0101
    with pytest.raises(Underflow):
        r.skip(1)


def test_zero_width_ops():
    assert pack_bits([0], [0]) == (b"", 0)
    assert pack_bits([], []) == (b"", 0)
    assert pack_bits([0, 3, 0], [0, 2, 0]) == (bytes([0b1100_0000]), 2)
    r = BitReader(b"", 0)
    assert r.read(0) == 0
    assert r.peek(0) == 0


def test_width_64_with_the_top_bit_set():
    vals = [(1 << 64) - 1, 1 << 63, (1 << 63) | 5]
    data, nbits = pack_bits(np.array(vals, dtype=np.uint64), 64)
    assert (data, nbits) == (b"".join(v.to_bytes(8, "big") for v in vals), 192)
    mixed = ([1, 1 << 63, 0b11, (1 << 64) - 2], [1, 64, 2, 64])
    assert pack_bits(*mixed) == pack_bits_reference(*mixed)
    r = BitReader(*pack_bits(*mixed))
    assert [r.read(w) for w in mixed[1]] == mixed[0]


def test_more_values_than_one_chunk(rng):
    n = _CHUNK + 777
    widths = rng.choice([0, 1, 5, 13, 31, 64], n)
    vals = rng.integers(0, (1 << 64) - 1, n, dtype=np.uint64, endpoint=True)
    short = widths < 64
    vals[short] &= (np.uint64(1) << widths[short].astype(np.uint64)) - np.uint64(1)
    assert pack_bits(vals, widths) == pack_bits_reference(vals.tolist(), widths.tolist())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=64), min_size=0, max_size=40),
       st.randoms(use_true_random=False))
def test_roundtrip_random_widths(widths, rnd):
    vals = [rnd.randrange(1 << w) if w else 0 for w in widths]
    data, nbits = pack_bits(vals, widths)
    assert nbits == sum(widths)
    assert (data, nbits) == pack_bits_reference(vals, widths)
    r = BitReader(data, nbits)
    for v, width in zip(vals, widths):
        assert r.read(width) == v
    assert r.remaining == 0
