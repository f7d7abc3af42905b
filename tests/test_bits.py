import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpc.bits import BitReader, BitWriter
from ncpc.errors import Underflow


def test_write_then_read_roundtrip():
    w = BitWriter()
    w.write(5, 3)
    r = BitReader(w.getvalue(), w.bit_length)
    assert r.read(3) == 5


def test_msb_first_layout():
    w = BitWriter()
    w.write(1, 1)
    w.write(0, 1)
    w.write(1, 1)
    assert w.getvalue()[0] >> 5 == 0b101


def test_underflow():
    w = BitWriter()
    w.write(0b101, 3)
    r = BitReader(w.getvalue(), 3)
    with pytest.raises(Underflow, match="underflow"):
        r.read(4)


def test_peek_pads_with_zeros():
    w = BitWriter()
    w.write(0b1, 1)
    r = BitReader(w.getvalue(), 1)
    assert r.peek(4) == 0b1000
    assert r.remaining == 1


def test_value_must_fit_width():
    w = BitWriter()
    with pytest.raises(ValueError):
        w.write(4, 2)
    with pytest.raises(ValueError):
        w.write(1, 65)


def test_skip_and_tell():
    w = BitWriter()
    w.write(0b110101, 6)
    r = BitReader(w.getvalue(), 6)
    r.skip(2)
    assert r.tell() == 2
    assert r.read(4) == 0b0101
    with pytest.raises(Underflow):
        r.skip(1)


def test_zero_width_ops():
    w = BitWriter()
    w.write(0, 0)
    assert w.bit_length == 0
    r = BitReader(b"", 0)
    assert r.read(0) == 0
    assert r.peek(0) == 0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=64), min_size=0, max_size=40),
       st.randoms(use_true_random=False))
def test_roundtrip_random_widths(widths, rnd):
    vals = [rnd.randrange(1 << w) if w else 0 for w in widths]
    w = BitWriter()
    for v, width in zip(vals, widths):
        w.write(v, width)
    assert w.bit_length == sum(widths)
    r = BitReader(w.getvalue(), w.bit_length)
    for v, width in zip(vals, widths):
        assert r.read(width) == v
    assert r.remaining == 0
