import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ReferenceBitReader, pack_bits_reference
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
    with pytest.raises(Underflow, match="truncated stream"):
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


def test_non_integers_are_refused():
    with pytest.raises(TypeError):
        pack_bits([1.5], [1])
    with pytest.raises(TypeError):
        pack_bits(["1"], [1])
    with pytest.raises(TypeError):
        pack_bits([1], [2.7])
    # numpy holds these as float64, yet both are integers that fit
    assert pack_bits([1 << 63, 1], [64, 1]) == (b"\x80" + bytes(7) + b"\x80", 65)


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


def test_bad_widths_raise_value_error_whatever_the_cursor():
    for nbits in (0, 3, 64, 200):
        r = BitReader(bytes(25), nbits)
        for width in (-1, 65):
            for op in (r.peek, r.read):
                with pytest.raises(ValueError):
                    op(width)
        with pytest.raises(ValueError):
            r.skip(-1)
        assert r.tell() == 0
    r = BitReader(bytes(25))
    r.skip(150)  # 50 bits left: read(65) was an Underflow here, not a ValueError
    with pytest.raises(ValueError):
        r.read(65)
    with pytest.raises(Underflow):
        r.read(64)
    assert r.tell() == 150


def test_peek_is_zero_past_nbits_though_the_buffer_goes_on():
    r = BitReader(b"\xff\xff", 4)
    assert r.peek(8) == 0xF0
    assert r.peek(64) == 0xF << 60
    r.skip(4)
    assert r.peek(64) == 0


def check_against_reference(data, nbits, ops):
    """Run (op, width) pairs on a BitReader and the reference reader: the same
    value or exception type each time, and the same cursor after."""
    r, ref = BitReader(data, nbits), ReferenceBitReader(data, nbits)
    for op, width in ops:
        got = want = None
        try:
            want = getattr(ref, op)(width)
        except (ValueError, Underflow) as e:
            want = type(e)
        try:
            got = getattr(r, op)(width)
        except (ValueError, Underflow) as e:
            got = type(e)
        assert got == want, (op, width, ref.tell())
        assert r.tell() == ref.tell()
        assert r.remaining == nbits - ref.tell()


@st.composite
def streams_and_ops(draw):
    data = draw(st.binary(min_size=0, max_size=80))
    nbits = draw(st.integers(0, 8 * len(data)))
    op = st.one_of(st.tuples(st.sampled_from(["peek", "read"]), st.integers(-1, 65)),
                   st.tuples(st.just("skip"), st.integers(-1, 200)))
    return data, nbits, draw(st.lists(op, max_size=60))


@settings(max_examples=400, deadline=None)
@given(streams_and_ops())
def test_reader_matches_the_whole_stream_int(case):
    check_against_reference(*case)


def test_every_refill_boundary_against_the_reference():
    data = bytes((37 * k + 11) % 256 for k in range(48))
    nbits = 8 * len(data)
    for k in range(257):
        check_against_reference(data, nbits, [("skip", k), ("peek", 64), ("peek", 1),
                                              ("read", 64), ("peek", 64)])
    # one reader walking bit by bit, so each refill replaces a window in use
    check_against_reference(data, nbits, [op for _ in range(nbits)
                                          for op in (("peek", 64), ("skip", 1))])
    check_against_reference(data, nbits - 5, [op for _ in range(nbits)
                                              for op in (("peek", 17), ("read", 1))])
