"""One read contract for the per-symbol decoders: each codeword is one
peek at the reader's window and one skip of its cursor by exactly the
codeword's length, both made inline on the reader's fields (see
ncpc.bits). A decode calls no peek, skip or read, and calls _refill()
once when its read passes the window's end and else never. A stream cut
inside a codeword raises TruncatedStream with the reader where the
codeword starts. The bulk decoder is held to the same streams and cuts."""

import functools

import numpy as np
import pytest

from ncpc.alphabetic import build_alphabetic_code
from ncpc.bits import BitReader, pack_bits
from ncpc.errors import TruncatedStream
from ncpc.revcanon import RevCanonCode, build_descent_table, huffman_lengths
from ncpc.stream import SequenceCodec
from ncpc.table_codec import TableCode


class CountingReader(BitReader):
    """A BitReader that counts its _refill calls and, while `decoding` is
    set, refuses peek, skip and read."""

    def __init__(self, data: bytes, nbits: int) -> None:
        super().__init__(data, nbits)
        self.refills = 0
        self.decoding = False

    def _refill(self) -> int:
        self.refills += 1
        return super()._refill()

    def peek(self, width: int) -> int:
        assert not self.decoding, "decode called peek"
        return super().peek(width)

    def read(self, width: int) -> int:
        assert not self.decoding, "decode called read"
        return super().read(width)

    def skip(self, width: int) -> None:
        assert not self.decoding, "decode called skip"
        super().skip(width)

    def decode_with(self, decode, width: int):
        """decode(self) with peek, skip and read refused; asserts that it
        refills once if a read of `width` bits at the cursor passes the
        window's end and else not at all, and returns its result or raises
        what it raised."""
        refill = self._pos + width > self._end
        before = self.refills
        self.decoding = True
        try:
            return decode(self)
        finally:
            self.decoding = False
            assert self.refills - before == refill, "refills other than the one a read needs"


def seeded_freqs(sigma: int) -> list[int]:
    """Weights spread over several orders of magnitude, so codeword lengths vary."""
    rng = np.random.default_rng(sigma)
    return ((rng.integers(1, 1 << 16, sigma) >> rng.integers(0, 16, sigma)) + 1).tolist()


def wmm_and_table_decoders(code: RevCanonCode):
    """(name, model, decode) for decode, decode_fast at two widths, and the table."""
    yield "wmm", code, code.decode
    for t in (1, 8):
        table = build_descent_table(code, t)
        yield f"wmm decode_fast t={t}", code, functools.partial(code.decode_fast, table)
    tc = TableCode.from_code(code)
    yield "table", tc, tc.decode


def models(case):
    """(name, model) for the case's wmm and alpha codes. "L<m>" is wmm only:
    lengths 1..m plus m, so the longest codewords are m bits."""
    if isinstance(case, str):
        m = int(case[1:])
        yield "wmm", RevCanonCode(list(range(1, m + 1)) + [m])
        return
    freqs = seeded_freqs(case)
    yield "wmm", RevCanonCode(huffman_lengths(freqs))
    yield "alpha", build_alphabetic_code(freqs)


def read_width(model) -> int:
    """The bits a model's decode reads at the cursor; every codeword fits in them."""
    if isinstance(model, RevCanonCode):
        return model.L
    if isinstance(model, TableCode):
        return model.max_len
    return model.height_cap


def decoders(case):
    for name, model in models(case):
        if name == "wmm":
            yield from wmm_and_table_decoders(model)
        else:
            yield name, model, model.decode


@pytest.mark.parametrize("case", [1, 2, 5, 257, 4096, "L32", "L33", "L64"])
def test_one_peek_and_one_skip_per_codeword(case):
    for name, model, decode in decoders(case):
        width = read_width(model)
        cws = [model.encode(c) for c in range(1, model.sigma + 1)]
        data, nbits = pack_bits(*zip(*cws))
        starts = []
        r = CountingReader(data, nbits)
        for c, (_, l) in enumerate(cws, 1):
            starts.append(r.tell())
            assert r.decode_with(decode, width) == (c, l), name
            assert r.tell() == starts[-1] + l, name
        assert r.tell() == nbits, name

        # every cut of the last 200 bits, decoded from a codeword that starts
        # at or before the first cut: whole codewords come back, and the one
        # the cut falls in is truncated without moving the reader
        lo = max(0, nbits - 200)
        k0 = max(k for k, s in enumerate(starts) if s <= lo)
        for cut in range(lo, nbits):
            r = CountingReader(data, cut)
            r.skip(starts[k0])
            for k in range(k0, model.sigma):
                assert r.tell() == starts[k], (name, cut)
                if starts[k] + cws[k][1] <= cut:
                    assert r.decode_with(decode, width) == (k + 1, cws[k][1]), (name, cut)
                    continue
                with pytest.raises(TruncatedStream):
                    r.decode_with(decode, width)
                assert r.tell() == starts[k], (name, cut)
                break
            else:
                raise AssertionError(f"{name}: no codeword truncated at cut {cut}")


@pytest.mark.parametrize("case", [1, 2, 5, 257, 4096, "L32", "L33", "L64"])
def test_bulk_decoder_on_the_every_character_stream(case):
    for name, model in models(case):
        sc = SequenceCodec.for_code(model)
        chars = list(range(1, model.sigma + 1))
        data, nbits = sc.encode(chars)
        assert sc.decode(data, model.sigma, nbits).tolist() == chars, name
        for cut in range(max(0, nbits - 200), nbits):
            with pytest.raises(TruncatedStream):
                sc.decode(data[:(cut + 7) // 8], model.sigma, cut)
