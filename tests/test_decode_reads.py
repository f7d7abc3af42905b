"""One read contract for the per-symbol decoders: each codeword costs one
peek and one skip, and a stream cut inside a codeword raises
TruncatedStream with the reader where the codeword starts. The bulk
decoder is held to the same streams and cuts."""

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
    """A BitReader that counts its peek and skip calls."""

    def __init__(self, data: bytes, nbits: int) -> None:
        super().__init__(data, nbits)
        self.peeks = self.skips = 0

    def peek(self, width: int) -> int:
        self.peeks += 1
        return super().peek(width)

    def skip(self, width: int) -> None:
        self.skips += 1
        super().skip(width)


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


def decoders(case):
    for name, model in models(case):
        if name == "wmm":
            yield from wmm_and_table_decoders(model)
        else:
            yield name, model, model.decode


@pytest.mark.parametrize("case", [1, 2, 5, 257, 4096, "L32", "L33", "L64"])
def test_one_peek_and_one_skip_per_codeword(case):
    for name, model, decode in decoders(case):
        cws = [model.encode(c) for c in range(1, model.sigma + 1)]
        data, nbits = pack_bits(*zip(*cws))
        starts = []
        r = CountingReader(data, nbits)
        for c, (_, l) in enumerate(cws, 1):
            starts.append(r.tell())
            assert decode(r) == (c, l), name
        assert r.tell() == nbits, name
        assert (r.peeks, r.skips) == (model.sigma, model.sigma), name

        # every cut of the last 200 bits, decoded from a codeword that starts
        # at or before the first cut: whole codewords come back, and the one
        # the cut falls in is truncated without moving the reader
        lo = max(0, nbits - 200)
        k0 = max(k for k, s in enumerate(starts) if s <= lo)
        for cut in range(lo, nbits):
            r = CountingReader(data, cut)
            r.skip(starts[k0])
            calls = 0
            for k in range(k0, model.sigma):
                pos = r.tell()
                calls += 1
                if starts[k] + cws[k][1] <= cut:
                    assert decode(r) == (k + 1, cws[k][1]), (name, cut)
                    continue
                with pytest.raises(TruncatedStream):
                    decode(r)
                assert r.tell() == pos, (name, cut)
                break
            assert (r.peeks, r.skips) == (calls, calls + 1), (name, cut)


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
