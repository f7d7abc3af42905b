"""Bulk payload codec over a materialized codeword table.

This is throughput plumbing for whole-file encode/decode: the per-symbol
codecs define the codes; this packs or unpacks long symbol runs through
them efficiently (vectorized bit packing, and table-driven decoding that
reads every codeword from one bit accumulator: a 16-bit primary table for
codewords of at most 16 bits, and one dict per longer length).
"""

from __future__ import annotations

import numpy as np

from .codewords import MAX_CODEWORD_BITS
from .errors import InvalidStream, KraftViolation, TruncatedStream


class SequenceCodec:
    """Encode/decode whole symbol arrays for one prefix-free code."""

    def __init__(self, values: np.ndarray, lengths: np.ndarray) -> None:
        self._vals = np.asarray(values, dtype=np.uint64)
        self._lens = np.asarray(lengths, dtype=np.int64)
        self.sigma = int(self._vals.size)
        self.max_len = int(self._lens.max()) if self.sigma else 0
        self.min_len = int(self._lens.min()) if self.sigma else 0
        if self.max_len > MAX_CODEWORD_BITS:
            raise ValueError(f"codewords longer than {MAX_CODEWORD_BITS} bits")

        t = min(16, self.max_len)
        self._t = t
        self._long: dict[int, dict[int, int]] = {}
        if t:
            lens = self._lens
            short = np.flatnonzero(lens <= t)
            # a codeword of l <= t bits fills the 2^(t-l) slots it prefixes;
            # a prefix-free code fills at most 2^t of them, so the fill is bounded
            span = np.left_shift(1, t - lens[short])
            total = int(span.sum())
            if total > 1 << t:
                raise KraftViolation("codeword lengths exceed the Kraft inequality")
            first = self._vals[short].astype(np.int64) << (t - lens[short])
            slot = np.repeat(first - np.cumsum(span) + span, span) + np.arange(total)
            tlen = np.zeros(1 << t, dtype=np.int64)
            tsym = np.zeros(1 << t, dtype=np.int64)
            tlen[slot] = np.repeat(lens[short], span)
            tsym[slot] = np.repeat(short + 1, span)
            self._tlen = tlen.tolist()
            self._tsym = tsym.tolist()
            for l in np.unique(lens[lens > t]).tolist():  # ascending, as decode probes
                chars = np.flatnonzero(lens == l)
                self._long[l] = dict(zip(self._vals[chars].tolist(), (chars + 1).tolist()))

    @classmethod
    def for_code(cls, code) -> "SequenceCodec":
        return cls(*code.codeword_arrays())

    # -- encode -----------------------------------------------------------

    def encode(self, symbols) -> tuple[bytes, int]:
        """Pack symbols (ids 1..sigma) into an MSB-first stream.

        Returns (payload bytes zero-padded to a byte boundary, exact bit count).
        """
        arr = np.asarray(symbols, dtype=np.int64)
        if arr.size and (arr.min() < 1 or arr.max() > self.sigma):
            raise ValueError("symbol id out of range")
        if self.max_len == 0 or not arr.size:
            return (b"", 0)
        lens = self._lens[arr - 1]
        vals = self._vals[arr - 1]
        offs = np.zeros(arr.size, dtype=np.int64)
        np.cumsum(lens[:-1], out=offs[1:])
        total = int(offs[-1] + lens[-1])
        maxlen = int(lens.max())
        narrow = total < 2**31 and maxlen <= 32
        if narrow:
            lens = lens.astype(np.int32)
            vals = vals.astype(np.uint32)
            offs = offs.astype(np.int32)
        bits = np.zeros(total, dtype=np.uint8)
        one = np.uint32(1) if narrow else np.uint64(1)
        for b in range(maxlen):
            act = lens > b
            shift = (lens[act] - 1 - b).astype(vals.dtype)
            bits[offs[act] + b] = ((vals[act] >> shift) & one).astype(np.uint8)
        return (np.packbits(bits).tobytes(), total)

    # -- decode -----------------------------------------------------------

    def decode(self, data: bytes, n: int, nbits: int | None = None) -> np.ndarray:
        """Unpack exactly n symbols from the first nbits bits of data (all
        of it by default); raises TruncatedStream if they run out, and
        ValueError if nbits exceeds data.

        Every codeword is read from one accumulator, refilled 4 bytes at a
        time (8 when codewords exceed 32 bits) whenever it holds fewer than
        max_len bits, so it always holds the next codeword whole.
        """
        if n < 0:
            raise ValueError("n must be >= 0")
        if nbits is None:
            nbits = 8 * len(data)
        if not 0 <= nbits <= 8 * len(data):
            raise ValueError("nbits exceeds the buffer")
        if n * self.min_len > nbits:
            # n comes from outside: check it against the payload before allocating
            raise TruncatedStream("truncated stream")
        if self.max_len == 0:
            return np.ones(n, dtype=np.uint32)
        t = self._t
        tmask = (1 << t) - 1
        tlen = self._tlen
        tsym = self._tsym
        long = tuple(self._long.items())
        need = self.max_len
        step = 4 if need <= 32 else 8  # bytes per refill
        width = 8 * step
        buf = bytes(data) + b"\x00" * 16
        out = [0] * n
        acc = 0
        have = 0
        pos = 0
        for k in range(n):
            if have < need:
                acc = (((acc & ((1 << have) - 1)) << width)
                       | int.from_bytes(buf[pos:pos + step], "big"))
                pos += step
                have += width
            w = (acc >> (have - t)) & tmask
            l = tlen[w]
            if l:
                out[k] = tsym[w]
            else:
                for l, table in long:
                    sym = table.get((acc >> (have - l)) & ((1 << l) - 1))
                    if sym is not None:
                        break
                else:
                    raise InvalidStream("invalid stream: no codeword matches")
                out[k] = sym
            have -= l
        consumed = (pos << 3) - have
        if consumed > nbits:
            raise TruncatedStream("truncated stream")
        return np.asarray(out, dtype=np.uint32)
