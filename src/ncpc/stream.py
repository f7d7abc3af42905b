"""Bulk payload codec over a materialized codeword table.

This is throughput plumbing for whole-file encode/decode: the per-symbol
codecs define the codes; this packs or unpacks long symbol runs through
them efficiently. Encode looks up every symbol's codeword at once and
hands them to bits.pack_bits; decode is table-driven and reads every
codeword from one bit accumulator: a 16-bit primary table for codewords
of at most 16 bits, and one dict per longer length.
"""

from __future__ import annotations

import numpy as np

from .bits import pack_bits
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
        idx = np.asarray(symbols, dtype=np.int64) - 1
        if idx.size and (idx.min() < 0 or idx.max() >= self.sigma):
            raise ValueError("symbol id out of range")
        vals, lens = self._vals[idx], self._lens[idx]
        del idx  # one array of n fewer while pack_bits works
        return pack_bits(vals, lens)

    # -- decode -----------------------------------------------------------

    def decode(self, data: bytes, n: int, nbits: int | None = None) -> np.ndarray:
        """Unpack exactly n symbols from the first nbits bits of data (all
        of it by default); raises TruncatedStream if they run out, and
        ValueError if nbits exceeds data.

        Every codeword is read from one accumulator, refilled 8 bytes at a
        time whenever it holds fewer than max_len bits, so it always holds
        the next codeword whole.
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
        buf = bytes(data) + b"\x00" * 16
        out = [0] * n
        acc = 0
        have = 0
        pos = 0
        for k in range(n):
            if have < need:
                acc = (((acc & ((1 << have) - 1)) << 64)
                       | int.from_bytes(buf[pos:pos + 8], "big"))
                pos += 8
                have += 64
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
