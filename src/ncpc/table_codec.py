"""Classical table-based prefix codec.

Encoding reads a single per-character table; decoding peeks max_len
<= 64 bits once and, for each codeword length in ascending order,
binary-searches that length's bucket for the window's prefix of that
length. The first match is the codeword, because the code is prefix-free.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .bits import BitReader
from .codewords import MAX_CODEWORD_BITS
from .errors import InvalidStream


class TableCode:
    """Explicit codeword tables for a prefix-free code over 1..sigma."""

    def __init__(self, codewords) -> None:
        cws = [(int(c), int(v), int(l)) for c, v, l in codewords]
        sigma = len(cws)
        if sigma == 0:
            raise ValueError("empty codeword set")
        chars = sorted(c for c, _, _ in cws)
        if chars != list(range(1, sigma + 1)):
            raise ValueError("duplicate or missing character")
        if len({(v, l) for _, v, l in cws}) != sigma:
            raise ValueError("duplicate codeword")
        self.sigma = sigma
        enc_v = [0] * sigma
        enc_l = [0] * sigma
        buckets: dict[int, list[tuple[int, int]]] = {}
        for c, v, l in cws:
            enc_v[c - 1] = v
            enc_l[c - 1] = l
            buckets.setdefault(l, []).append((v, c))
        self._enc_v = enc_v
        self._enc_l = enc_l
        self._lengths = sorted(buckets)
        self._buckets = {}
        for l, pairs in buckets.items():
            pairs.sort()
            self._buckets[l] = ([v for v, _ in pairs], [c for _, c in pairs])
        self.max_len = max(self._lengths)
        if self.max_len > MAX_CODEWORD_BITS:
            raise ValueError(f"codewords longer than {MAX_CODEWORD_BITS} bits")

    @classmethod
    def from_code(cls, code) -> "TableCode":
        """Build from any model exposing codeword_arrays()."""
        vals, lens = code.codeword_arrays()
        return cls(zip(range(1, len(vals) + 1), vals.tolist(), lens.tolist()))

    def encode(self, i: int) -> tuple[int, int]:
        if not 1 <= i <= self.sigma:
            raise IndexError(f"character out of range: {i}")
        return (self._enc_v[i - 1], self._enc_l[i - 1])

    def decode(self, reader: BitReader) -> tuple[int, int]:
        m = self.max_len
        w = reader.peek(m)
        for ln in self._lengths:
            vals, chars = self._buckets[ln]
            v = w >> (m - ln)
            k = bisect_left(vals, v)
            if k < len(vals) and vals[k] == v:
                reader.skip(ln)
                return (chars[k], ln)
        raise InvalidStream("invalid stream: no codeword matches")

    def codeword_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.array(self._enc_v, dtype=np.uint64),
                np.array(self._enc_l, dtype=np.int64))

    def size_breakdown(self) -> dict[str, int]:
        """Accounted bits per component: sigma*L for encoding and
        sigma*(L + ceil(lg sigma)) for the per-length decoding tables."""
        lg_sigma = (self.sigma - 1).bit_length()
        return {"encode": self.sigma * self.max_len,
                "decode": self.sigma * (self.max_len + lg_sigma)}

    def model_size_bits(self) -> int:
        return sum(self.size_breakdown().values())
