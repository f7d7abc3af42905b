"""MSB-first bit streams.

pack_bits packs arrays of values most-significant-bit first into bytes;
BitReader consumes them in the same order. peek() zero-pads past
the end of the stream, read()/skip() never move the cursor past the last
real bit.
"""

from __future__ import annotations

import numpy as np

from .errors import Underflow


_CHUNK = 1 << 16  # values unpacked at a time, one byte per bit: 4 MiB


def pack_bits(values, widths) -> tuple[bytes, int]:
    """Pack the low widths[k] bits of each values[k], MSB-first and in order.

    widths may be one width for every value. Returns (bytes zero-padded to
    a byte boundary, exact bit count). Raises ValueError for a width outside
    0..64 or a value that is negative or wider than its width.
    """
    src = np.asarray(values)
    if src.dtype.kind == "i" and src.size and src.min() < 0:
        raise ValueError("negative value")
    try:  # a Python int below 0 or wider than 64 bits overflows here
        vals = np.asarray(values, dtype=np.uint64)
        wids = np.broadcast_to(np.asarray(widths, dtype=np.int64), vals.shape)
    except OverflowError as e:
        raise ValueError(str(e)) from None
    if wids.size and (wids.min() < 0 or wids.max() > 64):
        raise ValueError("width out of range 0..64")
    total = int(wids.sum())
    bits = np.empty(total, dtype=np.uint8)
    cols = np.arange(64)
    pos = 0
    for start in range(0, vals.size, _CHUNK):
        v = vals[start:start + _CHUNK]
        w = wids[start:start + _CHUNK].astype(np.uint8)
        short = w < 64  # numpy may mask a shift count of 64
        if np.any(v[short] >> w[short]):
            raise ValueError("value does not fit in its width")
        rows = np.unpackbits(v.astype(">u8").view(np.uint8)).reshape(-1, 64)
        kept = rows[cols >= 64 - w[:, None]]  # the low w bits of each row, in order
        bits[pos:pos + kept.size] = kept
        pos += kept.size
    return np.packbits(bits).tobytes(), total


class BitReader:
    """Sequential MSB-first reader over a byte buffer."""

    __slots__ = ("_data", "_nbits", "_pos")

    def __init__(self, data: bytes, nbits: int | None = None) -> None:
        if nbits is None:
            nbits = 8 * len(data)
        if nbits < 0 or nbits > 8 * len(data):
            raise ValueError("nbits exceeds the buffer")
        # 9 bytes of slack so a 64-bit peek at any offset never slices short
        self._data = bytes(data) + b"\x00" * 9
        self._nbits = nbits
        self._pos = 0

    @property
    def remaining(self) -> int:
        return self._nbits - self._pos

    def tell(self) -> int:
        return self._pos

    def peek(self, width: int) -> int:
        """Next `width` bits as an integer, zero-padded past the end."""
        if width < 0 or width > 64:
            raise ValueError(f"width out of range: {width}")
        if width == 0:
            return 0
        start = self._pos >> 3
        off = self._pos & 7
        chunk = int.from_bytes(self._data[start:start + 9], "big")
        return (chunk >> (72 - off - width)) & ((1 << width) - 1)

    def read(self, width: int) -> int:
        if width > self._nbits - self._pos:
            raise Underflow("underflow")
        if width == 1:
            pos = self._pos
            self._pos = pos + 1
            return (self._data[pos >> 3] >> (7 - (pos & 7))) & 1
        v = self.peek(width)
        self._pos += width
        return v

    def skip(self, width: int) -> None:
        if width < 0 or width > self._nbits - self._pos:
            raise Underflow("underflow")
        self._pos += width
