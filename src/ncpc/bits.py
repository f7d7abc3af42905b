"""MSB-first bit streams.

pack_bits packs arrays of values most-significant-bit first into bytes;
BitReader consumes them in the same order. peek() zero-pads past the
stream's last bit; read()/skip() never move the cursor past it and raise
TruncatedStream instead, and a width out of range is a ValueError before
any check of the stream. read() is those checks plus one peek().
BitReader serves peeks from a 128-bit window it refills only when a peek
runs past it; the window belongs to the reader, not to the models that
decode through it, so those stay immutable.

The window is also the read protocol of ncpc's per-symbol decoders
(CompactAlphabeticCode.decode, RevCanonCode's descent and TableCode.decode),
and only theirs: they read the fields _pos, _win, _end and _nbits and call
_refill() inline, so a codeword costs no reader call. Each decode reads its
w <= 64 bits as peek(w) does, raises TruncatedStream without moving when
its codeword of l bits passes _nbits, and else sets _pos forward by l.
Every other caller uses peek, skip, read and tell.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import TruncatedStream


_CHUNK = 1 << 16  # values unpacked at a time, one byte per bit: 4 MiB


def _integers(x):
    """x as an array; unless numpy already holds it as integers, each element
    passes operator.index, which raises TypeError on floats and strings."""
    a = np.asarray(x)
    if a.dtype.kind in "iub":
        return a
    # [1 << 63, 1] is float64 to numpy, so the elements are checked, not the dtype
    return np.array([operator.index(v) for v in np.asarray(x, dtype=object).flat],
                    dtype=object).reshape(a.shape)


def pack_bits(values, widths) -> tuple[bytes, int]:
    """Pack the low widths[k] bits of each values[k], MSB-first and in order.

    widths may be one width for every value. Returns (bytes zero-padded to
    a byte boundary, exact bit count). Raises TypeError for a value or width
    that is not an integer, and ValueError for a width outside 0..64 or a
    value that is negative or wider than its width.
    """
    src = _integers(values)
    if src.dtype.kind == "i" and src.size and src.min() < 0:
        raise ValueError("negative value")
    try:  # a Python int below 0 or wider than 64 bits overflows here
        vals = np.asarray(src, dtype=np.uint64)
        wids = np.broadcast_to(np.asarray(_integers(widths), dtype=np.int64), vals.shape)
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
    """Sequential MSB-first reader over the first nbits bits of a byte buffer.

    The reader holds a window: the int of the 16 bytes starting at the
    byte that held the cursor at the last refill, and the bit position
    where those 128 bits end. peek() refills only when the bits it asks
    for pass that end; after a refill the cursor sits in the window's
    first byte, so any peek of up to 64 bits fits. A peek is then one
    compare, one shift and one mask. The window is this reader's own
    state, so the models that decode through it hold none. read(w) is the
    width and length checks, one peek(w) and the advance; read() and
    skip() raise TruncatedStream, without moving, when fewer bits remain.

    ncpc's per-symbol decoders read the window directly instead (see the
    module docstring): _pos is the cursor, _nbits the stream's length, _win
    the window's int and _end the bit position where it ends; _refill()
    reloads the window at the cursor's byte and returns the new _end, so
    the bits [pos, pos + w) of a w <= 64 bit read are
    (_win >> (_end - pos - w)) & ((1 << w) - 1) once pos + w <= _end.
    """

    __slots__ = ("_data", "_nbits", "_pos", "_win", "_end")

    def __init__(self, data: bytes, nbits: int | None = None) -> None:
        if nbits is None:
            nbits = 8 * len(data)
        if nbits < 0 or nbits > 8 * len(data):
            raise ValueError("nbits exceeds the buffer")
        # the stream's bytes with the bits past nbits cleared, then 16 bytes
        # of slack so a window at any cursor never slices short
        buf = bytearray(data[:(nbits + 7) >> 3])
        if nbits & 7:
            buf[-1] &= 0xFF00 >> (nbits & 7) & 0xFF
        self._data = bytes(buf) + bytes(16)
        self._nbits = nbits
        self._pos = 0
        self._win = int.from_bytes(self._data[:16], "big")
        self._end = 128

    @property
    def remaining(self) -> int:
        return self._nbits - self._pos

    def tell(self) -> int:
        return self._pos

    def peek(self, width: int) -> int:
        """Next `width` bits as an integer, zero-padded past the end."""
        if width < 0 or width > 64:
            raise ValueError(f"width out of range: {width}")
        pos = self._pos
        end = self._end
        if pos + width > end:
            end = self._refill()
        return (self._win >> (end - pos - width)) & ((1 << width) - 1)

    def _refill(self) -> int:
        """Reload the window from the cursor's byte; returns its new end."""
        start = self._pos >> 3
        self._win = int.from_bytes(self._data[start:start + 16], "big")
        self._end = end = (start << 3) + 128
        return end

    def read(self, width: int) -> int:
        if width < 0 or width > 64:
            raise ValueError(f"width out of range: {width}")
        if width > self._nbits - self._pos:
            raise TruncatedStream("truncated stream")
        v = self.peek(width)
        self._pos += width
        return v

    def skip(self, width: int) -> None:
        if width < 0:
            raise ValueError(f"width out of range: {width}")
        if width > self._nbits - self._pos:
            raise TruncatedStream("truncated stream")
        self._pos += width
