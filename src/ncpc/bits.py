"""MSB-first bit streams.

BitWriter packs values most-significant-bit first into a growing byte
buffer; BitReader consumes them in the same order. peek() zero-pads past
the end of the stream, read()/skip() never move the cursor past the last
real bit.
"""

from __future__ import annotations

from .errors import Underflow


class BitWriter:
    """Append-only MSB-first bit buffer."""

    __slots__ = ("_bytes", "_acc", "_nacc")

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._acc = 0
        self._nacc = 0

    def write(self, value: int, width: int) -> None:
        if width < 0 or width > 64:
            raise ValueError(f"width out of range: {width}")
        if value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        acc = (self._acc << width) | value
        nacc = self._nacc + width
        while nacc >= 8:
            nacc -= 8
            self._bytes.append((acc >> nacc) & 0xFF)
        self._acc = acc & ((1 << nacc) - 1)
        self._nacc = nacc

    @property
    def bit_length(self) -> int:
        return len(self._bytes) * 8 + self._nacc

    def getvalue(self) -> bytes:
        """Buffer contents, zero-padded to a whole number of bytes."""
        out = bytearray(self._bytes)
        if self._nacc:
            out.append((self._acc << (8 - self._nacc)) & 0xFF)
        return bytes(out)


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
