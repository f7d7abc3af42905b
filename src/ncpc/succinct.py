"""Rank/select bitvectors and a wavelet matrix over small alphabets.

The bitvector is plain (uncompressed) with a two-level rank directory,
accounted as one absolute count per 512-bit superblock and one relative
count per 64-bit block, i.e. 64 + 8*16 bits of directory per 512 bits of
data (37.5% overhead). The data is stored as bytes and the directory
pre-added per byte: the number of ones before every byte, and the number
of zeros that follows from it. Each such count is an accounted
superblock count plus a block count plus the popcount of at most 56 data
bits (the bytes before it in its 64-bit block), an O(1) function of
accounted entries, so the accounted size is the two-level directory's.
Rank reads one count and pops at most 7 bits; each select is one bisect
over one whole count list plus one lookup in a 256-entry table of
in-byte positions, so no select samples are stored or counted, and the
wavelet matrix's select chains one such step per level of a codeword.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .codewords import huffman_lengths, revcanon_codewords
from .errors import NoSuchOccurrence

# _SEL8[b][k] / _SEL0[b][k]: 0-based position of the k-th (1-based) 1-bit
# / 0-bit of byte b, bits numbered from the least significant
_SEL8 = [[None] + [i for i in range(8) if b >> i & 1] for b in range(256)]
_SEL0 = _SEL8[::-1]
# _RANK8[b << 3 | o]: the 1-bits of byte b below bit o, times two, plus
# bit o of b; one lookup is a rank step and a bit read of access_rank
_RANK8 = [(b & ((1 << o) - 1)).bit_count() << 1 | (b >> o & 1)
          for b in range(256) for o in range(8)]
# _INCL8[b << 3 | o]: the 1-bits of byte b at bits 0..o, minus one; added
# to the ones before the byte it is the 0-based rank of a 1 at bit o
_INCL8 = [(b & ((2 << o) - 1)).bit_count() - 1 for b in range(256) for o in range(8)]


def _as_bit_array(bits) -> np.ndarray:
    if isinstance(bits, str):
        if bits and set(bits) - {"0", "1"}:
            raise ValueError("bit string may only contain 0 and 1")
        return (np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0")
                if bits else np.zeros(0, dtype=np.uint8))
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.size and arr.max() > 1:
        raise ValueError("bit array may only contain 0 and 1")
    return arr


class Bitvector:
    """Static bit array with rank/select. Positions are 1-based."""

    __slots__ = ("n_bits", "ones", "_bytes", "_ranks", "_zranks")

    def __init__(self, bits) -> None:
        arr = _as_bit_array(bits)
        self.n_bits = int(arr.size)

        data = np.packbits(arr, bitorder="little")  # the last byte zero-padded
        cum = np.concatenate(([0], np.cumsum(np.bitwise_count(data), dtype=np.int64)))
        self.ones = int(cum[-1])
        # ones and zeros before byte j, j = 0..nbytes. The zeros count the
        # padding after the last bit only at j = nbytes; it follows every
        # real 0-bit, so the r-th zero is still a real one.
        self._bytes = data.tobytes()
        self._ranks = cum.tolist()
        self._zranks = ((np.arange(data.size + 1) << 3) - cum).tolist()

    # -- queries ---------------------------------------------------------

    def access(self, i: int) -> int:
        if not 1 <= i <= self.n_bits:
            raise IndexError(f"position out of range: {i}")
        return (self._bytes[(i - 1) >> 3] >> ((i - 1) & 7)) & 1

    def rank1(self, i: int) -> int:
        """Number of 1s in positions 1..i (i may be 0..n_bits)."""
        if not 0 <= i <= self.n_bits:
            raise IndexError(f"rank position out of range: {i}")
        j = i >> 3
        c = self._ranks[j]
        if i & 7:
            c += (self._bytes[j] & ((1 << (i & 7)) - 1)).bit_count()
        return c

    def select1(self, r: int) -> int:
        """1-based position of the r-th 1-bit."""
        if not 1 <= r <= self.ones:
            raise ValueError(f"select1 rank out of range: {r}")
        ranks = self._ranks
        j = bisect_left(ranks, r) - 1
        return (j << 3) + _SEL8[self._bytes[j]][r - ranks[j]] + 1

    def select0(self, r: int) -> int:
        """1-based position of the r-th 0-bit."""
        if not 1 <= r <= self.n_bits - self.ones:
            raise ValueError(f"select0 rank out of range: {r}")
        zranks = self._zranks
        j = bisect_left(zranks, r) - 1
        return (j << 3) + _SEL0[self._bytes[j]][r - zranks[j]] + 1

    # -- accounting ------------------------------------------------------

    def directory_bits(self) -> int:
        """Accounted rank directory size: 64 bits per superblock, 16 per block."""
        nwords = (self.n_bits + 63) >> 6
        return 64 * (nwords // 8 + 1) + 16 * nwords

    def size_bits(self) -> int:
        return self.n_bits + self.directory_bits()


class WaveletTree:
    """access/rank/select over a sequence of integers in 1..alpha.

    Laid out as a wavelet matrix: every symbol has a codeword, and level k
    is one bitvector holding bit k of the codeword of every entry still
    present, ordered by the entries' reversed k-bit codeword prefixes
    (stably), which is the previous level's zeros followed by its ones.
    An entry whose codeword ends at depth k+1 leaves after level k. Its
    codeword is shorter than the rest and the codes below sort finished
    codewords before longer ones, so the finished entries are the front
    block of the next order and are cut off before the next level.

    The symbols that occur get the reverse-canonical code over their
    weights, whose finished codewords sort first at every depth: the
    matrix is Huffman-shaped and heavy symbols leave early. weights[c-1]
    is symbol c's weight, a positive integer of any size wherever c
    occurs; without weights, each symbol weighs its count in seq. select
    walks a symbol's steps, precomputed per level from its codeword's bit
    there, from the bottom up: each is Bitvector.select1 or select0 inlined,
    with its offsets folded at build time.
    """

    def __init__(self, seq, alpha: int, weights=None) -> None:
        if alpha < 1:
            raise ValueError(f"alpha must be >= 1: {alpha}")
        arr = np.asarray(seq, dtype=np.int64)
        if arr.size and (arr.min() < 1 or arr.max() > alpha):
            raise ValueError("symbol out of range 1..alpha")
        if weights is not None and len(weights) != alpha:
            raise ValueError(f"need one weight per symbol 1..{alpha}: {len(weights)}")
        self.sigma_seq = int(arr.size)
        self.alpha = alpha

        counts = np.bincount(arr, minlength=alpha + 1)
        syms = np.flatnonzero(counts)
        w = counts[syms].tolist() if weights is None else [weights[s - 1] for s in syms]
        vals, lens = (revcanon_codewords(huffman_lengths(w)) if syms.size
                      else (np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)))
        self.height = int(lens.max()) if lens.size else 0

        # Each symbol's occurrences form one block of the order at the depth
        # where its codeword ends; blocks of one depth sort by reversed
        # codeword, which in a reverse-canonical code is symbol order.
        syms, vals, lens = syms.tolist(), vals.tolist(), lens.tolist()
        keys = sorted(zip(lens, syms, vals))
        self._codes: dict[int, tuple[int, int, int, int]] = {}   # (value, length, start, end)
        finished: list[dict[int, tuple[int, int]]] = [{} for _ in range(self.height + 1)]
        start, prev_ln = 0, -1
        for ln, s, v in keys:
            if ln != prev_ln:
                start, prev_ln = 0, ln
            end = start + int(counts[s])
            self._codes[s] = (v, ln, start, end)
            finished[ln][v] = (s, start)
            start = end
        # a matrix of height 0 has at most one symbol, whose codeword is empty
        self._only = finished[0][0][0] if finished[0] else 0

        code_val = np.zeros(alpha + 1, dtype=np.int64)
        code_len = np.zeros(alpha + 1, dtype=np.int64)
        code_val[syms] = vals
        code_len[syms] = lens
        ev, el = code_val[arr], code_len[arr]
        # per level: (bitvector, its zeros, entries cut before it, entries
        # whose codeword ends after it, their codeword -> (symbol, block start))
        self._levels: list[tuple[Bitvector, int, int, int, dict]] = []
        order = np.arange(arr.size)
        dropped = 0
        for k in range(self.height):
            bits = (ev[order] >> (el[order] - k - 1)) & 1
            bv = Bitvector(bits.astype(np.uint8))
            order = np.concatenate((order[bits == 0], order[bits == 1]))
            ended = int(np.count_nonzero(el[order] == k + 1))
            self._levels.append((bv, bv.n_bits - bv.ones, dropped, ended, finished[k + 1]))
            order = order[ended:]
            dropped = ended
        # The same levels as flat tuples of the fields each walk reads, so a
        # query step loads no Bitvector attribute: top-down for access_rank,
        # and for select each level's select0 and select1 step: the entry at
        # 0-based position q in the order a level's bits sort its entries
        # into has rank k = q - off among its zeros or ones, and selecting
        # that rank gives its position p in the level, q' = dropped + p in
        # the order above.
        levels = self._levels
        self._access_walk = tuple((bv._bytes, bv._ranks, zeros, ended, leaf)
                                  for bv, zeros, _, ended, leaf in levels)
        sides = [((bv._bytes, bv._zranks, _SEL0, -1, dropped),
                  (bv._bytes, bv._ranks, _SEL8, zeros - 1, dropped))
                 for bv, zeros, dropped, _, _ in levels]
        # Per symbol (k0, count, chain): the step its codeword's bit picks at
        # each of its levels, bottom up, as (bytes, counts, table, add), add
        # being dropped minus the next step's off, or dropped + 1 at the top,
        # whose q' + 1 is the answer; k0 = block start - 1 - the bottom off,
        # so k0 + r is the bottom step's rank. A step is then one bisect, one
        # lookup and one add.
        self._selects: list = [(0, 0, ())] * (alpha + 1)
        for s, (v, ln, start, end) in self._codes.items():
            steps = [sides[k][v >> (ln - 1 - k) & 1] for k in range(ln - 1, -1, -1)]
            offs = [off for *_, off, _ in steps] + [-1]
            self._selects[s] = (start - 1 - offs[0], end - start, tuple(
                (data, counts, table, dropped - offs[i + 1])
                for i, (data, counts, table, _, dropped) in enumerate(steps)))

    def access_rank(self, i: int) -> tuple[int, int]:
        """(c, rank(c, i)) for the symbol c at position i, in one walk."""
        if not 1 <= i <= self.sigma_seq:
            raise IndexError(f"position out of range: {i}")
        p = i - 1           # 0-based position among the entries at this level
        v = 0               # codeword bits read so far
        for data, ranks, zeros, ended, leaf in self._access_walk:
            x = _RANK8[data[p >> 3] << 3 | (p & 7)]
            ones = ranks[p >> 3] + (x >> 1)     # bv.rank1(p)
            if x & 1:
                v = (v << 1) | 1
                q = zeros + ones
            else:
                v <<= 1
                q = p - ones
            if q < ended:
                c, start = leaf[v]
                return (c, q - start + 1)
            p = q - ended
        return (self._only, i)

    def access(self, i: int) -> int:
        return self.access_rank(i)[0]

    def rank(self, c: int, i: int) -> int:
        """Occurrences of symbol c among positions 1..i."""
        if not 1 <= c <= self.alpha:
            raise ValueError(f"symbol out of range: {c}")
        if not 0 <= i <= self.sigma_seq:
            raise IndexError(f"rank position out of range: {i}")
        code = self._codes.get(c)
        if code is None:
            return 0
        val, ln, start, _ = code
        q = i
        shift = ln
        for bv, zeros, dropped, _, _ in self._levels[:ln]:
            p = q - dropped
            ones = bv.rank1(p)
            shift -= 1
            q = zeros + ones if (val >> shift) & 1 else p - ones
        return q - start

    def select(self, c: int, r: int) -> int:
        """1-based position of the r-th occurrence of symbol c."""
        if not 1 <= c <= self.alpha:
            raise ValueError(f"symbol out of range: {c}")
        k, count, chain = self._selects[c]
        if not 1 <= r <= count:
            if r < 1:
                raise ValueError(f"select rank out of range: {r}")
            raise NoSuchOccurrence(f"no occurrence {r} of symbol {c}")
        k += r
        for data, counts, table, add in chain:
            j = bisect_left(counts, k) - 1
            k = (j << 3) + add + table[data[j]][k - counts[j]]
        return k

    def size_bits(self) -> int:
        """Accounted size of the matrix.

        Counted: each level's bitvector (data and rank directory) and zero
        count, each coded symbol's block end,
        and every symbol's codeword length at ceil(lg(alpha+1)) bits. A
        count takes ceil(lg(m+1)) bits for the size m of the level it falls
        in (a block end falls in the level where its codeword ends).
        Everything else is an O(1) function of one counted entry: a block
        starts where the previous block of its depth ends, and the entries
        ending at a depth are the end of its last block. The codewords
        follow from the lengths, as in any code determined by its lengths.
        """
        levels = self._levels
        bits = sum(bv.size_bits() + bv.n_bits.bit_length() for bv, *_ in levels)
        bits += sum((levels[ln - 1][0].n_bits if ln else self.sigma_seq).bit_length()
                    for _, ln, _, _ in self._codes.values())
        return bits + self.alpha * self.alpha.bit_length()
