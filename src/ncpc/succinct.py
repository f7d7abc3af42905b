"""Rank/select bitvectors and a wavelet matrix over small alphabets.

The bitvector is plain (uncompressed) with a two-level rank directory,
accounted as one absolute count per 512-bit superblock and one relative
count per 64-bit block, i.e. 64 + 8*16 bits of directory per 512 bits of
data (37.5% overhead). It is stored pre-added: the absolute number of
ones before every 64-bit word, and the zeros derived from it, each an O(1)
function of two accounted entries. So rank reads one entry, and each
select is one bisect over one list plus a select in the word found.
select1 bisects between sampled positions of every s-th 1-bit; the
sampling rate trades speed for space and never changes results.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .codewords import huffman_lengths, revcanon_codewords
from .errors import NoSuchOccurrence

_WORD = (1 << 64) - 1
_SEL8 = [[i for i in range(8) if b >> i & 1] for b in range(256)]


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

    __slots__ = ("n_bits", "ones", "select_sample", "_words", "_ranks",
                 "_zranks", "_samples")

    def __init__(self, bits, select_sample: int = 64) -> None:
        if not isinstance(select_sample, int) or select_sample <= 0:
            raise ValueError(f"select_sample must be a positive integer: {select_sample}")
        arr = _as_bit_array(bits)
        n = int(arr.size)
        self.n_bits = n
        self.select_sample = select_sample

        nwords = (n + 63) // 64
        padded = np.zeros(nwords * 64, dtype=np.uint8)
        padded[:n] = arr
        if nwords:
            words = np.packbits(padded, bitorder="little").view("<u8")
        else:
            words = np.zeros(0, dtype="<u8")
        pop = np.bitwise_count(words).astype(np.int64)
        cum = np.concatenate(([0], np.cumsum(pop)))  # ones before word j
        self.ones = int(cum[-1])
        # ones and zeros before word j, j = 0..nwords. The zeros count the
        # padding after the last bit only at j = nwords; it follows every
        # real 0-bit, so the r-th zero is still a real one.
        self._words = words.tolist()
        self._ranks = cum.tolist()
        self._zranks = ((np.arange(nwords + 1) << 6) - cum).tolist()

        ones_pos = np.flatnonzero(arr)               # 0-based positions of 1s
        self._samples = ones_pos[0::select_sample].tolist()

    # -- queries ---------------------------------------------------------

    def access(self, i: int) -> int:
        if not 1 <= i <= self.n_bits:
            raise IndexError(f"position out of range: {i}")
        return (self._words[(i - 1) >> 6] >> ((i - 1) & 63)) & 1

    def rank1(self, i: int) -> int:
        """Number of 1s in positions 1..i (i may be 0..n_bits)."""
        if not 0 <= i <= self.n_bits:
            raise IndexError(f"rank position out of range: {i}")
        j = i >> 6
        c = self._ranks[j]
        if i & 63:
            c += (self._words[j] & ((1 << (i & 63)) - 1)).bit_count()
        return c

    def rank0(self, i: int) -> int:
        return i - self.rank1(i)

    def select1(self, r: int) -> int:
        """1-based position of the r-th 1-bit."""
        if not 1 <= r <= self.ones:
            raise ValueError(f"select1 rank out of range: {r}")
        # the sampled 1-bits before and after the r-th bound its word
        samples = self._samples
        k = (r - 1) // self.select_sample
        hi = (samples[k + 1] >> 6) + 1 if k + 1 < len(samples) else len(self._words)
        j = bisect_left(self._ranks, r, samples[k] >> 6, hi) - 1
        return (j << 6) + _select_in_word(self._words[j], r - self._ranks[j]) + 1

    def select0(self, r: int) -> int:
        """1-based position of the r-th 0-bit."""
        if not 1 <= r <= self.n_bits - self.ones:
            raise ValueError(f"select0 rank out of range: {r}")
        j = bisect_left(self._zranks, r) - 1
        word = ~self._words[j] & _WORD
        return (j << 6) + _select_in_word(word, r - self._zranks[j]) + 1

    # -- accounting ------------------------------------------------------

    def directory_bits(self) -> int:
        """Accounted rank directory size: 64 bits per superblock, 16 per block."""
        nwords = len(self._words)
        return 64 * (nwords // 8 + 1) + 16 * nwords

    def select_sample_bits(self) -> int:
        return 64 * len(self._samples)

    def size_bits(self) -> int:
        return self.n_bits + self.directory_bits() + self.select_sample_bits()


def _select_in_word(word: int, k: int) -> int:
    """0-based position of the k-th (1-based) set bit of a 64-bit word.

    Halves the word down to the byte that holds the bit, then looks the
    bit up in that byte.
    """
    pos = 0
    c = (word & 0xFFFFFFFF).bit_count()
    if c < k:
        k -= c
        word >>= 32
        pos = 32
    c = (word & 0xFFFF).bit_count()
    if c < k:
        k -= c
        word >>= 16
        pos += 16
    c = (word & 0xFF).bit_count()
    if c < k:
        k -= c
        word >>= 8
        pos += 8
    return pos + _SEL8[word & 0xFF][k - 1]


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

    shape="balanced" gives every symbol the fixed ceil(lg alpha) bits of
    symbol-1, so entries leave only after the last level. shape="huffman"
    gives the symbols that occur the reverse-canonical code over their
    frequencies, whose finished codewords sort first at every depth: the
    matrix is Huffman-shaped and frequent symbols leave early.
    """

    def __init__(self, seq, alpha: int, shape: str = "balanced",
                 select_sample: int = 64) -> None:
        if alpha < 1:
            raise ValueError(f"alpha must be >= 1: {alpha}")
        if shape not in ("balanced", "huffman"):
            raise ValueError(f"unknown shape: {shape}")
        arr = np.asarray(seq, dtype=np.int64)
        if arr.size and (arr.min() < 1 or arr.max() > alpha):
            raise ValueError("symbol out of range 1..alpha")
        self.sigma_seq = int(arr.size)
        self.alpha = alpha
        self.shape = shape

        counts = np.bincount(arr, minlength=alpha + 1)
        if shape == "balanced":
            syms = np.arange(1, alpha + 1)
            vals = (syms - 1).astype(np.uint64)
            lens = np.full(alpha, (alpha - 1).bit_length(), dtype=np.int64)
        else:
            syms = np.flatnonzero(counts)
            vals, lens = (revcanon_codewords(huffman_lengths(counts[syms])) if syms.size
                          else (np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)))
        self.height = int(lens.max()) if lens.size else 0

        # Each symbol's occurrences form one block of the order at the depth
        # where its codeword ends; blocks of one depth sort by reversed codeword.
        syms, vals, lens = syms.tolist(), vals.tolist(), lens.tolist()
        keys = sorted((ln, int(format(v, f"0{ln}b")[::-1], 2) if ln else 0, s, v)
                      for s, v, ln in zip(syms, vals, lens))
        self._codes: dict[int, tuple[int, int, int, int]] = {}   # (value, length, start, end)
        finished: list[dict[int, tuple[int, int]]] = [{} for _ in range(self.height + 1)]
        start, prev_ln = 0, -1
        for ln, _, s, v in keys:
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
            bv = Bitvector(bits.astype(np.uint8), select_sample)
            order = np.concatenate((order[bits == 0], order[bits == 1]))
            ended = int(np.count_nonzero(el[order] == k + 1))
            self._levels.append((bv, bv.n_bits - bv.ones, dropped, ended, finished[k + 1]))
            order = order[ended:]
            dropped = ended

    def access_rank(self, i: int) -> tuple[int, int]:
        """(c, rank(c, i)) for the symbol c at position i, in one walk."""
        if not 1 <= i <= self.sigma_seq:
            raise IndexError(f"position out of range: {i}")
        p = i - 1           # 0-based position among the entries at this level
        v = 0               # codeword bits read so far
        for bv, zeros, _, ended, leaf in self._levels:
            word = bv._words[p >> 6]
            ones = bv._ranks[p >> 6] + (word & ((1 << (p & 63)) - 1)).bit_count()  # bv.rank1(p)
            if (word >> (p & 63)) & 1:
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
        for k in range(ln):
            bv, zeros, dropped, _, _ = self._levels[k]
            p = q - dropped
            ones = bv.rank1(p)
            q = zeros + ones if (val >> (ln - 1 - k)) & 1 else p - ones
        return q - start

    def select(self, c: int, r: int) -> int:
        """1-based position of the r-th occurrence of symbol c."""
        if not 1 <= c <= self.alpha:
            raise ValueError(f"symbol out of range: {c}")
        if r < 1:
            raise ValueError(f"select rank out of range: {r}")
        code = self._codes.get(c)
        if code is None or r > code[3] - code[2]:
            raise NoSuchOccurrence(f"no occurrence {r} of symbol {c}")
        val, ln, start, _ = code
        q = start + r - 1   # 0-based position among the entries at level ln
        # up from the level where the codeword ends: bv.select1/select0, inlined
        for bv, zeros, dropped, _, _ in reversed(self._levels[:ln]):
            if val & 1:     # the (q - zeros + 1)-th 1-bit
                k = q - zeros + 1
                ranks = bv._ranks
                j = bisect_left(ranks, k) - 1
                q = (j << 6) + _select_in_word(bv._words[j], k - ranks[j]) + dropped
            else:           # the (q + 1)-th 0-bit
                ranks = bv._zranks
                j = bisect_left(ranks, q + 1) - 1
                q = (j << 6) + _select_in_word(~bv._words[j] & _WORD, q + 1 - ranks[j]) + dropped
            val >>= 1
        return q + 1

    def size_bits(self) -> int:
        """Accounted size of the matrix.

        Counted: each level's bitvector and zero count, each coded symbol's
        block end and, for the huffman shape, every symbol's codeword
        length at ceil(lg(alpha+1)) bits. A count takes ceil(lg(m+1)) bits
        for the size m of the level it falls in (a block end falls in the
        level where its codeword ends). Everything else is an O(1) function
        of one counted entry: a block starts where the previous block of
        its depth ends, and the entries ending at a depth are the end of
        its last block. The codewords follow from the lengths, as in any
        code determined by its lengths.
        """
        levels = self._levels
        bits = sum(bv.size_bits() + bv.n_bits.bit_length() for bv, *_ in levels)
        bits += sum((levels[ln - 1][0].n_bits if ln else self.sigma_seq).bit_length()
                    for _, ln, _, _ in self._codes.values())
        if self.shape == "huffman":
            bits += self.alpha * self.alpha.bit_length()
        return bits
