"""Optimal prefix codes whose reversed codewords are in canonical order.

Codeword lengths are non-decreasing when the codewords are sorted by
their bit-reversed form, and within one length the reversed order equals
character order. Under that convention the whole code is determined by
the depth sequence D (one codeword length per character) plus per-depth
leaf counts, and codewords are never materialized: encoding walks the
implicit code tree from leaf to root and decoding from root to leaf,
using only rank arithmetic. Both directions share a table over the first
t = ceil(ceil(lg sigma) / 2) bits. Decoding starts from the root table,
which answers codewords of at most t bits outright and gives the rank at
depth t for the rest; encoding ends in its inverse, the label table,
which gives the first t bits of a codeword from the rank its ascent
reaches at depth t, so the ascent climbs only l - t levels. Encoding
runs D's level steps itself, and the level where a character's depth
leaves D's matrix hands it that depth's label offset and ascent steps,
so an encode makes no wavelet query. A DescentTable is the same root
table at a width the caller chooses.

Rank conventions at depth d (1-based ranks over reversed path labels):
leaves occupy ranks 1..leaves[d], internal nodes the rest; a node is a
left child iff its rank is <= nodes[d]/2; the parent/child rank maps are
affine shifts by leaves[d-1] and nodes[d]/2.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .bits import BitReader
from .codewords import huffman_lengths  # noqa: F401 (part of this module's API)
from .codewords import check_kraft, depth_tables, revcanon_codewords
from .errors import InvalidCodeState
from .succinct import _RANK8, WaveletTree


class RevCanonCode:
    """Code model: depth sequence D, per-depth leaf counts and a root table.

    D is stored in a wavelet matrix Huffman-shaped by an equal mix of two
    distributions over the depths: how many characters have each depth,
    and how much of the code's probability they hold. Depth d, held by
    n_d characters, weighs n_d * (2^L + sigma * 2^(L-d)): both halves sum
    to sigma * 2^L by the Kraft equality, so the mix has no free constant,
    and the weights are a function of D alone. shape="huffman" names that
    shape, the only one.

    root has one entry per t-bit window, t = ceil(ceil(lg sigma) / 2) <= L:
    (c, d) when the window starts with character c's codeword of length
    d <= t, else the window's internal rank at depth t. label inverts it:
    each window starts with exactly one node, a leaf of depth d <= t or an
    internal node at depth t, and the node of rank r at depth d has its
    d-bit label at label[first[d] + r - 1], first[d] being the number of
    leaves above depth d. Both cost O(sqrt(sigma) log sigma) bits, which
    size_breakdown() counts.

    encode runs D's level step itself over D's own per-level tuples, whose
    leaf entries it maps from D's codeword of a depth l to (l, label
    offset, ascent). The offset is first[l] - start for l <= t and -start
    above it, start being the block where depth l begins in its level;
    the ascent is (half[d], leaves[d-1], 1 << (l - d)) for d = l down to
    t + 1, the last step adding first[t]. Each is a function of the
    counted leaf counts and of D, so the entries add no accounted bits.
    Calling D.access_rank instead costs a method frame, a range check and
    a result tuple, about 11% of an encode on the benchmark's zipf corpora.
    """

    def __init__(self, lengths, shape: str = "huffman") -> None:
        if shape != "huffman":
            raise ValueError(f"unknown shape: {shape}")
        lengths = [int(x) for x in lengths]
        sigma = len(lengths)
        if sigma == 0:
            raise ValueError("empty alphabet")
        check_kraft(lengths)
        L = max(lengths)

        self.sigma = sigma
        self.L = L
        self.depths = tuple(lengths)
        self.leaves, self.nodes = depth_tables(lengths)
        self._half = [m // 2 for m in self.nodes]
        self._first = list(accumulate(self.leaves, initial=0))  # leaves above each depth

        # Python ints: with long codewords the weights outgrow int64
        weights = [n * ((1 << L) + (sigma << (L - d)))
                   for d, n in enumerate(self.leaves[1:], 1)]
        self.D = WaveletTree(lengths, L, weights) if sigma > 1 else None
        self._arrays: tuple[np.ndarray, np.ndarray] | None = None

        # t <= ceil(lg sigma) <= L, so every window fits in one peek
        self.t = ((sigma - 1).bit_length() + 1) // 2
        self.root, self.label = self._root_table(self.t)
        # a descent step per depth d = 1..L: (d, leaves[d-1], half[d], leaves[d], L - d)
        self._steps = tuple((d, self.leaves[d - 1], self._half[d], self.leaves[d], L - d)
                            for d in range(1, L + 1))
        self._below_root = self._steps[self.t:]
        # encode's walk: D's levels, each leaf entry (depth l, block start) made l's entry
        walk = self.D._access_walk if self.D is not None else ()
        self._walk = tuple((data, ranks, zeros, ended,
                            {v: self._encode_entry(l, start) for v, (l, start) in leaf.items()})
                           for data, ranks, zeros, ended, leaf in walk)
        # a matrix of height 0 (and sigma = 1) holds one depth, L, from rank 1
        self._one_depth = self._encode_entry(L, 0)

    def _encode_entry(self, l: int, start: int) -> tuple[int, int, tuple]:
        """(l, label offset, ascent) of depth l, whose block in its level of
        D starts at `start`: the character at 0-based position q there has
        0-based rank q - start among depth l, so for l <= t its label is at
        q + offset, and for l > t the ascent's last step lands on the label
        index of its node at depth t."""
        t = self.t
        if l <= t:
            return (l, self._first[l] - start, ())
        ascent = [(self._half[d], self.leaves[d - 1], 1 << (l - d)) for d in range(l, t, -1)]
        h, up, bit = ascent[-1]
        ascent[-1] = (h, up + self._first[t], bit)
        return (l, -start, tuple(ascent))

    def _root_table(self, t: int) -> tuple[list, list[int]]:
        """The root table over t <= L bits and its inverse label table.

        The root table is filled in window order: a leaf of depth d <= t
        fills its span of 2^(t-d) windows, an internal node at depth t one.
        The node (d, r) that starts window w gets the label w >> (t - d).
        """
        leaves = self.leaves
        half = self._half
        first = self._first
        root: list = []
        label = [0] * (first[t] + self.nodes[t])
        while len(root) < 1 << t:
            w = len(root)
            d, r = 0, 1
            while r > leaves[d] and d < t:
                d += 1
                r -= leaves[d - 1]
                if (w >> (t - d)) & 1:
                    r += half[d]
            label[first[d] + r - 1] = w >> (t - d)
            if r > leaves[d]:
                root.append(r)
            else:
                c = self.D.select(d, r) if d else 1
                root += [(c, d)] * (1 << (t - d))
        return root, label

    # -- rank arithmetic ---------------------------------------------------

    def child_rank(self, d_child: int, r_parent: int, bit: int) -> int:
        """Rank of the child reached by `bit` from the parent at d_child-1."""
        if not 1 <= d_child <= self.L:
            raise ValueError(f"depth out of range: {d_child}")
        if not self.leaves[d_child - 1] < r_parent <= self.nodes[d_child - 1]:
            raise ValueError(f"parent rank out of range or not internal: {r_parent}")
        r = r_parent - self.leaves[d_child - 1]
        if bit:
            r += self._half[d_child]
        return r

    def parent_rank(self, d_child: int, r_child: int) -> tuple[int, int]:
        """(parent rank, bit) for the node of rank r_child at depth d_child."""
        if not 1 <= d_child <= self.L:
            raise ValueError(f"depth out of range: {d_child}")
        if not 1 <= r_child <= self.nodes[d_child]:
            raise ValueError(f"rank out of range: {r_child}")
        bit = 0 if r_child <= self._half[d_child] else 1
        r = r_child + self.leaves[d_child - 1]
        if bit:
            r -= self._half[d_child]
        return (r, bit)

    # -- codec ---------------------------------------------------------------

    def encode(self, i: int) -> tuple[int, int]:
        """Codeword (value, length) of character i: its first t bits from
        the label table, the rest by leaf-to-root ascent.

        One walk down D's levels, each step access_rank's rank step inline,
        ends at the level where i's depth l leaves the matrix and reads that
        depth's entry: its offset into the label table and its ascent. A
        codeword of at most t bits is the label of its leaf; a longer one
        takes one bit per ascent step from the low end, parent_rank inlined,
        and its first t bits from the label of the node reached at depth t.
        """
        if not 1 <= i <= self.sigma:
            raise IndexError(f"character out of range: {i}")
        p = i - 1           # 0-based position among the entries at this level
        v = 0               # D's codeword bits read so far
        for data, ranks, zeros, ended, leaf in self._walk:
            x = _RANK8[data[p >> 3] << 3 | (p & 7)]
            ones = ranks[p >> 3] + (x >> 1)
            if x & 1:
                v = (v << 1) | 1
                q = zeros + ones
            else:
                v <<= 1
                q = p - ones
            if q < ended:
                l, r, ascent = leaf[v]
                r += q
                break
            p = q - ended
        else:
            l, r, ascent = self._one_depth
            r += p
        if not ascent:
            return (self.label[r], l)
        v = 0
        for h, up, bit in ascent:
            if r >= h:
                v |= bit
                r -= h
            r += up
        return (v | self.label[r] << (l - self.t), l)

    def decode(self, reader: BitReader) -> tuple[int, int]:
        """(character, length) for the next codeword, by root-to-leaf descent.

        Peeks L <= 64 bits once. The root table answers from the first t of
        them: a codeword of at most t bits is returned with no descent and
        no select on D; otherwise the descent resumes at depth t, child_rank
        per bit below the window from one precomputed tuple per depth, and
        one D.select names the leaf. Then skips the codeword's bits.
        decode_fast takes the same walk through a DescentTable's root table.
        """
        return self._descend(reader, self.t, self.root, self._below_root)

    def decode_fast(self, table: "DescentTable", reader: BitReader) -> tuple[int, int]:
        """decode() through the table's root table in place of the code's own."""
        return self._descend(reader, table.t, table.root, self._steps[table.t:])

    def _descend(self, reader: BitReader, t: int, root: list, steps: tuple) -> tuple[int, int]:
        """decode() from a root table over the first t <= L bits, then depths t+1..L."""
        L = self.L
        chunk = reader.peek(L)
        e = root[chunk >> (L - t)]
        if type(e) is not tuple:
            r = e
            for d, up, half, leaves, shift in steps:
                r -= up
                if chunk >> shift & 1:
                    r += half
                if r <= leaves:
                    break
            else:
                raise InvalidCodeState("invalid code state")
            e = (self.D.select(d, r), d)    # a leaf at depth d used d bits
        reader.skip(e[1])
        return e

    def codeword_set(self) -> list[tuple[int, int, int]]:
        """All (character, value, length) triples via encode()."""
        return [(i, *self.encode(i)) for i in range(1, self.sigma + 1)]

    def codeword_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, lengths) for all characters; vectorized ascent, cached."""
        if self._arrays is None:
            self._arrays = revcanon_codewords(self.depths)
        return self._arrays

    def size_breakdown(self) -> dict[str, int]:
        """Accounted bits per component.

        D: the wavelet matrix over the depths. leaves: one count per depth
        0..L at ceil(lg(sigma+1)) bits; nodes and the halves follow from
        them (nodes[d+1] = 2 * (nodes[d] - leaves[d])). root: 2^t entries,
        each a depth of at most t or a miss mark (ceil(lg(t+2)) bits) and a
        character or an internal rank at depth t, at most 2^t <= sigma
        (ceil(lg(sigma+1)) bits). label: one t-bit label per node that
        starts a root window, at most 2^t entries; its offsets first[d]
        are sums of leaf counts.
        """
        count = self.sigma.bit_length()
        return {"D": self.D.size_bits() if self.D is not None else 0,
                "leaves": (self.L + 1) * count,
                "root": len(self.root) * ((self.t + 1).bit_length() + count),
                "label": len(self.label) * self.t}

    def model_size_bits(self) -> int:
        return sum(self.size_breakdown().values())


class DescentTable(NamedTuple):
    """A code's root table (see RevCanonCode) at a width t the caller chose;
    decode_fast descends through it."""

    t: int
    root: list


def build_descent_table(code: RevCanonCode, t: int) -> DescentTable:
    """The code's root table at width min(t, L), 1 <= t <= 16: a window wider
    than L holds only the same leaves, and the capped one fits in one peek."""
    if not 1 <= t <= 16:
        raise ValueError(f"chunk width out of range: {t}")
    t = min(t, code.L)
    return DescentTable(t, code._root_table(t)[0])
