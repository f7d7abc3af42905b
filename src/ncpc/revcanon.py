"""Optimal prefix codes whose reversed codewords are in canonical order.

Codeword lengths are non-decreasing when the codewords are sorted by
their bit-reversed form, and within one length the reversed order equals
character order. Under that convention the whole code is determined by
the depth sequence D (one codeword length per character) plus per-depth
leaf counts, and codewords are never materialized: encoding walks the
implicit code tree from leaf to root and decoding from root to leaf,
using only rank arithmetic. Both directions share a table over the first
t = ceil(ceil(lg sigma) / 2) bits and a list of the characters of depth
at most a second cut t2 >= t in label order (depth, then character), at
most 2^t of them. Decoding starts from the root table, which answers
codewords of at most t bits outright and gives the label index of the
node at depth t for the rest, and carries that index down to the depth
where the codeword ends: a leaf of depth at most t2 is named by one list
read, a deeper one by one select on D. Encoding answers a codeword of at
most t2 bits from a dict over the listed characters, and ends a longer
one in the label table, the root table's inverse, which gives its first
t bits from the rank its ascent reaches at depth t, so the ascent climbs
only l - t levels. Encoding runs D's level steps itself, and the level
where a character's depth leaves D's matrix hands it that depth's ascent
steps, so an encode makes no wavelet query. A DescentTable is the same
root table at a width the caller chooses.

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
from .codewords import depth_tables, revcanon_codewords
from .errors import InvalidCodeState, TruncatedStream
from .succinct import _RANK8, WaveletTree


class RevCanonCode:
    """Code model: depth sequence D, per-depth leaf counts, a root table and
    the characters of depth at most t2 in label order.

    t = ceil(ceil(lg sigma) / 2) <= L, and t2 is the largest depth <= L
    with first[t2+1] <= 2^t, first[d] being the number of leaves above
    depth d: the list `chars` of the first first[t2+1] characters in label
    order holds at most 2^t of them, O(sqrt(sigma) log sigma) bits like the
    root table. The leaves of depth <= t number at most 2^t, so t2 >= t.
    chars[first[d] + r - 1] is the character of rank r among depth d, the
    one D.select(d, r) finds.

    D is stored in a wavelet matrix Huffman-shaped by the queries that walk
    it: encode walks it, and decode selects on it, only for characters of
    depth > t2. Depth d, held by n_d characters, weighs n_d * 2^L for
    d <= t2, its count alone, and n_d * (2^L + sigma * 2^(L-d)) deeper, an
    equal mix of its count and of the code's probability it holds: both
    halves sum to sigma * 2^L by the Kraft equality, so the mix has no free
    constant, and the weights are a function of D alone. shape="huffman"
    names that shape, the only one.

    root has one entry per t-bit window: (c, d) when the window starts with
    character c's codeword of length d <= t, else first[t] + r for the rank
    r of the window's internal node at depth t. label inverts it: each
    window starts with exactly one node, a leaf of depth d <= t or an
    internal node at depth t, and the node of rank r at depth d has its
    d-bit label at label[first[d] + r - 1]; so a miss entry e has
    label[e - 1] == w. Both cost O(sqrt(sigma) log sigma) bits, which
    size_breakdown() counts.

    encode answers a character of depth d <= t2 from _shallow, the held
    index over chars: its codeword is its label for d <= t, and its ascent
    from depth d to its node's label at depth t deeper. Any other character
    runs D's level step itself over D's own per-level tuples, whose leaf
    entries it maps from D's codeword of a depth l > t2 to (l, -start,
    ascent), start being the block where depth l begins in its level; the
    ascent is (half[d], leaves[d-1], 1 << (l - d)) for d = l down to t + 1,
    the last step adding first[t]. Each is a function of the counted leaf
    counts and of D, so the entries add no accounted bits. Calling
    D.access_rank instead costs a method frame, a range check and a result
    tuple, about 11% of an encode on the benchmark's zipf corpora.

    decode descends on the label index R = first[d] + r of the node of
    rank r at depth d, over one entry per depth d = 1..L: (half[d],
    first[d+1], 1 << (L - d), d, first[d]). A step down tests bit d of the
    L-bit read with the mask and adds half[d] on a 1-bit, since first absorbs
    the leaves[d-1] that child_rank subtracts, and the node is a leaf iff
    R <= first[d+1]; its rank among depth d's leaves is R - first[d], and
    it is listed iff R <= first[t2+1]. The entries, and the L-bit mask of
    decode's window read, are functions of the counted leaf counts, so
    they add no accounted bits.
    """

    def __init__(self, lengths, shape: str = "huffman") -> None:
        if shape != "huffman":
            raise ValueError(f"unknown shape: {shape}")
        # one int64 array for depth_tables and D; what numpy refuses or
        # holds as other than 1-d takes int() of each element, so the
        # accepted inputs and their errors are list(map(int, ...))'s
        try:
            lens = np.asarray(lengths, dtype=np.int64)
        except (TypeError, ValueError):
            lens = None
        if lens is None or lens.ndim != 1:
            lens = np.array(list(map(int, lengths)), dtype=np.int64)
        sigma = lens.size
        if sigma == 0:
            raise ValueError("empty alphabet")
        self.leaves, self.nodes = depth_tables(lens)
        self.sigma = sigma
        self.depths = tuple(lens.tolist())
        self.L = L = len(self.leaves) - 1
        self._half = [m // 2 for m in self.nodes]
        self._first = first = list(accumulate(self.leaves, initial=0))  # leaves above each depth

        # t <= ceil(lg sigma) <= L, so every window fits in decode's one L-bit read
        self.t = t = ((sigma - 1).bit_length() + 1) // 2
        # the leaves of depth <= t number at most 2^t, so t2 >= t
        self.t2 = t2 = max(d for d in range(L + 1) if first[d + 1] <= 1 << t)

        # Python ints: with long codewords the weights outgrow int64
        weights = [n << L if d <= t2 else n * ((1 << L) + (sigma << (L - d)))
                   for d, n in enumerate(self.leaves[1:], 1)]
        self.D = WaveletTree(lens, L, weights) if sigma > 1 else None

        # label order: the character of rank r among depth d at first[d] + r - 1
        self.chars = [self.D.select(d, r) for d in range(1, t2 + 1)
                      for r in range(1, self.leaves[d] + 1)] if self.D is not None else [1]
        self._listed = first[t2 + 1]
        self.root, self.label = self._root_table(t)
        # decode's descent: per depth d = 1..L, (half[d], first[d+1], the
        # mask of bit d in an L-bit peek, d, first[d])
        self._descent = tuple((self._half[d], first[d + 1], 1 << (L - d), d, first[d])
                              for d in range(1, L + 1))
        self._below_root = self._descent[t:]   # decode's, sliced once, not per call
        self._read_mask = (1 << L) - 1          # decode's L-bit window read
        # encode's codewords of at most t2 bits: a leaf of depth d <= t has
        # its label, a deeper one climbs to its node's label at depth t
        self._shallow = {}
        for d in range(t + 1):
            for k in range(first[d], first[d + 1]):
                self._shallow[self.chars[k]] = (self.label[k], d)
        for d in range(t + 1, t2 + 1):
            _, _, ascent = self._encode_entry(d, 0)
            for q in range(self.leaves[d]):
                self._shallow[self.chars[first[d] + q]] = self._ascend(d, q, ascent)
        # encode's walk: D's levels, each leaf entry (depth l > t2, block start) made l's entry
        walk = self.D._access_walk if self.D is not None else ()
        self._walk = tuple((data, ranks, zeros, ended,
                            {v: self._encode_entry(l, start)
                             for v, (l, start) in leaf.items() if l > t2})
                           for data, ranks, zeros, ended, leaf in walk)
        # a matrix of height 0 (and sigma = 1) holds one depth, L, from rank 1;
        # none when L <= t2 (sigma = 1 and [1, 1]), whose codewords are all listed
        self._one_depth = self._encode_entry(L, 0) if L > t2 else None

    def _encode_entry(self, l: int, start: int) -> tuple[int, int, tuple]:
        """(l, label offset, ascent) of depth l > t, whose block in its level
        of D starts at `start`: the character at 0-based position q there
        has 0-based rank q - start among depth l, and the ascent's last step
        lands on the label index of its node at depth t."""
        t = self.t
        ascent = [(self._half[d], self.leaves[d - 1], 1 << (l - d)) for d in range(l, t, -1)]
        h, up, bit = ascent[-1]
        ascent[-1] = (h, up + self._first[t], bit)
        return (l, -start, tuple(ascent))

    def _ascend(self, l: int, r: int, ascent: tuple) -> tuple[int, int]:
        """Codeword (value, l) of the leaf of 0-based rank r at depth l > t:
        one bit per ascent step from the low end, parent_rank inlined, and
        the first t bits the label of the node it reaches at depth t."""
        v = 0
        for h, up, bit in ascent:
            if r >= h:
                v |= bit
                r -= h
            r += up
        return (v | self.label[r] << (l - self.t), l)

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
                root.append(first[t] + r)
            else:
                c = self.chars[first[d] + r - 1] if d <= self.t2 else self.D.select(d, r)
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
        """Codeword (value, length) of character i: a codeword of at most t2
        bits from _shallow, else its first t bits from the label table and
        the rest by leaf-to-root ascent.

        A longer codeword takes one walk down D's levels, each step
        access_rank's rank step inline, that ends at the level where i's
        depth l > t2 leaves the matrix and reads that depth's entry: its
        offset into the label table and its ascent (see _ascend).
        """
        if not 1 <= i <= self.sigma:
            raise IndexError(f"character out of range: {i}")
        if i in self._shallow:
            return self._shallow[i]
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
        return self._ascend(l, r, ascent)

    def decode(self, reader: BitReader) -> tuple[int, int]:
        """(character, length) for the next codeword, by root-to-leaf descent.

        Reads L <= 64 bits once, straight from the reader's window, with no
        reader call but a rare refill (see ncpc.bits). The root table
        answers from the first t of them: a codeword of at most t bits is
        returned with no descent; otherwise its entry is the label index R
        of the window's internal node at depth t, and the descent resumes
        below it, one entry per depth, adding half[d] to R on a 1-bit until
        R falls within depth d's leaves. A leaf of depth at most t2 is
        named by chars[R - 1], a deeper one by one D.select(d, R - first[d]).
        decode moves the reader past the codeword, or raises TruncatedStream
        without moving it if the stream ends inside the codeword. The
        select is decode's only wavelet query; its level steps are folded
        when D is built (see WaveletTree).
        decode_fast takes the same walk through a DescentTable's root table.
        """
        return self._descend(reader, self.t, self.root, self._below_root)

    def decode_fast(self, table: "DescentTable", reader: BitReader) -> tuple[int, int]:
        """decode() through the table's root table in place of the code's own:
        the descent resumes at depth table.t + 1 over the same entries."""
        return self._descend(reader, table.t, table.root, self._descent[table.t:])

    def _descend(self, reader: BitReader, t: int, root: list, descent: tuple) -> tuple[int, int]:
        """decode() from a root table over the first t <= L bits, then the
        descent entries of depths t+1..L. The L bits come straight from the
        reader's window (see ncpc.bits); each exit checks the codeword's
        length against the stream's end, raising TruncatedStream without
        moving the reader, and then advances past it."""
        L = self.L
        pos = reader._pos
        end = reader._end
        if pos + L > end:
            end = reader._refill()
        chunk = (reader._win >> (end - pos - L)) & self._read_mask
        e = root[chunk >> (L - t)]
        if type(e) is not tuple:
            for half, stop, mask, d, above in descent:
                if chunk & mask:
                    e += half
                if e <= stop:
                    break
            else:
                raise InvalidCodeState("invalid code state")
            if d > reader._nbits - pos:     # a leaf at depth d uses d bits
                raise TruncatedStream("truncated stream")
            reader._pos = pos + d
            return (self.chars[e - 1] if e <= self._listed else self.D.select(d, e - above), d)
        if e[1] > reader._nbits - pos:
            raise TruncatedStream("truncated stream")
        reader._pos = pos + e[1]
        return e

    def codeword_set(self) -> list[tuple[int, int, int]]:
        """All (character, value, length) triples via encode()."""
        return [(i, *self.encode(i)) for i in range(1, self.sigma + 1)]

    def codeword_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, lengths) for all characters; vectorized ascent."""
        return revcanon_codewords(self.depths)

    def size_breakdown(self) -> dict[str, int]:
        """Accounted bits per component.

        D: the wavelet matrix over the depths. leaves: one count per depth
        0..L at ceil(lg(sigma+1)) bits; nodes and the halves follow from
        them (nodes[d+1] = 2 * (nodes[d] - leaves[d])). root: 2^t entries,
        each a depth of at most t or a miss mark (ceil(lg(t+2)) bits) and a
        character or a miss's label index first[t] + r, at most
        first[t] + nodes[t] <= 2^t <= sigma (ceil(lg(sigma+1)) bits).
        label: one t-bit label per node that starts a root window, at most
        2^t entries; its offsets first[d] are sums of leaf counts. chars:
        the first[t2+1] <= 2^t characters of depth at most t2 in label
        order at ceil(lg(sigma+1)) bits; each entry's depth follows from
        its index and the leaf counts, and its codeword from its label
        index: label's entry for depth <= t, an ascent to depth t deeper.
        encode's _shallow is the held index over them, bits bought for
        encode speed. encode's walk (a function of the leaf counts and of D,
        sharing D's level lists) and decode's descent entries (functions
        of the leaf counts) count nothing more.
        """
        count = self.sigma.bit_length()
        return {"D": self.D.size_bits() if self.D is not None else 0,
                "leaves": (self.L + 1) * count,
                "root": len(self.root) * ((self.t + 1).bit_length() + count),
                "label": len(self.label) * self.t,
                "chars": len(self.chars) * count}

    def model_size_bits(self) -> int:
        return sum(self.size_breakdown().values())


class DescentTable(NamedTuple):
    """A code's root table (see RevCanonCode) at a width t the caller chose;
    decode_fast descends from it over the code's descent entries for the
    depths t+1..L, as decode does from the code's own, and names a leaf
    from the code's chars or D as decode does. A miss entry is the label
    index first[t] + r at this t."""

    t: int
    root: list


def build_descent_table(code: RevCanonCode, t: int) -> DescentTable:
    """The code's root table at width min(t, L), 1 <= t <= 16: a window wider
    than L holds only the same leaves, and the capped one fits in one peek."""
    if not 1 <= t <= 16:
        raise ValueError(f"chunk width out of range: {t}")
    t = min(t, code.L)
    return DescentTable(t, code._root_table(t)[0])
