"""Shared test oracles.

Everything here is deliberately independent of the library's fast paths:
linear scans, exhaustive tree enumeration, a greedy explicit-tree codec,
the alphabetic B/S/A tables read off the codeword strings,
a two-queue Huffman cost, an interval DP for optimal ordered trees, the
earlier list-rescanning Garsia-Wachs and heap Huffman builders, the
per-character fill of the bulk codec's decode tables, the per-bit
reverse-canonical decode that the root table replaced, and bit packing
by Python-int concatenation. Tests compare library output against these.
"""

from __future__ import annotations

import collections
import functools
import heapq

import numpy as np
import pytest


# -- exhaustive ordered-tree enumeration ------------------------------------

@functools.lru_cache(maxsize=None)
def all_ordered_profiles(m: int) -> tuple[tuple[int, ...], ...]:
    """Leaf-depth tuples of every ordered binary tree with m leaves."""
    if m == 1:
        return ((0,),)
    out = []
    for k in range(1, m):
        for left in all_ordered_profiles(k):
            for right in all_ordered_profiles(m - k):
                out.append(tuple(d + 1 for d in left) + tuple(d + 1 for d in right))
    return tuple(out)


def brute_optimal_cost(freqs, height_cap=None) -> int:
    """Minimum cost over all ordered trees (optionally height-capped)."""
    profiles = all_ordered_profiles(len(freqs))
    if height_cap is not None:
        profiles = [p for p in profiles if max(p) <= height_cap]
    return min(sum(f * d for f, d in zip(freqs, p)) for p in profiles)


@functools.lru_cache(maxsize=None)
def kraft_complete_multisets(m: int) -> tuple[tuple[int, ...], ...]:
    """All codeword-length multisets of full binary trees with m leaves."""
    def rec(k):
        if k == 1:
            return {(0,)}
        res = set()
        for a in range(1, k):
            for left in rec(a):
                for right in rec(k - a):
                    res.add(tuple(sorted([d + 1 for d in left] + [d + 1 for d in right])))
        return res
    return tuple(sorted(rec(m)))


# -- greedy explicit-tree codec for alphabetic profiles ----------------------

class TreeCodec:
    """Reference codec: an explicit tree built greedily from leaf depths."""

    def __init__(self, depths):
        depths = list(depths)
        if depths == [0]:
            self.codes = {1: (0, 0)}
            self.root = {"sym": 1}
            return
        root: dict = {}
        stack = [(root, 0)]
        for i, d in enumerate(depths, 1):
            placed = False
            while stack:
                node, nd = stack.pop()
                if nd == d:
                    node["sym"] = i
                    placed = True
                    break
                if nd < d:
                    left, right = {}, {}
                    node[0], node[1] = left, right
                    stack.append((right, nd + 1))
                    stack.append((left, nd + 1))
            if not placed:
                raise ValueError("depths not realizable in order")
        self.root = root
        self.codes = {}
        walk = [(root, 0, 0)]
        while walk:
            node, v, l = walk.pop()
            if "sym" in node:
                self.codes[node["sym"]] = (v, l)
            else:
                if 0 not in node:
                    raise ValueError("tree not full")
                walk.append((node[1], (v << 1) | 1, l + 1))
                walk.append((node[0], v << 1, l + 1))

    def encode(self, i):
        return self.codes[i]

    def decode_bits(self, bits, pos):
        """(symbol, new position) consuming from a 0/1 list."""
        node = self.root
        while "sym" not in node:
            node = node[bits[pos]]
            pos += 1
        return node["sym"], pos


# -- alphabetic B/S/A tables by brute force ----------------------------------

def alphabetic_tables_brute(depths, cutoff):
    """(B as a 0/1 list, S, A) of the compiled alphabetic code, from the
    codewords as bit strings: A[p] is the (character, length) of the leaf
    whose codeword is a prefix of the cutoff-bit string p, else the first
    character whose codeword starts with p; B marks every character A
    names, and S lists their codewords in alphabet order."""
    from ncpc.alphabetic import canonical_codewords
    cws = canonical_codewords(depths)
    words = [bits_of(v, d) for v, d in cws]
    shallow = [(i, w) for i, w in enumerate(words, 1) if len(w) <= cutoff]
    first_below: dict[str, int] = {}
    for i, w in enumerate(words, 1):
        if len(w) > cutoff:
            first_below.setdefault(w[:cutoff], i)
    A = []
    for p in range(1 << cutoff):
        ps = bits_of(p, cutoff)
        leaf = [(i, len(w)) for i, w in shallow if ps.startswith(w)]
        assert len(leaf) + (ps in first_below) == 1, ps
        A.append(leaf[0] if leaf else first_below[ps])
    marked = {e[0] if isinstance(e, tuple) else e for e in A}
    B = [int(i in marked) for i in range(1, len(words) + 1)]
    S = [cws[i - 1] for i in sorted(marked)]
    return B, S, A


# -- reverse-lex explicit construction for the rank-arithmetic code ----------

def revlex_tree_codewords(lengths) -> dict[int, list[str]]:
    """Per depth, labels of the code tree where the leaves at each depth are
    the reverse-lexicographically smallest nodes. Returns depth -> labels,
    in reverse-lex order."""
    L = max(lengths)
    leaf_cnt = [0] * (L + 1)
    for l in lengths:
        leaf_cnt[l] += 1
    level = [""]
    out: dict[int, list[str]] = {}
    for d in range(L + 1):
        level.sort(key=lambda s: s[::-1])
        out[d] = level[:leaf_cnt[d]]
        level = [lab + b for lab in level[leaf_cnt[d]:] for b in ("0", "1")]
    return out


def revlex_char_codewords(lengths) -> list[str]:
    """Codeword (as a bit string) per character under the reverse-lex rule."""
    by_depth = revlex_tree_codewords(lengths)
    used = collections.Counter()
    out = []
    for l in lengths:
        out.append(by_depth[l][used[l]])
        used[l] += 1
    return out


# -- independent Huffman cost -------------------------------------------------

def huffman_cost_twoqueue(freqs) -> int:
    """Sum of internal node weights = optimal total code length."""
    if len(freqs) == 1:
        return 0
    q1 = collections.deque(sorted(int(f) for f in freqs))
    q2: collections.deque = collections.deque()

    def pop_min():
        if q1 and (not q2 or q1[0] <= q2[0]):
            return q1.popleft()
        return q2.popleft()

    cost = 0
    while len(q1) + len(q2) > 1:
        a = pop_min()
        b = pop_min()
        cost += a + b
        q2.append(a + b)
    return cost


# -- reference builders: the library's earlier optimal-tree routines --------
# Kept verbatim as oracles; the library's builders must return identical
# depth lists, not merely lists of equal cost.

def garsia_wachs_reference(freqs) -> list[int]:
    """Leaf depths of a minimum-cost ordered binary tree.

    Two-phase method: repeatedly combine the leftmost pair (x[j-1], x[j])
    with x[j-1] <= x[j+1] and reinsert the merged weight right after the
    nearest left element >= it; the leaf depths of the combination tree
    are realizable in the original order and optimal.
    """
    n = len(freqs)
    if n == 0:
        raise ValueError("empty alphabet")
    if n == 1:
        return [0]
    ws = [int(f) for f in freqs]
    if min(ws) <= 0:
        raise ValueError("weights must be positive")
    lch = [-1] * n
    rch = [-1] * n
    INF = float("inf")
    ids = [-1] + list(range(n)) + [-1]
    wts = [INF] + ws[:] + [INF]

    j = 2
    while len(ids) > 3:
        last = len(ids) - 2
        if j > last:
            j = last
        if j < 2:
            j = 2
        while wts[j - 1] > wts[j + 1]:
            j += 1
        a, b = ids[j - 1], ids[j]
        w = wts[j - 1] + wts[j]
        nid = len(ws)
        ws.append(w)
        lch.append(a)
        rch.append(b)
        del ids[j - 1:j + 1]
        del wts[j - 1:j + 1]
        q = j - 2
        while wts[q] < w:
            q -= 1
        ids.insert(q + 1, nid)
        wts.insert(q + 1, w)
        j = max(2, q)

    depths = [0] * n
    stack = [(ids[1], 0)]
    while stack:
        node, d = stack.pop()
        if node < n:
            depths[node] = d
        else:
            stack.append((lch[node], d + 1))
            stack.append((rch[node], d + 1))
    return depths


def huffman_lengths_heap(freqs) -> list[int]:
    """Codeword lengths of an optimal prefix code for positive weights.

    Ties in the merge heap break on (weight, smallest character index in
    the subtree); only the length multiset matters downstream.
    """
    n = len(freqs)
    if n == 0:
        raise ValueError("empty alphabet")
    w = [int(f) for f in freqs]
    if min(w) <= 0:
        raise ValueError("weights must be positive")
    if n == 1:
        return [0]
    heap = [(w[i], i, i) for i in range(n)]
    heapq.heapify(heap)
    lch: dict[int, int] = {}
    rch: dict[int, int] = {}
    nid = n
    while len(heap) > 1:
        wa, ta, a = heapq.heappop(heap)
        wb, tb, b = heapq.heappop(heap)
        lch[nid], rch[nid] = a, b
        heapq.heappush(heap, (wa + wb, min(ta, tb), nid))
        nid += 1
    lengths = [0] * n
    stack = [(heap[0][2], 0)]
    while stack:
        node, d = stack.pop()
        if node < n:
            lengths[node] = d
        else:
            stack.append((lch[node], d + 1))
            stack.append((rch[node], d + 1))
    return lengths


def optimal_depths_dp(freqs) -> list[int]:
    """Interval DP with the monotone split-point window; quadratic time.

    Reference implementation for moderate alphabets; used to cross-check
    the Garsia-Wachs builder.
    """
    n = len(freqs)
    if n == 0:
        raise ValueError("empty alphabet")
    if n == 1:
        return [0]
    w = [int(f) for f in freqs]
    pref = [0]
    for f in w:
        pref.append(pref[-1] + f)
    INF = float("inf")
    cost = [[0] * n for _ in range(n)]
    root = [[0] * n for _ in range(n)]
    for i in range(n):
        root[i][i] = i
    for ln in range(1, n):
        for i in range(n - ln):
            jj = i + ln
            lo = root[i][jj - 1]
            hi = min(root[i + 1][jj] if i + 1 <= jj else jj - 1, jj - 1)
            best = INF
            bk = lo
            for k in range(lo, hi + 1):
                c = cost[i][k] + cost[k + 1][jj]
                if c < best:
                    best = c
                    bk = k
            cost[i][jj] = best + pref[jj + 1] - pref[i]
            root[i][jj] = bk
    depths = [0] * n
    stack = [(0, n - 1, 0)]
    while stack:
        i, jj, d = stack.pop()
        if i == jj:
            depths[i] = d
        else:
            k = root[i][jj]
            stack.append((i, k, d + 1))
            stack.append((k + 1, jj, d + 1))
    return depths


def tie_heavy_weight_cases(rng, count: int, sigma_max: int = 60, sigma_min: int = 1):
    """Weight vectors for builder-equality tests, cycling through five kinds:
    {1..5}, {1..1000}, sorted ascending, sorted descending, {1, 2, 4, 8, 2^20}.
    Each has a random length in sigma_min..sigma_max."""
    powers = np.array([1, 2, 4, 8, 1 << 20])
    for case in range(count):
        sigma = int(rng.integers(sigma_min, sigma_max + 1))
        kind = case % 5
        if kind == 0:
            w = rng.integers(1, 6, sigma)
        elif kind == 1:
            w = rng.integers(1, 1001, sigma)
        elif kind == 2:
            w = np.sort(rng.integers(1, 50, sigma))
        elif kind == 3:
            w = np.sort(rng.integers(1, 50, sigma))[::-1]
        else:
            w = rng.choice(powers, sigma)
        yield w.tolist()


# -- bulk codec tables --------------------------------------------------------

def primary_table_loop(values, lengths):
    """(tlen, tsym, long) of SequenceCodec's decode tables, one character at
    a time: the t-bit primary table (t = min(16, max length)) maps each
    window to the length and 1-based id of the codeword it starts with;
    longer codewords go to long[length][value]. A code of one empty
    codeword has no tables."""
    sigma = len(lengths)
    t = min(16, max(lengths)) if sigma else 0
    if t == 0:
        return [], [], {}
    tlen = [0] * (1 << t)
    tsym = [0] * (1 << t)
    long: dict[int, dict[int, int]] = {}
    for c in range(sigma):
        v = int(values[c])
        l = int(lengths[c])
        if l <= t:
            lo = v << (t - l)
            hi = (v + 1) << (t - l)
            tlen[lo:hi] = [l] * (hi - lo)
            tsym[lo:hi] = [c + 1] * (hi - lo)
        else:
            long.setdefault(l, {})[v] = c + 1
    return tlen, tsym, long


# -- reverse-canonical decode without the root table ----------------------------

def revcanon_decode_per_bit(code, reader):
    """RevCanonCode.decode as it was before the root table: descends from
    the root one bit at a time over 64-bit peeks, then selects on D."""
    from ncpc.errors import InvalidCodeState, TruncatedStream
    if code.sigma == 1:
        return (1, 0)
    leaves = code.leaves
    half = code._half
    L = code.L
    d = 0
    r = 1
    while True:
        width = min(L - d, 64)
        chunk = reader.peek(width)
        for shift in range(width - 1, -1, -1):
            d += 1
            r -= leaves[d - 1]
            if (chunk >> shift) & 1:
                r += half[d]
            if r <= leaves[d]:
                used = width - shift
                if used > reader.remaining:
                    raise TruncatedStream("truncated stream")
                reader.skip(used)
                return (code.D.select(d, r), d)
        if width > reader.remaining:
            raise TruncatedStream("truncated stream")
        if d == L:
            raise InvalidCodeState("invalid code state")
        reader.skip(width)


def revcanon_encode_per_bit(code) -> list[tuple[int, int]]:
    """RevCanonCode.encode as it was before the label table, for every
    character: the rank among characters of the same length from the
    depths, then one parent_rank step per level up to the root."""
    seen = collections.Counter()
    out = []
    for l in code.depths:
        seen[l] += 1
        r, v = seen[l], 0
        for d in range(l, 0, -1):
            r, bit = code.parent_rank(d, r)
            v |= bit << (l - d)
        out.append((v, l))
    return out


# -- bit packing one value at a time -------------------------------------------

def pack_bits_reference(values, widths) -> tuple[bytes, int]:
    """pack_bits by Python-int concatenation, acc = (acc << w) | v: (bytes
    zero-padded to a byte boundary, bit count). Values are concatenated in
    blocks of 256 first, then the blocks, so a long input stays fast."""
    blocks = []
    for start in range(0, len(values), 256):
        acc = nb = 0
        for v, w in zip(values[start:start + 256], widths[start:start + 256]):
            acc = (acc << w) | v
            nb += w
        blocks.append((acc, nb))
    acc = nbits = 0
    for a, w in blocks:
        acc = (acc << w) | a
        nbits += w
    pad = -nbits % 8
    return (acc << pad).to_bytes((nbits + pad) // 8, "big"), nbits


# -- misc ---------------------------------------------------------------------

def bits_of(value: int, length: int) -> str:
    return format(value, f"0{length}b") if length else ""


def to_bitlist(data: bytes, nbits: int) -> list[int]:
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))[:nbits].tolist()


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0DE)
