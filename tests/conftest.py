"""Shared test oracles.

Everything here is deliberately independent of the library's fast paths:
linear scans, exhaustive tree enumeration, a greedy explicit-tree codec,
the alphabetic B/P/A tables read off the codeword strings, the
per-character alphabetic codeword assignment, cutoff runs and balancing,
a two-queue Huffman cost, an interval DP for optimal ordered trees, the
earlier list-rescanning Garsia-Wachs and heap Huffman builders and
row-slice height-restricted DP, the per-character fill of the bulk
codec's decode tables, the per-bit reverse-canonical decode that the
root table replaced, bit packing by Python-int concatenation, and a bit
reader over the whole stream held as one int. Tests compare library
output against these.
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


# -- alphabetic builders one character at a time ----------------------------
# The library's earlier per-character loops, kept as oracles for the array
# passes over the leaves' left edges that replaced them. The runs and the
# balancing take a depth sequence and read their codewords from
# canonical_codewords_reference, not from the library.

def canonical_codewords_reference(depths) -> list[tuple[int, int]]:
    """Left-to-right codeword assignment (value, length) for a full ordered tree.

    Raises KraftViolation if no full ordered binary tree realizes the
    depths in this exact order.
    """
    from ncpc.errors import KraftViolation
    depths = list(depths)
    if not depths:
        raise KraftViolation("empty profile")
    L = max(depths)
    total = 1 << L
    pos = 0
    out = []
    for d in depths:
        if d < 0 or d > L:
            raise KraftViolation(f"bad depth {d}")
        step = 1 << (L - d)
        if pos % step:
            raise KraftViolation("depths not realizable in alphabet order")
        if pos + step > total:
            raise KraftViolation("depth profile overfull")
        out.append((pos >> (L - d), d))
        pos += step
    if pos != total:
        raise KraftViolation("depth profile does not fill the tree")
    return out


def balanced_run_depths(r: int) -> list[int]:
    """Relative depths of a completely balanced subtree with r leaves.

    With h = ceil(lg r): the first 2r - 2^h leaves sit at depth h, the
    remaining 2^h - r at depth h - 1 (deeper leaves leftmost).
    """
    if r < 1:
        raise ValueError("run must contain at least one leaf")
    h = (r - 1).bit_length()
    deep = 2 * r - (1 << h)
    return [h] * deep + [h - 1] * ((1 << h) - r)


def cutoff_runs_reference(depths, cutoff: int):
    """(i, j) for each leaf i of depth <= cutoff (j = i + 1), and for each
    maximal run i..j-1 of deeper leaves sharing a cutoff-bit codeword prefix."""
    cws = canonical_codewords_reference(depths)
    sigma = len(depths)
    i = 0
    while i < sigma:
        v, d = cws[i]
        j = i + 1
        if d > cutoff:
            prefix = v >> (d - cutoff)
            while j < sigma and depths[j] > cutoff and (cws[j][0] >> (depths[j] - cutoff)) == prefix:
                j += 1
        yield i, j
        i = j


def balance_at_cutoff_reference(depths, cutoff: int) -> tuple[int, ...]:
    """Completely balance every maximal subtree rooted at depth `cutoff`.

    Leaves of depth <= cutoff are untouched; each maximal run of deeper
    leaves sharing a cutoff-bit codeword prefix is replaced by the
    balanced run profile.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    out: list[int] = []
    for i, j in cutoff_runs_reference(depths, cutoff):
        if depths[i] <= cutoff:
            out.append(depths[i])
        else:
            out.extend(cutoff + rd for rd in balanced_run_depths(j - i))
    return tuple(out)


# -- alphabetic B/P/A tables by brute force ----------------------------------

def alphabetic_tables_brute(depths, cutoff):
    """(B as a 0/1 list, P, A) of the compiled alphabetic code, from the
    codewords as bit strings: A[p] is the (character, length) of the leaf
    whose codeword is a prefix of the cutoff-bit string p, else the run
    entry of the characters whose codewords start with p: (the first of
    them, how many have the run's longest length, that length minus cutoff
    as h, their count minus 2^(h-1)). B marks every character A names, and
    P lists the first cutoff bits of their codewords, zero-padded, in
    alphabet order."""
    cws = canonical_codewords_reference(depths)
    words = [bits_of(v, d) for v, d in cws]
    shallow = [(i, w) for i, w in enumerate(words, 1) if len(w) <= cutoff]
    below: dict[str, list[int]] = {}
    for i, w in enumerate(words, 1):
        if len(w) > cutoff:
            below.setdefault(w[:cutoff], []).append(i)
    A = []
    for p in range(1 << cutoff):
        ps = bits_of(p, cutoff)
        leaf = [(i, len(w)) for i, w in shallow if ps.startswith(w)]
        assert len(leaf) + (ps in below) == 1, ps
        if leaf:
            A.append(leaf[0])
            continue
        run = below[ps]
        lens = [len(words[i - 1]) for i in run]
        h = max(lens) - cutoff
        A.append((run[0], lens.count(cutoff + h), h, len(run) - (1 << (h - 1))))
    marked = {e[0] for e in A}
    B = [int(i in marked) for i in range(1, len(words) + 1)]
    P = [int((words[i - 1] + "0" * cutoff)[:cutoff] or "0", 2) for i in sorted(marked)]
    return B, P, A


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


# -- the height-restricted DP, one row slice per split --------------------
# The library's earlier layered DP, kept verbatim as the oracle for the
# one-slice-pair-per-width layers that replaced it: the library must return
# identical depths, not merely depths of equal cost.

def build_height_restricted_reference(freqs, height_cap: int):
    """Optimal alphabetic code among trees of height <= height_cap.

    Layered interval DP: cost[h][i][j] is the best cost of an ordered tree
    over characters i..j of height <= h. Inner minimization is vectorized
    per diagonal.
    """
    from ncpc.alphabetic import DepthProfile
    n = len(freqs)
    if n == 0:
        raise ValueError("empty alphabet")
    if n == 1:
        if height_cap < 0:
            raise ValueError("height cap must be >= 0")
        return DepthProfile((0,))
    w = [int(f) for f in freqs]
    if min(w) <= 0:
        raise ValueError("weights must be positive")
    need = (n - 1).bit_length()
    if height_cap < need:
        raise ValueError(f"height cap {height_cap} infeasible for sigma={n}")

    pref = np.concatenate(([0], np.cumsum(np.asarray(w, dtype=np.float64))))
    INF = np.inf
    # diag[m] = cost over intervals of width m (length m+1); layer h implicit
    diag = [np.zeros(n)] + [np.full(n - m, INF) for m in range(1, n)]
    splits: list[list[np.ndarray | None]] = []

    H = min(height_cap, n - 1)  # deeper than n-1 never helps
    for _ in range(H):
        new_diag = [np.zeros(n)]
        layer_splits: list[np.ndarray | None] = [None]
        for ln in range(1, n):
            s = n - ln
            stackrows = [diag[m][:s] + diag[ln - m - 1][m + 1:m + 1 + s]
                         for m in range(ln)]
            mat = np.stack(stackrows)
            bm = np.argmin(mat, axis=0)
            best = mat[bm, np.arange(s)]
            new_diag.append(best + pref[ln + 1:] - pref[:s])
            layer_splits.append(bm.astype(np.int16))
        diag = new_diag
        splits.append(layer_splits)

    if not np.isfinite(diag[n - 1][0]):
        raise ValueError("height-restricted DP found no tree")  # unreachable

    depths = [0] * n
    stack = [(0, n - 1, len(splits), 0)]
    while stack:
        i, jj, h, d = stack.pop()
        if i == jj:
            depths[i] = d
            continue
        m = int(splits[h - 1][jj - i][i])
        stack.append((i, i + m, h - 1, d + 1))
        stack.append((i + m + 1, jj, h - 1, d + 1))
    return DepthProfile(tuple(depths))


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


class ReferenceBitReader:
    """BitReader's contract over the stream's first nbits bits held as one
    Python int: peek zero-pads past nbits, read and skip never pass it, a
    width outside 0..64 (below 0 for skip) is a ValueError whatever the
    cursor, and a read or skip past the end raises Underflow."""

    def __init__(self, data: bytes, nbits: int) -> None:
        self.nbits = nbits
        self.value = int.from_bytes(data, "big") >> (8 * len(data) - nbits)
        self.pos = 0

    def tell(self) -> int:
        return self.pos

    def peek(self, width: int) -> int:
        if not 0 <= width <= 64:
            raise ValueError(width)
        padded = self.value << 64  # 64 zero bits past the end
        return (padded >> (self.nbits + 64 - self.pos - width)) & ((1 << width) - 1)

    def read(self, width: int) -> int:
        from ncpc.errors import Underflow
        if not 0 <= width <= 64:
            raise ValueError(width)
        if self.pos + width > self.nbits:
            raise Underflow("underflow")
        v = self.peek(width)
        self.pos += width
        return v

    def skip(self, width: int) -> None:
        from ncpc.errors import Underflow
        if width < 0:
            raise ValueError(width)
        if self.pos + width > self.nbits:
            raise Underflow("underflow")
        self.pos += width


# -- misc ---------------------------------------------------------------------

def bits_of(value: int, length: int) -> str:
    return format(value, f"0{length}b") if length else ""


def to_bitlist(data: bytes, nbits: int) -> list[int]:
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))[:nbits].tolist()


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0DE)
