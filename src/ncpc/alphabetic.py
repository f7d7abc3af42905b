"""Near-optimal alphabetic prefix codes in compact form.

An alphabetic code keeps codewords in alphabet order, so the code is
fully described by its leaf-depth profile. The builder finds a
minimum-cost ordered tree (Garsia-Wachs), restricts its height when
needed, then completely balances every subtree rooted at a cutoff depth.
The balanced shape admits an arithmetic encoder/decoder over three small
structures. Validating a profile computes each leaf's left edge at the
tree's height once, as one array (DepthProfile); the cutoff runs, the
balanced depths and these structures are array passes over it:

  B  marker bitvector over the alphabet (1 = shallow leaf or leftmost
     leaf of a subtree rooted at the cutoff depth),
  P  the cutoff-bit prefix of each marked character's item, P[k] for
     the mark k = rank1(B, i) - 1 of character i,
  A  dispatch table indexed by the first `cutoff` bits of the stream: the
     (character, length) of a shallow leaf, or, for a balanced subtree of
     r leaves and height h = ceil(lg r), the run entry (leftmost character,
     2r - 2^h, h, r - 2^(h-1)). The build derives these fields once; each
     is an O(1) function of the run's start and the next entry's, since a
     run sits at one prefix p and A[p + 1] starts with the character after
     it, so they add no accounted bits.

encode finds a character's mark from B's held counts with no Bitvector
call, and reads per-mark lists built with the code (see
CompactAlphabeticCode); decode reads A alone, from bits it takes straight
from the BitReader's window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bits import BitReader
from .codewords import MAX_CODEWORD_BITS, int_list, parent_depths
from .errors import KraftViolation, TruncatedStream
from .succinct import _INCL8, Bitvector


def _depth_array(depths) -> np.ndarray:
    """A copy of the depths as int64; an int64 array is copied in one call."""
    if isinstance(depths, np.ndarray) and depths.dtype == np.int64:
        return depths.copy()
    return np.array(int_list(depths), dtype=np.int64)


def _positions(d: np.ndarray) -> tuple[np.ndarray, int]:
    """(pos, L) for the leaf depths d, an int64 array, of a full ordered
    binary tree: L their maximum, and pos[i] = sum over k < i of
    2^(L - d[k]), the left edge of leaf i at depth L, whose codeword is
    then pos[i] >> (L - d[i]).

    pos is int64 while 2^L fits (L <= 62), else an object array of Python
    ints, by the same expressions. At the first leaf that fails, raises
    KraftViolation for a negative depth, then for an edge that is not a
    multiple of the leaf's width (no full ordered tree realizes the depths
    in this order), then for a leaf past the right end; last, if the leaves
    do not fill the tree. All-negative depths raise ValueError.
    """
    if not d.size:
        raise KraftViolation("empty profile")
    L = int(d.max())
    total = 1 << L
    neg = np.flatnonzero(d < 0)  # the leaves past the first negative one are never reached
    n = int(neg[0]) if neg.size else d.size
    dt = np.int64 if L <= 62 else object
    step = np.left_shift(np.ones(n, dtype=dt), (L - d[:n]).astype(dt))
    pos = np.cumsum(step) - step  # exact up to the first failing leaf, even if int64 wraps past it
    unaligned = np.flatnonzero(pos % step != 0)[:1].tolist()
    overfull = np.flatnonzero(pos > total - step)[:1].tolist()
    first = min(unaligned + overfull + [n])
    if first < d.size:
        if first == n:
            raise KraftViolation(f"bad depth {d[n]}")
        if unaligned == [first]:
            raise KraftViolation("depths not realizable in alphabet order")
        raise KraftViolation("depth profile overfull")
    if int(pos[-1]) + int(step[-1]) != total:
        raise KraftViolation("depth profile does not fill the tree")
    return pos, L


def canonical_codewords(depths) -> list[tuple[int, int]]:
    """Left-to-right codeword assignment (value, length) for a full ordered tree.

    Raises what _positions raises: KraftViolation if no full ordered binary
    tree realizes the depths in this exact order.
    """
    d = _depth_array(depths)
    pos, L = _positions(d)
    return list(zip((pos >> (L - d)).tolist(), d.tolist()))


def alphabetic_codewords(depths) -> tuple[np.ndarray, np.ndarray]:
    """canonical_codewords as (values, lengths) arrays, with its validation.

    Raises ValueError above MAX_CODEWORD_BITS before building any codeword,
    since the values are held in uint64.
    """
    d = _depth_array(depths)
    if d.size and d.max() > MAX_CODEWORD_BITS:
        raise ValueError(f"codewords longer than {MAX_CODEWORD_BITS} bits")
    pos, L = _positions(d)
    return (pos >> (L - d)).astype(np.uint64), d


@dataclass(frozen=True)
class DepthProfile:
    """Leaf depths of a full ordered binary tree, in alphabet order.

    Validation computes each leaf's left edge at depth L = height once (see
    _positions); the cutoff runs, the balanced depths and the compiled code
    are array passes over those edges. The depths may be given as any
    sequence of ints or as an int64 array; they are held as a tuple of
    Python ints.
    """

    depths: tuple[int, ...]
    _d: np.ndarray = field(init=False, repr=False, compare=False)
    _pos: np.ndarray = field(init=False, repr=False, compare=False)
    _L: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = _depth_array(self.depths)
        pos, L = _positions(d)
        for name, value in (("depths", tuple(d.tolist())), ("_d", d), ("_pos", pos), ("_L", L)):
            object.__setattr__(self, name, value)

    @property
    def sigma(self) -> int:
        return len(self.depths)

    @property
    def height(self) -> int:
        return self._L


def expected_length(profile: DepthProfile, freqs) -> Fraction:
    """Average codeword length under the given weights, as an exact rational."""
    freqs = [int(f) for f in freqs]
    if len(freqs) != profile.sigma:
        raise ValueError("frequency vector length mismatch")
    total = sum(freqs)
    if total <= 0:
        raise ValueError("frequencies must sum to a positive value")
    return Fraction(sum(f * d for f, d in zip(freqs, profile.depths)), total)


def cutoff_for(sigma: int) -> int:
    """Dispatch-prefix width: ceil(lg s - sqrt(lg s)), clamped to >= 1."""
    if sigma < 2:
        raise ValueError("cutoff undefined for sigma < 2")
    lg = math.log2(sigma)
    return max(1, math.ceil(lg - math.sqrt(lg)))


def height_cap_for(sigma: int) -> int:
    """Height budget: floor(lg s + sqrt(lg s) + 3)."""
    if sigma < 2:
        raise ValueError("height cap undefined for sigma < 2")
    lg = math.log2(sigma)
    return math.floor(lg + math.sqrt(lg) + 3)


# -- optimal ordered trees ------------------------------------------------

def garsia_wachs(freqs) -> list[int]:
    """Leaf depths of a minimum-cost ordered binary tree.

    Two-phase method: repeatedly combine the leftmost pair (x[k-1], x[k])
    with x[k-1] <= x[k+1] and reinsert the merged weight right after the
    nearest left element >= it; the leaf depths of the combination tree
    are realizable in the original order and optimal.

    The working list holds only the scanned prefix, between a left
    sentinel and the next input weight, so no pair inside it qualifies,
    and an appended weight that closes no qualifying pair needs no more
    work. After a merge only two pairs can newly qualify: the one just
    left of the reinsertion point, checked next, and the one at the gap
    the merge left. Each is named by the element that closes it; a gap is
    held as a distance from the list's end, which merges further left do
    not change, and the stack of gaps is checked innermost (leftmost)
    first. Each merge moves only the entries right of the reinsertion
    point; on monotone weights that is still quadratic in the worst case.
    """
    n = len(freqs)
    if n == 0:
        raise ValueError("empty alphabet")
    ws = int_list(freqs)
    if min(ws) <= 0:
        raise ValueError("weights must be positive")
    INF = float("inf")
    parent = [0] * (2 * n - 1)
    ids = [-1]
    wts = [INF]
    nid = n
    for k in range(n + 1):
        ids.append(k if k < n else -1)
        wts.append(ws[k] if k < n else INF)
        j = len(wts) - 1  # the pair (j - 2, j - 1) qualifies if wts[j - 2] <= wts[j]
        if j < 3 or wts[j - 2] > wts[j]:
            continue
        gaps = []
        while j:
            if j < 3 or wts[j - 2] > wts[j]:
                j = len(wts) - gaps.pop() if gaps else 0
                continue
            w = wts[j - 2] + wts[j - 1]
            parent[ids[j - 2]] = parent[ids[j - 1]] = nid
            del wts[j - 2:j]
            del ids[j - 2:j]
            q = j - 3
            while wts[q] < w:
                q -= 1
            wts.insert(q + 1, w)
            ids.insert(q + 1, nid)
            nid += 1
            gaps.append(len(wts) - j + 1)  # wts[j] is now wts[j - 1]
            j = q + 1
    return parent_depths(parent, n)


def build_optimal_alphabetic(freqs) -> DepthProfile:
    """Minimum expected-length alphabetic code for positive weights."""
    return DepthProfile(np.array(garsia_wachs(freqs), dtype=np.int64))


def build_height_restricted(freqs, height_cap: int) -> DepthProfile:
    """Optimal alphabetic code among trees of height <= height_cap.

    Layered interval DP (Garey, SIAM J. Comput. 1974): layer h holds, for
    every interval i..i+m, the best cost of an ordered tree over it of
    height <= h, as cost[m, i] and again at skew[m, i + m]. A tree over
    i..i+ln splits after i+m into intervals of widths m and ln - m - 1,
    whose costs are cost[m, i] and skew[ln - m - 1, i + ln]; so all
    candidates of one width are one slice pair of the layer below, and
    argmin takes the smallest split. alphabetic_profile calls it only up to
    DP_SIGMA_MAX characters: a layer costs O(sigma^3) additions.

    Costs are exact integers. An interval with no tree of height <= h
    costs no_tree = total * (H + 1), more than any tree's cost (at most
    total * H), and every cost is clamped to it, so no sum exceeds
    total * (2H + 3); they are int64 while that is below 2^63, else Python
    ints in an object array, by the same expressions.
    """
    n = len(freqs)
    if n == 0:
        raise ValueError("empty alphabet")
    w = [int(f) for f in freqs]
    if min(w) <= 0:
        raise ValueError("weights must be positive")
    need = (n - 1).bit_length()
    if height_cap < need:
        raise ValueError(f"height cap {height_cap} infeasible for sigma={n}")

    H = min(height_cap, n - 1)  # deeper than n-1 never helps
    total = sum(w)
    no_tree = total * (H + 1)
    dt = np.int64 if total * (2 * H + 3) < 1 << 63 else object
    pref = np.concatenate((np.zeros(1, dtype=dt), np.cumsum(np.array(w, dtype=dt))))
    cost = np.full((n, n), no_tree, dtype=dt)  # layer 0: only single characters have a tree
    cost[0] = 0
    skew = cost.copy()
    splits = np.zeros((H, n, n), dtype=np.int16)
    for h in range(H):
        below, below_skew = cost, skew
        cost, skew = below.copy(), below_skew.copy()
        for ln in range(1, n):
            s = n - ln
            mat = below[:ln, :s] + below_skew[ln - 1::-1, ln:]
            bm = np.argmin(mat, axis=0)
            cost[ln, :s] = skew[ln, ln:] = np.minimum(
                mat[bm, np.arange(s)] + pref[ln + 1:] - pref[:s], no_tree)
            splits[h, ln, :s] = bm

    if cost[n - 1, 0] >= no_tree:
        raise ValueError("height-restricted DP found no tree")  # unreachable

    depths = [0] * n
    stack = [(0, n - 1, H, 0)]
    while stack:
        i, jj, h, d = stack.pop()
        if i == jj:
            depths[i] = d
            continue
        m = int(splits[h - 1, jj - i, i])
        stack.append((i, i + m, h - 1, d + 1))
        stack.append((i + m + 1, jj, h - 1, d + 1))
    return DepthProfile(depths)


# -- cutoff balancing ------------------------------------------------------

def _cutoff_runs(profile: DepthProfile, cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(starts, counts, prefixes) of the maximal runs of leaves that share a
    cutoff-bit codeword prefix, zero-padded: pos >> (L - cutoff), or
    pos << (cutoff - L) when cutoff > L. A leaf of depth <= cutoff is a run
    of its own, since its prefix differs from both neighbours'; every other
    run is the leaves of the subtree rooted at its prefix."""
    pos, L = profile._pos, profile._L
    if cutoff <= L:
        prefix = pos >> (L - cutoff)
    else:
        prefix = (pos if cutoff <= 62 else pos.astype(object)) << (cutoff - L)
    starts = np.flatnonzero(np.concatenate(([True], prefix[1:] != prefix[:-1])))
    return starts, np.diff(starts, append=len(pos)), prefix[starts]


def _balanced_depths(profile: DepthProfile, starts, counts, cutoff: int) -> np.ndarray:
    """Each leaf's depth once every subtree rooted at depth `cutoff` is
    completely balanced: a leaf of depth <= cutoff keeps its depth; in a run
    of r deeper leaves, with h = ceil(lg r), the leaf at offset o sits at
    cutoff + h if o < 2r - 2^h, else at cutoff + h - 1 (deeper leaves
    leftmost)."""
    r = np.repeat(counts, counts)
    off = np.arange(len(r)) - np.repeat(starts, counts)
    h = np.frexp(r - 1)[1].astype(np.int64)  # bit_length(r - 1)
    return np.where(profile._d > cutoff, cutoff + h - (off >= 2 * r - (1 << h)), profile._d)


def balance_at_cutoff(profile: DepthProfile, cutoff: int) -> DepthProfile:
    """Completely balance every maximal subtree rooted at depth `cutoff`.

    Leaves of depth <= cutoff are untouched; each maximal run of deeper
    leaves sharing a cutoff-bit codeword prefix takes the balanced depths
    of _balanced_depths, computed for all leaves in one array pass over the
    runs of _cutoff_runs.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    starts, counts, _ = _cutoff_runs(profile, cutoff)
    return DepthProfile(_balanced_depths(profile, starts, counts, cutoff))


# -- compiled representation ----------------------------------------------

class CompactAlphabeticCode:
    """Alphabetic code compiled to the B/P/A form, built from a
    cutoff-balanced profile.

    B marks each shallow leaf and the leftmost leaf of each subtree rooted
    at the cutoff depth. P lists, in alphabet order, the first cutoff bits
    of the marked characters' codewords, zero-padded. A has one entry per
    cutoff-bit prefix: the (character, length) of the shallow leaf the
    prefix starts, or the run entry (c, deep, h, shift) of the balanced
    subtree rooted there: its leftmost character c, its 2r - 2^h leaves of
    depth cutoff + h, its height h = ceil(lg r) >= 1, and r - 2^(h-1), by
    which the offset from c of each leaf of depth cutoff + h - 1 exceeds
    that leaf's last h - 1 codeword bits. The build derives these from r,
    where the next A entry starts, so the queries never look past A[p].
    sigma = 1 is the one-leaf tree: B = "1", P = [0], A = [(1, 0)].

    encode reads mark k = rank1(B, i) - 1 inline, from B's held per-byte
    count and one _INCL8 lookup, then the prebuilt codeword _shallow[k] of
    a shallow leaf, or a run's entry _marks[k], the very tuple A[P[k]], and
    P[k]; decode is one A read of height_cap bits taken straight from the
    reader's window, with no reader call but a rare refill. Neither calls a
    Bitvector query; the rest is arithmetic on the run entry.

    The build takes the runs and their prefixes from the profile's left
    edges (_cutoff_runs), checks every depth against the balanced rule in
    one array pass, and sets B from the run starts and P from the prefixes;
    its one Python loop fills A, one step per mark.
    """

    def __init__(self, profile: DepthProfile):
        sigma = profile.sigma
        cutoff, cap = (cutoff_for(sigma), height_cap_for(sigma)) if sigma > 1 else (0, 0)
        if profile.height > cap:
            raise ValueError(f"profile height {profile.height} exceeds cap {cap}")
        d = profile._d
        starts, counts, prefixes = _cutoff_runs(profile, cutoff)
        if not np.array_equal(_balanced_depths(profile, starts, counts, cutoff), d):
            raise KraftViolation("subtree below the cutoff is not completely balanced")
        bbits = np.zeros(sigma, dtype=np.uint8)
        bbits[starts] = 1
        P = prefixes.tolist()
        A: list = [None] * (1 << cutoff)
        for i, r, p, e in zip(starts.tolist(), counts.tolist(), P, d[starts].tolist()):
            if e <= cutoff:  # a shallow leaf: every prefix below it
                span = 1 << (cutoff - e)
                A[p:p + span] = [(i + 1, e)] * span
            else:
                h = (r - 1).bit_length()
                A[p] = (i + 1, 2 * r - (1 << h), h, r - (1 << (h - 1)))
        self.sigma = sigma
        self.cutoff = cutoff
        self.height_cap = cap
        self.depths = profile.depths
        self.B = Bitvector(bbits)
        self.P = P
        self.A = A
        # per mark k: A[P[k]] itself, and a shallow leaf's codeword (None
        # for a run), each an O(1) function of P[k] and A[P[k]]
        self._bdata, self._bones = self.B._bytes, self.B._ranks
        self._marks = [A[p] for p in P]
        self._shallow = [(p >> (cutoff - e[1]), e[1]) if len(e) == 2 else None
                         for p, e in zip(P, self._marks)]
        self._read_mask = (1 << cap) - 1  # decode's window read, a function of sigma

    def encode(self, i: int) -> tuple[int, int]:
        if not 1 <= i <= self.sigma:
            raise IndexError(f"character out of range: {i}")
        j = i - 1
        k = self._bones[j >> 3] + _INCL8[self._bdata[j >> 3] << 3 | (j & 7)]  # rank1(B, i) - 1
        cw = self._shallow[k]
        if cw is not None:  # a shallow leaf, so mark k is i
            return cw
        c, deep, h, shift = self._marks[k]
        p = self.P[k]
        off = i - c
        if off < deep:  # the run's first codeword is p << h, cutoff + h bits long
            return ((p << h) + off, self.cutoff + h)
        return ((p << (h - 1)) + off - shift, self.cutoff + h - 1)

    def decode(self, reader: BitReader) -> tuple[int, int]:
        """(character, length) of the next codeword, read from the reader's
        window (see ncpc.bits): height_cap bits, in which every codeword
        fits, then one A read, and the run entry's arithmetic for a leaf
        below the cutoff. Raises TruncatedStream, leaving the reader where
        the codeword starts, if the stream ends inside it."""
        cap = self.height_cap
        pos = reader._pos
        end = reader._end
        if pos + cap > end:
            end = reader._refill()
        w = (reader._win >> (end - pos - cap)) & self._read_mask
        e = self.A[w >> (cap - self.cutoff)]
        if len(e) != 2:
            c, deep, h, shift = e
            l = self.cutoff + h
            d = (w >> (cap - l)) & ((1 << h) - 1)  # the offset after the run's prefix
            e = (c + d, l) if d < deep else (c + shift + (d >> 1), l - 1)
        if e[1] > reader._nbits - pos:
            raise TruncatedStream("truncated stream")
        reader._pos = pos + e[1]
        return e

    def codeword_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, lengths) for all characters."""
        return alphabetic_codewords(self.depths)

    def size_breakdown(self) -> dict[str, int]:
        """Accounted bits per component.

        B: the marker bitvector's data and rank directory. P: one cutoff-bit
        prefix per marked character. A: one character or subtree root, a
        length and a kind bit per dispatch prefix; a run entry's other
        fields follow from its root and the next entry's, as Bitvector's
        held per-byte counts follow from its data. encode's per-mark lists
        count nothing more, each entry being an O(1) function of P[k] and
        A[P[k]]. They hold two list slots per mark and one codeword tuple
        per shallow leaf: on the seed-1 zipf(1.0) corpora at sigma 4096
        and 65536 (CPython 3.11, 64-bit), the code holds 10,608 and 78,152
        more bytes for them, 9.9% and 5.0% over the rest.
        sigma = 1 is accounted as one byte.
        """
        if self.sigma == 1:
            return {"B": 8, "P": 0, "A": 0}
        hbits = max(1, self.height_cap.bit_length())
        return {"B": self.B.size_bits(),
                "P": len(self.P) * self.cutoff,
                "A": len(self.A) * (self.sigma.bit_length() + hbits + 1)}

    def model_size_bits(self) -> int:
        return sum(self.size_breakdown().values())


def compile_code(profile: DepthProfile, sigma: int) -> CompactAlphabeticCode:
    """Compile a cutoff-balanced profile into the B/P/A representation."""
    if sigma != profile.sigma:
        raise ValueError("sigma does not match the profile")
    return CompactAlphabeticCode(profile)


DP_SIGMA_MAX = 320  # largest alphabet routed through the height-restricted DP


def alphabetic_profile(freqs) -> DepthProfile:
    """Depths of the alphabetic code: optimal tree, height restriction, cutoff balancing.

    Zero weights are smoothed to 1 so the code covers the whole alphabet.
    When the optimal tree already fits under the height cap it is kept
    (it is then optimal among capped trees as well). Otherwise the DP
    computes the capped optimum up to DP_SIGMA_MAX characters; beyond
    that, subtrees rooted at depth ceil(sqrt(lg sigma)) are completely
    balanced, which caps the height at lg sigma + sqrt(lg sigma) + 2.
    """
    freqs = int_list(freqs)
    sigma = len(freqs)
    if sigma == 0:
        raise ValueError("empty alphabet")
    if min(freqs) < 1:
        freqs = [max(1, f) for f in freqs]
    if sigma == 1:
        return DepthProfile((0,))
    profile = build_optimal_alphabetic(freqs)
    cap = height_cap_for(sigma)
    if profile.height > cap:
        if sigma <= DP_SIGMA_MAX:
            profile = build_height_restricted(freqs, cap)
        else:
            shallow = math.ceil(math.sqrt(math.log2(sigma)))
            profile = balance_at_cutoff(profile, shallow)
        if profile.height > cap:
            raise AssertionError("height restriction failed")  # defensive
    return balance_at_cutoff(profile, cutoff_for(sigma))


def build_alphabetic_code(freqs) -> CompactAlphabeticCode:
    """Full pipeline: alphabetic_profile, then compile_code."""
    profile = alphabetic_profile(freqs)
    return compile_code(profile, profile.sigma)
