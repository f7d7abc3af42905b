"""Near-optimal alphabetic prefix codes in compact form.

An alphabetic code keeps codewords in alphabet order, so the code is
fully described by its leaf-depth profile. The builder finds a
minimum-cost ordered tree (Garsia-Wachs), restricts its height when
needed, then completely balances every subtree rooted at a cutoff depth.
The balanced shape admits an arithmetic encoder/decoder over three small
structures, which CompactAlphabeticCode builds from the depths in one scan
of the cutoff runs:

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


def canonical_codewords(depths) -> list[tuple[int, int]]:
    """Left-to-right codeword assignment (value, length) for a full ordered tree.

    Raises KraftViolation if no full ordered binary tree realizes the
    depths in this exact order.
    """
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


def alphabetic_codewords(depths) -> tuple[np.ndarray, np.ndarray]:
    """canonical_codewords as (values, lengths) arrays, with its validation.

    Raises ValueError above MAX_CODEWORD_BITS before building any codeword,
    since the values are held in uint64.
    """
    depths = int_list(depths)
    if depths and max(depths) > MAX_CODEWORD_BITS:
        raise ValueError(f"codewords longer than {MAX_CODEWORD_BITS} bits")
    vals = np.array([v for v, _ in canonical_codewords(depths)], dtype=np.uint64)
    return vals, np.asarray(depths, dtype=np.int64)


@dataclass(frozen=True)
class DepthProfile:
    """Leaf depths of a full ordered binary tree, in alphabet order."""

    depths: tuple[int, ...]
    _codewords: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "depths", tuple(int(d) for d in self.depths))
        # validates order-realizability + fullness; kept for codewords()
        object.__setattr__(self, "_codewords", tuple(canonical_codewords(self.depths)))

    @property
    def sigma(self) -> int:
        return len(self.depths)

    @property
    def height(self) -> int:
        return max(self.depths)

    def codewords(self) -> tuple[tuple[int, int], ...]:
        return self._codewords


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
    sentinel and the next input weight, so no pair inside it qualifies.
    After a merge only two pairs can newly qualify: the one just left of
    the reinsertion point and the one at the gap the merge left. Each is
    named by the element that closes it, as a distance from the list's
    end, which merges further left do not change; a stack of these
    distances is checked innermost (leftmost) first. Each merge moves only
    the entries right of the reinsertion point; on monotone weights that
    is still quadratic in the worst case.
    """
    n = len(freqs)
    if n == 0:
        raise ValueError("empty alphabet")
    if n == 1:
        return [0]
    ws = [int(f) for f in freqs]
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
        pending = [1]
        while pending:
            j = len(wts) - pending[-1]
            if j < 3 or wts[j - 2] > wts[j]:
                pending.pop()
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
            pending.append(len(wts) - q - 1)
    return parent_depths(parent, n)


def build_optimal_alphabetic(freqs) -> DepthProfile:
    """Minimum expected-length alphabetic code for positive weights."""
    return DepthProfile(tuple(garsia_wachs(freqs)))


def build_height_restricted(freqs, height_cap: int) -> DepthProfile:
    """Optimal alphabetic code among trees of height <= height_cap.

    Layered interval DP: cost[h][i][j] is the best cost of an ordered tree
    over characters i..j of height <= h. Inner minimization is vectorized
    per diagonal.
    """
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


# -- cutoff balancing ------------------------------------------------------

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


def _cutoff_runs(profile: DepthProfile, cutoff: int):
    """(i, j) for each leaf i of depth <= cutoff (j = i + 1), and for each
    maximal run i..j-1 of deeper leaves sharing a cutoff-bit codeword prefix."""
    depths = profile.depths
    cws = profile.codewords()
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


def balance_at_cutoff(profile: DepthProfile, cutoff: int) -> DepthProfile:
    """Completely balance every maximal subtree rooted at depth `cutoff`.

    Leaves of depth <= cutoff are untouched; each maximal run of deeper
    leaves sharing a cutoff-bit codeword prefix is replaced by the
    balanced run profile.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    depths = profile.depths
    out: list[int] = []
    for i, j in _cutoff_runs(profile, cutoff):
        if depths[i] <= cutoff:
            out.append(depths[i])
        else:
            out.extend(cutoff + rd for rd in balanced_run_depths(j - i))
    return DepthProfile(tuple(out))


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
    """

    def __init__(self, profile: DepthProfile):
        sigma = profile.sigma
        cutoff, cap = (cutoff_for(sigma), height_cap_for(sigma)) if sigma > 1 else (0, 0)
        if profile.height > cap:
            raise ValueError(f"profile height {profile.height} exceeds cap {cap}")
        depths = profile.depths
        cws = profile.codewords()
        bbits = np.zeros(sigma, dtype=np.uint8)
        P: list[int] = []
        A: list = [None] * (1 << cutoff)
        covered = 0
        for i, j in _cutoff_runs(profile, cutoff):
            v, d = cws[i]
            bbits[i] = 1
            P.append(v << (cutoff - d) if d <= cutoff else v >> (d - cutoff))
            if d <= cutoff:
                span = 1 << (cutoff - d)
                A[P[-1]:P[-1] + span] = [(i + 1, d)] * span
                covered += span
                continue
            if [depths[k] - cutoff for k in range(i, j)] != balanced_run_depths(j - i):
                raise KraftViolation("subtree below the cutoff is not completely balanced")
            r = j - i
            h = (r - 1).bit_length()
            A[P[-1]] = (i + 1, 2 * r - (1 << h), h, r - (1 << (h - 1)))
            covered += 1
        if covered != 1 << cutoff:
            raise KraftViolation("dispatch table not fully populated")
        self.sigma = sigma
        self.cutoff = cutoff
        self.height_cap = cap
        self.depths = depths
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
        self._arrays = None

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
        """(values, lengths) for all characters, cached."""
        if self._arrays is None:
            self._arrays = alphabetic_codewords(self.depths)
        return self._arrays

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
