"""Pure functions from frequencies to codeword lengths and from lengths to
reverse-canonical codewords.

Both the reverse-canonical code model and the Huffman-shaped wavelet
matrix that stores its depth sequence use them, so they live below both.
"""

from __future__ import annotations

import heapq

import numpy as np


def huffman_lengths(freqs) -> list[int]:
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


def depth_tables(lengths) -> tuple[list[int], list[int]]:
    """(leaves, nodes) per depth 0..L of the code tree with these leaf depths."""
    L = max(lengths)
    leaves = [0] * (L + 1)
    for l in lengths:
        leaves[l] += 1
    nodes = [0] * (L + 1)
    nodes[0] = 1
    for d in range(L):
        nodes[d + 1] = 2 * (nodes[d] - leaves[d])
    return leaves, nodes


def revcanon_codewords(lengths) -> tuple[np.ndarray, np.ndarray]:
    """(values, lengths) of the reverse-canonical code with these lengths.

    Character i gets the leaf whose rank at depth lengths[i] is its rank
    among the characters of that length; the ascent to the root reads
    one codeword bit per level, a right child being one whose rank
    exceeds nodes[d]/2. The lengths must satisfy the Kraft equality.
    """
    lens = np.asarray(lengths, dtype=np.int64)
    sigma = lens.size
    if sigma == 1:
        return np.zeros(1, dtype=np.uint64), lens
    leaves, nodes = depth_tables(lens.tolist())
    order = np.argsort(lens, kind="stable")
    sl = lens[order]
    group_start = np.concatenate(([0], np.flatnonzero(np.diff(sl)) + 1))
    starts_per = np.repeat(group_start, np.diff(np.concatenate((group_start, [sigma]))))
    r = np.empty(sigma, dtype=np.int64)
    r[order] = np.arange(sigma) - starts_per + 1

    vals = np.zeros(sigma, dtype=np.uint64)
    for d in range(len(leaves) - 1, 0, -1):
        half = nodes[d] // 2
        act = lens >= d
        rd = r[act]
        bit = rd > half
        vals[act] |= bit.astype(np.uint64) << (lens[act] - d).astype(np.uint64)
        r[act] = rd - bit * half + leaves[d - 1]
    return vals, lens
