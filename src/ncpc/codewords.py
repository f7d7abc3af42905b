"""Pure functions from frequencies to codeword lengths and from lengths to
reverse-canonical codewords.

Both the reverse-canonical code model and the Huffman-shaped wavelet
matrix that stores its depth sequence use them, so they live below both.
"""

from __future__ import annotations

import numpy as np

from .errors import KraftViolation

MAX_CODEWORD_BITS = 64  # codeword values are held in uint64


def int_list(xs) -> list[int]:
    """[int(x) for x in xs]; a 1-d numpy integer array converts in one call."""
    if isinstance(xs, np.ndarray) and xs.ndim == 1 and xs.dtype.kind in "iu":
        return xs.tolist()
    return [int(x) for x in xs]


def huffman_lengths(freqs) -> list[int]:
    """Codeword lengths of an optimal prefix code for positive weights.

    Two-queue merge (van Leeuwen 1976): the leaves sorted by (weight,
    index) and a FIFO of merged nodes, each keyed by (weight, smallest
    character index below it). Every merge takes the two smallest heads
    under that key; merged nodes come out in increasing key order, so the
    FIFO stays sorted, and the merges are those of a heap under the same
    key. The key is packed as weight * n + index.
    """
    n = len(freqs)
    if n == 0:
        raise ValueError("empty alphabet")
    w = int_list(freqs)
    if min(w) <= 0:
        raise ValueError("weights must be positive")
    if n == 1:
        return [0]
    big = (sum(w) + 1) * n  # above every key: ends both queues
    leaves = sorted([wi * n + i for i, wi in enumerate(w)])
    leaves.append(big)
    merged = [big] * (n - 1)
    parent = [0] * (2 * n - 1)
    a = b = 0
    for m in range(n - 1):
        up = n + m
        k1 = merged[b]
        k2 = leaves[a]
        if k1 < k2:
            parent[n + b] = up
            b += 1
        else:
            k1 = k2
            parent[k1 % n] = up
            a += 1
        k2 = merged[b]
        k = leaves[a]
        if k2 < k:
            parent[n + b] = up
            b += 1
        else:
            k2 = k
            parent[k2 % n] = up
            a += 1
        t1 = k1 % n
        t2 = k2 % n
        merged[m] = k1 - t1 + k2 - t2 + (t1 if t1 < t2 else t2)
    return parent_depths(parent, n)


def parent_depths(parent: list[int], n: int) -> list[int]:
    """Leaf depths of a merge tree whose nodes are numbered in creation order.

    Leaves are 0..n-1, merged nodes n..2n-2 with the root last, so every
    parent comes after its children and one reverse pass sets all depths.
    """
    depth = [0] * len(parent)
    for v in range(len(parent) - 2, -1, -1):
        depth[v] = depth[parent[v]] + 1
    return depth[:n]


def depth_tables(lengths) -> tuple[list[int], list[int]]:
    """(leaves, nodes) per depth 0..L of the code tree with these leaf
    depths, as lists of Python ints; an int64 array is counted in place.

    Raises KraftViolation on a negative length, then ValueError above
    MAX_CODEWORD_BITS (every decoder reads a codeword in one 64-bit peek),
    both before any count, then KraftViolation unless the lengths are the
    leaf depths of a full binary tree, that is, satisfy the Kraft equality
    (so one character has length 0, and more have lengths >= 1). Since
    nodes[L] - leaves[L] = 2^L - sum over d of leaves[d] * 2^(L-d), the
    equality is nodes[L] == leaves[L].
    """
    lens = np.asarray(lengths, dtype=np.int64)
    if lens.min() < 0:
        raise KraftViolation("negative codeword length")
    if lens.max() > MAX_CODEWORD_BITS:
        raise ValueError(f"codewords longer than {MAX_CODEWORD_BITS} bits")
    leaves = np.bincount(lens).tolist()
    nodes = [1]
    for d in range(len(leaves) - 1):
        nodes.append(2 * (nodes[d] - leaves[d]))
    if nodes[-1] != leaves[-1]:
        raise KraftViolation("lengths do not satisfy the Kraft equality")
    return leaves, nodes


def revcanon_codewords(lengths) -> tuple[np.ndarray, np.ndarray]:
    """(values, lengths) of the reverse-canonical code with these lengths.

    Character i gets the leaf whose rank at depth lengths[i] is its rank
    among the characters of that length; the ascent to the root reads
    one codeword bit per level, a right child being one whose rank
    exceeds nodes[d]/2. Raises what depth_tables raises, so the values
    fit in uint64.
    """
    lens = np.asarray(lengths, dtype=np.int64)
    sigma = lens.size
    leaves, nodes = depth_tables(lens)
    if sigma == 1:
        return np.zeros(1, dtype=np.uint64), lens
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
