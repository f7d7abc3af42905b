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
    character index below it), packed as weight * n + index. Every merge
    takes the two smallest available keys, and the merges are those of a
    heap under the same key.

    A merged node's key exceeds both picks that made it, so the picks in
    order are the non-root keys in increasing order, merge m pairing
    picks 2m and 2m + 1. Let K be the key of the next node to be made,
    from the two smallest available keys: every available key below K is
    picked, in sorted order, before any node not yet made. So one batch
    of numpy calls sorts those keys (all merged nodes available, and the
    leaves below K), pairs them, appends their parents' keys to the FIFO
    and leaves an odd largest one for the next batch. The smallest pick's
    weight at least doubles every two batches, so there are at most
    2 lg(total / min) + 2 of them; then one reverse pass over the batches
    sets each child one deeper than its parent. Keys are int64 while
    (total + 1) * n < 2^62, else Python ints in an object array, by the
    same expressions.
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
    dt = np.int64 if big < 1 << 62 else object
    keys = np.sort(np.array(w, dtype=dt) * n + np.arange(n))
    leaf_ids = (keys % n).astype(np.int64)
    leaves = np.append(keys, np.array([big, big], dtype=dt))
    merged = np.full(n + 1, big, dtype=dt)
    picks = np.empty(2 * n - 2, dtype=np.int64)  # node ids in pick order
    made = []  # merges done after each batch
    a = b = m = 0  # leaves taken, merged nodes taken, merged nodes made
    while m < n - 1:
        l0, l1 = leaves[a:a + 2].tolist()
        m0, m1 = merged[b:b + 2].tolist()
        k1, k2 = (l0, min(l1, m0)) if l0 < m0 else (m0, min(l0, m1))
        t1, t2 = k1 % n, k2 % n
        cut = k1 - t1 + k2 - t2 + min(t1, t2)  # node m's key
        p = int(leaves.searchsorted(cut)) - a
        ks = np.concatenate((leaves[a:a + p], merged[b:m]))
        o = ks.argsort(kind="stable")  # timsort: two sorted runs merge in linear time
        if len(o) & 1:  # the largest waits for a partner of the next batch
            o = o[:-1]
        ids = np.concatenate((leaf_ids[a:a + p], np.arange(n + b, n + m)))[o]
        ks = ks[o]
        t = ks % n
        r = len(o) // 2
        merged[m:m + r] = ks[0::2] - t[0::2] + ks[1::2] - t[1::2] + np.minimum(t[0::2], t[1::2])
        picks[2 * m:2 * m + 2 * r] = ids
        taken = int(np.count_nonzero(ids < n))
        a += taken
        b += 2 * r - taken
        m += r
        made.append(m)
    depth = np.zeros(2 * n - 1, dtype=np.int64)
    for lo, hi in zip(reversed([0] + made[:-1]), reversed(made)):
        depth[picks[2 * lo:2 * hi]] = np.repeat(depth[n + lo:n + hi], 2) + 1
    return depth[:n].tolist()


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
