import collections
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (bits_of, huffman_cost_twoqueue, huffman_lengths_heap,
                      kraft_complete_multisets, revcanon_codewords_ascent,
                      revcanon_decode_per_bit, revcanon_encode_per_bit,
                      revlex_char_codewords, tie_heavy_weight_cases)
from ncpc.bits import BitReader, pack_bits
from ncpc.codewords import level_labels, revcanon_codewords
from ncpc.corpus import gen_zipf
from ncpc.errors import KraftViolation, NcpcError, NoSuchOccurrence, TruncatedStream
from ncpc.revcanon import RevCanonCode, build_descent_table, huffman_lengths
from ncpc.stream import SequenceCodec
from ncpc.succinct import WaveletTree


FIVE = [1, 2, 3, 4, 4]  # lengths of the running five-character example


# -- huffman lengths -----------------------------------------------------------

def test_huffman_lengths_examples():
    assert sorted(huffman_lengths([10, 7, 2, 1, 1])) == [1, 2, 3, 4, 4]
    assert huffman_lengths([1, 1, 1, 1]) == [2, 2, 2, 2]
    assert huffman_lengths([1, 1]) == [1, 1]
    assert huffman_lengths([5]) == [0]
    with pytest.raises(ValueError):
        huffman_lengths([])
    with pytest.raises(ValueError):
        huffman_lengths([1, 0])


def test_huffman_lengths_weight_inputs(rng):
    """numpy integer arrays, floats (truncated by int) and Python ints past
    64 bits give the lengths of the same weights as a list of ints."""
    freqs = rng.integers(1, 500, 300).tolist()
    want = huffman_lengths(freqs)
    for same in (np.array(freqs), np.array(freqs, dtype=np.uint64), np.array(freqs) + 0.5,
                 [f + 0.9 for f in freqs]):
        assert huffman_lengths(same) == want
    assert huffman_lengths([f << 70 for f in freqs]) == want
    for bad in (np.array([1, 0]), np.array([3, -1], dtype=np.int8), [1.0, 0.5]):
        with pytest.raises(ValueError):
            huffman_lengths(bad)


def test_huffman_lengths_optimal_brute(rng):
    """Cost matches the minimum over all Kraft-complete length multisets."""
    for _ in range(120):
        sigma = int(rng.integers(1, 9))
        freqs = rng.integers(1, 40, sigma).tolist()
        best = min(
            (sum(f * d for f, d in zip(sorted(freqs, reverse=True), sorted(ms)))
             for ms in kraft_complete_multisets(sigma)))
        got = sum(f * l for f, l in zip(freqs, huffman_lengths(freqs)))
        assert got == best


def test_huffman_lengths_identical_to_heap_random(rng):
    for freqs in tie_heavy_weight_cases(rng, 2500):
        assert huffman_lengths(freqs) == huffman_lengths_heap(freqs), freqs


def test_huffman_lengths_identical_to_heap_zipf_4096():
    freqs = gen_zipf(200_000, 4096, 1.0, 1).smoothed_freqs()
    assert huffman_lengths(freqs) == huffman_lengths_heap(freqs)


def test_huffman_lengths_identical_to_heap_point_wide():
    """The benchmark's seed-1 point-wide counts (sigma 65536, 200k records),
    as the int64 array the benchmark passes."""
    freqs = benchmark_freqs(65536)
    assert huffman_lengths(freqs) == huffman_lengths_heap(freqs)


def test_huffman_lengths_identical_to_heap_one_merge_per_batch_and_past_2_62(rng):
    """Fibonacci weights (n 90, both orders) and powers of two (n 64), where
    each batch of the merge makes one node, and totals past 2^62, where the
    keys are Python ints: weights near 2^61, and weights below 2^40 whose
    total fits int64 but whose keys do not. Each as a list and as an object
    array."""
    fib = [1, 1]
    while len(fib) < 90:
        fib.append(fib[-1] + fib[-2])
    heavy = [(1 << 61) + f for f in rng.integers(0, 5, 40).tolist()]
    wide = rng.integers(1, 1 << 40, 5000).tolist()
    for freqs in (fib, fib[::-1], [1 << i for i in range(64)], heavy, wide):
        want = huffman_lengths_heap(freqs)
        assert huffman_lengths(freqs) == want
        assert huffman_lengths(np.array(freqs, dtype=object)) == want


# -- model construction ---------------------------------------------------------

def test_build_tables_five():
    code = RevCanonCode(FIVE)
    assert code.leaves == [0, 1, 1, 1, 2]
    assert code.nodes == [1, 2, 2, 2, 2]


def test_build_tables_uniform():
    code = RevCanonCode([2, 2, 2, 2])
    assert code.leaves == [0, 0, 4]
    assert code.nodes == [1, 2, 4]


def test_build_accepts_what_int_of_each_length_accepts():
    """The lengths may come as any iterable whose elements int() takes: a
    tuple, numpy arrays, a generator, floats (truncated) or strings give the
    list's code, with depths held as Python ints. What int() refuses stays
    refused, and the errors come in the same order: conversion, then an
    empty alphabet, then depth_tables' (a negative length, a length over 64
    bits, then the Kraft equality on the counts)."""
    want = RevCanonCode(FIVE)
    for same in (tuple(FIVE), np.array(FIVE), np.array(FIVE, dtype=np.uint8),
                 (l for l in FIVE), [l + 0.5 for l in FIVE], [str(l) for l in FIVE]):
        code = RevCanonCode(same)
        assert code.depths == tuple(FIVE) and all(type(d) is int for d in code.depths)
        assert (code.leaves, code.nodes, code.L) == (want.leaves, want.nodes, want.L)
        assert code.codeword_set() == want.codeword_set()
        assert code.size_breakdown() == want.size_breakdown()
    for bad, error in ((5, TypeError), ([[1, 2], [1, 2]], TypeError), ([[1], [1, 2]], TypeError),
                       (np.array(FIVE).reshape(-1, 1), TypeError),
                       (["x", 1], ValueError), ([None, 1], TypeError),
                       ([], ValueError), (np.array([], dtype=np.int64), ValueError),
                       ([1 << 70, -1], OverflowError), ([-1, 65, 1], KraftViolation),
                       ([65, 1], ValueError), ([1, 1, 1], KraftViolation)):
        with pytest.raises(error):
            RevCanonCode(bad)


def test_build_rejects_kraft_violation():
    with pytest.raises(KraftViolation):
        RevCanonCode([1, 1, 1])
    with pytest.raises(KraftViolation):
        RevCanonCode([2, 2, 2])
    with pytest.raises(KraftViolation):
        RevCanonCode([0, 1])


def test_nodes_recurrence_random(rng):
    for _ in range(60):
        sigma = int(rng.integers(2, 400))
        code = RevCanonCode(huffman_lengths(rng.integers(1, 100, sigma).tolist()))
        assert code.nodes[0] == 1
        for d in range(code.L):
            assert code.nodes[d + 1] == 2 * (code.nodes[d] - code.leaves[d])
        assert code.nodes[code.L] == code.leaves[code.L]
        assert sum(code.leaves) == sigma
        assert all(code.nodes[d] % 2 == 0 for d in range(1, code.L + 1))


# -- rank arithmetic -------------------------------------------------------------

def test_child_rank_example():
    code = RevCanonCode(FIVE)
    assert code.child_rank(1, 1, 1) == 2


def test_parent_rank_example():
    code = RevCanonCode(FIVE)
    assert code.parent_rank(4, 1) == (2, 0)


def test_child_parent_inverse_all_states():
    for lengths in (FIVE, [2, 2, 2, 2], [1, 2, 3, 3], [3] * 8):
        code = RevCanonCode(lengths)
        for d in range(1, code.L + 1):
            for rp in range(code.leaves[d - 1] + 1, code.nodes[d - 1] + 1):
                for bit in (0, 1):
                    rc = code.child_rank(d, rp, bit)
                    assert 1 <= rc <= code.nodes[d]
                    assert code.parent_rank(d, rc) == (rp, bit)


def test_child_rank_validates():
    code = RevCanonCode(FIVE)
    with pytest.raises(ValueError):
        code.child_rank(1, 2, 0)  # rank 2 at depth 0 does not exist
    with pytest.raises(ValueError):
        code.child_rank(2, 1, 0)  # rank 1 at depth 1 is a leaf
    with pytest.raises(ValueError):
        code.parent_rank(4, 3)


# -- encode / decode -------------------------------------------------------------

def test_encode_examples():
    code = RevCanonCode(FIVE)
    assert code.encode(1) == (0b0, 1)
    assert code.encode(4) == (0b1110, 4)
    with pytest.raises(IndexError):
        code.encode(6)


def test_uniform_codeword_order():
    code = RevCanonCode([2, 2, 2, 2])
    got = [bits_of(v, l) for _, v, l in code.codeword_set()]
    assert got == ["00", "10", "01", "11"]


def test_codeword_set_examples():
    assert RevCanonCode([0]).codeword_set() == [(1, 0, 0)]
    got = {bits_of(v, l) for _, v, l in RevCanonCode(FIVE).codeword_set()}
    assert got == {"0", "10", "110", "1110", "1111"}


def test_decode_examples():
    code = RevCanonCode(FIVE)
    assert code.decode(BitReader(*pack_bits([0b1111], [4]))) == (5, 4)
    assert code.decode(BitReader(*pack_bits([0b0], [1]))) == (1, 1)
    c2 = RevCanonCode([2, 2, 2, 2])
    assert c2.decode(BitReader(*pack_bits([0b10], [2]))) == (2, 2)


def test_decode_truncated_stream():
    code = RevCanonCode(FIVE)
    with pytest.raises(TruncatedStream, match="truncated stream"):
        code.decode(BitReader(*pack_bits([0b111], [3])))  # prefix of a 4-bit codeword


def test_zipf_4096_encode_decode_match_codeword_arrays():
    code = RevCanonCode(huffman_lengths(gen_zipf(100_000, 4096, 1.0, 7).smoothed_freqs()),
                        shape="huffman")
    assert_codewords_like_the_ascent(code.depths)
    vals, lens = (a.tolist() for a in code.codeword_arrays())
    assert [code.encode(c) for c in range(1, code.sigma + 1)] == list(zip(vals, lens))
    r = BitReader(*pack_bits(vals, lens))
    assert [code.decode(r) for _ in vals] == list(zip(range(1, code.sigma + 1), lens))
    assert r.remaining == 0
    # a payload that stops one bit short of the longest codeword
    c = lens.index(code.L) + 1
    with pytest.raises(TruncatedStream):
        code.decode(BitReader(*pack_bits([vals[c - 1] >> 1], [code.L - 1])))


def test_sixty_four_bit_codewords_roundtrip():
    """L = 64: the wavelet weights of D pass 2^64, and codewords fill a full peek."""
    lengths = list(range(1, 65)) + [64]
    code = RevCanonCode(lengths)
    assert_codewords_like_the_ascent(lengths)
    vals, lens = (a.tolist() for a in code.codeword_arrays())
    assert [code.encode(c) for c in range(1, 66)] == list(zip(vals, lens))
    msg = list(range(65, 0, -1)) + [1, 64, 65, 33]
    r = BitReader(*pack_codewords(code, msg))
    assert [code.decode(r) for _ in msg] == [(m, lengths[m - 1]) for m in msg]
    assert r.remaining == 0


def test_D_is_shaped_by_counts_and_code_probabilities(rng):
    """The matrix over D is the Huffman shape of n_d * 2^L for d <= t2, whose
    characters no query walks D for, and n_d * (2^L + sigma * 2^(L-d)) deeper."""
    from ncpc.codewords import revcanon_codewords
    for lengths in (huffman_lengths(gen_zipf(50_000, 4096, 1.0, 3).smoothed_freqs()),
                    list(range(1, 65)) + [64], FIVE):
        code = RevCanonCode(lengths, shape="huffman")
        L, sigma, t2 = code.L, code.sigma, code.t2
        present = sorted(set(lengths))
        assert min(present) <= t2 < max(present)
        weights = [lengths.count(d) * (2**L if d <= t2 else 2**L + sigma * 2**(L - d))
                   for d in present]
        vals, lens = revcanon_codewords(huffman_lengths(weights))
        assert {d: code.D._codes[d][:2] for d in present} == dict(
            zip(present, zip(vals.tolist(), lens.tolist())))
    with pytest.raises(ValueError):
        RevCanonCode(FIVE, shape="balanced")


def test_roundtrip_random(rng):
    for _ in range(50):
        sigma = int(rng.integers(1, 700))
        code = RevCanonCode(huffman_lengths(rng.integers(1, 200, sigma).tolist()))
        msg = rng.integers(1, sigma + 1, 120).tolist()
        r = BitReader(*pack_codewords(code, msg))
        for m in msg:
            assert code.decode(r)[0] == m


def assert_codewords_like_the_ascent(lengths) -> None:
    """revcanon_codewords and the per-level masked ascent agree, dtypes too."""
    got, want = revcanon_codewords(lengths), revcanon_codewords_ascent(lengths)
    assert [a.dtype for a in got] == [a.dtype for a in want] == [np.uint64, np.int64]
    assert [a.tolist() for a in got] == [a.tolist() for a in want]


def test_codewords_match_the_per_level_ascent(rng):
    """sigma = 1 and 2, depths in shuffled orders, 64-bit codewords, random
    codes and the benchmark's zipf corpora at sigma 4096 and 65536."""
    cases = [[0], [1, 1], FIVE, FIVE[::-1], list(range(1, 65)) + [64],
             [64] + list(range(64, 0, -1)), [12] * 4096]
    for sigma in (4096, 65536):
        lengths = huffman_lengths(benchmark_freqs(sigma))
        cases += [lengths, rng.permutation(lengths).tolist()]
    for sigma in (1, 2, 3, 5, 17, 256, 4096):
        cases += [huffman_lengths(w) for w in
                  tie_heavy_weight_cases(rng, 3, sigma_max=sigma, sigma_min=sigma)]
    for lengths in cases:
        assert_codewords_like_the_ascent(lengths)


def test_level_labels_are_each_depths_nodes_in_rank_order(rng):
    """Depth d's labels against child_rank from the root: 2 sigma - 1 labels
    in all, each d bits, leaves first."""
    for lengths in ([0], [1, 1], FIVE, list(range(1, 65)) + [64],
                    huffman_lengths(rng.integers(1, 99, 300).tolist())):
        code = RevCanonCode(lengths)
        levels = [lab.tolist() for lab in level_labels(code.leaves)]
        assert [len(lab) for lab in levels] == code.nodes
        assert sum(code.nodes) == 2 * code.sigma - 1
        ranks = {0: 1}                  # rank of each depth-d node, by its label
        for d, labels in enumerate(levels):
            if d:
                ranks = {p << 1 | b: code.child_rank(d, r, b) for p, r in ranks.items()
                         if r > code.leaves[d - 1] for b in (0, 1)}
            assert sorted(ranks, key=ranks.get) == labels
            assert all(v >> d == 0 for v in labels)


def test_codeword_arrays_match_encode(rng):
    for _ in range(25):
        sigma = int(rng.integers(1, 500))
        code = RevCanonCode(huffman_lengths(rng.integers(1, 99, sigma).tolist()))
        assert_codewords_like_the_ascent(code.depths)
        vals, lens = code.codeword_arrays()
        for i, v, l in code.codeword_set():
            assert (int(vals[i - 1]), int(lens[i - 1])) == (v, l)


# -- root table ------------------------------------------------------------------

def pack_codewords(code, chars) -> tuple[bytes, int]:
    """The codewords of `chars` back to back."""
    return pack_bits(*zip(*[code.encode(c) for c in chars]))


def assert_decodes_like_per_bit(code, decode, data: bytes, nbits: int) -> None:
    """decode (a function of the reader, such as code.decode) and the
    per-bit oracle agree on every codeword of the stream, and on each of
    its last 80 cuts: same result, same reader position after each
    codeword, same exception type."""
    fast, slow = BitReader(data, nbits), BitReader(data, nbits)
    starts = []
    while slow.remaining:
        starts.append(slow.tell())
        assert decode(fast) == revcanon_decode_per_bit(code, slow)
        assert fast.tell() == slow.tell()
    for cut in range(max(0, nbits - 80), nbits):
        fast, slow = BitReader(data, cut), BitReader(data, cut)
        start = max(b for b in starts if b <= cut)  # the codeword the cut falls in
        fast.skip(start)
        slow.skip(start)
        try:
            want = revcanon_decode_per_bit(code, slow)
        except NcpcError as e:
            with pytest.raises(type(e)):
                decode(fast)
        else:
            assert decode(fast) == want
        assert fast.tell() == slow.tell()


# sigma = 1 and 2, leaves at exactly depth t (the second to fifth), L = 64
ROOT_TABLE_LENGTHS = ([0], [1, 1], [1, 2, 2], FIVE, [2, 2, 2, 3, 3],
                      list(range(1, 65)) + [64])


def root_table_cases(rng) -> tuple:
    return ROOT_TABLE_LENGTHS + (
        huffman_lengths(gen_zipf(50_000, 4096, 1.0, 3).smoothed_freqs()),
        huffman_lengths(rng.integers(1, 9, 65536).tolist()))


def root_widths(code) -> list[int]:
    """The code's own t and every descent-table width 1..min(16, L)."""
    return sorted({code.t, *range(1, min(16, code.L) + 1)})


def test_root_table_width_and_entries(rng):
    """t = ceil(ceil(lg sigma) / 2); at the code's own t and at every
    descent-table width w, window v holds (c, d) when it starts with c's
    codeword of length d <= w, else first[w] + r for the rank r of its
    node at depth w: that node's index + 1 in the label table."""
    for lengths in root_table_cases(rng):
        code = RevCanonCode(lengths)
        sigma = len(lengths)
        t = code.t
        assert t == -(-int(np.ceil(np.log2(sigma))) // 2)
        assert len(code.root) == 1 << t
        cws = code.codeword_set()
        ranks = [{0: 1}]    # per depth, each node's rank by its label, by child_rank from the root
        for d in range(1, max(root_widths(code)) + 1):
            ranks.append({p << 1 | b: code.child_rank(d, r, b) for p, r in ranks[-1].items()
                          if r > code.leaves[d - 1] for b in (0, 1)})
        for w in root_widths(code):
            root = code.root if w == t else build_descent_table(code, w).root
            assert len(root) == 1 << w
            first_w = sum(code.leaves[:w])
            want: list = [None] * (1 << w)
            for c, v, l in cws:
                if l <= w:
                    want[v << (w - l):(v + 1) << (w - l)] = [(c, l)] * (1 << (w - l))
            for v, e in enumerate(root):
                if want[v] is None:     # an internal node, whose rank the descent reaches
                    r = ranks[w][v]
                    assert type(e) is int and code.leaves[w] < r <= code.nodes[w]
                    assert e == first_w + r
                else:
                    assert e == want[v]
        assert code.size_breakdown()["root"] == (1 << t) * (
            int(np.ceil(np.log2(t + 2))) + int(np.ceil(np.log2(sigma + 1))))
        assert code.size_breakdown()["label"] == len(code.label) * t
        # a descent table at the code's own width is the code's root table
        assert build_descent_table(code, max(t, 1)).root == code.root


def test_label_table_inverts_the_root_table(rng):
    """At the code's own t and at every descent-table width w, every window
    maps back to the label of the node it starts with: v at label[e - 1]
    for a miss entry e (an internal node at depth w), v >> (w - d) for a
    leaf of depth d; and every label entry is some window's node."""
    for lengths in root_table_cases(rng):
        code = RevCanonCode(lengths)
        seen = collections.Counter()
        rank_of = []    # each character's rank among those of its length
        for l in lengths:
            seen[l] += 1
            rank_of.append(seen[l])
        for w in root_widths(code):
            root, label = code._root_table(w)
            if w == code.t:
                assert (root, label) == (code.root, code.label)
            else:
                assert root == build_descent_table(code, w).root
            first = [sum(code.leaves[:d]) for d in range(w + 1)]
            reached = set()
            for v, e in enumerate(root):
                if type(e) is int:
                    k, want = e - 1, v
                else:
                    c, d = e
                    k, want = first[d] + rank_of[c - 1] - 1, v >> (w - d)
                assert label[k] == want
                reached.add(k)
            assert reached == set(range(len(label))) and len(label) <= 1 << w


def test_encode_matches_per_bit_ascent(rng):
    """The label-table encode against a parent_rank ascent, for every
    character: random codes, codes with leaves at depth t, L = 64, whose
    codewords fill a whole peek, and uniform codes, whose D is a matrix
    of height 0 and whose every codeword climbs l - t >= 2 levels."""
    codes = [RevCanonCode(lengths) for lengths in ROOT_TABLE_LENGTHS]
    assert all(c.leaves[c.t] for c in codes[1:5])     # leaves at exactly depth t
    for lengths in ([5] * 32, [12] * 4096):
        code = RevCanonCode(lengths)
        assert code.D.height == 0 and code.L - code.t >= 2
        codes.append(code)
    for sigma in (2, 3, 5, 17, 256, 4096):
        for weights in tie_heavy_weight_cases(rng, 3, sigma_max=sigma, sigma_min=sigma):
            codes.append(RevCanonCode(huffman_lengths(weights)))
    for code in codes:
        assert code.codeword_set() == [
            (i, v, l) for i, (v, l) in enumerate(revcanon_encode_per_bit(code), 1)]


def test_encode_makes_no_wavelet_query(monkeypatch):
    """encode walks D's levels itself: with every WaveletTree query
    refusing, each character still encodes to its codeword."""
    codes = [RevCanonCode(huffman_lengths(gen_zipf(200_000, 4096, 1.0, 1).smoothed_freqs())),
             RevCanonCode(list(range(1, 65)) + [64]), RevCanonCode([5] * 32)]

    def refuse(*_):
        raise AssertionError("wavelet query")
    for name in ("access_rank", "access", "rank", "select"):
        monkeypatch.setattr(WaveletTree, name, refuse)
    for code in codes:
        vals, lens = code.codeword_arrays()
        assert ([code.encode(i) for i in range(1, code.sigma + 1)]
                == list(zip(vals.tolist(), lens.tolist())))


def benchmark_freqs(sigma: int, seed: int = 1) -> np.ndarray:
    """The counts, lifted to 1, of the benchmark's seeded zipf(1.0) corpus of
    200,000 records over `sigma` (ncpcbench/workloads.py's Run)."""
    w = np.arange(1, sigma + 1, dtype=np.float64) ** -1.0
    records = np.random.default_rng(seed).choice(sigma, size=200_000, p=w / w.sum())
    return np.maximum(np.bincount(records), 1)


def t2_rule(code) -> int:
    """The largest depth d <= L whose leaves of depth <= d number at most 2^t."""
    return max(d for d in range(code.L + 1) if sum(code.leaves[:d + 1]) <= 1 << code.t)


def test_second_cut_t2_is_pinned():
    """t2 by its rule on sigma = 1, [1, 1], FIVE, a height-0 matrix, the L = 64
    chain and the benchmark's seed-1 corpora (point: t = 6, point-wide: t = 8)."""
    cases = [([0], 0, 0), ([1, 1], 1, 1), (FIVE, 2, 3), ([12] * 4096, 6, 11),
             (list(range(1, 65)) + [64], 4, 16),
             (huffman_lengths(benchmark_freqs(4096)), 6, 8),
             (huffman_lengths(benchmark_freqs(65536)), 8, 11)]
    for lengths, t, t2 in cases:
        code = RevCanonCode(lengths)
        assert (code.t, code.t2) == (t, t2) == (code.t, t2_rule(code))
        assert len(code.chars) == sum(code.leaves[:t2 + 1]) <= 1 << t


def test_building_a_code_makes_no_wavelet_select(monkeypatch):
    """chars, the root table, label and _shallow come from the depths and
    level_labels alone: with D.select refusing, the benchmark's zipf codes
    at sigma 4096 and 65536 still build, and decode as before."""
    lengths = [huffman_lengths(benchmark_freqs(sigma)) for sigma in (4096, 65536)]
    before = [RevCanonCode(lens) for lens in lengths]

    def refuse(*_):
        raise AssertionError("D.select while building the code")
    monkeypatch.setattr(WaveletTree, "select", refuse)
    for lens, old in zip(lengths, before):
        code = RevCanonCode(lens)
        assert code.t2 < code.L     # there are leaves that only select names
        assert (code.chars, code.root, code.label, code._shallow) == (
            old.chars, old.root, old.label, old._shallow)


def test_chars_lists_the_characters_of_depth_at_most_t2_in_label_order(rng):
    """chars[e - 1] is the character D.select(d, e - first[d]) names for every
    label index e <= first[t2+1] of a leaf at depth d: the characters of
    depth <= t2 sorted by (depth, character), and no others."""
    codes = [RevCanonCode(lengths) for lengths in ROOT_TABLE_LENGTHS + ([5] * 32, [12] * 4096)]
    codes.append(RevCanonCode(huffman_lengths(benchmark_freqs(4096))))
    for sigma in (2, 3, 5, 17, 256, 4096):
        for weights in tie_heavy_weight_cases(rng, 3, sigma_max=sigma, sigma_min=sigma):
            codes.append(RevCanonCode(huffman_lengths(weights)))
    for code in codes:
        assert code.t2 == t2_rule(code)
        assert code.chars == sorted((i for i in range(1, code.sigma + 1)
                                     if code.depths[i - 1] <= code.t2),
                                    key=lambda i: (code.depths[i - 1], i))
        if code.D is None:
            continue
        e = 0
        for d in range(1, code.t2 + 1):
            for r in range(1, code.leaves[d] + 1):
                e += 1
                assert code.chars[e - 1] == code.D.select(d, r)
        assert e == len(code.chars)


def test_shallow_table_answers_exactly_the_codewords_of_at_most_t2_bits(rng):
    """_shallow maps the characters of depth <= t2, and no others, to their
    codewords, and encode answers them from it alone: with the walk and the
    height-0 entry gone, each still encodes and each deeper character
    raises. It is counted as chars, first[t2+1] characters of
    ceil(lg(sigma+1)) bits."""
    codes = [RevCanonCode(huffman_lengths(gen_zipf(200_000, 4096, 1.0, 1).smoothed_freqs()))]
    codes += [RevCanonCode(lengths) for lengths in (list(range(1, 65)) + [64], [5] * 32,
                                                     [12] * 4096, [0], [1, 1], FIVE)]
    for sigma in (2, 3, 5, 17, 256, 4096):
        for weights in tie_heavy_weight_cases(rng, 3, sigma_max=sigma, sigma_min=sigma):
            codes.append(RevCanonCode(huffman_lengths(weights)))
    assert any(code.leaves[code.t + 1:code.t2 + 1] != [0] * (code.t2 - code.t)
               for code in codes)   # some code lists depths deeper than t
    for code in codes:
        vals, lens = (a.tolist() for a in code.codeword_arrays())
        shallow = [i for i, l in enumerate(lens, 1) if l <= code.t2]
        assert sorted(code._shallow) == shallow
        assert all(code._shallow[i] == (vals[i - 1], lens[i - 1]) for i in shallow)
        assert code.size_breakdown()["chars"] == len(shallow) * int(np.ceil(np.log2(code.sigma + 1)))
        code._walk = code._one_depth = None
        for i, (v, l) in enumerate(zip(vals, lens), 1):
            if l <= code.t2:
                assert code.encode(i) == (v, l)
            else:
                with pytest.raises(TypeError):
                    code.encode(i)


def test_decode_selects_once_per_codeword_deeper_than_t2(monkeypatch):
    """decode's only wavelet query is one D.select per codeword longer than
    both the root window and t2: with access_rank, access and rank refusing,
    decode and decode_fast at every width read each character's codeword
    back as (c, l), also where D is a matrix of height 0 (one depth) or
    absent (sigma = 1), and select runs once per codeword of more than
    max(t, t2) bits; a shorter one beyond the window is named by chars."""
    codes = [RevCanonCode(huffman_lengths(gen_zipf(200_000, 4096, 1.0, 1).smoothed_freqs())),
             RevCanonCode(list(range(1, 65)) + [64]), RevCanonCode([5] * 32),
             RevCanonCode([12] * 4096), RevCanonCode([0]), RevCanonCode([1, 1]),
             RevCanonCode(FIVE)]
    streams = []
    for code in codes:
        vals, lens = (a.tolist() for a in code.codeword_arrays())
        tables = [build_descent_table(code, t) for t in (1, 4, 8, 16)]
        streams.append((code, tables, pack_bits(vals, lens), lens))

    def refuse(*_):
        raise AssertionError("wavelet query")
    for name in ("access_rank", "access", "rank"):
        monkeypatch.setattr(WaveletTree, name, refuse)
    selects = []
    real = WaveletTree.select
    monkeypatch.setattr(WaveletTree, "select", lambda wt, c, r: selects.append(c) or real(wt, c, r))
    for code, tables, (data, nbits), lens in streams:
        decoders = [(code.t, code.decode)] + [
            (tb.t, functools.partial(code.decode_fast, tb)) for tb in tables]
        for t, decode in decoders:
            selects.clear()
            r = BitReader(data, nbits)
            assert [decode(r) for _ in lens] == list(zip(range(1, code.sigma + 1), lens))
            assert r.remaining == 0
            assert selects == [l for l in lens if l > max(t, code.t2)]


def test_decode_matches_per_bit_descent_random_codes(rng):
    for sigma in (2, 3, 5, 17, 256, 4096):
        for weights in tie_heavy_weight_cases(rng, 5, sigma_max=sigma, sigma_min=sigma):
            code = RevCanonCode(huffman_lengths(weights))
            msg = rng.integers(1, sigma + 1, 150).tolist()
            assert_decodes_like_per_bit(code, code.decode, *pack_codewords(code, msg))
            # every character once, the longest codewords last
            order = sorted(range(1, sigma + 1), key=lambda c: code.depths[c - 1])
            assert_decodes_like_per_bit(code, code.decode, *pack_codewords(code, order))


def test_decode_fast_matches_per_bit_descent_at_every_width(rng):
    """A descent table of any width 1..16, capped at L, decodes as the
    per-bit oracle does: sigma = 1, t > L, 64-bit codewords, cuts."""
    code = RevCanonCode([0])
    for t in range(1, 17):
        table = build_descent_table(code, t)
        assert (table.t, table.root) == (0, [(1, 0)])
        fast, slow = BitReader(b"", 0), BitReader(b"", 0)
        assert code.decode_fast(table, fast) == revcanon_decode_per_bit(code, slow) == (1, 0)
    for lengths in ([1, 1], FIVE, list(range(1, 65)) + [64],
                    huffman_lengths(gen_zipf(50_000, 4096, 1.0, 3).smoothed_freqs())):
        code = RevCanonCode(lengths)
        sigma = code.sigma
        msg = rng.integers(1, sigma + 1, 150).tolist()
        order = sorted(range(1, sigma + 1), key=lambda c: code.depths[c - 1])
        streams = [pack_codewords(code, msg), pack_codewords(code, order)]
        for t in range(1, 17):
            table = build_descent_table(code, t)
            assert table.t == min(t, code.L)
            decode = functools.partial(code.decode_fast, table)
            for data, nbits in streams:
                assert_decodes_like_per_bit(code, decode, data, nbits)


def test_stream_ending_inside_the_root_window():
    """Fewer than t bits left: a whole short codeword decodes, a cut one is
    truncated."""
    code = RevCanonCode(list(range(1, 17)) + [16])     # sigma 17, t = 3
    assert code.t == 3
    for c in range(1, code.sigma + 1):
        v, l = code.encode(c)
        if l < code.t:
            r = BitReader(*pack_bits([v], [l]))
            assert code.decode(r) == (c, l) and r.remaining == 0
        for cut in range(min(l, code.t)):
            r = BitReader(*pack_bits([v >> (l - cut)], [cut]))
            with pytest.raises(TruncatedStream):
                code.decode(r)
            assert r.tell() == 0


# -- defining properties -----------------------------------------------------------

def reversed_prefix(value: int, length: int, k: int) -> str:
    """First k codeword bits, reversed: the sort key at depth k."""
    return bits_of(value, length)[:k][::-1]


def revlex_cmp(a, b) -> int:
    """Order of reversed codewords as a wavelet matrix maintains it.

    Compare the reversed prefixes at the shorter codeword's length; on a
    tie the shorter codeword comes first. (Comparing the full reversed
    strings instead is not what the per-depth construction guarantees:
    the extra leading characters of the longer reverse are its deepest
    edges, which do not exist yet at the depth where the shorter one
    ends.)
    """
    k = min(a[2], b[2])
    ka, kb = reversed_prefix(a[1], a[2], k), reversed_prefix(b[1], b[2], k)
    if ka != kb:
        return -1 if ka < kb else 1
    return (a[2] > b[2]) - (a[2] < b[2])


def test_reverse_lex_monotone_lengths(rng):
    from functools import cmp_to_key
    for _ in range(40):
        sigma = int(rng.integers(2, 600))
        code = RevCanonCode(huffman_lengths(rng.integers(1, 150, sigma).tolist()))
        cws = code.codeword_set()
        ordered = sorted(cws, key=cmp_to_key(revlex_cmp))
        lens = [l for _, _, l in ordered]
        assert lens == sorted(lens)
        # within a length, reversed-lex order equals character order
        by_len: dict[int, list[int]] = {}
        for ch, v, l in ordered:
            by_len.setdefault(l, []).append(ch)
        for l, chars in by_len.items():
            assert chars == sorted(chars)
            keys = [reversed_prefix(v, le, le) for ch, v, le in cws if le == l]
            assert keys == sorted(keys)


def test_per_level_contiguity_of_finished_codewords(rng):
    """At each depth k, codewords that end at k sort (by reversed k-prefix)
    before every longer codeword: the form in which a wavelet matrix can
    drop finished symbols from the front."""
    for _ in range(20):
        sigma = int(rng.integers(2, 500))
        code = RevCanonCode(huffman_lengths(rng.integers(1, 99, sigma).tolist()))
        cws = code.codeword_set()
        for k in range(1, code.L + 1):
            level = sorted((reversed_prefix(v, l, k), l == k)
                           for _, v, l in cws if l >= k)
            seen_longer = False
            for _, finished in level:
                if not finished:
                    seen_longer = True
                else:
                    assert not seen_longer


def test_matches_revlex_tree_oracle_exhaustive():
    """Every Kraft-complete profile with sigma <= 8, characters in a few orders."""
    rng = np.random.default_rng(17)
    for sigma in range(1, 9):
        for ms in kraft_complete_multisets(sigma):
            perms = {ms, tuple(rng.permutation(list(ms)).tolist())}
            for lengths in perms:
                code = RevCanonCode(list(lengths))
                assert_codewords_like_the_ascent(lengths)
                want = revlex_char_codewords(lengths)
                got = [bits_of(v, l) for _, v, l in code.codeword_set()]
                assert got == want, lengths


def test_prefix_free_and_kraft(rng):
    for _ in range(30):
        sigma = int(rng.integers(2, 400))
        code = RevCanonCode(huffman_lengths(rng.integers(1, 60, sigma).tolist()))
        cws = sorted(bits_of(v, l) for _, v, l in code.codeword_set())
        for a, b in zip(cws, cws[1:]):
            assert not b.startswith(a)
        assert sum(2 ** -len(c) for c in cws) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.randoms(use_true_random=False))
def test_oracle_hypothesis(sigma, rnd):
    profiles = kraft_complete_multisets(sigma)
    ms = list(profiles[rnd.randrange(len(profiles))])
    rnd.shuffle(ms)
    code = RevCanonCode(ms)
    assert [bits_of(v, l) for _, v, l in code.codeword_set()] == revlex_char_codewords(ms)


# -- descent table ------------------------------------------------------------------

def test_descent_table_t1_stepwise(rng):
    code = RevCanonCode(FIVE)
    table = build_descent_table(code, 1)
    msg = rng.integers(1, 6, 300).tolist()
    data, nbits = SequenceCodec.for_code(code).encode(msg)
    r1, r2 = BitReader(data, nbits), BitReader(data, nbits)
    for _ in msg:
        assert code.decode_fast(table, r1) == code.decode(r2)


def test_descent_table_single_chunk():
    code = RevCanonCode(FIVE)
    table = build_descent_table(code, 4)
    assert code.decode_fast(table, BitReader(*pack_bits([0b1110], [4]))) == (4, 4)


def test_descent_table_equivalence_random(rng):
    for trial in range(30):
        sigma = int(rng.integers(2, 500))
        code = RevCanonCode(huffman_lengths(rng.integers(1, 80, sigma).tolist()))
        msg = rng.integers(1, sigma + 1, 200).tolist()
        data, nbits = SequenceCodec.for_code(code).encode(msg)
        for t in (1, 4, 8):
            table = build_descent_table(code, t)
            r1, r2 = BitReader(data, nbits), BitReader(data, nbits)
            for _ in msg:
                assert code.decode_fast(table, r1) == code.decode(r2)


def test_descent_table_truncation():
    code = RevCanonCode(FIVE)
    table = build_descent_table(code, 4)
    with pytest.raises(TruncatedStream):
        code.decode_fast(table, BitReader(*pack_bits([0b111], [3])))


def test_descent_table_width_validation():
    code = RevCanonCode(FIVE)
    with pytest.raises(ValueError):
        build_descent_table(code, 0)
    with pytest.raises(ValueError):
        build_descent_table(code, 17)


# -- degenerate alphabet ---------------------------------------------------------

def test_sigma_one():
    code = RevCanonCode([0])
    assert code.encode(1) == (0, 0)
    assert code.decode(BitReader(b"", 0)) == (1, 0)
    assert code.L == 0


def test_select_missing_occurrence_error():
    code = RevCanonCode(FIVE)
    with pytest.raises(NoSuchOccurrence):
        code.D.select(4, 3)  # only two codewords of length 4


def test_model_bits_pinned_on_zipf_4096():
    """The accounted model sizes on the benchmark's point corpus (seed 1) are
    fixed numbers: a change to how the directories are stored must not move them."""
    from ncpc.alphabetic import build_alphabetic_code
    freqs = gen_zipf(200000, 4096, 1.0, seed=1).smoothed_freqs()
    code = RevCanonCode(huffman_lengths(freqs), shape="huffman")
    assert code.size_breakdown() == {"D": 16340, "leaves": 247, "root": 1024, "label": 312,
                                     "chars": 507}
    assert code.model_size_bits() == 18430
    alpha = build_alphabetic_code(freqs)
    assert alpha.size_breakdown() == {"B": 5696, "P": 2709, "A": 9728}
    assert alpha.model_size_bits() == 18133
