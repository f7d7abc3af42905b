import numpy as np
import pytest

from ncpc.errors import NoSuchOccurrence
from ncpc.succinct import WaveletTree


def scan_check(wt: WaveletTree, seq: list[int], alpha: int) -> None:
    n = len(seq)
    for i in range(1, n + 1):
        assert wt.access(i) == seq[i - 1]
    for c in range(1, alpha + 1):
        cnt = 0
        for i in range(1, n + 1):
            cnt += seq[i - 1] == c
            assert wt.rank(c, i) == cnt
        occ = [i for i in range(1, n + 1) if seq[i - 1] == c]
        for r, p in enumerate(occ, 1):
            assert wt.select(c, r) == p
        with pytest.raises(NoSuchOccurrence):
            wt.select(c, len(occ) + 1)


def test_symbol_out_of_range():
    with pytest.raises(ValueError):
        WaveletTree([5], 4)


def test_constant_sequence():
    wt = WaveletTree([2, 2, 2], 2)
    assert wt.access(2) == 2
    assert wt.rank(2, 3) == 3
    assert wt.rank(1, 3) == 0
    assert wt.select(2, 3) == 3


def test_alpha_one():
    wt = WaveletTree([1, 1], 1)
    assert wt.access(1) == 1
    assert wt.rank(1, 2) == 2
    assert wt.select(1, 2) == 2


def test_mixed_sequence_examples():
    seq = [1, 2, 3, 4, 4]
    for weights in (None, [1, 1, 1, 1], [2**70, 1, 3, 2]):
        wt = WaveletTree(seq, 4, weights)
        assert wt.access(3) == 3
        assert wt.rank(4, 4) == 1
        assert wt.select(4, 2) == 5


def test_select_rank_inverse(rng):
    seq = rng.integers(1, 17, 500).tolist()
    wt = WaveletTree(seq, 16)
    for i in range(1, len(seq) + 1):
        for c in (seq[i - 1], 1 + (seq[i - 1] % 16)):
            r = wt.rank(c, i)
            if r == 0:
                continue
            p = wt.select(c, r)
            assert p <= i
            assert (p == i) == (seq[i - 1] == c)


def test_random_sequences_against_scan_oracle(rng):
    """200 random sequences, alpha <= 64, shaped by the counts or by random
    weights, some beyond 64 bits."""
    for trial in range(200):
        n = int(rng.integers(1, 4097)) if trial % 10 == 0 else int(rng.integers(1, 260))
        alpha = int(rng.integers(1, 65))
        seq = rng.integers(1, alpha + 1, n).tolist()
        weights = (None if trial % 2 == 0 else
                   [int(x) << int(s) for x, s in zip(rng.integers(1, 1000, alpha),
                                                     rng.integers(0, 70, alpha))])
        wt = WaveletTree(seq, alpha, weights)
        scan_check(wt, seq, min(alpha, 10))
        # spot-check the rest of the alphabet's rank totals
        for c in range(11, alpha + 1, 7):
            assert wt.rank(c, n) == seq.count(c)


def test_huffman_skewed_shape_is_shallow(rng):
    seq = [1] * 1000 + rng.integers(2, 9, 40).tolist()
    wt = WaveletTree(seq, 8)
    assert wt._codes[1][1] == 1     # the frequent symbol leaves after one level
    assert wt._levels[1][0].n_bits == 40
    assert wt.access(1) == 1


def test_access_rank_fuses_access_and_rank(rng):
    skewed = [3] * 500 + rng.integers(1, 9, 60).tolist()
    rng.shuffle(skewed)
    cases = [(rng.integers(1, 13, 700).tolist(), 12),   # random
             (skewed, 8),                               # heavily skewed
             ([5] * 40, 9),                             # one distinct value
             ([1] * 30, 1)]                             # alpha = 1
    for seq, alpha in cases:
        for weights in (None, list(range(alpha, 0, -1))):
            wt = WaveletTree(seq, alpha, weights)
            for i in range(1, len(seq) + 1):
                c = wt.access(i)
                assert wt.access_rank(i) == (c, wt.rank(c, i))
            for c in set(seq):
                with pytest.raises(NoSuchOccurrence):
                    wt.select(c, seq.count(c) + 1)
            with pytest.raises(IndexError):
                wt.access_rank(len(seq) + 1)


def test_huffman_shape_is_the_reverse_canonical_code_of_the_counts(rng):
    from ncpc.codewords import huffman_lengths, revcanon_codewords
    seq = rng.integers(1, 20, 900).tolist() + [7] * 400
    wt = WaveletTree(seq, 24)
    present = sorted(set(seq))
    vals, lens = revcanon_codewords(huffman_lengths([seq.count(c) for c in present]))
    assert {c: wt._codes[c][:2] for c in present} == dict(
        zip(present, zip(vals.tolist(), lens.tolist())))
    assert wt.height == max(lens.tolist())


def test_weighted_shape_is_the_reverse_canonical_code_of_the_weights(rng):
    from ncpc.codewords import huffman_lengths, revcanon_codewords
    seq = rng.integers(1, 20, 900).tolist() + [7] * 400
    weights = [int(x) << 64 for x in rng.integers(1, 10**6, 24)]   # beyond int64
    weights[2] = 1                                                # a rare value's weight
    wt = WaveletTree(seq, 24, weights)
    present = sorted(set(seq))
    vals, lens = revcanon_codewords(huffman_lengths([weights[c - 1] for c in present]))
    assert {c: wt._codes[c][:2] for c in present} == dict(
        zip(present, zip(vals.tolist(), lens.tolist())))
    assert wt.height == max(lens.tolist())
    # the counts play no part: rare symbol 3 keeps its long codeword at any count
    assert wt._codes[3][:2] == WaveletTree(seq + [3] * 5000, 24, weights)._codes[3][:2]
    scan_check(wt, seq, 24)
    with pytest.raises(ValueError):
        WaveletTree(seq, 24, weights[:-1])


def test_size_bits_has_no_select_sample_term(rng):
    seq = rng.integers(1, 13, 5000).tolist() + [4] * 3000
    wt = WaveletTree(seq, 12)
    levels = [bv for bv, *_ in wt._levels]
    assert levels and all(bv._samples == [] and bv.select_sample_bits() == 0 for bv in levels)
    expect = sum(bv.n_bits + bv.directory_bits() + bv.n_bits.bit_length() for bv in levels)
    expect += sum((levels[ln - 1].n_bits if ln else wt.sigma_seq).bit_length()
                  for _, ln, _, _ in wt._codes.values())
    expect += 12 * (12).bit_length()
    assert wt.size_bits() == expect


def test_empty_sequence():
    for weights in (None, [1, 2, 3, 4]):
        wt = WaveletTree([], 4, weights)
        assert wt.rank(2, 0) == 0
        with pytest.raises(NoSuchOccurrence):
            wt.select(2, 1)
        with pytest.raises(IndexError):
            wt.access(1)


def test_deep_huffman_shape_against_scan_oracle(rng):
    """Fibonacci counts give a matrix 11 levels high whose upper levels span
    many superblocks and whose deepest level still spans two words."""
    counts = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
    seq = np.repeat(np.arange(1, 13), [40 * c for c in counts])
    rng.shuffle(seq)
    seq = seq.tolist()
    wt = WaveletTree(seq, 12)
    assert wt.height == 11
    sizes = [bv.n_bits for bv, *_ in wt._levels]
    assert sizes[0] > 8 * 512 and sizes[-1] > 64
    seen = [0] * 13
    for i, c in enumerate(seq, 1):
        seen[c] += 1
        assert wt.access_rank(i) == (c, seen[c])
        assert wt.select(c, seen[c]) == i
    arr = np.array(seq)
    for c in range(1, 13):
        before = np.concatenate(([0], np.cumsum(arr == c)))
        for i in range(0, len(seq) + 1, 7):
            assert wt.rank(c, i) == before[i]


def test_level_sizes_off_byte_boundaries_against_scan_oracle(rng):
    """Halving counts give a matrix six levels high, shaped by the counts or
    by weights, whose every level ends inside a byte."""
    counts = [101, 50, 27, 14, 7, 3, 1]
    seq = np.repeat(np.arange(1, 8), counts)
    rng.shuffle(seq)
    seq = seq.tolist()
    for weights in (None, [1, 2, 3, 4, 5, 6, 7]):
        wt = WaveletTree(seq, 7, weights)
        sizes = [bv.n_bits for bv, *_ in wt._levels]
        assert sizes and all(s % 8 for s in sizes), sizes
        scan_check(wt, seq, 7)
