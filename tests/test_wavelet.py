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


def test_balanced_level_count():
    wt = WaveletTree([1, 2, 3, 4, 4], 4, "balanced")
    assert wt.height == 2
    assert len(wt._levels) == 2


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
    for shape in ("balanced", "huffman"):
        wt = WaveletTree(seq, 4, shape)
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
    """200 random sequences, both shapes, alpha <= 64."""
    for trial in range(200):
        n = int(rng.integers(1, 4097)) if trial % 10 == 0 else int(rng.integers(1, 260))
        alpha = int(rng.integers(1, 65))
        seq = rng.integers(1, alpha + 1, n).tolist()
        shape = "balanced" if trial % 2 == 0 else "huffman"
        wt = WaveletTree(seq, alpha, shape,
                         select_sample=int(rng.choice([16, 32, 64, 128])))
        scan_check(wt, seq, min(alpha, 10))
        # spot-check the rest of the alphabet's rank totals
        for c in range(11, alpha + 1, 7):
            assert wt.rank(c, n) == seq.count(c)


def test_huffman_skewed_shape_is_shallow(rng):
    seq = [1] * 1000 + rng.integers(2, 9, 40).tolist()
    wt = WaveletTree(seq, 8, "huffman")
    wtb = WaveletTree(seq, 8, "balanced")
    assert wt.size_bits() < wtb.size_bits()
    assert wt.access(1) == 1


def test_access_rank_fuses_access_and_rank(rng):
    skewed = [3] * 500 + rng.integers(1, 9, 60).tolist()
    rng.shuffle(skewed)
    cases = [(rng.integers(1, 13, 700).tolist(), 12),   # random
             (skewed, 8),                               # heavily skewed
             ([5] * 40, 9),                             # one distinct value
             ([1] * 30, 1)]                             # alpha = 1
    for seq, alpha in cases:
        for shape in ("balanced", "huffman"):
            wt = WaveletTree(seq, alpha, shape)
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
    wt = WaveletTree(seq, 24, "huffman")
    present = sorted(set(seq))
    vals, lens = revcanon_codewords(huffman_lengths([seq.count(c) for c in present]))
    assert {c: wt._codes[c][:2] for c in present} == dict(
        zip(present, zip(vals.tolist(), lens.tolist())))
    assert wt.height == max(lens.tolist())


def test_empty_sequence():
    for shape in ("balanced", "huffman"):
        wt = WaveletTree([], 4, shape)
        assert wt.rank(2, 0) == 0
        with pytest.raises(NoSuchOccurrence):
            wt.select(2, 1)
        with pytest.raises(IndexError):
            wt.access(1)
