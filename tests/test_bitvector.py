import numpy as np
import pytest

from ncpc.succinct import _SEL0, _SEL8, Bitvector


def scan_check(bv: Bitvector, bits: list[int]) -> None:
    """Compare rank/access at every position and select at every rank
    against a linear scan."""
    acc = 0
    assert bv.rank1(0) == 0
    ones = []
    zeros = []
    rank1 = bv.rank1
    access = bv.access
    for i, b in enumerate(bits, 1):
        acc += b
        assert rank1(i) == acc
        assert access(i) == b
        (ones if b else zeros).append(i)
    assert bv.ones == len(ones)
    select1 = bv.select1
    for r, p in enumerate(ones, 1):
        assert select1(r) == p
    select0 = bv.select0
    for r, p in enumerate(zeros, 1):
        assert select0(r) == p


def test_empty():
    bv = Bitvector("")
    assert bv.n_bits == 0
    assert bv.rank1(0) == 0
    with pytest.raises(ValueError):
        bv.select1(1)


def test_small_examples():
    bv = Bitvector("10010")
    assert bv.rank1(3) == 1
    assert bv.rank1(0) == 0
    assert bv.rank1(4) == 2
    assert bv.rank1(5) == 2
    assert bv.access(1) == 1
    assert bv.access(2) == 0
    assert bv.select1(1) == 1
    assert bv.select1(2) == 4
    with pytest.raises(IndexError):
        bv.access(6)
    with pytest.raises(IndexError):
        bv.rank1(6)
    with pytest.raises(ValueError):
        bv.select1(3)


def test_single_and_all_ones():
    bv = Bitvector("1")
    assert bv.access(1) == 1 and bv.select1(1) == 1
    bv = Bitvector("1" * 64)
    assert bv.rank1(64) == 64
    assert bv.select1(64) == 64


def test_select_invariants_random(rng):
    bits = (rng.random(3000) < 0.3).astype(np.uint8)
    bv = Bitvector(bits)
    for r in range(1, bv.ones + 1):
        p = bv.select1(r)
        assert bv.access(p) == 1
        assert bv.rank1(p) == r


def test_random_vectors_against_scan_oracle(rng):
    """1000 random bitvectors over lengths 0..10^4 and densities .01/.5/.99."""
    densities = [0.01, 0.5, 0.99]
    for trial in range(1000):
        # cover the full length range while keeping the suite quick: a core
        # of small vectors plus a slice of large ones up to 10^4
        n = int(rng.integers(0, 10_001)) if trial % 5 == 0 else int(rng.integers(0, 600))
        d = densities[trial % 3]
        bits = (rng.random(n) < d).astype(np.uint8).tolist()
        scan_check(Bitvector(bits), bits)


def test_directory_overhead_near_37_percent():
    bv = Bitvector("1" * 51200)
    assert bv.directory_bits() / bv.n_bits == pytest.approx(0.375, rel=0.02)


@pytest.mark.parametrize("n", [0, 1, 64, 511, 512, 513, 4097, 65537])
def test_accounting_is_the_two_level_formula(n, rng):
    """64 bits per 512-bit superblock (one past the end included) plus 16 per
    64-bit block, however the directory is stored, and no select samples."""
    bits = (rng.random(n) < 0.5).astype(np.uint8)
    bv = Bitvector(bits)
    nwords = -(-n // 64)
    directory = 64 * (nwords // 8 + 1) + 16 * nwords
    assert bv.directory_bits() == directory
    assert bv.size_bits() == n + directory


@pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 17, 63, 64, 65, 511, 512, 513,
                               4095, 4096, 4097])
def test_word_and_superblock_boundaries_against_scan_oracle(n, rng):
    for bits in (np.zeros(n, dtype=np.uint8), (rng.random(n) < 0.5).astype(np.uint8),
                 np.ones(n, dtype=np.uint8)):
        scan_check(Bitvector(bits), bits.tolist())


def test_select_tables_against_scan():
    """_SEL8[b][k] and _SEL0[b][k] are the k-th 1-bit and 0-bit of byte b,
    for all 256 bytes and every k from 1 to the byte's count."""
    for b in range(256):
        ones = [p for p in range(8) if b >> p & 1]
        zeros = [p for p in range(8) if not b >> p & 1]
        assert [_SEL8[b][k] for k in range(1, len(ones) + 1)] == ones
        assert [_SEL0[b][k] for k in range(1, len(zeros) + 1)] == zeros
        assert len(_SEL8[b]) == len(ones) + 1 and len(_SEL0[b]) == len(zeros) + 1
