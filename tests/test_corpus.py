import math

import numpy as np
import pytest

from conftest import pack_bits_reference
from ncpc.bits import BitReader, pack_bits
from ncpc.corpus import (FAMILY_ALPHA, FAMILY_WMM, container_read, container_write,
                         gen_zipf, ingest, stats)
from ncpc.errors import ContainerError
from ncpc.revcanon import huffman_lengths
from ncpc.stream import SequenceCodec
from ncpc.revcanon import RevCanonCode


# -- ingest -------------------------------------------------------------------

def test_ingest_bytes():
    seq = ingest(b"aba", "bytes")
    assert seq.symbols.tolist() == [1, 2, 1]
    assert seq.sigma == 2
    assert seq.freqs.tolist() == [2, 1]


def test_ingest_u32le_compaction():
    data = np.array([0, 0, 7], dtype="<u4").tobytes()
    seq = ingest(data, "u32le")
    assert seq.symbols.tolist() == [1, 1, 2]
    assert seq.sigma == 2


def test_ingest_u32le_truncated():
    with pytest.raises(ValueError, match="truncated u32"):
        ingest(b"\x01\x02\x03", "u32le")


def test_ingest_tokens_first_occurrence():
    seq = ingest(b"the cat the dog", "tokens")
    assert seq.symbols.tolist() == [1, 2, 1, 3]
    assert seq.sigma == 3


def test_ingest_empty_inputs():
    for mode in ("bytes", "u32le", "tokens"):
        with pytest.raises(ValueError, match="empty"):
            ingest(b"", mode)
    with pytest.raises(ValueError):
        ingest(b"   ", "tokens")


def test_ingest_unknown_mode():
    with pytest.raises(ValueError):
        ingest(b"x", "utf-7")


def test_symbol_sequence_invariants():
    seq = ingest(b"abcabcaa", "bytes")
    assert int(seq.freqs.sum()) == seq.n
    assert seq.symbols.min() >= 1 and seq.symbols.max() <= seq.sigma
    assert seq.smoothed_freqs().min() >= 1


# -- gen_zipf ------------------------------------------------------------------

def test_gen_zipf_deterministic():
    a = gen_zipf(5000, 64, 1.0, 123)
    b = gen_zipf(5000, 64, 1.0, 123)
    assert np.array_equal(a.symbols, b.symbols)
    c = gen_zipf(5000, 64, 1.0, 124)
    assert not np.array_equal(a.symbols, c.symbols)


def test_gen_zipf_skew_zero_near_uniform():
    seq = gen_zipf(64_000, 64, 0.0, 7)
    assert seq.freqs.min() > 600
    assert seq.freqs.max() < 1400


def test_gen_zipf_skew_orders_frequencies():
    seq = gen_zipf(100_000, 256, 1.2, 7)
    f = seq.freqs
    assert f[0] > f[50] > f[200]


def test_gen_zipf_depth_entropy_bound():
    seq = gen_zipf(1_000_000, 4096, 1.0, 42)
    st = stats(seq, "wmm")
    assert 1.0 <= st.depth_entropy <= math.log2(st.max_code_len)


def test_gen_zipf_validation():
    with pytest.raises(ValueError):
        gen_zipf(0, 4, 1.0, 1)
    with pytest.raises(ValueError):
        gen_zipf(4, 0, 1.0, 1)
    with pytest.raises(ValueError):
        gen_zipf(4, 4, -1.0, 1)


# -- stats ----------------------------------------------------------------------

def test_stats_single_symbol_corpus():
    seq = ingest(b"aaaa", "bytes")
    st = stats(seq, "wmm")
    assert st.sigma == 1
    assert st.entropy == 0.0
    assert st.max_code_len == 0
    assert st.depth_entropy == 0.0


def test_stats_uniform_256():
    seq = ingest(bytes(range(256)) * 4, "bytes")
    st = stats(seq, "wmm")
    assert st.sigma == 256
    assert st.max_code_len == 8
    assert st.depth_entropy == 0.0
    assert st.entropy == pytest.approx(8.0)


def test_stats_both_families(rng):
    seq = gen_zipf(20_000, 300, 1.0, 9)
    for family in ("wmm", "alpha"):
        st = stats(seq, family)
        assert st.n == 20_000
        assert st.entropy <= math.log2(300)
        assert 0.0 <= st.depth_entropy <= math.log2(max(2, st.max_code_len))


# -- container --------------------------------------------------------------------

def test_container_roundtrip_five_char():
    code = RevCanonCode([1, 2, 3, 4, 4])
    payload, nbits = SequenceCodec.for_code(code).encode([4])
    blob = container_write([1, 2, 3, 4, 4], FAMILY_WMM, payload, 1)
    cont = container_read(blob)
    assert cont.family == FAMILY_WMM
    assert cont.sigma == 5
    assert cont.n == 1
    assert cont.depths == [1, 2, 3, 4, 4]
    assert BitReader(cont.payload_bytes).read(4) == 0b1110
    assert [a.tolist() for a in cont.codewords] == [a.tolist() for a in code.codeword_arrays()]


def test_container_bad_magic():
    blob = container_write([1, 1], FAMILY_WMM, b"", 0)
    with pytest.raises(ContainerError, match="magic"):
        container_read(b"XXXX" + blob[4:])


def test_container_bad_version():
    blob = bytearray(container_write([1, 1], FAMILY_WMM, b"", 0))
    blob[4] = 9
    with pytest.raises(ContainerError, match="version"):
        container_read(bytes(blob))


def test_container_kraft_validation():
    blob = bytearray(container_write([2, 2, 2, 2], FAMILY_WMM, b"", 0))
    # corrupt one depth field (width=2, depths start at byte 19)
    blob[19] ^= 0b11000000
    with pytest.raises(ContainerError):
        container_read(bytes(blob))


def test_container_alpha_realizability_validation():
    # (2,1,2) satisfies Kraft but is not realizable in order
    with pytest.raises(Exception):
        container_write([2, 1, 2], FAMILY_ALPHA, b"", 0)
    blob = container_write([1, 2, 2], FAMILY_ALPHA, b"", 0)
    assert container_read(blob).depths == [1, 2, 2]


def test_container_sigma1_empty_codeword():
    blob = container_write([0], FAMILY_WMM, b"", 5)
    cont = container_read(blob)
    assert cont.sigma == 1 and cont.n == 5
    code = RevCanonCode(cont.depths)
    out = SequenceCodec.for_code(code).decode(cont.payload_bytes, 5)
    assert out.tolist() == [1] * 5


def test_container_zero_width_depths_need_sigma_one():
    # L = 0 gives zero-width depth fields, so sigma alone must not size the depth list
    blob = bytearray(container_write([0], FAMILY_WMM, b"", 0))
    blob[6:10] = (1 << 20).to_bytes(4, "little")
    with pytest.raises(ContainerError):
        container_read(bytes(blob))


def test_container_refuses_codewords_over_64_bits():
    long = list(range(1, 70)) + [69]
    for family in (FAMILY_WMM, FAMILY_ALPHA):
        with pytest.raises(ValueError, match="64"):
            container_write(long, family, b"", 3)
        ok = container_write(list(range(1, 65)) + [64], family, b"", 0)
        assert max(container_read(ok).depths) == 64  # 64 bits is the limit
    blob = (ok[:6] + (70).to_bytes(4, "little") + (3).to_bytes(8, "little")
            + bytes([69]) + pack_bits(long, 7)[0] + b"\x00" * 40)
    with pytest.raises(ContainerError, match="64"):
        container_read(blob)


def test_container_truncated():
    blob = container_write([1, 1], FAMILY_WMM, b"\xff", 3)
    with pytest.raises(ContainerError):
        container_read(blob[:10])


def test_container_roundtrip_random_models(rng):
    """Bit-exact round trips over random models and payloads."""
    for trial in range(200):
        sigma = int(rng.integers(1, 300))
        freqs = rng.integers(1, 50, sigma).tolist()
        if trial % 2 == 0:
            depths = huffman_lengths(freqs)
            family = FAMILY_WMM
        else:
            from ncpc.alphabetic import build_alphabetic_code
            depths = list(build_alphabetic_code(freqs).depths)
            family = FAMILY_ALPHA
        payload = rng.bytes(int(rng.integers(0, 60)))
        n = int(rng.integers(0, 1000))
        blob = container_write(depths, family, payload, n)
        # one field per depth, the reference for the packed depth array
        fields, _ = pack_bits_reference(depths, [max(depths).bit_length()] * sigma)
        assert blob[19:] == fields + payload
        cont = container_read(blob)
        assert cont.family == family
        assert cont.sigma == sigma
        assert cont.n == n
        assert cont.depths == depths
        assert cont.payload_bytes == payload
        # serialization is canonical: writing back gives identical bytes
        assert container_write(cont.depths, cont.family, cont.payload_bytes, cont.n) == blob


def test_stats_survive_container_roundtrip(rng):
    seq = gen_zipf(5000, 128, 1.0, 3)
    depths = huffman_lengths(seq.smoothed_freqs())
    st0 = stats(seq, "wmm")
    blob = container_write(depths, FAMILY_WMM, b"", seq.n)
    cont = container_read(blob)
    assert max(cont.depths) == st0.max_code_len
    counts = np.bincount(np.asarray(cont.depths))
    p = counts[counts > 0] / len(cont.depths)
    assert float(-(p * np.log2(p)).sum()) == pytest.approx(st0.depth_entropy)
