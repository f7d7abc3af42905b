import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (TreeCodec, all_ordered_profiles, alphabetic_tables_brute,
                      brute_optimal_cost, garsia_wachs_reference, optimal_depths_dp,
                      tie_heavy_weight_cases)
from ncpc.alphabetic import (DepthProfile, alphabetic_profile, balance_at_cutoff,
                             balanced_run_depths, build_alphabetic_code, build_height_restricted,
                             build_optimal_alphabetic, canonical_codewords,
                             compile_code, cutoff_for, expected_length,
                             garsia_wachs, height_cap_for)
from ncpc.corpus import gen_zipf
from ncpc.bits import BitReader, pack_bits
from ncpc.errors import KraftViolation, TruncatedStream


def cost(freqs, depths):
    return sum(f * d for f, d in zip(freqs, depths))


# -- optimal tree construction ----------------------------------------------

def test_uniform_power_of_two():
    prof = build_optimal_alphabetic([1, 1, 1, 1])
    assert prof.depths == (2, 2, 2, 2)


def test_single_symbol():
    assert build_optimal_alphabetic([1]).depths == (0,)


def test_valley_weights_8118():
    freqs = [8, 1, 1, 8]
    best = brute_optimal_cost(freqs)  # enumerates all Catalan(3)=5 shapes
    assert best == 30
    prof = build_optimal_alphabetic(freqs)
    assert cost(freqs, prof.depths) == best


def test_empty_alphabet_rejected():
    with pytest.raises(ValueError):
        build_optimal_alphabetic([])


def test_gw_matches_enumeration_small(rng):
    for trial in range(300):
        sigma = int(rng.integers(1, 13))
        if trial % 3 == 0:
            freqs = [1] * sigma
        elif trial % 3 == 1:
            freqs = rng.integers(1, 4, sigma).tolist()
        else:
            freqs = rng.integers(1, 200, sigma).tolist()
        best = brute_optimal_cost(freqs)
        prof = build_optimal_alphabetic(freqs)  # validates realizability too
        assert cost(freqs, prof.depths) == best


def test_gw_matches_dp_moderate(rng):
    for _ in range(40):
        sigma = int(rng.integers(2, 170))
        freqs = rng.integers(1, 10_000, sigma).tolist()
        g = garsia_wachs(freqs)
        d = optimal_depths_dp(freqs)
        assert cost(freqs, g) == cost(freqs, d)


def test_gw_identical_to_reference_random(rng):
    for freqs in tie_heavy_weight_cases(rng, 2500):
        assert garsia_wachs(freqs) == garsia_wachs_reference(freqs), freqs


def test_gw_identical_to_reference_zipf_4096():
    freqs = gen_zipf(200_000, 4096, 1.0, 1).smoothed_freqs()
    assert garsia_wachs(freqs) == garsia_wachs_reference(freqs)


def test_profile_codewords_computed_once():
    prof = DepthProfile((1, 2, 3, 3))
    assert prof.codewords() is prof.codewords()
    assert list(prof.codewords()) == canonical_codewords(prof.depths)


# -- height-restricted DP -----------------------------------------------------

def test_height_restricted_uniform():
    assert build_height_restricted([1, 1, 1, 1], 2).depths == (2, 2, 2, 2)


def test_height_restricted_sigma5_h3(rng):
    for _ in range(20):
        freqs = rng.integers(1, 30, 5).tolist()
        prof = build_height_restricted(freqs, 3)
        assert sum(2 ** (3 - d) for d in prof.depths) == 8  # Kraft equality at H=3
        assert cost(freqs, prof.depths) == brute_optimal_cost(freqs, height_cap=3)


def test_height_restricted_infeasible():
    with pytest.raises(ValueError):
        build_height_restricted([1, 1, 1, 1], 1)


def test_height_restricted_matches_enumeration(rng):
    for _ in range(120):
        sigma = int(rng.integers(1, 10))
        lo = (sigma - 1).bit_length()
        H = int(rng.integers(lo, sigma + 2))
        freqs = rng.integers(1, 60, sigma).tolist()
        prof = build_height_restricted(freqs, H)
        assert prof.height <= H
        assert cost(freqs, prof.depths) == brute_optimal_cost(freqs, height_cap=H)


# -- balancing ---------------------------------------------------------------

def test_balanced_run_split():
    assert balanced_run_depths(1) == [0]
    assert balanced_run_depths(2) == [1, 1]
    assert balanced_run_depths(3) == [2, 2, 1]
    assert balanced_run_depths(4) == [2, 2, 2, 2]
    assert balanced_run_depths(5) == [3, 3, 2, 2, 2]


def test_balance_subtree_r3_at_cutoff2():
    prof = DepthProfile((1, 4, 4, 3, 3, 4, 4))
    bal = balance_at_cutoff(prof, 2)
    assert bal.depths == (1, 4, 4, 3, 4, 4, 3)


def test_balance_power_of_two_unchanged():
    prof = DepthProfile((2, 2, 2, 2))
    assert balance_at_cutoff(prof, 1).depths == prof.depths


def test_balance_all_shallow_unchanged():
    prof = DepthProfile((2, 2, 2, 2))
    assert balance_at_cutoff(prof, 3).depths == prof.depths


def test_balance_preserves_shallow_and_caps_height(rng):
    for _ in range(40):
        sigma = int(rng.integers(2, 120))
        prof = build_optimal_alphabetic(rng.integers(1, 50, sigma).tolist())
        c = int(rng.integers(1, max(2, prof.height)))
        bal = balance_at_cutoff(prof, c)
        for d0, d1 in zip(prof.depths, bal.depths):
            if d0 <= c:
                assert d1 == d0
        assert bal.height <= c + max(1, (sigma - 1).bit_length())


# -- compile + codec ----------------------------------------------------------

def test_compile_sigma4_B_S_A():
    code = compile_code(DepthProfile((2, 2, 2, 2)), 4)
    assert [code.B.access(i) for i in range(1, 5)] == [1, 0, 1, 0]
    assert code.S == [(0b00, 2), (0b10, 2)]
    assert code.A == [1, 3]


def test_compile_sigma1_degenerate():
    code = compile_code(DepthProfile((0,)), 1)
    assert code.B.access(1) == 1 and code.B.n_bits == 1
    assert code.S == [(0, 0)]
    assert code.A == [(1, 0)]
    assert alphabetic_tables_brute(code.depths, code.cutoff) == ([1], code.S, code.A)
    assert code.encode(1) == (0, 0)
    r = BitReader(b"", 0)
    assert code.decode(r) == (1, 0)
    assert r.tell() == 0
    assert code.size_breakdown() == {"B": 8, "S": 0, "A": 0}


def test_B_S_A_match_brute_force_oracle(rng):
    sigmas = [2, 3, 600] + rng.integers(2, 601, 40).tolist()
    codes = [build_alphabetic_code(rng.integers(1, 1000, s).tolist()) for s in sigmas]
    codes.append(build_alphabetic_code(gen_zipf(200_000, 4096, 1.0, 1).smoothed_freqs()))
    for code in codes:
        B, S, A = alphabetic_tables_brute(code.depths, code.cutoff)
        assert [code.B.access(i) for i in range(1, code.sigma + 1)] == B
        assert code.S == S
        assert code.A == A


def test_compile_rejects_unbalanced_subtree():
    # depths realizable but the cutoff-depth subtree is a vine, not balanced
    prof = DepthProfile((1, 2, 4, 4, 3))
    with pytest.raises(KraftViolation):
        compile_code(prof, 5)


def test_encode_examples_sigma4():
    code = compile_code(DepthProfile((2, 2, 2, 2)), 4)
    assert code.encode(2) == (0b01, 2)
    assert code.encode(3) == (0b10, 2)
    with pytest.raises(IndexError):
        code.encode(5)
    with pytest.raises(IndexError):
        code.encode(0)


def test_decode_examples_sigma4():
    code = compile_code(DepthProfile((2, 2, 2, 2)), 4)
    assert code.decode(BitReader(*pack_bits([0b11], [2]))) == (4, 2)
    assert code.decode(BitReader(*pack_bits([0b00], [2]))) == (1, 2)
    with pytest.raises(TruncatedStream):
        code.decode(BitReader(b"", 0))


def test_subtree_arithmetic_example():
    # sigma=7 gives cutoff=2; the subtree at prefix 10 has r=3 leaves and its
    # leftmost codeword is 1000 (length cutoff+h=4)
    prof = DepthProfile((2, 2, 4, 4, 3, 3, 3))
    code = compile_code(prof, 7)
    assert code.cutoff == 2
    assert code.encode(3) == (0b1000, 4)
    assert code.encode(4) == (0b1001, 4)
    # i = i' + 2: 1000/2 + 2 - (3 - 2) = 101, one bit shorter
    assert code.encode(5) == (0b101, 3)
    # stream 1011: d = 1011 - 1000 = 3 >= 2r - 2^h = 2 -> char i'+2, length 3
    r = BitReader(*pack_bits([0b1011], [4]))
    assert code.decode(r) == (5, 3)
    assert r.remaining == 1


def test_codec_agrees_with_explicit_tree_reference(rng):
    for trial in range(60):
        sigma = int(rng.integers(2, 600))
        code = build_alphabetic_code(rng.integers(1, 1000, sigma).tolist())
        ref = TreeCodec(code.depths)
        for i in range(1, sigma + 1):
            assert code.encode(i) == ref.encode(i)
        msg = rng.integers(1, sigma + 1, 60).tolist()
        r = BitReader(*pack_bits(*zip(*[ref.encode(m) for m in msg])))
        for m in msg:
            c, _ = code.decode(r)
            assert c == m


def test_roundtrip_all_small_sigma(rng):
    for sigma in range(2, 70):
        code = build_alphabetic_code(rng.integers(1, 100, sigma).tolist())
        r = BitReader(*pack_bits(*zip(*[code.encode(i) for i in range(1, sigma + 1)])))
        for i in range(1, sigma + 1):
            c, l = code.decode(r)
            assert c == i and l == code.encode(i)[1]


def test_alphabetic_order_and_prefix_freeness(rng):
    for sigma in (2, 17, 256, 800):
        code = build_alphabetic_code(rng.integers(1, 500, sigma).tolist())
        cap = code.height_cap if sigma > 1 else 1
        cws = canonical_codewords(code.depths)
        aligned = [v << (cap - l) for v, l in cws]
        assert all(a < b for a, b in zip(aligned, aligned[1:]))
        # prefix-freeness via sorted adjacency
        seen = sorted((format(v, f"0{l}b") for v, l in cws))
        for a, b in zip(seen, seen[1:]):
            assert not b.startswith(a)


def test_expected_length():
    assert expected_length(DepthProfile((2, 2, 2, 2)), [1, 1, 1, 1]) == 2
    assert expected_length(DepthProfile((0,)), [7]) == 0
    assert expected_length(DepthProfile((1, 1)), [3, 1]) == 1
    assert expected_length(DepthProfile((1, 2, 2)), [1, 1, 1]) == Fraction(5, 3)


def test_quality_bound_composition(rng):
    """expected(T_bal) <= (1 + 1/ceil(sqrt(lg s))) * (H / cutoff) * expected(T_opt)."""
    for trial in range(25):
        sigma = int(rng.integers(16, 320))
        style = trial % 3
        if style == 0:
            freqs = rng.integers(1, 100, sigma).tolist()
        elif style == 1:
            freqs = (rng.zipf(1.5, sigma) + 1).tolist()
        else:
            freqs = [max(1, int(1e9 * 0.5 ** i)) for i in range(sigma)]
        code = build_alphabetic_code(freqs)
        opt = build_optimal_alphabetic([max(1, f) for f in freqs])
        lg = math.log2(sigma)
        factor = ((1 + Fraction(1, math.ceil(math.sqrt(lg))))
                  * Fraction(height_cap_for(sigma), cutoff_for(sigma)))
        got = expected_length(DepthProfile(code.depths), freqs)
        bound = factor * expected_length(opt, freqs)
        assert got <= bound


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=10))
def test_gw_optimal_hypothesis(freqs):
    prof = build_optimal_alphabetic(freqs)
    assert cost(freqs, prof.depths) == brute_optimal_cost(freqs)


def test_cutoff_and_cap_formulas():
    assert cutoff_for(4096) == 9
    assert height_cap_for(4096) == 18
    assert cutoff_for(1024) == 7
    assert height_cap_for(1024) == 16
    assert cutoff_for(4) == 1
    assert cutoff_for(2) == 1  # clamped


def test_profile_weight_inputs(rng):
    """numpy integer arrays, floats (truncated by int), Python ints past 64
    bits and weights below 1 (smoothed to 1) give the profile of the same
    weights as a list of ints."""
    freqs = rng.integers(0, 60, 200).tolist()
    want = alphabetic_profile([max(1, f) for f in freqs]).depths
    for same in (np.array(freqs), np.array(freqs, dtype=np.uint16), np.array(freqs) + 0.5,
                 [f - 5 if f < 1 else f for f in freqs]):
        assert alphabetic_profile(same).depths == want
    assert alphabetic_profile([max(1, f) << 70 for f in freqs]).depths == want
    assert alphabetic_profile(np.array([3, 0, -2, 3])).depths == alphabetic_profile([3, 1, 1, 3]).depths
    with pytest.raises(ValueError):
        alphabetic_profile(np.array([], dtype=np.int64))


def test_zero_frequencies_smoothed():
    code = build_alphabetic_code([5, 0, 0, 5])
    assert len(code.depths) == 4
    assert all(d >= 1 for d in code.depths)
