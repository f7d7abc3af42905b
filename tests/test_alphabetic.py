import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (TreeCodec, all_ordered_profiles, alphabetic_tables_brute,
                      balance_at_cutoff_reference, balanced_run_depths, brute_optimal_cost,
                      build_height_restricted_reference, canonical_codewords_reference,
                      cutoff_runs_reference, garsia_wachs_reference, optimal_depths_dp,
                      tie_heavy_weight_cases)
from ncpc.alphabetic import (DepthProfile, _cutoff_runs, alphabetic_codewords, alphabetic_profile,
                             balance_at_cutoff, build_alphabetic_code, build_height_restricted,
                             build_optimal_alphabetic, canonical_codewords,
                             compile_code, cutoff_for, expected_length,
                             garsia_wachs, height_cap_for)
from ncpc.corpus import gen_zipf
from ncpc.bits import BitReader, pack_bits
from ncpc.errors import KraftViolation, TruncatedStream
from ncpc.succinct import Bitvector


def cost(freqs, depths):
    return sum(f * d for f, d in zip(freqs, depths))


# -- optimal tree construction ----------------------------------------------

def test_uniform_power_of_two():
    prof = build_optimal_alphabetic([1, 1, 1, 1])
    assert prof.depths == (2, 2, 2, 2)


def test_single_symbol():
    assert build_optimal_alphabetic([1]).depths == (0,)


def test_one_character_weights_are_validated_as_wider_ones():
    """A lone zero, negative or non-integer weight is refused as two of them
    are, before the cap is checked; alphabetic_profile lifts zeros first."""
    from ncpc.codewords import huffman_lengths
    builders = (garsia_wachs, build_optimal_alphabetic, huffman_lengths,
                lambda f: build_height_restricted(f, 3), lambda f: build_height_restricted(f, -1))
    for freqs in ([0], [-3], ["x"]):
        for build in builders:
            with pytest.raises(ValueError) as one:
                build(freqs)
            with pytest.raises(ValueError) as two:
                build(freqs * 2)
            assert str(one.value) == str(two.value)
    with pytest.raises(ValueError, match="infeasible"):
        build_height_restricted([1], -1)
    assert build_height_restricted([1], 0).depths == (0,)
    assert alphabetic_profile([0]).depths == (0,)


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


def outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as e:  # compared, not handled
        return type(e), str(e)


def test_array_builders_match_the_per_character_references(rng):
    """Codeword values, cutoff runs and prefixes, balanced depths, compile's
    balance check, and the exception type and message of every refusal,
    against the per-character loops, for the depths as a tuple and as an
    int64 array: every ordered profile up to 7 leaves,
    each of those up to 6 leaves with one depth moved by one, Garsia-Wachs
    profiles of tie-heavy weights, chains 61..64 and 70 levels tall (above
    62 the positions are Python ints), and negative, all-negative,
    unaligned, overfull and underfull profiles, alone and in either order."""
    valid = [p for m in range(1, 8) for p in all_ordered_profiles(m)]
    valid += [tuple(garsia_wachs(w)) for w in tie_heavy_weight_cases(rng, 300)]
    valid += [tuple(range(1, L + 1)) + (L,) for L in (61, 62, 63, 64, 70)]
    moved = [p[:i] + (p[i] + s,) + p[i + 1:] for m in range(1, 7) for p in all_ordered_profiles(m)
             for i in range(m) for s in (-1, 1)]
    invalid = [(), (-1,), (-1, -2), (1, -1, 1), (-1, 2, 1, 2), (2, 1, 2), (2, 1, 2, -1),
               (1, 2, 2, -5), (1, 1, 1), (0, 0), (1, 1, 1, -1), (1, 1, 2, 1), (1, 2), (1,),
               (2, 2, 1, 3), (1, 3, 3, 2, 2), tuple(range(1, 71)), tuple(range(1, 71)) + (70, 1)]
    refusals = 0
    for depths in valid + moved + invalid:
        want = outcome(canonical_codewords_reference, depths)
        refusals += isinstance(want, tuple)
        assert outcome(canonical_codewords, depths) == want, depths
        got = outcome(lambda: DepthProfile(depths).depths)
        assert got == (want if isinstance(want, tuple) else depths), depths
        arr = np.array(depths, dtype=np.int64)
        assert outcome(canonical_codewords, arr) == want, depths
        assert outcome(lambda: DepthProfile(arr).depths) == got, depths
        if not depths or max(depths) <= 64:
            got = outcome(lambda: [a.tolist() for a in alphabetic_codewords(depths)])
            assert got == (want if isinstance(want, tuple) else
                           [[v for v, _ in want], list(depths)]), depths
            assert outcome(lambda: [a.tolist() for a in alphabetic_codewords(arr)]) == got, depths
    assert refusals == len(moved) + len(invalid)  # moving one depth by one breaks the Kraft sum
    for depths in valid:
        prof = DepthProfile(depths)
        cws = canonical_codewords_reference(depths)
        for c in range(prof.height + 2):
            starts, counts, prefixes = _cutoff_runs(prof, c)
            runs = list(cutoff_runs_reference(depths, c))
            assert list(zip(starts.tolist(), (starts + counts).tolist())) == runs, (depths, c)
            assert prefixes.tolist() == [v << (c - d) if d <= c else v >> (d - c)
                                         for v, d in (cws[i] for i, _ in runs)]
            balanced = balance_at_cutoff_reference(depths, c)
            assert balance_at_cutoff(prof, c).depths == balanced, (depths, c)
        if 1 < prof.sigma and prof.height <= height_cap_for(prof.sigma):
            is_balanced = balance_at_cutoff_reference(depths, cutoff_for(prof.sigma)) == depths
            got = outcome(lambda: compile_code(prof, prof.sigma).depths)
            assert got == (depths if is_balanced else
                           (KraftViolation, "subtree below the cutoff is not completely balanced"))


def test_depth_profile_copies_an_int64_array():
    """The profile holds its depths as a tuple of Python ints and keeps no
    tie to the caller's array."""
    arr = np.array([1, 2, 2], dtype=np.int64)
    prof = DepthProfile(arr)
    arr[0] = 5
    assert prof.depths == (1, 2, 2) and prof._d.tolist() == [1, 2, 2]
    assert all(type(d) is int for d in prof.depths)


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


def test_height_restricted_optimal_past_float64(rng):
    """Optimal among capped trees by enumeration where float64 sums are not
    exact: weights {1, 2, 3, b, b + 5} at sigma 4..8, with b = 2^55 (costs in
    int64) and b = 2^60 (costs past int64, as Python ints)."""
    for big in (1 << 55, 1 << 60):
        for _ in range(150):
            sigma = int(rng.integers(4, 9))
            freqs = rng.choice([1, 2, 3, big, big + 5], sigma).tolist()
            H = int(rng.integers((sigma - 1).bit_length(), sigma))
            prof = build_height_restricted(freqs, H)
            assert prof.height <= H
            assert cost(freqs, prof.depths) == brute_optimal_cost(freqs, height_cap=H), (freqs, H)


def dp_weight_cases(rng, count: int, sigma_max: int):
    """Weight vectors for the DP cases, cycling through the five kinds of
    tie_heavy_weight_cases, equal weights, 2^U(0, 62), 0.7^i * 10^15 and
    four values {1, 3, 1000, 10^6}, each of random length 2..sigma_max."""
    ties = tie_heavy_weight_cases(rng, count, sigma_max, sigma_min=2)
    for case in range(count):
        sigma = int(rng.integers(2, sigma_max + 1))
        kind = case % 5
        if kind == 0:
            yield next(ties)
        elif kind == 1:
            yield [7] * sigma
        elif kind == 2:
            yield [int(2 ** x) for x in rng.uniform(0, 62, sigma)]
        elif kind == 3:
            yield [int(0.7 ** i * 10**15) + 1 for i in range(sigma)]
        else:
            yield rng.choice([1, 3, 1000, 10**6], sigma).tolist()


def test_height_restricted_identical_to_reference(rng):
    """The same depths as the row-slice DP, not merely the same cost, at
    every cap from ceil(lg sigma) to height_cap_for(sigma) and at sigma - 1:
    random weights and the weight kinds of dp_weight_cases, then two sigma
    256 cases at their cap, the byte counts 4096 >> b (at least 1) and
    geometric weights 0.7^i * 10^15."""
    cases = [rng.integers(1, 1000, int(rng.integers(2, 33))).tolist() for _ in range(20)]
    cases += list(dp_weight_cases(rng, 40, 32))
    for freqs in cases:
        sigma = len(freqs)
        for cap in [*range((sigma - 1).bit_length(), height_cap_for(sigma) + 1), sigma - 1]:
            want = build_height_restricted_reference(freqs, cap).depths
            assert build_height_restricted(freqs, cap).depths == want, (freqs, cap)
    for freqs in ([max(1, 4096 >> b) for b in range(256)],
                  [int(0.7 ** i * 10**15) + 1 for i in range(256)]):
        want = build_height_restricted_reference(freqs, 13).depths
        assert build_height_restricted(freqs, 13).depths == want


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
    assert code.P == [0b0, 0b1]  # cutoff 1: the first bit of 00 and of 10
    assert code.A == [(1, 2, 1, 1), (3, 2, 1, 1)]  # two runs of r = 2, h = 1


def test_compile_sigma1_degenerate():
    code = compile_code(DepthProfile((0,)), 1)
    assert code.B.access(1) == 1 and code.B.n_bits == 1
    assert code.P == [0]
    assert code.A == [(1, 0)]
    assert alphabetic_tables_brute(code.depths, code.cutoff) == ([1], code.P, code.A)
    assert code.encode(1) == (0, 0)
    r = BitReader(b"", 0)
    assert code.decode(r) == (1, 0)
    assert r.tell() == 0
    assert code.size_breakdown() == {"B": 8, "P": 0, "A": 0}


def test_B_S_A_match_brute_force_oracle(rng):
    sigmas = [2, 3, 600] + rng.integers(2, 601, 40).tolist()
    codes = [build_alphabetic_code(rng.integers(1, 1000, s).tolist()) for s in sigmas]
    codes.append(build_alphabetic_code(gen_zipf(200_000, 4096, 1.0, 1).smoothed_freqs()))
    for code in codes:
        B, P, A = alphabetic_tables_brute(code.depths, code.cutoff)
        assert [code.B.access(i) for i in range(1, code.sigma + 1)] == B
        assert code.P == P
        assert code.A == A


def test_per_mark_lists_are_exact(rng):
    """encode's per-mark lists, by rank k of the mark: _marks[k] is the very
    A entry decode reads, and _shallow[k] a shallow leaf's codeword or None."""
    sigmas = [2, 3, 600] + rng.integers(2, 601, 40).tolist()
    codes = [build_alphabetic_code(rng.integers(1, 1000, s).tolist()) for s in sigmas]
    codes.append(build_alphabetic_code(gen_zipf(200_000, 4096, 1.0, 1).smoothed_freqs()))
    for code in codes:
        assert len(code._marks) == len(code._shallow) == len(code.P) == code.B.ones
        for k, p in enumerate(code.P):
            e = code._marks[k]
            assert e is code.A[p]
            want = (p >> (code.cutoff - e[1]), e[1]) if len(e) == 2 else None
            assert code._shallow[k] == want, (code.sigma, k)
    assert compile_code(DepthProfile((0,)), 1)._shallow == [(0, 0)]


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


def test_run_entries_are_derived_from_the_next_prefix(rng):
    """Each run entry (c, 2r - 2^h, h, r - 2^(h-1)) equals the fields that
    r, the distance to where the next prefix starts (sigma + 1 past the
    last one), gives; and every character round-trips through encode and
    decode as codeword_arrays() has it."""
    codes = [compile_code(DepthProfile((2, 2, 2, 2)), 4),          # last prefix a run, h = 1
             compile_code(DepthProfile((2, 2, 4, 4, 3, 3, 3)), 7),  # h = 2, then h = 1 last
             build_alphabetic_code([1 << (40 - k) for k in range(40)])]
    codes += [build_alphabetic_code(rng.integers(1, 1000, s).tolist()) for s in (3, 17, 600)]
    codes.append(build_alphabetic_code(gen_zipf(200_000, 4096, 1.0, 1).smoothed_freqs()))
    heights, last_is_run = set(), 0
    for code in codes:
        A = code.A
        for p, e in enumerate(A):
            if len(e) == 2:
                continue
            nxt = A[p + 1][0] if p + 1 < len(A) else code.sigma + 1
            r = nxt - e[0]
            h = (r - 1).bit_length()
            assert e == (e[0], 2 * r - (1 << h), h, r - (1 << (h - 1))), (code.sigma, p)
            heights.add(h)
        last_is_run += len(A[-1]) == 4
        vals, lens = code.codeword_arrays()
        want = list(zip(vals.tolist(), lens.tolist()))
        assert [code.encode(i) for i in range(1, code.sigma + 1)] == want
        r = BitReader(*pack_bits(vals, lens))
        assert [code.decode(r) for _ in want] == [(i, l) for i, (_, l) in enumerate(want, 1)]
    assert 1 in heights and max(heights) > 1 and last_is_run >= 2


def test_queries_never_select_on_B(monkeypatch, rng):
    """A run ends where the next A entry starts, so encode and decode make
    no select call on B, at any sigma and on a code as tall as its cap."""
    def refuse(*_):
        raise AssertionError("select on B")
    monkeypatch.setattr(Bitvector, "select1", refuse)
    monkeypatch.setattr(Bitvector, "select0", refuse)
    weights = [rng.integers(1, 1000, s).tolist() for s in (1, 2, 7, 600)]
    weights.append(gen_zipf(200_000, 4096, 1.0, 1).smoothed_freqs())
    weights.append([1 << (40 - k) for k in range(40)])  # geometric
    for w in weights:
        code = build_alphabetic_code(w)
        vals, lens = code.codeword_arrays()
        want = list(zip(vals.tolist(), lens.tolist()))
        assert [code.encode(i) for i in range(1, code.sigma + 1)] == want
        r = BitReader(*pack_bits(vals, lens))
        assert [code.decode(r) for _ in want] == [(i, l) for i, (_, l) in enumerate(want, 1)]
    # the last, geometric code is as tall as its cap and has runs below the cutoff
    assert max(code.depths) == code.height_cap and code.B.ones < code.sigma


def test_queries_make_no_bitvector_call(monkeypatch, rng):
    """encode reads B's held bytes and counts inline and decode reads only A,
    so neither calls a Bitvector query. sigma 8, 9 and 16 put characters 8,
    9 and sigma on B's byte boundaries."""
    weights = [rng.integers(1, 1000, s).tolist() for s in (1, 2, 7, 600, 8, 9, 16)]
    weights.append(gen_zipf(200_000, 4096, 1.0, 1).smoothed_freqs())
    weights.append([1 << (40 - k) for k in range(40)])  # geometric
    codes = [build_alphabetic_code(w) for w in weights]

    def refuse(*_):
        raise AssertionError("Bitvector query")
    for name in ("rank1", "access", "select1", "select0"):
        monkeypatch.setattr(Bitvector, name, refuse)
    for code in codes:
        vals, lens = code.codeword_arrays()
        want = list(zip(vals.tolist(), lens.tolist()))
        assert [code.encode(i) for i in range(1, code.sigma + 1)] == want
        r = BitReader(*pack_bits(vals, lens))
        assert [code.decode(r) for _ in want] == [(i, l) for i, (_, l) in enumerate(want, 1)]


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
