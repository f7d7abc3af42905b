import os

import numpy as np
import pytest

from ncpc.cli import BENCH_COLUMNS, EXIT_DATA, EXIT_OK, EXIT_SELFTEST, EXIT_USAGE, main
from ncpc.stream import SequenceCodec


def run(argv):
    return main(argv)


def test_analyze_bytes(tmp_path, capsys):
    p = tmp_path / "in.bin"
    p.write_bytes(b"aaab")
    assert run(["analyze", str(p)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "sigma    2" in out
    assert "n        4" in out


def test_analyze_csv(tmp_path, capsys):
    p = tmp_path / "in.bin"
    p.write_bytes(bytes(range(16)) * 10)
    assert run(["analyze", str(p), "--csv"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,sigma,entropy,L,H0_D"
    assert lines[1].startswith("160,16,")


def test_analyze_deterministic_u32(tmp_path, capsys):
    from ncpc.corpus import gen_zipf
    seq = gen_zipf(10_000, 512, 1.0, 42)
    p = tmp_path / "z.u32"
    p.write_bytes((seq.symbols.astype("<u4") - 1).tobytes())
    outs = []
    for _ in range(2):
        assert run(["analyze", str(p), "--mode", "u32le", "--csv"]) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_encode_decode_roundtrip_bytes(tmp_path, rng):
    raw = rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()
    src = tmp_path / "src.bin"
    src.write_bytes(raw)
    for codec in ("wmm", "alpha"):
        enc = tmp_path / f"{codec}.ncp"
        dec = tmp_path / f"{codec}.out"
        assert run(["encode", str(src), str(enc), "--codec", codec]) == EXIT_OK
        assert run(["decode", str(enc), str(dec)]) == EXIT_OK
        assert dec.read_bytes() == raw


# `ncpc encode --mode bytes` of GOLDEN_INPUT per family: any change to how
# the header, the depth fields or the payload are laid out fails the test
GOLDEN_INPUT = b"abracadabra, alakazam!\n"
GOLDEN_HEX = {
    "wmm": (
        "4e4350310101000100001700000000000000099999999999999999998888888888888888"
        "888888888888888888888888888888888888888888888888888888888888888578888888"
        "888888887888888888888888888888888888888888888888888888888888888888888888"
        "888888888888888888888888888888888888888888888888888888888888888888888888"
        "8888880404002a0550202005c4402e80740d603d240fc0"),
    "alpha": (
        "4e4350310100000100001700000000000000098888888888888888888888888888888888"
        "888888888888888888888888888888888888888888888888888888888899888588788888"
        "888998888878888888888888888888888888888888888888888888888888888888888888"
        "888888888888888888888888888888888888888888888888888888899998899998899998"
        "8998886343c31a58d58d0f0c2c20639b1c9902c7410850"),
}


@pytest.mark.parametrize("codec", ["wmm", "alpha"])
def test_encode_bytes_are_pinned(tmp_path, codec):
    src, enc, dec = tmp_path / "in.txt", tmp_path / "in.ncpc", tmp_path / "out.txt"
    src.write_bytes(GOLDEN_INPUT)
    assert run(["encode", str(src), str(enc), "--codec", codec, "--mode", "bytes"]) == EXIT_OK
    assert enc.read_bytes().hex() == GOLDEN_HEX[codec]
    assert run(["decode", str(enc), str(dec)]) == EXIT_OK
    assert dec.read_bytes() == GOLDEN_INPUT


# 8,434 bytes whose counts 4096 >> b (at least 1) give a Garsia-Wachs tree
# of height 14 against sigma 256's cap of 13, so alpha's depths come from
# the height-restricted DP
DP_INPUT = bytes(b for b in range(256) for _ in range(max(1, 4096 >> b)))
DP_ALPHA_SHA256 = "4d49cc941715b8abe124861155245448f8389a2354096a20cc413fb004600f07"


def test_encode_bytes_are_pinned_where_the_height_dp_caps_the_tree(tmp_path):
    import hashlib

    from ncpc.alphabetic import build_optimal_alphabetic, height_cap_for
    freqs = [max(1, 4096 >> b) for b in range(256)]
    assert build_optimal_alphabetic(freqs).height > height_cap_for(256)
    src, enc, dec = tmp_path / "in.bin", tmp_path / "in.ncpc", tmp_path / "out.bin"
    src.write_bytes(DP_INPUT)
    assert run(["encode", str(src), str(enc), "--codec", "alpha", "--mode", "bytes"]) == EXIT_OK
    assert hashlib.sha256(enc.read_bytes()).hexdigest() == DP_ALPHA_SHA256
    assert run(["decode", str(enc), str(dec)]) == EXIT_OK
    assert dec.read_bytes() == DP_INPUT


def test_encode_decode_roundtrip_u32le(tmp_path, rng):
    vals = rng.integers(0, 900, 3000, dtype=np.uint32)
    raw = vals.astype("<u4").tobytes()
    src = tmp_path / "src.u32"
    src.write_bytes(raw)
    enc = tmp_path / "x.ncp"
    dec = tmp_path / "x.out"
    assert run(["encode", str(src), str(enc), "--codec", "wmm", "--mode", "u32le"]) == EXIT_OK
    assert run(["decode", str(enc), str(dec), "--mode", "u32le"]) == EXIT_OK
    assert dec.read_bytes() == raw


def test_encode_payload_size_matches_length_sum(tmp_path, rng):
    raw = rng.integers(0, 256, 2048, dtype=np.uint8).tobytes()
    src = tmp_path / "s.bin"
    src.write_bytes(raw)
    enc = tmp_path / "s.ncp"
    assert run(["encode", str(src), str(enc), "--codec", "wmm"]) == EXIT_OK
    from ncpc.corpus import container_read, ingest
    from ncpc.revcanon import huffman_lengths
    cont = container_read(enc.read_bytes())
    lens = cont.depths
    syms = np.frombuffer(raw, dtype=np.uint8).astype(np.int64) + 1
    expect_bits = int(sum(lens[s - 1] for s in syms))
    assert len(cont.payload_bytes) == (expect_bits + 7) // 8


def test_decode_truncated_container(tmp_path, rng, capsys):
    raw = rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()
    src = tmp_path / "t.bin"
    src.write_bytes(raw)
    enc = tmp_path / "t.ncp"
    assert run(["encode", str(src), str(enc), "--codec", "wmm"]) == EXIT_OK
    blob = enc.read_bytes()
    cut = tmp_path / "cut.ncp"
    cut.write_bytes(blob[:len(blob) - len(blob) // 3])
    rc = run(["decode", str(cut), str(tmp_path / "cut.out")])
    assert rc == EXIT_DATA
    assert "truncated" in capsys.readouterr().err.lower()


def test_decode_bytes_refuses_a_wide_alphabet_before_decoding(tmp_path, monkeypatch, capsys):
    import ncpc.cli
    src = tmp_path / "wide.u32"
    src.write_bytes(np.arange(300, dtype="<u4").tobytes())
    enc = tmp_path / "wide.ncp"
    assert run(["encode", str(src), str(enc), "--codec", "wmm", "--mode", "u32le"]) == EXIT_OK

    def no_decode(*args):
        raise AssertionError("the payload was decoded")

    monkeypatch.setattr(ncpc.cli, "SequenceCodec", no_decode)
    out = tmp_path / "wide.out"
    assert run(["decode", str(enc), str(out), "--mode", "bytes"]) == EXIT_DATA
    assert "container alphabet does not fit byte output" in capsys.readouterr().err
    assert not out.exists()


def test_decode_alphabetic_depths_not_cutoff_balanced(tmp_path):
    # [1, 2, 3, 3] is order-realizable but not balanced below the cutoff:
    # decode needs only the codeword arrays, not the compiled B/P/A model
    from ncpc.alphabetic import alphabetic_codewords
    from ncpc.corpus import FAMILY_ALPHA, container_write
    syms = [1, 2, 3, 4, 4, 1]
    payload, _ = SequenceCodec(*alphabetic_codewords([1, 2, 3, 3])).encode(syms)
    enc = tmp_path / "a.ncp"
    enc.write_bytes(container_write([1, 2, 3, 3], FAMILY_ALPHA, payload, len(syms)))
    assert run(["decode", str(enc), str(tmp_path / "a.out")]) == EXIT_OK
    assert (tmp_path / "a.out").read_bytes() == bytes(s - 1 for s in syms)


def test_file_commands_build_no_bitvector(tmp_path, monkeypatch, rng):
    from ncpc.succinct import Bitvector

    def refuse(*args, **kwargs):
        raise AssertionError("a file command built a Bitvector")

    monkeypatch.setattr(Bitvector, "__init__", refuse)
    raw = rng.zipf(1.3, 5000).astype(np.uint8).tobytes()
    src = tmp_path / "src.bin"
    src.write_bytes(raw)
    for codec in ("wmm", "alpha"):
        enc = tmp_path / f"{codec}.ncp"
        dec = tmp_path / f"{codec}.out"
        assert run(["encode", str(src), str(enc), "--codec", codec]) == EXIT_OK
        assert run(["decode", str(enc), str(dec)]) == EXIT_OK
        assert dec.read_bytes() == raw
        assert run(["analyze", str(src), "--family", codec]) == EXIT_OK


def test_encode_computes_codewords_once(tmp_path, monkeypatch, rng):
    """The codec's codeword arrays also validate the depths the container stores."""
    from ncpc import cli, corpus
    from ncpc.corpus import container_write, family_codewords, family_depths

    calls = []

    def counted(family, depths):
        calls.append(family)
        return family_codewords(family, depths)

    monkeypatch.setattr(corpus, "family_codewords", counted)
    monkeypatch.setattr(cli, "family_codewords", counted)
    syms = rng.zipf(1.3, 5000).astype(np.uint8)
    src = tmp_path / "src.bin"
    src.write_bytes(syms.tobytes())
    for codec in ("wmm", "alpha"):
        enc = tmp_path / f"{codec}.ncp"
        calls.clear()
        assert run(["encode", str(src), str(enc), "--codec", codec]) == EXIT_OK
        assert len(calls) == 1
        # the same bytes as the validating writer
        seq = cli._sequence_for_encode(src.read_bytes(), "bytes")
        family = corpus.FAMILY_BY_NAME[codec]
        depths = family_depths(family, seq.smoothed_freqs())
        payload, _ = SequenceCodec(*family_codewords(family, depths)).encode(seq.symbols)
        assert enc.read_bytes() == container_write(depths, family, payload, seq.n)


def test_decode_refuses_noncanonical_payload(tmp_path, capsys):
    from ncpc.alphabetic import alphabetic_codewords
    from ncpc.corpus import FAMILY_ALPHA, container_write
    src = tmp_path / "s.bin"
    src.write_bytes(b"abracadabra")
    enc = tmp_path / "s.ncp"
    assert run(["encode", str(src), str(enc), "--codec", "wmm"]) == EXIT_OK
    trailing = tmp_path / "trailing.ncp"
    trailing.write_bytes(enc.read_bytes() + b"\x00")
    # 13 payload bits, so the last byte has three pad bits
    payload, nbits = SequenceCodec(*alphabetic_codewords([1, 2, 3, 3])).encode([1, 2, 3, 4, 4, 1])
    assert nbits == 13
    padded = tmp_path / "padded.ncp"
    padded.write_bytes(container_write([1, 2, 3, 3], FAMILY_ALPHA,
                                       payload[:-1] + bytes([payload[-1] | 1]), 6))
    for path in (trailing, padded):
        assert run(["decode", str(path), str(tmp_path / "o")]) == EXIT_DATA
        assert "pad bits" in capsys.readouterr().err


def test_decode_refuses_depth_array_pad_bits(tmp_path, capsys):
    from ncpc.corpus import FAMILY_WMM, container_read, container_write
    from ncpc.errors import ContainerError
    blob = bytearray(container_write([1, 2, 2], FAMILY_WMM, b"\x00", 1))
    assert container_read(bytes(blob)).depths == [1, 2, 2]
    blob[19] |= 0b11  # three 2-bit fields leave two pad bits in the byte
    with pytest.raises(ContainerError, match="pad bits"):
        container_read(bytes(blob))
    bad = tmp_path / "pad.ncp"
    bad.write_bytes(bytes(blob))
    assert run(["decode", str(bad), str(tmp_path / "o")]) == EXIT_DATA
    assert "pad bits" in capsys.readouterr().err


def test_decode_bad_magic(tmp_path, capsys):
    bad = tmp_path / "bad.ncp"
    bad.write_bytes(b"NOPE" + bytes(40))
    assert run(["decode", str(bad), str(tmp_path / "o")]) == EXIT_DATA
    assert "magic" in capsys.readouterr().err


def test_usage_errors(capsys):
    assert run(["encode", "a", "b"]) == EXIT_USAGE            # missing --codec
    assert run(["bench"]) == EXIT_USAGE                       # no input, no --zipf
    assert run(["bench", "--zipf", "nope"]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("flags", [
    ["--time-symbols", "0"],
    ["--time-symbols", "-5"],
    ["--zipf", "0,16,1.0"],
    ["--zipf", "100,0,1"],
    ["--zipf", "100,16,-1"],
    ["--codecs", ""],
    ["--reps", "0"],
    ["--reps", "-1"],
    ["--codecs", "wmm,wmm"],
])
def test_bench_argument_errors(flags, capsys):
    assert run(["bench", "--zipf", "500,16,1.0"] + flags) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage error:")


@pytest.mark.parametrize("flags, reps", [([], 3), (["--reps", "1"], 1)])
def test_bench_times_the_reps_asked_for(flags, reps, monkeypatch, capsys):
    import ncpc.cli
    real = ncpc.cli.bench_rows
    seen = []

    def spy(*args):
        seen.append(args[-1])
        return real(*args)

    monkeypatch.setattr(ncpc.cli, "bench_rows", spy)
    assert run(["bench", "--zipf", "2000,64,1.0", "--codecs", "table",
                "--time-symbols", "100"] + flags) == EXIT_OK
    assert seen == [reps]
    capsys.readouterr()


def test_missing_file_is_data_error(capsys):
    assert run(["analyze", "/nonexistent/file.bin"]) == EXIT_DATA
    capsys.readouterr()


def test_encode_sparse_u32_alphabet_rejected(tmp_path, capsys):
    src = tmp_path / "sparse.u32"
    src.write_bytes(np.array([0, 1 << 30], dtype="<u4").tobytes())
    rc = run(["encode", str(src), str(tmp_path / "o.ncp"), "--codec", "wmm",
              "--mode", "u32le"])
    assert rc == EXIT_DATA
    assert "alphabet too large" in capsys.readouterr().err


def test_bench_csv_columns(tmp_path):
    out = tmp_path / "bench.csv"
    rc = run(["bench", "--zipf", "20000,256,1.0", "--codecs", "wmm,table,alpha",
              "--time-symbols", "1500", "--csv", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(BENCH_COLUMNS)
    assert len(lines) == 4
    for line in lines[1:]:
        cells = line.split(",")
        row = dict(zip(BENCH_COLUMNS, cells))
        assert int(row["model_bits"]) > 0
        assert float(row["encode_ns_per_symbol"]) > 0
        assert float(row["decode_ns_per_symbol"]) > 0
        assert float(row["build_s"]) >= 0 and len(row["build_s"].split(".")[1]) == 4
        # ratios carry 4 decimals, integers are unadorned
        assert "." in row["H0_D"] and len(row["H0_D"].split(".")[1]) == 4
        assert "." not in row["sigma"]


def test_bench_csv_quotes_a_dataset_with_a_comma(tmp_path, capsys):
    import csv
    src = tmp_path / "x,y.txt"
    src.write_text("the cat sat on the mat, and the dog sat on the log")
    assert run(["bench", str(src), "--mode", "tokens", "--codecs", "wmm",
                "--time-symbols", "50", "--reps", "1"]) == EXIT_OK
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == BENCH_COLUMNS
    assert len(rows[1]) == len(BENCH_COLUMNS) == 11
    assert rows[1][0] == "x,y.txt"


def test_bench_single_codec_row(capsys):
    rc = run(["bench", "--zipf", "5000,64,1.0", "--codecs", "table",
              "--time-symbols", "500"])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[1] == "table"


def test_bench_deterministic_nontiming_columns(capsys):
    rows = []
    for _ in range(2):
        assert run(["bench", "--zipf", "8000,128,1.0", "--codecs", "wmm",
                    "--time-symbols", "400"]) == EXIT_OK
        out = capsys.readouterr().out.strip().splitlines()[1:]
        stripped = []
        timing = {"build_s", "encode_ns_per_symbol", "decode_ns_per_symbol"}
        for line in out:
            stripped.append([cell for col, cell in zip(BENCH_COLUMNS, line.split(","))
                             if col not in timing])
        rows.append(stripped)
    assert rows[0] == rows[1]


def test_bench_seed_defaults_to_42(capsys):
    argv = ["bench", "--zipf", "3000,64,1.0", "--codecs", "table", "--time-symbols", "300"]
    assert run(argv) == EXIT_OK
    assert "seed=42" in capsys.readouterr().out
    assert run(argv + ["--seed", "777"]) == EXIT_OK
    assert "seed=777" in capsys.readouterr().out


def test_bench_rows_report_each_codes_own_depths():
    from ncpc.alphabetic import build_alphabetic_code
    from ncpc.cli import bench_rows
    from ncpc.corpus import depth_entropy, gen_zipf
    from ncpc.revcanon import huffman_lengths
    seq = gen_zipf(20_000, 512, 1.0, 42)
    alpha = build_alphabetic_code(seq.smoothed_freqs())
    wmm = huffman_lengths(seq.smoothed_freqs())
    assert max(alpha.depths) != max(wmm)  # the corpus tells the two codes apart
    rows = {row["codec"]: row for row in
            bench_rows(seq, ["wmm", "alpha"], [64], "z", time_symbols=50, reps=1)}
    assert rows["alpha"]["L"] == max(alpha.depths)
    assert rows["alpha"]["H0_D"] == pytest.approx(depth_entropy(alpha.depths))
    assert rows["wmm"]["L"] == max(wmm)
    assert rows["wmm"]["build_s"] > 0 and rows["alpha"]["build_s"] > 0


def test_bench_rows_third_argument_configures_nothing():
    from ncpc.cli import bench_rows
    from ncpc.corpus import gen_zipf
    seq = gen_zipf(5_000, 256, 1.0, 42)
    timing = {"build_s", "encode_ns_per_symbol", "decode_ns_per_symbol"}
    got = [[{k: v for k, v in row.items() if k not in timing}
            for row in bench_rows(seq, ["wmm", "alpha"], samples, "z", 50, 1)]
           for samples in ([], [64], [16, 32, 64, 128])]
    assert [row["codec"] for row in got[0]] == ["wmm", "alpha"]
    assert got[0] == got[1] == got[2]


def test_decode_refuses_n_beyond_the_payload(tmp_path, capsys):
    src = tmp_path / "s.bin"
    src.write_bytes(b"abracadabra")
    enc = tmp_path / "s.ncp"
    assert run(["encode", str(src), str(enc), "--codec", "wmm"]) == EXIT_OK
    blob = bytearray(enc.read_bytes())
    blob[10:18] = (2 ** 63).to_bytes(8, "little")  # the n field
    enc.write_bytes(bytes(blob))
    assert run(["decode", str(enc), str(tmp_path / "s.out")]) == EXIT_DATA
    assert "truncated" in capsys.readouterr().err


def test_decode_one_symbol_memory_does_not_follow_n(tmp_path, capsys):
    """A sigma = 1 container stores no payload, so nothing bounds its n but
    the header: decode writes the n zero values without holding them."""
    import tracemalloc

    from ncpc.corpus import FAMILY_WMM, container_write
    n = 1 << 22
    enc = tmp_path / "one.ncp"
    enc.write_bytes(container_write([0], FAMILY_WMM, b"", n))
    out = tmp_path / "one.out"
    tracemalloc.start()
    try:
        assert run(["decode", str(enc), str(out), "--mode", "u32le"]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20       # the output is 16 MiB
    assert out.stat().st_size == 4 * n
    with open(out, "rb") as f:
        while chunk := f.read(1 << 16):
            assert not chunk.strip(b"\0")
    # the payload checks still hold: no byte may follow the empty codewords
    enc.write_bytes(container_write([0], FAMILY_WMM, b"\0", n))
    assert run(["decode", str(enc), str(out)]) == EXIT_DATA
    assert "trailing" in capsys.readouterr().err


def test_bench_wmm_model_smaller_than_table(capsys):
    assert run(["bench", "--zipf", "30000,1024,1.0", "--codecs", "wmm,table",
                "--time-symbols", "500"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    bits = {line.split(",")[1]: int(line.split(",")[6]) for line in lines}
    assert bits["wmm"] < bits["table"]


def test_selftest_passes(capsys):
    assert run(["selftest"]) == EXIT_OK
    out = capsys.readouterr().out
    names = ["wmm-five-char", "wmm-roundtrip", "alpha-roundtrip", "table-roundtrip",
             "container-roundtrip", "container-refuses-bad-bytes"]
    assert out.splitlines() == [f"ok   {name}" for name in names] + ["all checks passed"]
    assert "FAIL" not in out


def test_selftest_reaches_the_height_dp(monkeypatch, capsys):
    """One of the selftest's alphabetic weight sets gives a Garsia-Wachs tree
    taller than its cap, so the alpha round trip checks a DP-capped code."""
    from ncpc import alphabetic
    real = alphabetic.build_height_restricted
    caps = []

    def counted(freqs, height_cap):
        caps.append(height_cap)
        return real(freqs, height_cap)

    monkeypatch.setattr(alphabetic, "build_height_restricted", counted)
    assert run(["selftest"]) == EXIT_OK
    assert caps == [alphabetic.height_cap_for(64)]


def test_selftest_corrupt_hook_fails(monkeypatch, capsys):
    """A code whose leaf counts are corrupted after construction fails the checks."""
    import ncpc.cli
    from ncpc.revcanon import RevCanonCode

    def corrupted(lengths):
        code = RevCanonCode(lengths)
        code.leaves[2] += 1
        return code

    monkeypatch.setattr(ncpc.cli, "RevCanonCode", corrupted)
    assert run(["selftest"]) == EXIT_SELFTEST
    assert "FAIL" in capsys.readouterr().out


def test_selftest_checks_every_wavelet_select(monkeypatch, capsys):
    """A select that misplaces only the last occurrence of one symbol fails the
    selftest: decoding every codeword of the sigma = 64 code selects it."""
    from ncpc.succinct import WaveletTree
    real = WaveletTree.select

    def off_at_the_end(self, c, r):
        p = real(self, c, r)
        return p + 1 if c == 5 and r == self.rank(5, self.sigma_seq) else p

    monkeypatch.setattr(WaveletTree, "select", off_at_the_end)
    assert run(["selftest"]) == EXIT_SELFTEST
    assert "FAIL wmm-roundtrip" in capsys.readouterr().out


def test_selftest_checks_every_descent_stop(monkeypatch, capsys):
    """A descent that misses only the last leaf of one depth fails the
    selftest: decoding every codeword of the sigma = 64 code stops at every
    leaf of every depth. Lowering depth 5's stop bound first[6] by one sends
    its last leaf, character 57, past depth 5, and no other character."""
    import ncpc.cli
    from ncpc.bits import BitReader, pack_bits
    from ncpc.revcanon import RevCanonCode, huffman_lengths

    def stops_short_at_depth_5(lengths):
        code = RevCanonCode(lengths)
        if code.sigma == 64:
            half, stop, *rest = code._descent[4]
            code._descent = code._descent[:4] + ((half, stop - 1, *rest),) + code._descent[5:]
            code._below_root = code._descent[code.t:]
        return code

    weights = np.random.default_rng(7).integers(1, 50, 64).tolist()
    code = stops_short_at_depth_5(huffman_lengths(weights))
    vals, lens = code.codeword_arrays()
    assert max(c for c in range(1, 65) if lens[c - 1] == 5) == 57
    decoded = []
    for c in range(1, 65):
        try:
            decoded.append(code.decode(BitReader(*pack_bits([int(vals[c - 1])], [int(lens[c - 1])]))))
        except Exception:
            decoded.append(None)
    assert [c for c in range(1, 65) if decoded[c - 1] != (c, lens[c - 1])] == [57]

    monkeypatch.setattr(ncpc.cli, "RevCanonCode", stops_short_at_depth_5)
    assert run(["selftest"]) == EXIT_SELFTEST
    assert "FAIL wmm-roundtrip" in capsys.readouterr().out


def test_selftest_checks_every_shallow_codeword(monkeypatch, capsys):
    """A prebuilt shallow codeword that is its neighbour's fails the selftest:
    encoding every character of the sigma = 64 zipf code reads every shallow
    leaf's entry. Giving mark 1 (character 2) mark 2's codeword misencodes
    character 2 and no other."""
    import ncpc.cli
    from ncpc.alphabetic import build_alphabetic_code

    def swapped_shallow(freqs):
        code = build_alphabetic_code(freqs)
        if code.sigma == 64 and None not in code._shallow[1:3]:
            code._shallow[1] = code._shallow[2]
        return code

    code = swapped_shallow([4096 // c for c in range(1, 65)])
    assert code.B.access(2) == 1 and code._marks[1] == (2, code.depths[1])
    vals, lens = code.codeword_arrays()
    want = list(zip(vals.tolist(), lens.tolist()))
    assert [c for c in range(1, 65) if code.encode(c) != want[c - 1]] == [2]

    monkeypatch.setattr(ncpc.cli, "build_alphabetic_code", swapped_shallow)
    assert run(["selftest"]) == EXIT_SELFTEST
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL alpha-roundtrip: AssertionError('encode(2)')"]


def test_selftest_checks_every_shallow_wmm_codeword(monkeypatch, capsys):
    """Two swapped shallow wmm codewords fail the selftest: encoding every
    character of the sigma = 64 zipf code reads every entry of its shallow
    table, characters 1..8 of depths 2..5 <= t2. Swapping the entries of
    characters 1 and 2, its depth-2 and depth-3 characters, misencodes
    those two and no other."""
    import ncpc.cli
    from ncpc.revcanon import RevCanonCode, huffman_lengths

    def swapped_shallow(lengths):
        code = RevCanonCode(lengths)
        if code.sigma == 64 and len(code._shallow) >= 2:
            code._shallow[1], code._shallow[2] = code._shallow[2], code._shallow[1]
        return code

    code = swapped_shallow(huffman_lengths([4096 // c for c in range(1, 65)]))
    assert sorted(code._shallow) == list(range(1, 9)) and code.depths[:9] == (2, 3, 4, 4, 5, 5, 5, 5, 6)
    vals, lens = code.codeword_arrays()
    want = list(zip(vals.tolist(), lens.tolist()))
    assert [c for c in range(1, 65) if code.encode(c) != want[c - 1]] == [1, 2]

    monkeypatch.setattr(ncpc.cli, "RevCanonCode", swapped_shallow)
    assert run(["selftest"]) == EXIT_SELFTEST
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL wmm-roundtrip: AssertionError('encode(1)')"]


def test_selftest_checks_every_listed_wmm_character(monkeypatch, capsys):
    """Two swapped listed characters fail the selftest: decoding every
    codeword of the sigma = 64 zipf code names each character of depth in
    (t, t2] = (3, 5] from chars. Swapping chars' entries for characters 5
    and 6, both of depth 5, misdecodes those two and no other."""
    import ncpc.cli
    from ncpc.bits import BitReader, pack_bits
    from ncpc.revcanon import RevCanonCode, huffman_lengths

    def swapped_chars(lengths):
        code = RevCanonCode(lengths)
        if code.sigma == 64 and len(code.chars) >= 6:
            code.chars[4], code.chars[5] = code.chars[5], code.chars[4]
        return code

    code = swapped_chars(huffman_lengths([4096 // c for c in range(1, 65)]))
    assert (code.t, code.t2) == (3, 5) and code.depths[4:6] == (5, 5)
    vals, lens = code.codeword_arrays()
    decoded = [code.decode(BitReader(*pack_bits([int(vals[c - 1])], [int(lens[c - 1])])))
               for c in range(1, 65)]
    assert [c for c in range(1, 65) if decoded[c - 1] != (c, lens[c - 1])] == [5, 6]

    monkeypatch.setattr(ncpc.cli, "RevCanonCode", swapped_chars)
    assert run(["selftest"]) == EXIT_SELFTEST
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL wmm-roundtrip: AssertionError('decode of codeword 5')"]


def test_selftest_checks_that_a_truncated_decode_leaves_the_reader(monkeypatch, capsys):
    """A decoder that moves the reader before it finds the stream too short
    fails the selftest: decoding the every-character stream cut one bit
    short must raise TruncatedStream on its last codeword with the reader
    still where that codeword starts. Only the table family is patched."""
    from ncpc.errors import TruncatedStream
    from ncpc.table_codec import TableCode
    real = TableCode.decode

    def advances_before_checking(self, reader):
        start = reader.tell()
        try:
            return real(self, reader)
        except TruncatedStream:
            reader._pos = start + 1     # any advance made before the check
            raise

    monkeypatch.setattr(TableCode, "decode", advances_before_checking)
    assert run(["selftest"]) == EXIT_SELFTEST
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL table-roundtrip: AssertionError('truncated decode moved the reader')"]


def test_selftest_checks_under_python_O():
    """python -O strips assert statements, and the selftest's checks are not
    asserts: a child `python -O` whose alpha decode moves the reader before
    it finds the stream too short fails the selftest on alpha alone."""
    import subprocess
    import sys
    import textwrap
    from pathlib import Path

    import ncpc
    child = textwrap.dedent("""
        import sys
        import ncpc.cli
        from ncpc.alphabetic import CompactAlphabeticCode
        from ncpc.errors import TruncatedStream
        if sys.flags.optimize != 1:
            sys.exit("not running under -O")
        real = CompactAlphabeticCode.decode

        def advances_before_checking(self, reader):
            start = reader.tell()
            try:
                return real(self, reader)
            except TruncatedStream:
                reader._pos = start + 1     # any advance made before the check
                raise

        CompactAlphabeticCode.decode = advances_before_checking
        sys.exit(ncpc.cli.main(["selftest"]))
    """)
    src = str(Path(ncpc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-O", "-c", child], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == EXIT_SELFTEST, (proc.returncode, proc.stdout, proc.stderr)
    assert [line for line in proc.stdout.splitlines() if line.startswith("FAIL")] == [
        "FAIL alpha-roundtrip: AssertionError('truncated decode moved the reader')"]
