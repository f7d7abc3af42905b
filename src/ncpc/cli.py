"""Command line interface: analyze, encode, decode, bench, selftest.

Exit codes: 0 success, 1 usage error, 2 data error, 3 selftest failure.
The environment variable NCPC_SEED overrides the default generator seed;
an explicit --seed flag beats both.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

import numpy as np

from .alphabetic import DepthProfile, build_alphabetic_code, compile_code
from .bits import BitReader, BitWriter
from .corpus import (FAMILY_BY_NAME, FAMILY_WMM, SymbolSequence, _container_bytes,
                     container_read, container_write, depth_entropy, family_codewords,
                     family_depths, gen_zipf, ingest, stats)
from .errors import ContainerError, NcpcError
from .revcanon import RevCanonCode, build_descent_table, huffman_lengths
from .stream import SequenceCodec
from .succinct import Bitvector, WaveletTree
from .table_codec import TableCode

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SELFTEST = 3

BENCH_COLUMNS = ["dataset", "codec", "sigma", "n", "L", "H0_D", "model_bits",
                 "build_s", "payload_bits_per_symbol", "encode_ns_per_symbol",
                 "decode_ns_per_symbol"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _default_seed() -> int:
    env = os.environ.get("NCPC_SEED")
    if env is None:
        return 42
    try:
        return int(env)
    except ValueError:
        raise _UsageError(f"NCPC_SEED is not an integer: {env!r}") from None


def build_parser() -> _Parser:
    p = _Parser(prog="ncpc", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="corpus statistics (n, sigma, entropy, L, H0(D))")
    pa.add_argument("input", help="input path, or - for stdin")
    pa.add_argument("--mode", choices=["bytes", "u32le", "tokens"], default="bytes")
    pa.add_argument("--family", choices=["wmm", "alpha"], default="wmm")
    pa.add_argument("--csv", action="store_true", help="emit one CSV row instead of text")

    pe = sub.add_parser("encode", help="compress a file into a container")
    pe.add_argument("input")
    pe.add_argument("output")
    pe.add_argument("--codec", choices=["alpha", "wmm"], required=True)
    pe.add_argument("--mode", choices=["bytes", "u32le"], default="bytes")

    pd = sub.add_parser("decode", help="decompress a container")
    pd.add_argument("input")
    pd.add_argument("output")
    pd.add_argument("--mode", choices=["bytes", "u32le"], default="bytes")

    pb = sub.add_parser("bench", help="model size and per-symbol codec timings, as CSV")
    pb.add_argument("input", nargs="?", help="input path; omit when using --zipf")
    pb.add_argument("--mode", choices=["bytes", "u32le", "tokens"], default="bytes")
    pb.add_argument("--zipf", metavar="N,SIGMA,S", help="synthetic corpus instead of a file")
    pb.add_argument("--codecs", default="wmm,table,alpha")
    pb.add_argument("--csv", metavar="PATH", help="write CSV here instead of stdout")
    pb.add_argument("--time-symbols", type=int, default=20000,
                    help="symbols per timing repetition")
    pb.add_argument("--reps", type=int, default=3)
    pb.add_argument("--seed", type=int, default=None)

    sub.add_parser("selftest", help="run embedded consistency checks")
    return p


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as f:
        return f.read()


# -- encode / decode -------------------------------------------------------

_SIGMA_CAP = 1 << 25  # encode-side guard for sparse u32le alphabets


def _sequence_for_encode(data: bytes, mode: str) -> SymbolSequence:
    """Invertible symbol mapping: id = value + 1, no compaction.

    bytes input always uses sigma=256 so any byte file round-trips exactly;
    u32le uses sigma = max value + 1.
    """
    if not data:
        raise ValueError("empty input")
    if mode == "bytes":
        vals = np.frombuffer(data, dtype=np.uint8)
        return SymbolSequence.from_symbols(vals.astype(np.uint32) + 1, 256)
    if mode == "u32le":
        if len(data) % 4:
            raise ValueError("truncated u32 record")
        vals = np.frombuffer(data, dtype="<u4")
        sigma = int(vals.max()) + 1
        if sigma > _SIGMA_CAP:
            raise ValueError(f"alphabet too large for encode: sigma={sigma}")
        return SymbolSequence.from_symbols(vals.astype(np.uint64) + 1, sigma)
    raise ValueError(f"mode not supported for encode: {mode}")


def cmd_encode(args) -> int:
    data = _read_input(args.input)
    seq = _sequence_for_encode(data, args.mode)
    family = FAMILY_BY_NAME[args.codec]
    depths = family_depths(family, seq.smoothed_freqs())
    # family_codewords validates the depths, as container_write would again
    payload, _ = SequenceCodec(*family_codewords(family, depths)).encode(seq.symbols)
    blob = _container_bytes(depths, family, payload, seq.n)
    with open(args.output, "wb") as f:
        f.write(blob)
    return EXIT_OK


def cmd_decode(args) -> int:
    blob = _read_input(args.input)
    cont = container_read(blob)
    if args.mode == "bytes" and cont.sigma > 256:
        raise ValueError("container alphabet does not fit byte output")
    raw = cont.payload_bytes
    if cont.sigma == 1:
        return _decode_one_symbol(cont.n, raw, args)
    symbols = SequenceCodec(*cont.codewords).decode(raw, cont.n, 8 * len(raw))
    used = int(cont.codewords[1][symbols - 1].sum())  # payload bits the codewords fill
    if len(raw) != (used + 7) // 8 or (used % 8 and raw[-1] & (0xFF >> used % 8)):
        raise ContainerError("payload has trailing bytes or nonzero pad bits")
    if args.mode == "bytes":
        out = (symbols - 1).astype(np.uint8).tobytes()
    else:
        out = (symbols.astype("<u4") - 1).tobytes()
    with open(args.output, "wb") as f:
        f.write(out)
    return EXIT_OK


def _decode_one_symbol(n: int, raw: bytes, args) -> int:
    """cmd_decode for sigma = 1: every codeword is empty, so the payload is
    too and the output is n zero values. It is written in fixed-size chunks,
    since n comes from the header and nothing else bounds it."""
    if raw:
        raise ContainerError("payload has trailing bytes or nonzero pad bits")
    chunk = bytes(1 << 16)
    full, rest = divmod(n * (1 if args.mode == "bytes" else 4), len(chunk))
    with open(args.output, "wb") as f:
        for _ in range(full):
            f.write(chunk)
        f.write(chunk[:rest])
    return EXIT_OK


def cmd_analyze(args) -> int:
    data = _read_input(args.input)
    seq = ingest(data, args.mode)
    st = stats(seq, args.family)
    if args.csv:
        print("n,sigma,entropy,L,H0_D")
        print(f"{st.n},{st.sigma},{st.entropy:.4f},{st.max_code_len},{st.depth_entropy:.4f}")
    else:
        print(f"n        {st.n}")
        print(f"sigma    {st.sigma}")
        print(f"entropy  {st.entropy:.4f} bits/symbol")
        print(f"L        {st.max_code_len}")
        print(f"H0(D)    {st.depth_entropy:.4f} bits/symbol")
    return EXIT_OK


# -- bench ------------------------------------------------------------------

def _pin_to_one_core() -> None:
    try:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
    except (AttributeError, OSError):
        pass


def _median_ns_per_symbol(fn, count: int, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        fn()
        times.append((time.perf_counter_ns() - t0) / count)
    return statistics.median(times)


def _bench_corpus(args) -> tuple[str, SymbolSequence]:
    if args.zipf:
        seed = args.seed if args.seed is not None else _default_seed()
        try:
            parts = args.zipf.split(",")
            n, sigma, s = int(parts[0]), int(parts[1]), float(parts[2])
            seq = gen_zipf(n, sigma, s, seed)  # its ValueError: n, sigma or s out of range
        except (ValueError, IndexError):
            raise _UsageError(f"bad --zipf value: {args.zipf}") from None
        return (f"zipf(n={n} sigma={sigma} s={s:g} seed={seed})", seq)
    if not args.input:
        raise _UsageError("bench needs an input path or --zipf")
    return (os.path.basename(args.input), ingest(_read_input(args.input), args.mode))


def bench_rows(seq: SymbolSequence, codecs: list[str], samples: list[int],
               dataset: str, time_symbols: int, reps: int) -> list[dict]:
    """One row per codec. `samples` configures nothing: it is kept so
    that callers which pass select sampling rates still work. `build_s` is
    the seconds from the frequencies to the codec's model: for wmm and
    table it includes the shared `huffman_lengths`, and the table's
    excludes the wavelet matrix."""
    freqs = seq.smoothed_freqs()
    t0 = time.perf_counter()
    lengths = huffman_lengths(freqs)
    huffman_s = time.perf_counter() - t0
    sample = seq.symbols[:min(seq.n, time_symbols)].tolist()
    count = len(sample)
    codes = {}
    build_s = {}

    def timed(name, build, since_s=0.0):
        t0 = time.perf_counter()
        codes[name] = build()
        build_s[name] = since_s + time.perf_counter() - t0

    if "wmm" in codecs or "table" in codecs:
        timed("wmm", lambda: RevCanonCode(lengths), huffman_s)
    if "table" in codecs:
        timed("table", lambda: TableCode.from_code(codes["wmm"]), huffman_s)
    if "alpha" in codecs:
        timed("alpha", lambda: build_alphabetic_code(freqs))
    rows = []
    for name in codecs:
        code = codes[name]
        vals, lens = code.codeword_arrays()
        full_bps = float(np.dot(seq.freqs, lens) / seq.n)
        enc_payload, enc_nbits = SequenceCodec(vals, lens).encode(sample)

        def run_encode(code=code, sample=sample):
            enc = code.encode
            for c in sample:
                enc(c)

        def run_decode(code=code, data=enc_payload, nbits=enc_nbits, count=count):
            r = BitReader(data, nbits)
            dec = code.decode
            for _ in range(count):
                dec(r)

        rows.append({
            "dataset": dataset,
            "codec": name,
            "sigma": seq.sigma,
            "n": seq.n,
            "L": int(lens.max()),
            "H0_D": depth_entropy(lens),
            "model_bits": code.model_size_bits(),
            "build_s": build_s[name],
            "payload_bits_per_symbol": full_bps,
            "encode_ns_per_symbol": _median_ns_per_symbol(run_encode, count, reps),
            "decode_ns_per_symbol": _median_ns_per_symbol(run_decode, count, reps),
        })
    return rows


def format_bench_csv(rows: list[dict]) -> str:
    out = [",".join(BENCH_COLUMNS)]
    for row in rows:
        cells = []
        for col in BENCH_COLUMNS:
            v = row[col]
            cells.append(f"{v:.4f}" if isinstance(v, float) else str(v))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def cmd_bench(args) -> int:
    codecs = [c.strip() for c in args.codecs.split(",") if c.strip()]
    if not codecs:
        raise _UsageError("--codecs names no codec")
    for c in codecs:
        if c not in ("wmm", "table", "alpha"):
            raise _UsageError(f"unknown codec: {c}")
    if args.time_symbols < 1:
        raise _UsageError(f"--time-symbols must be >= 1: {args.time_symbols}")
    if args.reps < 1:
        raise _UsageError(f"--reps must be >= 1: {args.reps}")
    dataset, seq = _bench_corpus(args)
    _pin_to_one_core()
    rows = bench_rows(seq, codecs, [], dataset, args.time_symbols, args.reps)
    text = format_bench_csv(rows)
    if args.csv:
        with open(args.csv, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# -- selftest ----------------------------------------------------------------

def _selftest_checks():
    rng = np.random.default_rng(7)

    def bitvector_oracle():
        # a length that ends inside a byte, so the last byte is padded
        bits = (rng.random(803) < 0.4).astype(np.uint8)
        bv = Bitvector(bits)
        acc = 0
        ones, zeros = [], []
        for i, b in enumerate(bits.tolist(), 1):
            acc += b
            assert bv.rank1(i) == acc
            assert bv.access(i) == b
            (ones if b else zeros).append(i)
        for r, p in enumerate(ones, 1):
            assert bv.select1(r) == p
        for r, p in enumerate(zeros, 1):
            assert bv.select0(r) == p

    def bitvector_empty():
        bv = Bitvector("")
        assert bv.n_bits == 0 and bv.rank1(0) == 0

    def wavelet_oracle():
        seq = (rng.integers(1, 9, 300)).tolist()
        for weights in (None, [2**64 >> c for c in range(1, 9)]):
            wt = WaveletTree(seq, 8, weights)
            for i, c in enumerate(seq, 1):     # every occurrence, against a scan
                k = seq[:i].count(c)
                assert wt.access(i) == c and wt.rank(c, i) == k and wt.select(c, k) == i

    def bitio_roundtrip():
        w = BitWriter()
        vals = [(5, 3), (0, 1), (1, 1), (1023, 10), (2**40 - 3, 64)]
        for v, width in vals:
            w.write(v, width)
        r = BitReader(w.getvalue(), w.bit_length)
        for v, width in vals:
            assert r.read(width) == v

    def make_code():
        return RevCanonCode([1, 2, 3, 4, 4])

    def five_char_codewords():
        code = make_code()
        cws = {i: (v, l) for i, v, l in code.codeword_set()}
        assert cws == {1: (0b0, 1), 2: (0b10, 2), 3: (0b110, 3),
                       4: (0b1110, 4), 5: (0b1111, 4)}

    def five_char_ascent():
        code = make_code()
        assert code.encode(4) == (0b1110, 4)
        assert code.encode(1) == (0, 1)

    def five_char_descent():
        code = make_code()
        w = BitWriter()
        w.write(0b1111, 4)
        r = BitReader(w.getvalue(), 4)
        assert code.decode(r) == (5, 4)

    random_code = RevCanonCode(huffman_lengths(rng.integers(1, 50, 64).tolist()))

    def encode_matches_arrays():
        # the label-table encode against the vectorized per-level ascent
        for code in (make_code(), random_code):
            vals, lens = code.codeword_arrays()
            for i in range(1, code.sigma + 1):
                assert code.encode(i) == (int(vals[i - 1]), int(lens[i - 1]))

    def root_table_descent():
        for code in (make_code(), random_code):
            msg = rng.integers(1, code.sigma + 1, 300).tolist()
            data, nbits = SequenceCodec.for_code(code).encode(msg)
            r1 = BitReader(data, nbits)
            r2 = BitReader(data, nbits)
            for _ in msg:
                d, r = 0, 1     # explicit descent, one bit per step
                while r > code.leaves[d]:
                    d += 1
                    r = code.child_rank(d, r, r2.read(1))
                assert code.decode(r1) == (code.D.select(d, r), d)
                assert r1.tell() == r2.tell()

    def child_parent_inverse():
        code = make_code()
        for d in range(1, code.L + 1):
            for rp in range(code.leaves[d - 1] + 1, code.nodes[d - 1] + 1):
                for bit in (0, 1):
                    rc = code.child_rank(d, rp, bit)
                    assert code.parent_rank(d, rc) == (rp, bit)

    def decode_fast_equivalence():
        # t = 8 is wider than the five-character code's L = 4; on the random
        # code, t = 1 sends most codewords down the miss path and t = 8
        # answers most from the table
        for code, t in ((make_code(), 4), (make_code(), 8),
                        (random_code, 1), (random_code, 8)):
            table = build_descent_table(code, t)
            msg = (rng.integers(1, code.sigma + 1, 200)).tolist()
            data, nbits = SequenceCodec.for_code(code).encode(msg)
            r1 = BitReader(data, nbits)
            r2 = BitReader(data, nbits)
            for _ in msg:
                assert code.decode(r1) == code.decode_fast(table, r2)
            assert r1.tell() == r2.tell() == nbits

    def alpha_sigma4_compile():
        prof = DepthProfile((2, 2, 2, 2))
        code = compile_code(prof, 4)
        assert [code.B.access(i) for i in range(1, 5)] == [1, 0, 1, 0]
        assert code.S == [(0b00, 2), (0b10, 2)]
        assert code.A == [1, 3]

    def alpha_roundtrip():
        freqs = (rng.integers(1, 50, 64)).tolist()
        code = build_alphabetic_code(freqs)
        sc = SequenceCodec.for_code(code)
        msg = (rng.integers(1, 65, 500)).tolist()
        data, nbits = sc.encode(msg)
        assert sc.decode(data, len(msg), nbits).tolist() == msg
        r = BitReader(data, nbits)
        for m in msg[:50]:
            c, _ = code.decode(r)
            assert c == m

    def table_equivalence():
        code = make_code()
        tc = TableCode.from_code(code)
        for i in range(1, 6):
            assert tc.encode(i) == code.encode(i)

    def container_roundtrip():
        payload, nbits = SequenceCodec.for_code(make_code()).encode([4])
        blob = container_write([1, 2, 3, 4, 4], FAMILY_WMM, payload, 1)
        cont = container_read(blob)
        assert (cont.family, cont.sigma, cont.n) == (FAMILY_WMM, 5, 1)
        assert cont.depths == [1, 2, 3, 4, 4]

    def container_bad_magic():
        blob = container_write([1, 1], FAMILY_WMM, b"", 0)
        try:
            container_read(b"XXXX" + blob[4:])
        except ContainerError:
            return
        raise AssertionError("bad magic accepted")

    def huffman_small_optimal():
        assert sorted(huffman_lengths([10, 7, 2, 1, 1])) == [1, 2, 3, 4, 4]

    def reverse_lex_property():
        code = make_code()
        cws = code.codeword_set()
        rev = sorted(cws, key=lambda t: format(t[1], f"0{t[2]}b")[::-1] if t[2] else "")
        lens = [t[2] for t in rev]
        assert lens == sorted(lens)

    return [
        ("bitvector-oracle", bitvector_oracle),
        ("bitvector-empty", bitvector_empty),
        ("wavelet-oracle", wavelet_oracle),
        ("bitio-roundtrip", bitio_roundtrip),
        ("five-char-codewords", five_char_codewords),
        ("five-char-ascent", five_char_ascent),
        ("five-char-descent", five_char_descent),
        ("encode-matches-arrays", encode_matches_arrays),
        ("root-table-descent", root_table_descent),
        ("child-parent-inverse", child_parent_inverse),
        ("decode-fast-equivalence", decode_fast_equivalence),
        ("alpha-sigma4-compile", alpha_sigma4_compile),
        ("alpha-roundtrip", alpha_roundtrip),
        ("table-equivalence", table_equivalence),
        ("container-roundtrip", container_roundtrip),
        ("container-bad-magic", container_bad_magic),
        ("huffman-small-optimal", huffman_small_optimal),
        ("reverse-lex-property", reverse_lex_property),
    ]


def cmd_selftest(args) -> int:
    failures = 0
    for name, fn in _selftest_checks():
        try:
            fn()
        except Exception as e:  # report and continue
            failures += 1
            print(f"FAIL {name}: {e}")
        else:
            print(f"ok   {name}")
    if failures:
        print(f"{failures} check(s) failed")
        return EXIT_SELFTEST
    print("all checks passed")
    return EXIT_OK


# -- entry point -------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "encode":
            return cmd_encode(args)
        if args.command == "decode":
            return cmd_decode(args)
        if args.command == "bench":
            return cmd_bench(args)
        if args.command == "selftest":
            return cmd_selftest(args)
        raise _UsageError(f"unknown command: {args.command}")
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (NcpcError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
