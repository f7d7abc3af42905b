"""Command line interface: analyze, encode, decode, bench, selftest.

Exit codes: 0 success, 1 usage error, 2 data error, 3 selftest failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import statistics
import sys
import time

import numpy as np

from .alphabetic import build_alphabetic_code, compile_code  # noqa: F401 (ncpcbench patches it)
from .bits import BitReader
from .codewords import depth_tables
from .corpus import (FAMILY_BY_NAME, SymbolSequence, _container_bytes, container_read,
                     container_write, depth_entropy, family_codewords, family_depths,
                     gen_zipf, ingest, raw_values, stats)
from .errors import ContainerError, NcpcError, TruncatedStream
from .revcanon import RevCanonCode, huffman_lengths
from .stream import SequenceCodec
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
    pb.add_argument("--seed", type=int, default=42)

    sub.add_parser("selftest", help="round-trip each code family and the container "
                   "through the public API")
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
    vals = raw_values(data, mode)
    if mode == "bytes":
        return SymbolSequence.from_symbols(vals.astype(np.uint32) + 1, 256)
    sigma = int(vals.max()) + 1
    if sigma > _SIGMA_CAP:
        raise ValueError(f"alphabet too large for encode: sigma={sigma}")
    return SymbolSequence.from_symbols(vals.astype(np.uint64) + 1, sigma)


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
        try:
            parts = args.zipf.split(",")
            n, sigma, s = int(parts[0]), int(parts[1]), float(parts[2])
            seq = gen_zipf(n, sigma, s, args.seed)  # its ValueError: n, sigma or s out of range
        except (ValueError, IndexError):
            raise _UsageError(f"bad --zipf value: {args.zipf}") from None
        return (f"zipf(n={n} sigma={sigma} s={s:g} seed={args.seed})", seq)
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
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(BENCH_COLUMNS)
    for row in rows:
        w.writerow(f"{v:.4f}" if isinstance(v, float) else v
                   for v in (row[col] for col in BENCH_COLUMNS))
    return out.getvalue()


def cmd_bench(args) -> int:
    codecs = [c.strip() for c in args.codecs.split(",") if c.strip()]
    if not codecs:
        raise _UsageError("--codecs names no codec")
    for c in codecs:
        if c not in ("wmm", "table", "alpha"):
            raise _UsageError(f"unknown codec: {c}")
        if codecs.count(c) > 1:
            raise _UsageError(f"codec named twice: {c}")
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

def _check_roundtrips(code, msg: list[int]) -> None:
    """encode agrees with the codeword arrays, per-symbol decode reads every
    codeword back in order, the same stream cut one bit short truncates its
    last codeword without moving the reader, and the bulk codec round-trips
    msg."""
    vals, lens = code.codeword_arrays()
    sigma = len(lens)
    for c in range(1, sigma + 1):
        assert code.encode(c) == (int(vals[c - 1]), int(lens[c - 1])), f"encode({c})"
    codec = SequenceCodec(vals, lens)
    data, nbits = codec.encode(range(1, sigma + 1))
    r = BitReader(data, nbits)
    for c in range(1, sigma + 1):
        assert code.decode(r) == (c, int(lens[c - 1])), f"decode of codeword {c}"
    assert r.tell() == nbits, "decode did not end on the last bit"
    # the decoders check the stream's end themselves (see ncpc.bits)
    start = nbits - int(lens[-1])
    r = BitReader(data, nbits - 1)
    r.skip(start)
    try:
        code.decode(r)
    except TruncatedStream:
        pass
    else:
        raise AssertionError("decode of the cut last codeword did not raise TruncatedStream")
    assert r.tell() == start, "truncated decode moved the reader"
    data, nbits = codec.encode(msg)
    assert codec.decode(data, len(msg), nbits).tolist() == msg, "bulk round trip"


def _check_wmm(code, msg: list[int]) -> None:
    """_check_roundtrips, after the per-depth counts that child_rank and
    parent_rank read: encode and decode read only tables built with the code."""
    assert (code.leaves, code.nodes) == depth_tables(code.depths), "per-depth counts"
    _check_roundtrips(code, msg)


def _selftest_checks():
    rng = np.random.default_rng(7)
    weights = rng.integers(1, 50, 64).tolist()
    msg = rng.integers(1, 65, 500).tolist()
    # the weights' codes have no shallow leaf, whose codeword encode reads
    # prebuilt: all runs below alpha's cutoff, no wmm depth <= t2 = 4; the
    # zipf weights' codes have some (wmm depths 2..5, t = 3 and t2 = 5, so
    # decode names the characters of depths 4 and 5 from chars)
    zipf = [4096 // c for c in range(1, 65)]

    def wmm(w=weights):
        return RevCanonCode(huffman_lengths(w))

    def wmm_roundtrips():
        for w in (weights, zipf):
            _check_wmm(wmm(w), msg)

    def alpha_roundtrips():
        for w in (weights, zipf):
            _check_roundtrips(build_alphabetic_code(w), msg)

    def container_roundtrip():
        for name, code in (("wmm", wmm()), ("alpha", build_alphabetic_code(weights))):
            payload, _ = SequenceCodec.for_code(code).encode(msg)
            cont = container_read(container_write(code.depths, FAMILY_BY_NAME[name],
                                                  payload, len(msg)))
            assert cont.depths == list(code.depths), f"{name} depths"
            decoded = SequenceCodec(*cont.codewords).decode(cont.payload_bytes, cont.n)
            assert decoded.tolist() == msg, f"{name} payload"

    def container_refuses_bad_bytes():
        blob = container_write([1, 1], FAMILY_BY_NAME["wmm"], b"", 0)
        for bad in (b"XXXX" + blob[4:], blob[:10]):
            try:
                container_read(bad)
            except ContainerError:
                continue
            raise AssertionError(f"accepted {bad!r}")

    return [
        ("wmm-five-char", lambda: _check_wmm(RevCanonCode([1, 2, 3, 4, 4]), [4, 1, 5])),
        ("wmm-roundtrip", wmm_roundtrips),
        ("alpha-roundtrip", alpha_roundtrips),
        ("table-roundtrip", lambda: _check_roundtrips(TableCode.from_code(wmm()), msg)),
        ("container-roundtrip", container_roundtrip),
        ("container-refuses-bad-bytes", container_refuses_bad_bytes),
    ]


def cmd_selftest(args) -> int:
    failures = 0
    for name, fn in _selftest_checks():
        try:
            fn()
        except Exception as e:  # report and continue
            failures += 1
            print(f"FAIL {name}: {e!r}")
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
