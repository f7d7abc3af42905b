"""The workloads, their correctness gates and the metrics they yield.

Every workload is a closed loop with one client, run in this process on
one thread. It has two units of work, both applied to the workload's own
seeded zipf corpus:

  queries    interleaved batches of per-symbol encode(c) and decode(reader)
             on the per-symbol models (wmm, alpha and the table baseline);
  roundtrip  `ncpc encode` then `ncpc decode` of the corpus as a u32le
             file, through ncpc.cli.main, for the wmm and alpha families.

A run times `queries` for its length, with the model set-ups spread over
it, then runs `roundtrip` once, untimed, for the container bits per symbol.
The workloads differ in alphabet size. The traced run adds per-layer spans
(the round trip's among them), exact counts and substrate probes.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ncpc import bits, cli, corpus, revcanon, succinct
from ncpc.alphabetic import build_alphabetic_code
from ncpc.table_codec import TableCode

from tracer import QUERY_TARGETS, ROUNDTRIP_TARGETS, SpanView, Tracer

FAMILIES = ("wmm", "alpha")
QUERY_OPS = [(fam, op) for fam in ("wmm", "alpha", "table") for op in ("encode", "decode")]
BATCH = 32            # queries per timed sample
LONG_CODEWORD = 16    # SequenceCodec decodes longer codewords off its primary table
SPAN_CAP = 100_000    # traced units stop once this many spans are held
PROBE_BATCHES = 64    # timed batches per substrate probe
DESCENT_T = 8         # chunk width of the DescentTable probe
ZIPF_S = 1.0          # corpus skew: symbol of rank r has weight r^-s


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    sigma: int
    setup_reps: int            # model set-ups per run, spread over its length
    pool_batches: int = 1024   # distinct query batches, cycled
    unit_batches: int = 64     # rounds of query batches in one queries unit
    probe_bits: int = 1 << 20  # bitvector probe size, density 1/2


WORKLOADS = {
    "point": Workload("point", 200_000, 4096, setup_reps=8),
    # Set-ups take a fifth of the run and query rounds are slower at sigma
    # 65536; half the pool gives each batch about as many visits as on point.
    "point-wide": Workload("point-wide", 200_000, 65536, setup_reps=3, pool_batches=512),
}


def p50(xs) -> float:
    return float(statistics.median(xs)) if len(xs) else 0.0


def p99(xs) -> float:
    """Nearest-rank 99th percentile."""
    if not len(xs):
        return 0.0
    ys = sorted(xs)
    return float(ys[math.ceil(0.99 * len(ys)) - 1])


def depth_entropy(depths) -> float:
    counts = np.bincount(np.asarray(depths, dtype=np.int64))
    p = counts[counts > 0] / len(depths)
    return float(-(p * np.log2(p)).sum()) + 0.0


def pack(codewords) -> tuple[bytes, int]:
    """MSB-first concatenation of (value, length) pairs, zero-padded to bytes."""
    acc = 0
    nbits = 0
    for v, ln in codewords:
        acc = (acc << ln) | v
        nbits += ln
    pad = -nbits % 8
    return ((acc << pad).to_bytes((nbits + pad) // 8, "big"), nbits)


class Run:
    """State of one benchmark run: inputs, models, counters and samples."""

    def __init__(self, w: Workload, seed: int, workdir: Path) -> None:
        self.w = w
        self.seed = seed
        self.workdir = workdir
        ranks = np.arange(1, w.sigma + 1, dtype=np.float64)
        weights = ranks ** -ZIPF_S
        rng = np.random.default_rng(seed)
        self.records = rng.choice(w.sigma, size=w.n, p=weights / weights.sum()).astype("<u4")
        self.sigma = int(self.records.max()) + 1
        self.counts = np.bincount(self.records, minlength=self.sigma)
        self.input_bytes = self.records.tobytes()
        self.input_path = workdir / "input.u32"
        self.input_path.write_bytes(self.input_bytes)
        self.attempted = 0
        self.failed = 0
        self.setup_s: list[float] = []
        self.models: dict = {}
        self.containers: dict[str, bytes] = {}
        # per op type: pool batch -> its fastest per-symbol ns in the run
        self.query_ns: dict[tuple[str, str], dict[int, float]] = {k: {} for k in QUERY_OPS}
        self.query_visits = 0
        self.samples: dict[str, str] = {}
        self.pool: list[list[int]] = []
        self.cursor = 0

    def fail(self, count: int, what: str) -> None:
        self.failed += count
        print(f"FAILED {what}", file=sys.stderr)

    # -- set-up ------------------------------------------------------------

    def build_models(self) -> float:
        """Construct the per-symbol models from the frequencies; returns seconds."""
        freqs = np.maximum(self.counts, 1)
        t0 = time.perf_counter()
        wmm = revcanon.RevCanonCode(revcanon.huffman_lengths(freqs), shape="huffman")
        alpha = build_alphabetic_code(freqs)
        t1 = time.perf_counter()
        self.models = {"wmm": wmm, "alpha": alpha, "table": TableCode.from_code(wmm)}
        return t1 - t0

    def setup(self) -> None:
        """One `setup_s` sample: the model construction that comes before the first query."""
        self.setup_s.append(self.build_models())

    def prepare_queries(self) -> None:
        """Query pool by a seeded shuffle of the corpus, with payloads packed per batch.

        Every decode batch reads its own payload, so building its reader
        copies one short buffer.
        """
        w = self.w
        rng = np.random.default_rng([self.seed, 1])
        take = np.resize(rng.permutation(w.n), w.pool_batches * BATCH)
        syms = (self.records[take].astype(np.int64) + 1).tolist()
        self.pool = [syms[k:k + BATCH] for k in range(0, len(syms), BATCH)]
        self.expect: dict = {}
        self.payloads: dict = {}
        self.lens: dict = {}
        for fam, code in self.models.items():
            vals, lens = code.codeword_arrays()
            vals, lens = vals.tolist(), lens.tolist()
            self.lens[fam] = lens
            enc = [[(vals[c - 1], lens[c - 1]) for c in b] for b in self.pool]
            self.expect[fam, "encode"] = enc
            self.expect[fam, "decode"] = [[(c, lens[c - 1]) for c in b] for b in self.pool]
            self.payloads[fam] = [pack(cws) for cws in enc]

    # -- units ---------------------------------------------------------------

    def unit(self, kind: str, tracer: Tracer | None = None) -> None:
        if tracer is None:
            self.roundtrip() if kind == "roundtrip" else self.queries(self.w.unit_batches)
        elif kind == "roundtrip":
            with tracer.patched(ROUNDTRIP_TARGETS):
                self.roundtrip(tracer)
        else:
            with tracer.patched(QUERY_TARGETS):
                self.queries(self.w.unit_batches, record=False)

    def roundtrip(self, tracer: Tracer | None = None) -> None:
        """One encode and one decode per family through the CLI, checked byte for byte."""
        for fam in FAMILIES:
            enc_path = self.workdir / f"{fam}.ncp"
            dec_path = self.workdir / f"{fam}.out"
            enc_path.unlink(missing_ok=True)
            dec_path.unlink(missing_ok=True)
            steps = [("encode", ["encode", str(self.input_path), str(enc_path),
                                 "--mode", "u32le", "--codec", fam]),
                     ("decode", ["decode", str(enc_path), str(dec_path), "--mode", "u32le"])]
            for k, (op, argv) in enumerate(steps):
                main = tracer.wrap(f"cli.{op}", cli.main) if tracer else cli.main
                try:
                    status = main(argv)
                except Exception:
                    traceback.print_exc()
                    status = None
                ok = status == 0 and (op == "encode" or (
                    dec_path.is_file() and dec_path.read_bytes() == self.input_bytes))
                if not ok:
                    self.attempted += len(steps) - k
                    self.fail(len(steps) - k, f"{fam} {op}: exit status {status}")
                    break
                self.attempted += 1
            else:
                self.containers[fam] = enc_path.read_bytes()

    def queries(self, rounds: int, record: bool = True) -> None:
        """Each round runs one batch of every op type in turn, on the next pool batch."""
        for _ in range(rounds):
            b = self.cursor
            self.cursor = (b + 1) % len(self.pool)
            batch = self.pool[b]
            m = len(batch)
            for fam, op in QUERY_OPS:
                code = self.models[fam]
                if op == "encode":
                    fn, args = code.encode, batch
                else:
                    fn, args = code.decode, [bits.BitReader(*self.payloads[fam][b])] * m
                ns = self.time_batches(fn, args, self.expect[fam, op][b], f"{fam} {op} batch {b}")
                if record and ns:
                    best = self.query_ns[fam, op]
                    best[b] = min(best.get(b, ns[0]), ns[0])
                    self.query_visits += 1

    def loop(self, seconds: float, tracer: Tracer | None):
        """Repeat the queries unit for `seconds`, at least once.

        The run's set-ups after the first are spread evenly over it. With a
        tracer, each untraced unit is followed by a traced one until the span
        cap is reached. Returns the untraced and traced wall times of the unit.
        """
        plain, traced = [], []
        deadline = time.perf_counter() + seconds
        every = seconds / self.w.setup_reps
        next_setup = time.perf_counter() + every
        while True:
            start = time.perf_counter()
            if start >= next_setup:
                self.setup()
                next_setup += every
            t0 = time.perf_counter()
            self.unit("queries")
            plain.append(time.perf_counter() - t0)
            if tracer is not None and len(tracer.spans) < SPAN_CAP:
                t0 = time.perf_counter()
                self.unit("queries", tracer)
                traced.append(time.perf_counter() - t0)
            now = time.perf_counter()
            if now + (now - start) > deadline:
                return plain, traced

    # -- probes and exact figures -------------------------------------------

    def time_batches(self, fn, args: list, expect: list, what: str) -> list[float]:
        """Per-call ns of `fn` over args, one sample per BATCH calls, checked against expect.

        An exception fails and drops the rest of its batch; a wrong result fails that call.
        """
        samples = []
        for k in range(0, len(args), BATCH):
            a = args[k:k + BATCH]
            self.attempted += len(a)
            try:
                t0 = time.perf_counter_ns()
                out = [fn(x) for x in a]
                t1 = time.perf_counter_ns()
            except Exception as e:
                self.fail(len(a), f"{what}: {e!r}")
                continue
            if out != expect[k:k + BATCH]:
                self.fail(sum(x != y for x, y in zip(out, expect[k:k + BATCH])), what)
            samples.append((t1 - t0) / len(a))
        return samples

    def probes(self) -> dict:
        """Substrate costs on fixed seeded inputs: bitvector, bit reader, DescentTable."""
        rng = np.random.default_rng([self.seed, 2])
        k = PROBE_BATCHES * BATCH
        nb = self.w.probe_bits
        arr = rng.integers(0, 2, nb, dtype=np.uint8)
        bv = succinct.Bitvector(arr)
        rank = np.concatenate(([0], np.cumsum(arr)))
        ones = np.flatnonzero(arr) + 1
        zeros = np.flatnonzero(arr == 0) + 1
        pos = rng.integers(0, nb + 1, k)
        r1 = rng.integers(1, ones.size + 1, k)
        r0 = rng.integers(1, zeros.size + 1, k)
        out = {
            "bitvector.rank1_ns": p50(self.time_batches(
                bv.rank1, pos.tolist(), rank[pos].tolist(), "rank1")),
            "bitvector.select1_ns": p50(self.time_batches(
                bv.select1, r1.tolist(), ones[r1 - 1].tolist(), "select1")),
            "bitvector.select0_ns": p50(self.time_batches(
                bv.select0, r0.tolist(), zeros[r0 - 1].tolist(), "select0")),
        }

        data = rng.bytes(k // 8 + 8)
        stream_bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        out["bits.read1_ns"] = p50(self.time_batches(
            bits.BitReader(data).read, [1] * k, stream_bits[:k].tolist(), "read1"))
        peeker = bits.BitReader(data)
        peeker.skip(3)  # an unaligned window spans three bytes
        window = int("".join(map(str, stream_bits[3:19])), 2)
        out["bits.peek_ns"] = p50(self.time_batches(peeker.peek, [16] * k, [window] * k, "peek"))

        wmm = self.models["wmm"]
        builds = []
        for _ in range(3):
            t0 = time.perf_counter()
            table = revcanon.build_descent_table(wmm, DESCENT_T)
            builds.append(time.perf_counter() - t0)
        out["revcanon.descent_table_build_s"] = p50(builds)
        batches = range(min(PROBE_BATCHES, len(self.pool)))
        readers = [bits.BitReader(*self.payloads["wmm"][b]) for b in batches]
        args = [r for b in batches for r in [readers[b]] * len(self.pool[b])]
        expect = [x for b in batches for x in self.expect["wmm", "decode"][b]]
        out["revcanon.decode_fast_ns"] = p50(self.time_batches(
            functools.partial(wmm.decode_fast, table), args, expect, "decode_fast"))
        return out

    # -- metrics -------------------------------------------------------------

    def end_to_end(self) -> dict:
        """`setup_s` is the median of the run's set-ups.

        Every pool batch is visited many times, and a query timing is the p50
        over batches of each batch's fastest visit. Other tenants of the
        machine slow it by up to 2x for seconds at a time, so a batch of
        under a few ms finds a fast moment in every run, and a longer unit
        does not.
        """
        out = {"setup_s": p50(self.setup_s)}
        self.samples = {"setup_s": f"median of {len(self.setup_s)} set-ups"}
        for fam in FAMILIES:
            for op in ("encode", "decode"):
                name = f"{fam}.{op}_ns"
                best = self.query_ns[fam, op]
                out[name] = p50(list(best.values()))
                self.samples[name] = (f"p50 of {len(best)} batches of {BATCH}, each the fastest"
                                      f" of {self.query_visits // len(QUERY_OPS) / max(len(best), 1):.1f}"
                                      " visits on average")
            out[f"{fam}.model_bits"] = self.models[fam].model_size_bits()
            out[f"{fam}.bits_per_sym"] = 8 * len(self.containers.get(fam, b"")) / self.w.n
        return out

    def per_layer(self, tracer: Tracer, rt_spans: tuple[int, int], own_plain, own_traced) -> dict:
        """`rt_spans` is the span range of the traced round trip."""
        n = self.w.n
        rt = SpanView(tracer.spans, *rt_spans)
        allv = SpanView(tracer.spans)

        def rt_s(name):  # total over the traced round trip, seconds
            return rt.total(name) / 1e9

        models = self.models
        alpha = models["alpha"]
        pool = np.array([c for b in self.pool for c in b], dtype=np.int64)
        lens = {fam: np.array(ls, dtype=np.int64) for fam, ls in self.lens.items()}
        out = {
            "cli.encode_self_s": rt.self_total("cli.encode") / 1e9,
            "cli.decode_self_s": rt.self_total("cli.decode") / 1e9,
            "stream.encode_ns_per_sym": rt_s("stream.encode") * 1e9 / (2 * n),
            "stream.decode_ns_per_sym": rt_s("stream.decode") * 1e9 / (2 * n),
            "stream.long_codeword_share": sum(
                int(self.counts @ (lens[fam] > LONG_CODEWORD)) for fam in FAMILIES) / (2 * n),
            "stream.codec_build_s": rt_s("stream.codec_build"),
            "corpus.container_write_s": rt_s("corpus.container_write"),
            "corpus.container_read_s": rt_s("corpus.container_read"),
            "corpus.model_bytes": sum(
                len(blob) - len(corpus.container_read(blob).payload_bytes)
                for blob in self.containers.values()),
            "revcanon.huffman_lengths_s": rt_s("revcanon.huffman_lengths"),
            "revcanon.code_build_s": rt_s("revcanon.code_build"),
            "revcanon.ascent_self_ns": p50(allv.self_times("revcanon.encode")),
            "revcanon.descent_self_ns": p50(allv.self_times("revcanon.decode")),
            "revcanon.encode_ns.p99": p99(allv.durations("revcanon.encode")),
            "revcanon.decode_ns.p99": p99(allv.durations("revcanon.decode")),
            "wavelet.access_ns": p50(allv.durations("wavelet.access", "revcanon.encode")),
            "wavelet.rank_ns": p50(allv.durations("wavelet.rank", "revcanon.encode")),
            "wavelet.select_ns": p50(allv.durations("wavelet.select", "revcanon.decode")),
            "wavelet.build_s": rt_s("wavelet.build"),
            "wmm.bits.D": models["wmm"].D.size_bits(),
            "alpha.bits.B": alpha.B.size_bits(),
            "alphabetic.optimal_tree_s": rt_s("alphabetic.optimal_tree"),
            "alphabetic.restrict_balance_s": rt_s("alphabetic.restrict_balance"),
            "alphabetic.compile_s": rt_s("alphabetic.compile"),
            "alphabetic.encode_select_share":
                sum(alpha.B.access(c) == 0 for c in pool.tolist()) / pool.size,
            "alphabetic.decode_dispatch_share":
                float(np.mean(lens["alpha"][pool - 1] <= alpha.cutoff)),
            "alphabetic.encode_ns.p99": p99(allv.durations("alphabetic.encode")),
            "alphabetic.decode_ns.p99": p99(allv.durations("alphabetic.decode")),
            "bits.bits_per_decode": float(np.mean(lens["wmm"][pool - 1])),
            "table.encode_ns": p50(list(self.query_ns["table", "encode"].values())),
            "table.decode_ns": p50(list(self.query_ns["table", "decode"].values())),
            "table.model_bits": models["table"].model_size_bits(),
            "trace.overhead_ratio": p50(own_traced) / p50(own_plain),
        }
        for fam in FAMILIES:
            depths = models[fam].depths
            out[f"{fam}.L"] = max(depths)
            out[f"{fam}.H0_D"] = depth_entropy(depths)
        out.update(self.probes())
        return out


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 workdir: Path):
    """Set up, measure for `seconds`, check every output; returns (metrics, run, tracer)."""
    run = Run(w, seed, workdir)
    run.setup()
    run.prepare_queries()
    tracer = Tracer() if trace else None
    plain, traced = run.loop(seconds, tracer)
    run.unit("roundtrip")
    if tracer is None:
        return run.end_to_end(), run, None
    lo = len(tracer.spans)
    run.unit("roundtrip", tracer)
    metrics = run.per_layer(tracer, (lo, len(tracer.spans)), plain, traced)
    metrics["ops_failed_ratio"] = run.failed / max(run.attempted, 1)
    return metrics, run, tracer
