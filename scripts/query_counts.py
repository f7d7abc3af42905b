#!/usr/bin/env python3
"""Exact work counts per query, untimed, beside the benchmark's timings.

Builds a benchmark workload's models and seeded query pool as
ncpcbench/run.py does, and over the pool's first --batches batches of 32
prints, per family and op, the bytecodes executed per query (counted with
sys.settrace and f_trace_opcodes; a call into C counts as the one
instruction that makes it). Beside them it prints the structural counts
that C calls hide: D's levels walked per wmm encode, the D.select calls
and their steps (one bisect each) per wmm decode, and per family the
BitReader peek, skip, read and _refill calls per decode. The last line is
one JSON object with every count.

    python scripts/query_counts.py [--workload point] [--seed 1] [--batches 64]

Each count repeats exactly for one Python version in a fresh process;
bytecode counts differ between versions, and in a process that has
traced the same code before. A counted query whose result differs from the family's
codeword_arrays(), or a family whose decode calls a BitReader method other
than _refill (the decoders read the reader's window inline, see ncpc.bits),
is named on stderr and the script exits with status 1.
"""

import argparse
import json
import platform
import sys
import tempfile
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "ncpcbench"))

from ncpc import bits, succinct  # noqa: E402
from workloads import QUERY_OPS, WORKLOADS, Run  # noqa: E402

READER_CALLS = ("peek", "skip", "read", "_refill")  # a decoder may call only _refill


def load_run(workload: str, seed: int, workdir: Path) -> Run:
    """The workload's models and query pool, built as the benchmark builds them."""
    run = Run(WORKLOADS[workload], seed, workdir)
    run.setup()
    run.prepare_queries()
    return run


def traced_calls(fn, args: list) -> tuple[list, int]:
    """(fn(a) for each a, the bytecodes those calls executed)."""
    n = 0

    def opcodes(frame, event, arg):
        nonlocal n
        if event == "opcode":
            n += 1
        return opcodes

    def enter(frame, event, arg):
        frame.f_trace_opcodes = True
        return opcodes

    out = []
    sys.settrace(enter)
    try:
        for a in args:
            out.append(fn(a))
    finally:
        sys.settrace(None)
    return out, n


def op_calls(run: Run, fam: str, op: str, batches: range):
    """(fn, args, expected results) of one op over the batches; each decode
    batch reads its own payload, as the benchmark's do."""
    code = run.models[fam]
    args, expect = [], []
    for b in batches:
        if op == "encode":
            args += run.pool[b]
        else:
            args += [bits.BitReader(*run.payloads[fam][b])] * len(run.pool[b])
        expect += run.expect[fam, op][b]
    return getattr(code, op), args, expect


class _Counted:
    """An iterable over `items` that counts the items taken from it."""

    def __init__(self, items) -> None:
        self.items = items
        self.taken = 0

    def __iter__(self):
        for x in self.items:
            self.taken += 1
            yield x


def query_counts(run: Run, batches: int) -> tuple[dict, list[str]]:
    """(counts per query by name, one line per wrong result or refused reader call)."""
    span = range(min(batches, len(run.pool)))
    counts, wrong = {}, []
    for fam, op in QUERY_OPS:
        fn, args, expect = op_calls(run, fam, op, span)
        got, n = traced_calls(fn, args)
        counts[f"{fam}.{op}_bytecodes"] = n / len(args)
        wrong += [f"wrong result: {fam} {op} query {k}: {g} != {e}"
                  for k, (g, e) in enumerate(zip(got, expect)) if g != e]

    wmm = run.models["wmm"]
    fn, args, _ = op_calls(run, "wmm", "encode", span)
    walk = _Counted(wmm._walk)
    with mock.patch.object(wmm, "_walk", walk):
        for a in args:
            fn(a)
    counts["wmm.encode_levels"] = walk.taken / len(args)

    selects = steps = 0
    select, bisect_left = succinct.WaveletTree.select, succinct.bisect_left

    def counted_select(*a):
        nonlocal selects
        selects += 1
        return select(*a)

    def counted_bisect(*a):
        nonlocal steps
        steps += 1
        return bisect_left(*a)

    fn, args, _ = op_calls(run, "wmm", "decode", span)
    with mock.patch.object(succinct.WaveletTree, "select", counted_select), \
            mock.patch.object(succinct, "bisect_left", counted_bisect):
        for a in args:
            fn(a)
    counts["wmm.decode_selects"] = selects / len(args)
    counts["wmm.decode_select_steps"] = steps / len(args)

    for fam in run.models:
        calls = dict.fromkeys(READER_CALLS, 0)

        def counted(name, real):
            def call(self, *a):
                calls[name] += 1
                return real(self, *a)
            return call

        fn, args, _ = op_calls(run, fam, "decode", span)
        with ExitStack() as patches:
            for name in READER_CALLS:
                patches.enter_context(mock.patch.object(
                    bits.BitReader, name, counted(name, getattr(bits.BitReader, name))))
            for a in args:
                fn(a)
        for name, n in calls.items():
            counts[f"{fam}.decode_{name.lstrip('_')}s"] = n / len(args)
        wrong += [f"reader call: {fam} decode calls BitReader.{name}"
                  for name, n in calls.items() if n and name != "_refill"]
    return counts, wrong


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default="point")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--batches", type=int, default=64)
    args = ap.parse_args()
    if args.batches < 1:
        ap.error(f"--batches must be >= 1: {args.batches}")

    with tempfile.TemporaryDirectory() as tmp:
        run = load_run(args.workload, args.seed, Path(tmp))
        counts, wrong = query_counts(run, args.batches)
    queries = sum(len(b) for b in run.pool[:args.batches])
    print(f"# python {platform.python_version()}, workload {args.workload}, seed {args.seed},"
          f" {queries} queries per op")
    for name, value in counts.items():
        print(f"{name:28s} {value:10.3f} per query")
    print(json.dumps({"python": platform.python_version(), "workload": args.workload,
                      "seed": args.seed, "queries": queries, "correct": not wrong,
                      "counts": counts}))
    for line in wrong:
        print(line, file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
