#!/usr/bin/env python3
"""Benchmark sweep over synthetic corpora.

Builds zipf corpora across alphabet sizes and skews, runs every codec
once per corpus, and writes one combined CSV. This is the desk-scale
version of the size-versus-time comparison; edit the grids below to
taste.

    python scripts/bench_sweep.py out.csv [--n 1000000]
"""

import argparse
import sys

from ncpc.cli import BENCH_COLUMNS, bench_rows, format_bench_csv
from ncpc.corpus import gen_zipf

SIGMAS = [256, 1024, 4096]
SKEWS = [0.0, 1.0, 1.5]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("output")
    ap.add_argument("--n", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--time-symbols", type=int, default=20_000)
    args = ap.parse_args()

    rows = []
    for sigma in SIGMAS:
        for s in SKEWS:
            seq = gen_zipf(args.n, sigma, s, args.seed)
            label = f"zipf(n={args.n} sigma={sigma} s={s:g} seed={args.seed})"
            rows += bench_rows(seq, ["wmm", "table", "alpha"], [], label,
                               args.time_symbols, reps=3)
            print(f"done {label}", file=sys.stderr)
    with open(args.output, "w") as f:
        f.write(format_bench_csv(rows))
    print(f"{len(rows)} rows ({len(BENCH_COLUMNS)} columns) -> {args.output}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
