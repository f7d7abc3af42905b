#!/usr/bin/env python3
"""Whole-file throughput check: encode + decode a large synthetic corpus
with each code family through the bulk sequence codec and report the
median of 3 wall times per family and direction.

The codec is built as `ncpc encode` builds it: the family's depths from
the frequencies, then its codeword arrays from the depths. A family whose
decode does not give back the corpus is named on stderr and the script
exits with status 1.

    python scripts/throughput_smoke.py [--n 10000000] [--sigma 4096]
"""

import argparse
import statistics
import sys
import time

import numpy as np

from ncpc.corpus import FAMILY_BY_NAME, family_codewords, family_depths, gen_zipf
from ncpc.stream import SequenceCodec

REPS = 3    # timed calls per family and direction


def timed(fn, *args):
    """fn(*args) and the median wall time of REPS calls, in seconds."""
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - t0)
    return out, statistics.median(times)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=10_000_000)
    ap.add_argument("--sigma", type=int, default=4096)
    ap.add_argument("--skew", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    seq = gen_zipf(args.n, args.sigma, args.skew, args.seed)
    freqs = seq.smoothed_freqs()
    total = 0.0
    for name, family in FAMILY_BY_NAME.items():
        sc = SequenceCodec(*family_codewords(family, family_depths(family, freqs)))
        (data, nbits), t_enc = timed(sc.encode, seq.symbols)
        back, t_dec = timed(sc.decode, data, seq.n, nbits)
        if not np.array_equal(back, seq.symbols):
            print(f"{name}: decode does not give back the corpus", file=sys.stderr)
            return 1
        total += t_enc + t_dec
        print(f"{name:6s} encode {t_enc:6.2f}s  decode {t_dec:6.2f}s  "
              f"payload {nbits / seq.n:.2f} bits/sym")
    print(f"total  {total:6.2f}s for {args.n} symbols x {len(FAMILY_BY_NAME)} families "
          f"(median of {REPS} per step)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
