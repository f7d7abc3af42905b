#!/usr/bin/env python3
"""Whole-file throughput check: encode + decode a large synthetic corpus
with each code family through the bulk sequence codec and report wall times.

The codec is built as `ncpc encode` builds it: the family's depths from
the frequencies, then its codeword arrays from the depths.

    python scripts/throughput_smoke.py [--n 10000000] [--sigma 4096]
"""

import argparse
import sys
import time

import numpy as np

from ncpc.corpus import FAMILY_BY_NAME, family_codewords, family_depths, gen_zipf
from ncpc.stream import SequenceCodec


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
        t0 = time.monotonic()
        data, nbits = sc.encode(seq.symbols)
        t_enc = time.monotonic() - t0
        t0 = time.monotonic()
        back = sc.decode(data, seq.n, nbits)
        t_dec = time.monotonic() - t0
        assert np.array_equal(back, seq.symbols)
        total += t_enc + t_dec
        print(f"{name:6s} encode {t_enc:6.2f}s  decode {t_dec:6.2f}s  "
              f"payload {nbits / seq.n:.2f} bits/sym")
    print(f"total  {total:6.2f}s for {args.n} symbols x {len(FAMILY_BY_NAME)} families")
    return 0


if __name__ == "__main__":
    sys.exit(main())
