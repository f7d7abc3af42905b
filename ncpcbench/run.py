#!/usr/bin/env python3
"""ncpc benchmark: seeded workloads, correctness gates, end-to-end and per-layer metrics.

Run from the repository root:

    python3 ncpcbench/run.py --workload point --seed 1 --seconds 55 --trace 0
    python3 ncpcbench/run.py --compare BASE.jsonl NEW.jsonl

A run pins itself to one core, builds its inputs from --seed, measures for
--seconds and prints an environment line, one line per metric (name,
value, unit, better) and, last, one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json; --trace 1 runs traced units as well, reports the per-layer
metrics and writes the spans to .ncpcbench/trace-<workload>.jsonl.

--compare reads files of such result lines (one per run), and prints the
median change of each metric against its bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".ncpcbench"


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pin_one_core() -> tuple[list[int], int]:
    allowed = sorted(os.sched_getaffinity(0))
    core = allowed[-1]
    os.sched_setaffinity(0, {core})
    return allowed, core


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median; inf with fewer than two values."""
    if len(values) < 2:
        return float("inf")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def compare(base_path: str, new_path: str) -> int:
    specs = {m["name"]: m for kind in ("end_to_end", "per_layer") for m in declared()[kind]}

    def load(path):
        values: dict[str, list[float]] = {}
        with open(path) as f:
            for line in f:
                if line.startswith("{") and '"metrics"' in line:
                    for name, m in json.loads(line)["metrics"].items():
                        values.setdefault(name, []).append(m["value"])
        return values

    base, new = load(base_path), load(new_path)
    print(f"{'metric':34} {'base p50':>14} {'new p50':>14} {'worse by':>9} {'bound':>6}  verdict")
    for name in sorted(base.keys() & new.keys()):
        spec = specs.get(name, {})
        b, n = statistics.median(base[name]), statistics.median(new[name])
        sign = -1 if spec.get("better") == "higher" else 1
        worse = sign * (n - b) / abs(b) if b else 0.0
        bound = spec.get("bound")
        all_better = all(sign * (x - y) < 0 for x in new[name] for y in base[name])
        if bound is None:
            verdict = "no bound"
        elif max(spread(base[name]), spread(new[name])) > bound and not all_better:
            verdict = "unresolved"
        else:
            verdict = "REGRESSED" if worse > bound else "ok"
        bound_s = f"{bound:.2f}" if bound is not None else "-"
        print(f"{name:34} {b:14.6g} {n:14.6g} {worse:+9.2%} {bound_s:>6}  {verdict}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = ap.parse_args(argv)
    spec = declared()
    if args.compare:
        return compare(*args.compare)

    src = ROOT / "src"
    if not (src / "ncpc" / "__init__.py").is_file():
        print(f"error: no ncpc sources under {src}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    allowed, core = pin_one_core()
    sys.path.insert(0, str(src))
    import numpy
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR) as tmp:
        values, run, tracer = workloads.run_workload(w, args.seed, seconds, bool(args.trace),
                                                     Path(tmp))
    env = {"workload": w.name, "seed": args.seed, "seconds": seconds, "trace": args.trace,
           "n": w.n, "sigma": run.sigma, "sigma_requested": w.sigma, "zipf_s": workloads.ZIPF_S,
           "python": platform.python_version(), "numpy": numpy.__version__,
           "nproc": os.cpu_count(), "affinity_allowed": allowed, "affinity_used": [core],
           "commit": git_commit(ROOT)}
    print(json.dumps({"env": env}))
    if run.samples:
        print(json.dumps({"samples": run.samples}))
    if tracer is not None:
        path = WORKDIR / f"trace-{w.name}.jsonl"
        tracer.write(path)
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")

    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:34} {value:16.6f} {m['unit']:8} {m['better']} is better")
    print(f"attempted {run.attempted}, failed {run.failed}")
    print(json.dumps({"correct": run.failed == 0, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
