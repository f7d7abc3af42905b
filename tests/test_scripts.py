"""The scripts under scripts/ run end to end at tiny sizes."""

import csv
import itertools
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from ncpc.cli import BENCH_COLUMNS
from ncpc.stream import SequenceCodec

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)


def test_bench_sweep_writes_one_row_per_corpus_and_codec(tmp_path):
    grids = runpy.run_path(str(ROOT / "scripts" / "bench_sweep.py"))
    out = tmp_path / "sweep.csv"
    proc = run_script("bench_sweep.py", str(out), "--n", "2000", "--time-symbols", "100")
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as f:
        header, *rows = list(csv.reader(f))
    assert header == BENCH_COLUMNS
    corpora = [f"zipf(n=2000 sigma={sigma} s={s:g} seed=42)"
               for sigma, s in itertools.product(grids["SIGMAS"], grids["SKEWS"])]
    assert sorted((row[0], row[1]) for row in rows) == sorted(
        itertools.product(corpora, ["wmm", "table", "alpha"]))


def test_throughput_smoke_round_trips():
    proc = run_script("throughput_smoke.py", "--n", "20000", "--sigma", "256")
    assert proc.returncode == 0, proc.stderr
    assert "total" in proc.stdout


def test_throughput_smoke_fails_when_decode_differs(monkeypatch, capsys):
    real = SequenceCodec.decode

    def off_by_one(self, *args):
        out = real(self, *args)
        out[0] += 1
        return out

    monkeypatch.setattr(SequenceCodec, "decode", off_by_one)
    monkeypatch.setattr(sys, "argv", ["throughput_smoke.py", "--n", "2000", "--sigma", "64"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / "throughput_smoke.py"), run_name="__main__")
    assert exc.value.code == 1
    assert "alpha: decode does not give back the corpus" in capsys.readouterr().err


def test_query_counts_repeat_and_count_one_select_per_codeword_deeper_than_t2(tmp_path):
    """Two runs print identical counts, and wmm decode selects on D once for
    each codeword of the counted slice deeper than t2, in as many steps as
    wmm encode walks D's levels. In this process, which other tests may
    have traced, only the structural counts are compared."""
    outs = []
    for _ in range(2):
        proc = run_script("query_counts.py", "--batches", "4")
        assert proc.returncode == 0, proc.stderr
        outs.append(json.loads(proc.stdout.splitlines()[-1]))
    assert outs[0] == outs[1] and outs[0]["correct"] is True

    script = runpy.run_path(str(ROOT / "scripts" / "query_counts.py"))
    run = script["load_run"]("point", 1, tmp_path)
    counts, wrong = script["query_counts"](run, 4)
    structural = ["wmm.encode_levels", "wmm.decode_selects", "wmm.decode_select_steps"]
    assert not wrong and [counts[k] for k in structural] == [outs[0]["counts"][k] for k in structural]
    code = run.models["wmm"]
    pool = [c for batch in run.pool[:4] for c in batch]
    assert counts["wmm.decode_selects"] == sum(
        code.depths[c - 1] > code.t2 for c in pool) / len(pool) > 0
    assert counts["wmm.decode_select_steps"] == counts["wmm.encode_levels"] == sum(
        code.D._codes[code.depths[c - 1]][1] for c in pool
        if code.depths[c - 1] > code.t2) / len(pool)


def test_query_counts_fails_when_a_result_differs(monkeypatch, capsys):
    from ncpc.revcanon import RevCanonCode
    real = RevCanonCode.decode

    def off_by_one(self, reader):
        c, l = real(self, reader)
        return (c + 1, l)

    monkeypatch.setattr(RevCanonCode, "decode", off_by_one)
    monkeypatch.setattr(sys, "argv", ["query_counts.py", "--batches", "1"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / "query_counts.py"), run_name="__main__")
    assert exc.value.code == 1
    assert "wrong result: wmm decode query 0" in capsys.readouterr().err
