"""The scripts under scripts/ run end to end at tiny sizes."""

import csv
import itertools
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
