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


def test_query_counts_count_the_reader_calls_of_each_decode(tmp_path):
    """Every family's decode reads the reader's window with no peek, skip or
    read call, and refills it exactly where a read of the family's width
    would pass the window's end: the count equals a replay of the window
    (128 bits from the cursor's byte) over the counted slice's payloads."""
    script = runpy.run_path(str(ROOT / "scripts" / "query_counts.py"))
    run = script["load_run"]("point", 1, tmp_path)
    counts, wrong = script["query_counts"](run, 4)
    assert not wrong
    widths = {"wmm": run.models["wmm"].L, "alpha": run.models["alpha"].height_cap,
              "table": run.models["table"].max_len}
    pool = run.pool[:4]
    queries = sum(len(batch) for batch in pool)
    for fam, width in widths.items():
        refills = 0
        for batch in pool:
            pos, end = 0, 128
            for c in batch:
                if pos + width > end:
                    end = (pos >> 3 << 3) + 128
                    refills += 1
                pos += run.lens[fam][c - 1]
        assert refills > 0
        assert [counts[f"{fam}.decode_{k}"] for k in ("peeks", "skips", "reads", "refills")] == [
            0, 0, 0, refills / queries], fam


def test_query_counts_fails_when_a_decode_calls_the_reader(monkeypatch, capsys):
    """A decode that still gives every right result but calls peek exits 1."""
    from ncpc.alphabetic import CompactAlphabeticCode
    real = CompactAlphabeticCode.decode

    def peeks_first(self, reader):
        reader.peek(1)
        return real(self, reader)

    monkeypatch.setattr(CompactAlphabeticCode, "decode", peeks_first)
    monkeypatch.setattr(sys, "argv", ["query_counts.py", "--batches", "1"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / "query_counts.py"), run_name="__main__")
    assert exc.value.code == 1
    assert capsys.readouterr().err.splitlines() == ["reader call: alpha decode calls BitReader.peek"]
