"""Quick checks of the benchmark itself, at tiny sizes.

    python3 -m pytest -q ncpcbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SIZES = {"point": dict(n=3000, sigma=64), "point-wide": dict(n=2000, sigma=512)}


def tiny(name: str) -> workloads.Workload:
    return replace(workloads.WORKLOADS[name], **SIZES[name],
                   pool_batches=8, unit_batches=4, probe_bits=4096)


def run_main(monkeypatch, capsys, name: str, trace: int) -> dict:
    monkeypatch.setitem(workloads.WORKLOADS, name, tiny(name))
    assert bench.main(["--workload", name, "--seed", "1", "--seconds", "0",
                       "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_declared_workloads_are_the_ones_run():
    assert list(workloads.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(monkeypatch, capsys, name, trace):
    result = run_main(monkeypatch, capsys, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_flipped_payload_bit_counts_as_failure(tmp_path):
    run = workloads.Run(tiny("point"), 1, tmp_path)
    run.build_models()
    run.prepare_queries()
    data, nbits = run.payloads["wmm"][0]
    run.payloads["wmm"][0] = (bytes([data[0] ^ 0x80]) + data[1:], nbits)
    run.queries(1)
    assert run.failed > 0
    assert run.attempted == len(workloads.QUERY_OPS) * len(run.pool[0])


def test_traced_run_writes_spans(monkeypatch, capsys):
    run_main(monkeypatch, capsys, "point", 1)
    lines = (bench.WORKDIR / "trace-point.jsonl").read_text().splitlines()
    spans = [json.loads(line) for line in lines]
    names = {s["name"] for s in spans}
    assert {"cli.encode", "corpus.container_read", "stream.decode", "revcanon.encode",
            "wavelet.select", "alphabetic.decode", "table.encode"} <= names
    for i, s in enumerate(spans):
        assert set(s) == {"id", "name", "start", "end", "parent"} and s["id"] == i
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]


def test_exact_metrics_repeat_for_a_seed(tmp_path):
    exact = ["wmm.bits.D", "alpha.bits.B", "table.model_bits", "corpus.model_bytes",
             "stream.long_codeword_share", "alphabetic.encode_select_share",
             "alphabetic.decode_dispatch_share", "bits.bits_per_decode", "alpha.L", "alpha.H0_D"]
    runs = []
    for k in range(2):
        (tmp_path / str(k)).mkdir()
        values, _, _ = workloads.run_workload(tiny("point"), 5, 0, True, tmp_path / str(k))
        runs.append([values[name] for name in exact])
    assert runs[0] == runs[1]


def test_compare_marks_regressions_and_unresolved(tmp_path, capsys):
    def write(path, rows):
        path.write_text("".join(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {
            k: {"value": v, "unit": "ns"} for k, v in row.items()}}) + "\n" for row in rows))

    write(tmp_path / "base", [{"wmm.encode_ns": 100 + i, "alpha.encode_ns": 50 * (1 + i)}
                              for i in range(4)])
    write(tmp_path / "new", [{"wmm.encode_ns": 130 + i, "alpha.encode_ns": 50 * (1 + i)}
                             for i in range(4)])
    bench.compare(str(tmp_path / "base"), str(tmp_path / "new"))
    verdicts = {line.split()[0]: line.split()[-1] for line in capsys.readouterr().out.splitlines()}
    assert verdicts["wmm.encode_ns"] == "REGRESSED"
    assert verdicts["alpha.encode_ns"] == "unresolved"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "ncpcbench", tmp_path / "ncpcbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "ncpcbench/run.py", "--workload", "point", "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                       capture_output=True, text=True, timeout=180)
    assert p.returncode != 0 and p.stdout == ""
