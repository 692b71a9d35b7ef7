"""Smoke test of the benchmark: every workload's code path at a toy shape,
the printed JSON layout, and BENCHMARK.json against the metric tables.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why and len(w["why"]) <= 200
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_toy_run_prints_every_metric(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2 + trace
    expected = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == list(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name][0]
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0, name
    if trace:
        assert result["metrics"]["randomness.used_share.scalar"]["value"] < 1


def test_failed_check_is_counted(monkeypatch, capsys):
    good = {"traced": False, "warmup": False, "samples": 4, "iterations": 1, "setup_s": 1.0,
            "train_s": 1.0, "train_wall_s": 1.0, "wall_s": 2.0, "rounds": 16,
            "bytes_sent": 100, "ring_mults": 1, "bit_mults": 1, "digests": ["a", "b"],
            "stream_bytes": 10, "peak_rss_mb": 1.0, "problems": []}
    cycles = [dict(good, warmup=True), dict(good, problems=["weights diverge"]), good]
    monkeypatch.setattr(run, "run_process", lambda *a: cycles)
    rc = run.main(["--workload", "tall", "--seed", "1", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 3, 1)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "tall", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
