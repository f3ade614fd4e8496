"""Smoke test of the benchmark: each workload at minimal size prints every
metric with its unit and fails no op.

    python3 -m pytest perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# printed on the human-readable lines, with their units
PRINTED = {
    "search-certify": ("fail_ratio ratio", "unsolved_ratio ratio"),
    "build-verify": ("fail_ratio ratio", "vertices_per_s 1/s"),
    "couple-rearrange": ("fail_ratio ratio", "swaps_per_s 1/s"),
}


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def result_of(out):
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return lines[:-1], result["metrics"]


def assert_metrics(metrics, declared):
    assert list(metrics) == [m["name"] for m in declared]
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    lines, metrics = result_of(run(workload, 0))
    assert_metrics(metrics, SPEC["end_to_end"])
    assert all(entry["value"] > 0 for entry in metrics.values())
    # metric lines read "  name  value unit  note"
    printed = {f"{name} {unit}": float(value) for name, value, unit in
               re.findall(r"^ +(\S+) +(\S+) +(\S+)", "\n".join(lines), re.M)}
    for name in PRINTED[workload]:
        assert name in printed
    assert printed["fail_ratio ratio"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    _, metrics = result_of(run(workload, 1))
    assert_metrics(metrics, SPEC["per_layer"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out"))
    out = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert out.returncode != 0
    assert "correct" not in out.stdout
