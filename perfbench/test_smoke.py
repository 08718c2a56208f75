"""Smoke test of the benchmark: every workload once, at its smallest size.

    python3 -m pytest perfbench/test_smoke.py

Each run uses --smoke (one set-up and one deck per phase).  The test checks
that the metric names and units printed match BENCHMARK.json, that a
deliberately perturbed answer is counted as a failed op, and that the
benchmark refuses to run without the package source next to it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_match_benchmark_json(workload, trace):
    out = result(run(workload, trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], float) for m in out["metrics"].values())
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_answer_counts_as_failed(workload):
    out = result(run(workload, 0, "--perturb", "1e-2"))
    assert out["failed"] > 0 and not out["correct"]


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
