"""Smoke test of the benchmark, kept out of the package's test suite.

Runs every workload at a tiny size, untraced and traced, and checks that
each metric BENCHMARK.json names comes out with its unit; also checks that
the benchmark fails without the package and when an outcome changes.

    python3 -m pytest -q benchmarks/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 600


def run_bench(cwd: Path, workload: str, trace: int = 0):
    return subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in wanted})


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, BENCH["workloads"][0]["name"])
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_fails_when_an_outcome_changes(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    # A lower threat limit ends some games sooner.
    scenario = tmp_path / "src" / "questsim" / "data" / "mirkwood.json"
    doc = json.loads(scenario.read_text())
    doc["threat_limit"] -= 10
    scenario.write_text(json.dumps(doc))
    proc = run_bench(tmp_path, "expert-batch")
    assert proc.returncode == 1
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False
