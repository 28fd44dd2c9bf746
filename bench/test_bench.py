"""Self-test of the benchmark: every workload at its small size, in both modes.

    python3 -m pytest bench/test_bench.py -q

Each run must print every metric BENCHMARK.json names, with its unit, and
check every verdict without a failure.  A copy of bench/ without the rest of
the checkout must exit non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_small_run_prints_every_metric(workload, trace):
    proc = bench(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", trace, "--size", "small",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert "failed_ratio = 0.0 ratio" in lines
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"], m["name"]
        assert isinstance(printed["value"], (int, float)), m["name"]


def test_refuses_to_run_without_the_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path, "--workload", "settle", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
