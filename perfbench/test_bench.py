"""The benchmark's own checks: bit-stable reruns, exact counts, a second
seed through every gate, and a complete per-layer report.

    python3 -m pytest perfbench/test_bench.py

Each case starts the launcher with the command line `BENCHMARK.json`
names and a short run length, so every run makes one repetition (a traced
run makes one untraced and one traced repetition).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, WORKLOADS  # noqa: E402
from spans import EXACT_COUNTS, PER_LAYER  # noqa: E402


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=180, check=True,
    )
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(detail), json.loads(result)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_reruns_repeat_digest_and_counts(workload):
    runs = [bench(workload, 0, trace=1) for _ in range(2)]
    for detail, result in runs:
        assert result["correct"], detail["failures"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == set(PER_LAYER)
    (d1, r1), (d2, r2) = runs
    assert d1["digest"] == d2["digest"] and len(d1["digest"]) == 1
    assert d1["counts"] == d2["counts"]
    for name in EXACT_COUNTS:
        assert r1["metrics"][name]["value"] == r2["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_passes_every_gate(workload):
    detail, result = bench(workload, 1, trace=0)
    assert result["correct"], detail["failures"]
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    # a copy of the benchmark alone has no kolkit to measure
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for src in HERE.glob("*.py"):
        (bench_dir / src.name).write_text(src.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
