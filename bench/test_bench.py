"""Checks on the benchmark itself: run with ``python3 -m pytest bench/test_bench.py``.

The runs are short, a few seconds each; the whole file takes one to two
minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).with_name("run.py")
SPEC = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _result(workload: str, seed: int, trace: int, seconds: int = 0) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    # Six seconds give every workload at least two cycles on the reference
    # machine, so a traced pass runs both right after set-up and after an
    # untraced pass; a run whose passes' counts differ reports correct=false.
    first = _result(workload, 7, trace=1, seconds=6)
    second = _result(workload, 7, trace=1, seconds=6)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = {m: v for m, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts == {m: second["metrics"][m] for m in counts}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics(workload):
    result = _result(workload, 3, trace=0)
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    # Only the long chain, a known RecursionError, may fail.
    assert result["failed"] == (1 if workload == "random-instances" else 0)


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in RUN.parent.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (bench / "golden.json").write_text(RUN.with_name("golden.json").read_text())
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "gadget-oracle",
         "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=180, check=False)
    assert done.returncode != 0
    assert done.stdout == ""
