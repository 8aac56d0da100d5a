"""Smoke test of the benchmark on tiny instances of every workload.

    python -m pytest -q bench/test_smoke.py
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
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def tiny(workload, trace, *extra, seconds="1"):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", seconds,
                     "--trace", str(trace), "--tiny", *extra)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_command_prints_every_metric_with_its_unit(workload, trace):
    report, result = tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    rows = {line.split()[0]: line.split() for line in report if line.startswith("  ")}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert rows[m["name"]][2] == m["unit"], rows[m["name"]]
    assert any("fail_ratio=0 " in line for line in report)
    assert any("wait_s=0" in line for line in report)
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9


def test_corrupted_sigma_claim_fails_exactly_one_operation():
    report, result = tiny("pipeline_3p12", 0, "--corrupt-sigma", seconds="0.001")
    assert result["correct"] is False
    assert result["failed"] == 1, report
    assert sum(line.startswith("FAIL certify") for line in report) == 1


def test_same_seed_same_inputs():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import workloads
    finally:
        del sys.path[:2]
    for name in WORKLOADS:
        make = workloads.RECIPES[name]
        assert make(5, True) == make(5, True)
    assert workloads.RECIPES["desk_p3"](5, True) != workloads.RECIPES["desk_p3"](6, True)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
