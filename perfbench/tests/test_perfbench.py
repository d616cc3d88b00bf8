"""The benchmark's own tests: tiny-horizon runs and checks that catch bad output.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, operations  # noqa: E402

SHRINK = 6  # every horizon divided by 64
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--shrink", str(SHRINK)],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_workload_inputs_follow_the_seed():
    assert operations("weights-query", 5) == operations("weights-query", 5)
    assert operations("weights-query", 5) != operations("weights-query", 6)
    assert [op.horizon for op in operations("analyze-dense", 5)] == [10**6, 2**20]


def _measure(workload: str) -> dict:
    cli = worker.import_cli()
    ops = operations(workload, 3, SHRINK)
    return worker.measure(cli, ops, 0.0, random.Random(3), worker.OUT_DIR / "test-report.jsonl")


def test_wrong_expected_limit_fails(monkeypatch):
    worker.OUT_DIR.mkdir(exist_ok=True)
    assert _measure("analyze-sparse")["failed"] == 0
    monkeypatch.setitem(checks.KNOWN_LIMITS, "F4", 0.5)
    result = _measure("analyze-sparse")
    assert result["failed"] == result["attempted"] // 3  # every F4 call


@pytest.mark.parametrize("workload", ["analyze-dense", "weights-query"])
def test_corrupted_count_fails(monkeypatch, workload):
    worker.OUT_DIR.mkdir(exist_ok=True)
    run_op = worker.run_op

    def corrupted(cli, op, out_path):
        code, seconds, text = run_op(cli, op, out_path)
        bumped = re.sub(r'"max_count": (\d+)', lambda m: f'"max_count": {int(m[1]) + 1}', text)
        return code, seconds, bumped

    monkeypatch.setattr(worker, "run_op", corrupted)
    result = _measure(workload)
    assert result["failed"] == result["attempted"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "analyze-sparse", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
