"""The benchmark harness runs end to end on tiny inputs and its checks pass,
untraced and traced (``--trace 1`` wraps calimp functions by name, so a
renamed or deleted function breaks it)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ["study", "bulk", "survey_cli"]


@pytest.mark.parametrize(
    "workload, trace",
    [pytest.param(w, 0, id=w) for w in WORKLOADS] + [pytest.param(w, 1, id=f"{w}-traced") for w in WORKLOADS],
)
def test_smoke_run_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True, summary
