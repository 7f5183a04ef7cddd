"""Self-test of the benchmark at smoke size.

Runs every workload in both modes on tiny inputs and checks that each
metric ``BENCHMARK.json`` names is emitted with its unit, that the
correctness gate ran and passed, and that nothing failed.  Run from the
repository root::

    python3 -m pytest perfbench -q
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: The workloads ``BENCHMARK.json`` lists, plus ``retune``, which stays
#: runnable for storage work but is not in the timed set.
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]] + ["retune"]


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", "3",
            "--seconds", "1",
            "--trace", str(trace),
            "--size", "smoke",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric_and_passes_its_gate(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, header_line, result_line = proc.stdout.strip().splitlines()
    header, result = json.loads(header_line), json.loads(result_line)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, header["gate"]
    assert result["attempted"] >= 1
    assert header["gate"] and all(ok for _, ok in header["gate"])

    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if trace:
        events = json.loads((ROOT / header["trace_file"]).read_text())["traceEvents"]
        assert any(e["name"] == f"op.{workload}" for e in events)
        # Only the roots lack a parent: no wrapper outlived its install.
        roots = ("op.", "setup.")
        assert all(
            e["args"]["parent"] is not None
            for e in events
            if not e["name"].startswith(roots)
        )
    else:
        metrics = result["metrics"]
        assert metrics["ok_ratio"]["value"] == 1.0
        assert all(m["value"] > 0 for m in metrics.values())


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path,
            tmp_path / path,
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
