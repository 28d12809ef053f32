"""Smoke test of the benchmark itself, at tiny trace lengths.

Run from the repository root:

    python3 -m pytest perfbench -q -p no:cacheprovider

Every workload runs once with tracing off and once with tracing on; each
must pass its output checks and print every metric ``BENCHMARK.json``
names, with that metric's unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], *args], cwd=cwd, capture_output=True, text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload: str, trace: int) -> None:
    done = _run(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", str(trace), "--smoke",
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    table = "\n".join(lines[:-1])
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], (int, float)), metric["name"]
        assert f"{metric['name']} " in table and f" {metric['unit']}" in table
    assert "fail_frac" in table
    if trace and workload == "spec-sb-bound":
        assert result["metrics"]["workloads.gen_per_trace"]["value"] == 4.0


def test_refuses_to_run_without_the_simulator(tmp_path: Path) -> None:
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    done = _run(
        tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
        "--trace", "0",
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
