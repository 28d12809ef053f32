"""Performance-regression guard for the production engine.

Two assertions, both on the canonical compute-bound workload (exchange2,
where the pipeline loop — not the memory hierarchy — dominates, so engine
speedups are cleanest):

* the fast engine is at least 1.5× the step-every-cycle reference engine
  (the model's specification), measured in-process on the same machine in
  the same run (machine-independent);
* the fast engine has not regressed more than 20% against the committed
  ``BENCH_fastpath.json`` snapshot.  Throughput is measured in µops
  simulated per run of a fixed pure-Python calibration kernel, timed in the
  same process, in CPU time, by the same function that wrote the snapshot
  — so a slower or busier host moves both sides alike and the guard
  measures the code, not the machine.

A second pair of assertions covers the multicore event heap: fast ≥ 1.5×
the lockstep reference in-process on a 4-core dedup cell (``run()`` timed
only, on a system built untimed), and the committed ``BENCH_multicore.json``
snapshot must record a geomean ≥ 1.8×.

``REPRO_SKIP_PERF=1`` skips the whole module (laptops, loaded CI boxes).
Regenerate both snapshots with ``python benchmarks/bench_simulator_throughput.py``.
"""

from __future__ import annotations

import gc
import importlib.util
import json
import os
import time
from pathlib import Path

import pytest

from repro import SystemConfig, simulate, spec2017

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_PERF") == "1",
    reason="REPRO_SKIP_PERF=1: perf guard disabled on this machine",
)

LENGTH = 10_000
ROUNDS = 5
_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = _ROOT / "BENCH_fastpath.json"
MULTICORE_BENCH_PATH = _ROOT / "BENCH_multicore.json"
MULTICORE_THREADS = 4
MULTICORE_LENGTH = 8_000
MULTICORE_ROUNDS = 3


def _load_throughput_bench():
    """The module that writes the snapshot, so both measure the same way."""
    path = _ROOT / "benchmarks" / "bench_simulator_throughput.py"
    spec = importlib.util.spec_from_file_location("_bench_throughput", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def timings():
    """Best-of-N seconds per engine, interleaved so load drift cancels."""
    trace = spec2017("exchange2", length=LENGTH)
    configs = {
        engine: SystemConfig.skylake(
            sb_entries=14, store_prefetch="at-commit", engine=engine
        )
        for engine in ("reference", "fast")
    }
    for config in configs.values():
        simulate(trace, config)  # warm imports/JIT-free but touches caches
    best = {engine: float("inf") for engine in configs}
    gc.disable()
    try:
        for _ in range(ROUNDS):
            for engine, config in configs.items():
                gc.collect()
                start = time.perf_counter()
                result = simulate(trace, config)
                best[engine] = min(best[engine], time.perf_counter() - start)
                assert result.pipeline.committed_uops == LENGTH
    finally:
        gc.enable()
    return best


def test_fast_engine_at_least_1_5x_reference(timings):
    speedup = timings["reference"] / timings["fast"]
    assert speedup >= 1.5, (
        f"fast engine only {speedup:.2f}x reference "
        f"(ref {timings['reference']:.4f}s, fast {timings['fast']:.4f}s); "
        "the cycle-skipping path has regressed"
    )


def test_fast_engine_not_regressed_vs_snapshot():
    cell = json.loads(BENCH_PATH.read_text())["cells"]["compute/at-commit"]
    baseline = cell["fast_uops_per_calibration_run"]
    measured = _load_throughput_bench().uops_per_calibration_run(
        spec2017("exchange2", length=LENGTH), "at-commit"
    )
    floor = 0.8 * baseline
    assert measured >= floor, (
        f"fast engine at {measured:.0f} µops per calibration-kernel "
        f"run, more than 20% below the committed baseline of {baseline} "
        f"(floor {floor:.0f}); either fix the regression or regenerate "
        "BENCH_fastpath.json via "
        "'python benchmarks/bench_simulator_throughput.py fastpath'"
    )


def test_snapshot_records_the_target_speedup():
    """The committed snapshot itself must document the ≥2× headline."""
    snapshot = json.loads(BENCH_PATH.read_text())
    assert snapshot["geomean_speedup"] >= 2.0
    assert snapshot["max_speedup"] >= 2.0
    assert set(snapshot["cells"]) == {
        "compute/at-commit", "memory/at-commit", "burst/at-commit", "burst/spb",
    }


@pytest.fixture(scope="module")
def multicore_timings():
    """Best-of-N run() seconds per engine on a 4-core dedup cell.

    Each timed region covers ``system.run()`` only — a fresh
    ``MulticoreSystem`` is built untimed before each run, since the fast
    engine's per-µop precompute makes construction engine-specific.
    """
    from repro import parsec
    from repro.multicore.system import MulticoreSystem

    traces = parsec("dedup", threads=MULTICORE_THREADS, length=MULTICORE_LENGTH)
    configs = {
        engine: SystemConfig.skylake(
            sb_entries=14, store_prefetch="spb",
            num_cores=MULTICORE_THREADS, engine=engine,
        )
        for engine in ("reference", "fast")
    }
    for config in configs.values():
        MulticoreSystem(config, list(traces)).run()  # warm-up
    best = {engine: float("inf") for engine in configs}
    gc.disable()
    try:
        for _ in range(MULTICORE_ROUNDS):
            for engine, config in configs.items():
                system = MulticoreSystem(config, list(traces))
                gc.collect()
                start = time.perf_counter()
                result = system.run()
                best[engine] = min(best[engine], time.perf_counter() - start)
                assert result.committed_uops == (
                    MULTICORE_THREADS * MULTICORE_LENGTH
                )
    finally:
        gc.enable()
    return best


def test_multicore_fast_engine_at_least_1_5x_reference(multicore_timings):
    speedup = multicore_timings["reference"] / multicore_timings["fast"]
    assert speedup >= 1.5, (
        f"multicore fast engine only {speedup:.2f}x reference "
        f"(ref {multicore_timings['reference']:.4f}s, "
        f"fast {multicore_timings['fast']:.4f}s); "
        "the multicore event heap has regressed"
    )


def test_multicore_snapshot_records_target_speedup():
    """The committed multicore snapshot must document the ≥1.8× headline."""
    snapshot = json.loads(MULTICORE_BENCH_PATH.read_text())
    assert snapshot["geomean_speedup"] >= 1.8
    assert snapshot["threads"] == 8
    assert snapshot["cells"]
