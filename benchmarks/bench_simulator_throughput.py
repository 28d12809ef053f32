"""Simulator micro-benchmarks: µops simulated per second, per engine.

Unlike the figure benchmarks (one-shot, result-oriented), these measure the
simulator itself over several rounds, so regressions in the hot paths (the
pipeline cycle loop, the hierarchy, the SPB burst path) show up in CI-style
comparisons of the pytest-benchmark tables.  Every workload runs under both
execution engines — the step-every-cycle specification and the fast engine
— so one table shows the fast engine's speedup over the specification
directly; ``BENCH_fastpath.json`` at the repo root records a committed
snapshot of those ratios, and ``BENCH_multicore.json`` records the 8-core
event-heap speedups over the lockstep loop (regenerate either with
``python benchmarks/bench_simulator_throughput.py [fastpath|multicore]``).

Each ``BENCH_fastpath.json`` cell also records
:func:`uops_per_calibration_run`: fast-engine throughput measured against
:func:`calibration_kernel`, a fixed pure-Python workload, so
``tests/test_perf_guard.py`` can compare the production loop's speed
*relative to the host* rather than in absolute µops/s.
"""

import gc
import heapq
import statistics
import time
from collections import deque

import pytest

from repro import SystemConfig, simulate, spec2017

LENGTH = 10_000
ENGINES = ["reference", "fast"]


@pytest.fixture(scope="module")
def traces():
    return {
        "compute": spec2017("exchange2", length=LENGTH),
        "memory": spec2017("mcf", length=LENGTH),
        "burst": spec2017("bwaves", length=LENGTH),
    }


def _simulate(trace, policy, engine):
    config = SystemConfig.skylake(
        sb_entries=14, store_prefetch=policy, engine=engine
    )
    return simulate(trace, config)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("kind", ["compute", "memory", "burst"])
def test_throughput_at_commit(benchmark, traces, kind, engine):
    result = benchmark.pedantic(
        _simulate, args=(traces[kind], "at-commit", engine), rounds=3, iterations=1
    )
    assert result.pipeline.committed_uops == LENGTH


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("kind", ["burst"])
def test_throughput_spb(benchmark, traces, kind, engine):
    result = benchmark.pedantic(
        _simulate, args=(traces[kind], "spb", engine), rounds=3, iterations=1
    )
    assert result.pipeline.committed_uops == LENGTH


def calibration_kernel(n: int = 100_000) -> int:
    """Fixed pure-Python work mixing the simulator loop's primitives.

    Integer arithmetic, dict get/set, deque append and indexing, and heap
    push/pop — the operations the cycle loop spends its time on — with no
    dependence on the simulator's code, so its rate measures the host
    (interpreter and machine), not the model.
    """
    heap: list[int] = []
    counts: dict[int, int] = {}
    ring: deque[int] = deque(maxlen=64)
    acc = 0
    for i in range(n):
        key = (i * 2_654_435_761) & 1023
        counts[key] = counts.get(key, 0) + 1
        ring.append(key)
        if i & 7 == 0:
            heapq.heappush(heap, key)
        elif heap and heap[0] <= key:
            acc += heapq.heappop(heap)
        acc += ring[0] if key & 1 else -ring[-1]
    return acc + len(counts)


def uops_per_calibration_run(trace, policy: str, rounds: int = 15) -> float:
    """Fast-engine µops simulated per :func:`calibration_kernel` run.

    Each round times one fast-engine run and one kernel run back to back in
    process CPU time; the median of the per-round ratios is returned.  CPU
    time and a per-round ratio keep the number steady on a shared host,
    where best-of-N wall-clock times drift by 30% or more.
    """
    ratios = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(rounds):
            gc.collect()
            start = time.process_time()
            _simulate(trace, policy, "fast")
            simulate_s = time.process_time() - start
            start = time.process_time()
            calibration_kernel()
            ratios.append(len(trace) * (time.process_time() - start) / simulate_s)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(ratios)


def _measure_speedups(rounds: int = 10) -> dict:
    """Interleaved min-of-N timing of both engines on every cell.

    Alternating reference/fast runs inside each round cancels slow drifts in
    machine load; ``min`` over rounds discards transient interference.  GC is
    disabled during timed regions so collection pauses don't land on one
    engine's ledger.
    """
    cells = [
        ("compute/at-commit", "exchange2", "at-commit"),
        ("memory/at-commit", "mcf", "at-commit"),
        ("burst/at-commit", "bwaves", "at-commit"),
        ("burst/spb", "bwaves", "spb"),
    ]
    trace_cache = {}
    report = {"length": LENGTH, "sb_entries": 14, "rounds": rounds, "cells": {}}
    gc.disable()
    try:
        for label, app, policy in cells:
            trace = trace_cache.setdefault(app, spec2017(app, length=LENGTH))
            best = {"reference": float("inf"), "fast": float("inf")}
            for _ in range(rounds):
                for engine in ENGINES:
                    gc.collect()
                    start = time.perf_counter()
                    _simulate(trace, policy, engine)
                    best[engine] = min(best[engine], time.perf_counter() - start)
            report["cells"][label] = {
                "reference_s": round(best["reference"], 4),
                "fast_s": round(best["fast"], 4),
                "speedup": round(best["reference"] / best["fast"], 3),
                "fast_uops_per_s": round(LENGTH / best["fast"]),
                "reference_uops_per_s": round(LENGTH / best["reference"]),
                "fast_uops_per_calibration_run": round(
                    uops_per_calibration_run(trace, policy)
                ),
            }
    finally:
        gc.enable()
    speedups = [cell["speedup"] for cell in report["cells"].values()]
    product = 1.0
    for value in speedups:
        product *= value
    report["geomean_speedup"] = round(product ** (1 / len(speedups)), 3)
    report["max_speedup"] = max(speedups)
    return report


MULTICORE_THREADS = 8
MULTICORE_LENGTH = 40_000


def _measure_multicore_speedups(rounds: int = 5) -> dict:
    """Interleaved min-of-N timing of both multicore engines per cell.

    Same discipline as :func:`_measure_speedups` (alternating engines per
    round, min over rounds, GC disabled in timed regions) with one twist:
    only ``MulticoreSystem.run()`` is timed, on a fresh system built
    *untimed* before every run.  Construction is engine-specific (the fast
    engine precomputes per-µop arrays), so these ratios are ``run()``-only.
    """
    from repro import parsec
    from repro.multicore.system import MulticoreSystem

    cells = [
        ("dedup/spb", "dedup", "spb"),
        ("dedup/at-commit", "dedup", "at-commit"),
        ("canneal/at-commit", "canneal", "at-commit"),
        ("canneal/spb", "canneal", "spb"),
        ("x264/spb", "x264", "spb"),
        ("swaptions/at-commit", "swaptions", "at-commit"),
    ]
    trace_cache = {}
    report = {
        "threads": MULTICORE_THREADS,
        "length": MULTICORE_LENGTH,
        "sb_entries": 14,
        "rounds": rounds,
        "cells": {},
    }
    gc.disable()
    try:
        for label, app, policy in cells:
            traces = trace_cache.setdefault(
                app, parsec(app, threads=MULTICORE_THREADS, length=MULTICORE_LENGTH)
            )
            best = {"reference": float("inf"), "fast": float("inf")}
            for _ in range(rounds):
                for engine in ENGINES:
                    config = SystemConfig.skylake(
                        sb_entries=14, store_prefetch=policy,
                        num_cores=MULTICORE_THREADS, engine=engine,
                    )
                    system = MulticoreSystem(config, list(traces))
                    gc.collect()
                    start = time.perf_counter()
                    system.run()
                    best[engine] = min(best[engine], time.perf_counter() - start)
            report["cells"][label] = {
                "reference_s": round(best["reference"], 4),
                "fast_s": round(best["fast"], 4),
                "speedup": round(best["reference"] / best["fast"], 3),
            }
    finally:
        gc.enable()
    speedups = [cell["speedup"] for cell in report["cells"].values()]
    product = 1.0
    for value in speedups:
        product *= value
    report["geomean_speedup"] = round(product ** (1 / len(speedups)), 3)
    report["max_speedup"] = max(speedups)
    return report


if __name__ == "__main__":
    import json
    import pathlib
    import sys

    root = pathlib.Path(__file__).resolve().parent.parent
    only = sys.argv[1] if len(sys.argv) > 1 else None
    if only in (None, "fastpath"):
        result = _measure_speedups()
        path = root / "BENCH_fastpath.json"
        path.write_text(json.dumps(result, indent=2) + "\n")
        print(json.dumps(result, indent=2))
        print(f"wrote {path}")
    if only in (None, "multicore"):
        result = _measure_multicore_speedups()
        path = root / "BENCH_multicore.json"
        path.write_text(json.dumps(result, indent=2) + "\n")
        print(json.dumps(result, indent=2))
        print(f"wrote {path}")
