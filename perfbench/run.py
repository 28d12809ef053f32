"""Host-time benchmark of the SPB simulator, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload spec-sb-bound --seed 1 --seconds 35 --trace 0

``--trace 0`` repeats passes of the workload for ``--seconds`` seconds and
prints the end-to-end metrics as medians over the passes.  ``--trace 1``
alternates an untraced pass with a pass under cProfile and prints the
per-layer metrics, the tracing overhead among them.  ``RATIONALE.md``
explains the workloads and every metric.
Either way every pass is checked (full µop counts, campaign success, a
bit-exact result store, identical statistics on every pass); a failed
check counts toward ``failed`` and makes the command exit with status 1.
The last line of standard output is one JSON object.  ``--smoke`` shrinks
every trace so the whole benchmark runs in seconds (see ``test_smoke.py``).
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Seed the benchmark is tuned on, and one held out to re-check a gain.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7

#: Fewest passes a timed run makes, whatever ``--seconds`` says.
MIN_PASSES = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_uops_per_s": "uops/s",
    "peak_rss_mb": "MB",
}


def _load_simulator():
    """Put the checkout's ``src`` on the path; refuse to run without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no simulator source under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


class Checks:
    """Cells attempted and the check failures found among them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed_cells = 0
        self.messages: list[str] = []
        self.first_digests: dict[str, str] | None = None

    def add_pass(self, run) -> None:
        failures = run.failures()
        digests = run.digests()
        if self.first_digests is None:
            self.first_digests = digests
        for label, digest in digests.items():
            if self.first_digests.get(label) != digest:
                failures.setdefault(label, []).append(
                    f"{label}: statistics differ from the first pass"
                )
        self.attempted += len(run.cells)
        self.failed_cells += len(failures)
        self.messages += [m for problems in failures.values() for m in problems]

    def add_cell(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed_cells += 1
            self.messages.append(message)

    def workload_digest(self) -> str:
        joined = json.dumps(self.first_digests or {}, sort_keys=True)
        return hashlib.sha256(joined.encode()).hexdigest()[:16]


def _one_pass(name: str, seed: int, sizes, scratch: str, checks: Checks,
              profile: cProfile.Profile | None = None):
    from perfbench.workloads import WORKLOADS

    gc.collect()  # every pass starts from the same collected heap
    if profile is not None:
        profile.enable()
    try:
        run = WORKLOADS[name](seed, sizes, scratch)
    finally:
        if profile is not None:
            profile.disable()
    checks.add_pass(run)
    return run


def _another_fits(started: float, done: int, seconds: float) -> bool:
    """Whether one more pass, as long as the mean so far, ends in time."""
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / done <= seconds


def _timed(name: str, seed: int, seconds: float, sizes, scratch: str, checks: Checks):
    runs = []
    started = time.perf_counter()
    while len(runs) < MIN_PASSES or _another_fits(started, len(runs), seconds):
        runs.append(_one_pass(name, seed, sizes, scratch, checks))
    samples = {
        "wall_s": [r.wall_s for r in runs],
        "setup_s": [r.setup_s for r in runs],
        "sim_uops_per_s": [r.simulated_uops / r.sim_s for r in runs],
    }
    metrics = {key: statistics.median(values) for key, values in samples.items()}
    return metrics, samples


def _codec_seconds(results) -> float:
    """Host time to encode and decode a campaign's results once."""
    from repro.campaign import decode_result, encode_result

    started = time.perf_counter()
    for result in results:
        decode_result(encode_result(result))
    return time.perf_counter() - started


def _repro_trace_overhead(seed: int, sizes, checks: Checks, repeats: int = 3) -> float:
    """One spec-sb-bound cell with a ring-buffer tracer over the same untraced."""
    from perfbench.workloads import config
    from repro.sim.runner import simulate
    from repro.trace import RingBufferSink, Tracer
    from repro.workloads import spec2017

    trace = spec2017("bwaves", length=sizes.spec_length, seed=seed)
    cell = config("at-commit", sb_entries=14)
    plain, traced = [], []
    for _ in range(repeats):
        for tracer, times in ((None, plain), (Tracer([RingBufferSink()]), traced)):
            started = time.perf_counter()
            result = simulate(trace, cell, warmup=sizes.spec_warmup, tracer=tracer)
            times.append(time.perf_counter() - started)
            if tracer is None:
                untraced_result = result
            else:
                checks.add_cell(
                    result == untraced_result,
                    "bwaves/at-commit/SB14: tracing changed the result",
                )
    return statistics.median(traced) / statistics.median(plain) - 1


def _traced(name: str, seed: int, seconds: float, sizes, scratch: str, checks: Checks):
    from perfbench import layers

    untraced, traced, codec = [], [], []
    profile = cProfile.Profile()
    started = time.perf_counter()
    while not traced or _another_fits(started, len(traced), seconds):
        untraced.append(_one_pass(name, seed, sizes, scratch, checks))
        traced.append(_one_pass(name, seed, sizes, scratch, checks, profile))
        if traced[-1].cold_results:
            codec.append(_codec_seconds(traced[-1].cold_results))
    median = statistics.median
    metrics = layers.counts(traced[-1])
    span_samples = [layers.timings(run) for run in untraced]
    metrics.update({key: median([s[key] for s in span_samples]) for key in span_samples[0]})
    metrics["campaign.codec_s"] = median(codec) if codec else 0.0
    metrics.update({
        key: value / len(traced) for key, value in layers.self_time(profile).items()
    })
    untraced_wall = median([run.wall_s for run in untraced])
    overhead = median([run.wall_s for run in traced]) - untraced_wall
    metrics["bench.tracing_overhead_s"] = overhead
    metrics["bench.tracing_overhead_frac"] = overhead / untraced_wall
    metrics["trace.overhead_frac"] = _repro_trace_overhead(seed, sizes, checks)
    return metrics, {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"trace seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out "
             "for re-checking a gain on a seed it was not tuned on)",
    )
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny traces, for testing the benchmark itself")
    args = parser.parse_args(argv)
    _load_simulator()
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    checks = Checks()
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=scratch_root)
    try:
        measure = _traced if args.trace else _timed
        values, samples = measure(
            args.workload, args.seed, args.seconds, sizes, scratch, checks
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run is using it

    if args.trace:
        from perfbench.layers import PER_LAYER_UNITS as units
    else:
        units = END_TO_END_UNITS
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    fail_frac = checks.failed_cells / checks.attempted
    print(f"workload {args.workload}  seed {args.seed}  engine {workloads.ENGINE}  "
          f"trace {args.trace}  stats digest {checks.workload_digest()}")
    for key, unit in units.items():
        spread = samples.get(key)
        detail = (f"  (median of {len(spread)}: min {min(spread):.6g}, "
                  f"max {max(spread):.6g})") if spread else ""
        print(f"  {key:34s} {values[key]:14.6g} {unit}{detail}")
    print(f"  {'fail_frac':34s} {fail_frac:14.6g} ratio  "
          f"({checks.failed_cells} of {checks.attempted} cells)")
    for message in checks.messages:
        print(f"  CHECK FAILED: {message}")
    print(json.dumps({
        "correct": checks.failed_cells == 0,
        "attempted": checks.attempted,
        "failed": checks.failed_cells,
        "metrics": {
            key: {"value": values[key], "unit": unit} for key, unit in units.items()
        },
    }))
    return 0 if checks.failed_cells == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
