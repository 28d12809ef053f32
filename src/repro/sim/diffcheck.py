"""Differential harness proving the fast engine equal to the specification.

The simplest loop defines what the model means: step every core every
cycle.  That is the reference engine (``SystemConfig.engine =
"reference"``): :meth:`Pipeline.run` calls :meth:`Pipeline.step` until
:meth:`Pipeline.done`, and the multicore lockstep loop steps every pending
core every cycle.  The fast engine (:mod:`repro.sim.fastpath`) flattens the
cycle body and settles quiescent spans by arithmetic, so it is only
admissible because it computes *exactly* what stepping computes.  This
module is the proof machinery.  For one (workload, configuration) case it
runs both engines and requires

* equal :class:`~repro.stats.result.SimResult` trees, recursively (pipeline
  stats, stall breakdowns, SB/MSHR/cache/traffic/energy counters,
  per-region extras), warm-up split included;
* equal cycle-level event streams in the canonical form of
  :func:`canonical_core_events` — stepping charges a stalled span one
  ``stall.dispatch`` event per cycle where the fast loop charges it in one
  piece, and the two retire MSHR entries at different stamps;
* optionally, on each engine, the trace-derived metrics of a
  :class:`~repro.trace.MetricsRegistry` shadow check.

``tests/test_differential.py`` drives :func:`default_matrix` (tier-1
workloads × all store-prefetch policies × warmup on/off) and a
hypothesis-driven fuzzer through :func:`run_case`.

The multicore half does the same for :class:`MulticoreSystem`: the event
heap must equal the lockstep loop on the complete per-core statistics tree
(pipeline, SB, private caches, MSHR, traffic, TLB, prefetchers,
store-prefetch engine and SPB detector), the shared-uncore tree (L3, L3
MSHR, DRAM, directory) and every core's canonical event stream; whole-stream
ordering is deliberately *not* compared, because the heap visits cores in
heap order.  ``tests/test_differential_multicore.py`` drives
:func:`multicore_matrix`, which includes SPB burst cells on a shared-heap
workload so cross-core invalidation traffic is part of the proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Sequence

from repro.config.system import StorePrefetchPolicy, SystemConfig
from repro.core.policies import SpbPrefetch
from repro.isa.trace import Trace
from repro.multicore.system import MulticoreSystem
from repro.sim.runner import simulate
from repro.trace import CollectorSink, Tracer, events_digest, shadow_registry_for
from repro.workloads.parsec import parsec
from repro.workloads.spec import spec2017

#: Matrix rows: (workload, trace length, warmup settings).  Lengths are
#: chosen so the trace actually reaches each workload's store phases — the
#: phase scheduler starts every app on loads/compute, and e.g. bwaves emits
#: its first store at µop ~4400 — because storeless cells would leave the
#: fast engine's SB/drain/SPB paths unproven.  The second warm-up value for
#: the store-heavy apps deliberately splits the trace *inside* a store
#: phase, so the warm/measured boundary lands mid-burst.
MATRIX_CELLS = (
    ("exchange2", 4_000, (0, 1_000)),  # compute-bound, no stores
    ("mcf", 4_000, (0, 1_000)),        # load/miss-bound, no stores
    ("bwaves", 8_000, (0, 5_000)),     # memcpy store bursts from ~µop 4400
    ("roms", 6_000, (0, 4_800)),       # application-code stores from ~µop 4400
)

#: Default trace length for one-off cases (no stores at this length — use
#: the store-heavy MATRIX_CELLS rows or a longer trace for SB coverage).
MATRIX_LENGTH = 4_000


@dataclass(frozen=True)
class DiffCase:
    """One differential-testing case: a workload run under one configuration.

    The ``config``'s own ``engine`` field is irrelevant — :func:`run_case`
    runs the case on both engines.
    """

    workload: str
    config: SystemConfig
    length: int = MATRIX_LENGTH
    seed: int = 1
    warmup: int = 0
    sim_seed: int = 7

    def describe(self) -> str:
        """Stable human-readable label (used as the pytest parametrize id)."""
        return (
            f"{self.workload}-{self.config.store_prefetch.value}"
            f"-sb{self.config.core.store_buffer_per_thread}"
            f"-pf{self.config.cache_prefetcher.value}"
            f"-L{self.length}-s{self.seed}-w{self.warmup}"
        )


@dataclass
class DiffReport:
    """Outcome of one differential run: the divergences, if any."""

    case: "DiffCase | MulticoreDiffCase"
    problems: list[str]

    @property
    def identical(self) -> bool:
        return not self.problems

    def message(self) -> str:
        head = f"engines diverge on {self.case.describe()}:"
        return "\n".join([head, *(f"  {p}" for p in self.problems)])


def compare_values(path: str, ref, fast, problems: list[str]) -> None:
    """Recursively compare two result values, recording divergences.

    Handles dataclasses (field by field), dicts, sequences and scalars.
    Floats are compared exactly — both engines run the same float ops in the
    same order, so any drift is a real behavioural divergence, not rounding.
    """
    if is_dataclass(ref) and is_dataclass(fast):
        if type(ref) is not type(fast):
            problems.append(f"{path}: type {type(ref).__name__} != {type(fast).__name__}")
            return
        for f in fields(ref):
            compare_values(
                f"{path}.{f.name}", getattr(ref, f.name), getattr(fast, f.name), problems
            )
        return
    if isinstance(ref, dict) and isinstance(fast, dict):
        for key in ref.keys() | fast.keys():
            if key not in ref:
                problems.append(f"{path}[{key!r}]: only in fast result")
            elif key not in fast:
                problems.append(f"{path}[{key!r}]: only in reference result")
            else:
                compare_values(f"{path}[{key!r}]", ref[key], fast[key], problems)
        return
    if (
        isinstance(ref, (list, tuple))
        and isinstance(fast, (list, tuple))
        and not isinstance(ref, str)
    ):
        if len(ref) != len(fast):
            problems.append(f"{path}: length {len(ref)} != {len(fast)}")
            return
        for index, (a, b) in enumerate(zip(ref, fast)):
            compare_values(f"{path}[{index}]", a, b, problems)
        return
    if isinstance(ref, float) and isinstance(fast, float):
        if math.isnan(ref) and math.isnan(fast):
            return
        if ref != fast:
            problems.append(f"{path}: {ref!r} != {fast!r}")
        return
    if ref != fast:
        problems.append(f"{path}: {ref!r} != {fast!r}")


def compare_results(ref, fast) -> list[str]:
    """All divergences between two :class:`SimResult` trees (empty = identical)."""
    problems: list[str] = []
    compare_values("result", ref, fast, problems)
    return problems


def compare_events(ref_events: Sequence, fast_events: Sequence) -> list[str]:
    """Compare two full event streams: order, cycles and payloads.

    The cheap check is a digest over the canonical JSONL form; on mismatch
    the first diverging event is located and reported so a failure points at
    the exact cycle rather than just "streams differ".
    """
    if events_digest(ref_events) == events_digest(fast_events):
        return []
    problems = [
        f"event streams differ: {len(ref_events)} reference event(s) "
        f"vs {len(fast_events)} fast event(s)"
    ]
    for index, (a, b) in enumerate(zip(ref_events, fast_events)):
        if a != b:
            problems.append(
                f"first divergence at event {index}: "
                f"reference={a.to_json()} fast={b.to_json()}"
            )
            break
    else:
        extra = ref_events if len(ref_events) > len(fast_events) else fast_events
        which = "reference" if len(ref_events) > len(fast_events) else "fast"
        index = min(len(ref_events), len(fast_events))
        problems.append(
            f"streams agree up to event {index}; first extra {which} event: "
            f"{extra[index].to_json()}"
        )
    return problems


def _run_engine(
    trace: Trace, case: DiffCase, engine: str, shadow: bool
):
    """One engine's run: (result, events, shadow problems)."""
    config = replace(case.config, engine=engine)
    collector = CollectorSink()
    sinks: list[object] = [collector]
    registry = shadow_registry_for(config) if shadow else None
    if registry is not None:
        sinks.append(registry)
    result = simulate(
        trace, config, seed=case.sim_seed, warmup=case.warmup,
        tracer=Tracer(sinks),
    )
    shadow_problems: list[str] = []
    if registry is not None:
        shadow_problems = [
            f"shadow[{engine}]: {problem}"
            for problem in registry.diff(
                pipeline=result.pipeline,
                sb_stats=result.sb_stats,
                mshr_stats=result.extras.get("l1_mshr"),
                traffic=result.traffic,
                engine_stats=result.engine_stats,
                detector_stats=result.detector_stats,
            )
        ]
    return result, collector.events, shadow_problems


def run_case(case: DiffCase, *, shadow: bool = False) -> DiffReport:
    """Run ``case`` on both engines; diff everything observable.

    The workload trace is built once and fed to every run, so the only
    variable is the execution engine.  With ``shadow=True`` each engine also
    carries a :func:`shadow_registry_for` registry whose event-derived
    metrics must match that engine's own counters.
    """
    trace = spec2017(case.workload, length=case.length, seed=case.seed)
    return diff_trace(trace, case, shadow=shadow)


def diff_trace(trace: Trace, case: DiffCase, *, shadow: bool = False) -> DiffReport:
    """Differential run of an already-built trace (synthetic traces welcome).

    ``case.workload``/``length``/``seed`` are labels only here; the trace is
    used as given, which lets tests feed hand-built store bursts through the
    same comparison machinery.
    """
    ref_result, ref_events, ref_shadow = _run_engine(trace, case, "reference", shadow)
    fast_result, fast_events, fast_shadow = _run_engine(trace, case, "fast", shadow)
    problems = compare_results(ref_result, fast_result)
    problems += compare_core_events(ref_events, fast_events)
    problems += ref_shadow
    problems += fast_shadow
    return DiffReport(case=case, problems=problems)


def default_matrix(
    cells: Sequence[tuple[str, int, Sequence[int]]] = MATRIX_CELLS,
    *,
    sb_entries: int = 14,
) -> list[DiffCase]:
    """The CI differential matrix: workloads × every policy × warmup on/off.

    SB size 14 (the paper's most constrained configuration) maximises
    SB-full stalls, which is where the fast engine's cycle-skipping logic
    is busiest and most likely to diverge.  The ideal policy runs with an
    unbounded SB, as everywhere else in the suite.
    """
    cases = []
    for workload, length, warmups in cells:
        for policy in StorePrefetchPolicy:
            entries = 1024 if policy is StorePrefetchPolicy.IDEAL else sb_entries
            config = SystemConfig.skylake(sb_entries=entries, store_prefetch=policy)
            for warmup in warmups:
                cases.append(
                    DiffCase(
                        workload=workload, config=config,
                        length=length, warmup=warmup,
                    )
                )
    return cases


def shrink_case(case: DiffCase, *, shadow: bool = False) -> DiffCase:
    """Reduce a diverging case to a smaller one that still diverges.

    Used by the fuzzer's failure path: repeatedly halve the trace length and
    drop warm-up while the divergence persists, so the reported repro is the
    smallest this greedy search can find.  Returns ``case`` unchanged if it
    does not actually diverge.
    """
    if run_case(case, shadow=shadow).identical:
        return case
    current = case
    changed = True
    while changed:
        changed = False
        trials = []
        shorter = max(64, current.length // 2)
        if shorter < current.length:
            trials.append(
                replace(current, length=shorter, warmup=min(current.warmup, shorter // 2))
            )
        if current.warmup:
            trials.append(replace(current, warmup=0))
        for trial in trials:
            if not run_case(trial, shadow=shadow).identical:
                current = trial
                changed = True
                break
    return current


def run_matrix(
    cases: Sequence[DiffCase] | None = None, *, shadow: bool = False
) -> list[DiffReport]:
    """Run a whole matrix; returns only the diverging reports."""
    if cases is None:
        cases = default_matrix()
    return [
        report
        for report in (run_case(case, shadow=shadow) for case in cases)
        if not report.identical
    ]


# --------------------------------------------------------------------------
# Multicore: the event heap vs the lockstep loop
# --------------------------------------------------------------------------

#: Multicore matrix rows: (workload, threads, per-thread length, policies).
#: ``None`` means every store-prefetch policy.  Lengths follow each app's
#: store onset (dedup and x264 emit their first store around µop ~6400, so
#: shorter traces would leave the SB/drain/SPB paths unproven; canneal
#: stores from the first µops; swaptions is compute-bound and storeless —
#: the pure compute cell, like exchange2 in the single-core
#: matrix).  dedup's shared heap (1 MiB) is small enough that four threads
#: collide on blocks, so its SPB cells drive cross-core invalidations
#: through the directory — the coherence interaction the event heap must not
#: reorder.  The remaining rows spread engine coverage (policies, core
#: counts, app mixes) without running the full cross product in CI.
MULTICORE_CELLS = (
    ("dedup", 4, 10_000, None),
    ("canneal", 2, 4_000, ("at-commit", "spb")),
    ("swaptions", 2, 3_000, ("none", "spb")),
    ("x264", 4, 8_000, ("at-commit", "spb", "ideal")),
)


@dataclass(frozen=True)
class MulticoreDiffCase:
    """One multicore differential case: a PARSEC workload on N cores.

    As with :class:`DiffCase`, the ``config``'s own ``engine`` field is
    irrelevant — :func:`run_multicore_case` runs the case on both engines.
    """

    workload: str
    config: SystemConfig
    threads: int
    length: int = MATRIX_LENGTH
    seed: int = 1
    sim_seed: int = 7

    def describe(self) -> str:
        """Stable human-readable label (used as the pytest parametrize id)."""
        return (
            f"{self.workload}x{self.threads}-{self.config.store_prefetch.value}"
            f"-sb{self.config.core.store_buffer_per_thread}"
            f"-L{self.length}-s{self.seed}"
        )


def _multicore_snapshot(system: MulticoreSystem, result) -> dict:
    """Every comparable counter of one finished multicore run, as one tree.

    :class:`~repro.multicore.system.MulticoreResult` only aggregates
    pipeline statistics; the differential proof wants everything, so this
    walks the live pipelines and the shared uncore.  ``finalize()`` on the
    prefetch trackers is safe here: the run is over, and both engines'
    snapshots call it at the same point.
    """
    cores = []
    for pipeline in result.pipelines:
        hierarchy = pipeline.hierarchy
        engine = pipeline.engine
        core: dict[str, object] = {
            "pipeline": pipeline.stats,
            "sb": pipeline.sb.stats,
            "l1d": hierarchy.l1d.stats,
            "l2": hierarchy.l2.stats,
            "l1_mshr": hierarchy.l1_mshr.stats,
            "traffic": hierarchy.traffic,
            "engine": engine.stats,
            "prefetch_outcomes": engine.tracker.finalize(),
        }
        if hierarchy.tlb is not None:
            core["tlb"] = hierarchy.tlb.stats
        if hierarchy.prefetcher is not None:
            core["prefetcher"] = hierarchy.prefetcher.stats
        if isinstance(engine, SpbPrefetch):
            core["detector"] = engine.detector.stats
        cores.append(core)
    uncore = system.uncore
    return {
        "cycles": result.cycles,
        "cores": cores,
        "uncore": {
            "l3": uncore.l3.stats,
            "l3_mshr": uncore.l3_mshr.stats,
            "dram": uncore.dram.stats,
            "directory": uncore.directory.stats,
        },
    }


def _run_multicore_engine(
    traces: Sequence[Trace], case: MulticoreDiffCase, engine: str
) -> tuple[dict, list]:
    """One engine's multicore run: (statistics snapshot, events)."""
    config = replace(case.config, engine=engine)
    collector = CollectorSink()
    system = MulticoreSystem(
        config, list(traces), seed=case.sim_seed, tracer=Tracer([collector])
    )
    result = system.run()
    return _multicore_snapshot(system, result), collector.events


def canonical_core_events(events: Sequence) -> tuple[list, list[int]]:
    """One core's event stream in the form both engines agree on.

    Returns ``(events, releases)``:

    * ``mshr.release`` events move to ``releases``, as their sorted
      ``value`` (the retired completion cycle).  A miss retires whenever
      its core next expires its MSHRs: stepping does so on every cycle,
      the fast loop only where a cycle body or a settled span asks — so
      release stamps differ, and so does their order, since one expiry
      retires demand misses before prefetches.
    * Consecutive ``stall.dispatch`` events with the same tag and pc merge
      into one: the first stamp, the summed ``value``.  Stepping charges a
      blocked span one cycle at a time; the fast loop charges it in one
      piece.
    """
    merged: list = []
    releases: list[int] = []
    for event in events:
        if event.kind == "mshr.release":
            releases.append(event.value)
            continue
        last = merged[-1] if merged else None
        if (
            event.kind == "stall.dispatch"
            and last is not None
            and last.kind == "stall.dispatch"
            and last.tag == event.tag
            and last.pc == event.pc
        ):
            merged[-1] = replace(last, value=last.value + event.value)
        else:
            merged.append(event)
    return merged, sorted(releases)


def compare_core_events(ref_events: Sequence, fast_events: Sequence) -> list[str]:
    """Compare per-core event streams in canonical form.

    Each core's own stream, in the form of :func:`canonical_core_events`,
    must match event for event.  Only per-core order is compared: the event
    heap visits cores in heap order, so the tracer sees a different
    *global* interleaving than the lockstep loop even when every core
    behaves identically.
    """
    problems: list[str] = []

    def by_core(events: Sequence) -> dict[int, list]:
        split: dict[int, list] = {}
        for event in events:
            split.setdefault(event.core, []).append(event)
        return split

    ref_split = by_core(ref_events)
    fast_split = by_core(fast_events)
    for core in sorted(ref_split.keys() | fast_split.keys()):
        ref_stream, ref_releases = canonical_core_events(ref_split.get(core, []))
        fast_stream, fast_releases = canonical_core_events(fast_split.get(core, []))
        for problem in compare_events(ref_stream, fast_stream):
            problems.append(f"core {core}: {problem}")
        if ref_releases != fast_releases:
            problems.append(
                f"core {core}: mshr.release values differ: "
                f"{len(ref_releases)} reference vs {len(fast_releases)} fast"
            )
    return problems


def run_multicore_case(case: MulticoreDiffCase) -> DiffReport:
    """Run ``case`` on both engines; diff everything observable.

    The per-thread traces are built once and fed to both runs.  The
    engines' statistics trees (per-core and shared uncore) must be equal,
    and their per-core event streams must agree in canonical form.
    """
    traces = parsec(
        case.workload, threads=case.threads, length=case.length, seed=case.seed
    )
    ref_snap, ref_events = _run_multicore_engine(traces, case, "reference")
    fast_snap, fast_events = _run_multicore_engine(traces, case, "fast")
    problems: list[str] = []
    compare_values("multicore", ref_snap, fast_snap, problems)
    problems += compare_core_events(ref_events, fast_events)
    return DiffReport(case=case, problems=problems)


def multicore_matrix(
    cells: Sequence[tuple[str, int, int, Sequence[str] | None]] = MULTICORE_CELLS,
    *,
    sb_entries: int = 14,
) -> list[MulticoreDiffCase]:
    """The CI multicore differential matrix: workloads × cores × policies.

    As in :func:`default_matrix`, SB size 14 maximises SB-full stalls so the
    engines' cycle-skipping paths stay busy; the ideal policy runs with
    an unbounded SB.  ``config.num_cores`` tracks the thread count so the
    shared uncore is sized as a real run of that width would size it.
    """
    cases = []
    for workload, threads, length, policies in cells:
        chosen = (
            list(StorePrefetchPolicy)
            if policies is None
            else [StorePrefetchPolicy(policy) for policy in policies]
        )
        for policy in chosen:
            entries = 1024 if policy is StorePrefetchPolicy.IDEAL else sb_entries
            config = SystemConfig.skylake(
                sb_entries=entries, store_prefetch=policy, num_cores=threads
            )
            cases.append(
                MulticoreDiffCase(
                    workload=workload, config=config,
                    threads=threads, length=length,
                )
            )
    return cases


def shrink_multicore_case(case: MulticoreDiffCase) -> MulticoreDiffCase:
    """Greedy shrink of a diverging multicore case (cf. :func:`shrink_case`).

    Tries halving the per-thread trace length (floor 64) and halving the
    core count (floor 1, keeping ``config.num_cores`` in step) while the
    divergence persists.  Returns ``case`` unchanged if it does not diverge.
    """
    if run_multicore_case(case).identical:
        return case
    current = case
    changed = True
    while changed:
        changed = False
        trials = []
        shorter = max(64, current.length // 2)
        if shorter < current.length:
            trials.append(replace(current, length=shorter))
        fewer = max(1, current.threads // 2)
        if fewer < current.threads:
            trials.append(
                replace(
                    current,
                    threads=fewer,
                    config=replace(current.config, num_cores=fewer),
                )
            )
        for trial in trials:
            if not run_multicore_case(trial).identical:
                current = trial
                changed = True
                break
    return current


def run_multicore_matrix(
    cases: Sequence[MulticoreDiffCase] | None = None,
) -> list[DiffReport]:
    """Run the multicore matrix; returns only the diverging reports."""
    if cases is None:
        cases = multicore_matrix()
    return [
        report
        for report in (run_multicore_case(case) for case in cases)
        if not report.identical
    ]
