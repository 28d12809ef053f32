"""Top-level simulation entry points.

``simulate`` runs one workload trace through one system configuration and
returns a :class:`SimResult`; ``simulate_multicore`` does the same for a
multi-threaded workload.  Because every experiment in the paper compares the
same workloads across many configurations, an in-process :class:`ResultsCache`
memoises runs by (trace identity, configuration) so benchmark files can share
work.
"""

from __future__ import annotations

from typing import Sequence

from repro.config.system import SystemConfig
from repro.core.policies import SpbPrefetch, build_store_prefetch_engine
from repro.core.spb import SpbStats
from repro.energy.model import EnergyModel
from repro.isa.trace import Trace
from repro.memory.cache import CacheStats
from repro.memory.dram import DramStats
from repro.memory.hierarchy import MemoryHierarchy, TrafficStats
from repro.memory.mshr import MSHRStats
from repro.memory.tlb import TLBStats
from repro.multicore.system import MulticoreResult, MulticoreSystem
from repro.prefetch import build_prefetcher
from repro.prefetch.stats import PrefetchOutcomeTracker
from repro.sim.fastpath import pipeline_class
from repro.stats.result import SimResult
from repro.stats.topdown import TopDownMetrics

#: Version of the simulated model's semantics, part of every result key.
#: Bump it whenever a change moves simulated results, so persistent stores
#: never serve numbers the current model would not produce.
#: 2: quiescent-span skipping made exact (multicore spans charge stalls).
MODEL_VERSION = 2


def split_warmup(trace: Trace, warmup: int) -> tuple[Trace | None, Trace]:
    """Split ``trace`` into its warm-up slice and the measured remainder.

    This is the single source of truth for warm-up slicing: every engine
    (reference and fast) measures exactly the same µops because both go
    through this helper.  A non-positive ``warmup`` or one that covers the
    whole trace yields no warm-up slice (the run is measured end to end) —
    the single-slice edge case.
    """
    if warmup <= 0 or warmup >= len(trace):
        return None, trace
    return trace.slice(0, warmup), trace.slice(warmup, len(trace))


def _reset_measurement_state(hierarchy: MemoryHierarchy, engine) -> None:
    """Zero every statistics counter while keeping architectural state.

    Used between the warm-up and measured portions of a run: caches, TLB,
    directory contents and the SPB detector's registers survive; the
    counters start fresh, mirroring the paper's "statistics are gathered
    after a brief warm-up of the caches".
    """
    hierarchy.traffic = TrafficStats()
    hierarchy.l1d.stats = CacheStats()
    hierarchy.l2.stats = CacheStats()
    hierarchy.l1_mshr.stats = MSHRStats()
    if hierarchy.tlb is not None:
        hierarchy.tlb.stats = TLBStats()
    hierarchy.uncore.l3.stats = CacheStats()
    hierarchy.uncore.l3_mshr.stats = MSHRStats()
    hierarchy.uncore.dram.stats = DramStats()
    engine.tracker = PrefetchOutcomeTracker()
    hierarchy.prefetch_tracker = engine.tracker
    engine.stats = type(engine.stats)()
    if isinstance(engine, SpbPrefetch):
        engine.detector.stats = SpbStats()


def _attach_tracer(tracer, hierarchy: MemoryHierarchy, engine) -> None:
    """Point every event producer in one core's slice at ``tracer``.

    Attachment is a plain attribute write on each producer (the convention
    :func:`repro.trace.tracer.attach_tracer` documents), so the measured
    phase of a warmed-up run can start tracing after the warm-up ran
    untraced — the event stream then covers exactly the cycles the reset
    counters cover, which is what the shadow check compares against.
    """
    hierarchy.tracer = tracer
    hierarchy.l1_mshr.tracer = tracer
    engine.tracer = tracer
    if isinstance(engine, SpbPrefetch):
        engine.detector.tracer = tracer


def simulate(
    trace: Trace, config: SystemConfig, seed: int = 7, warmup: int = 0,
    tracer=None,
) -> SimResult:
    """Run ``trace`` on the machine described by ``config``.

    When ``warmup`` is positive, the first ``warmup`` µops run first to warm
    the caches, TLB and predictor state; every statistic then resets and
    only the remainder of the trace is measured.  ``tracer`` (a
    :class:`repro.trace.Tracer`, or ``None`` for zero-overhead silence)
    observes the measured portion only, mirroring the counters.
    """
    cls = pipeline_class(config.engine)
    hierarchy = MemoryHierarchy(
        config.caches, prefetcher=build_prefetcher(config.cache_prefetcher)
    )
    engine = build_store_prefetch_engine(config.store_prefetch, hierarchy, config.spb)
    start_cycle = 0
    warm_part, trace = split_warmup(trace, warmup)
    if warm_part is not None:
        warm_pipeline = cls(config, warm_part, hierarchy, engine, seed=seed)
        warm_pipeline.run()
        start_cycle = warm_pipeline.cycle
        _reset_measurement_state(hierarchy, engine)
    if tracer is not None:
        _attach_tracer(tracer, hierarchy, engine)
    pipeline = cls(
        config, trace, hierarchy, engine, seed=seed, start_cycle=start_cycle,
        tracer=tracer,
    )
    stats = pipeline.run()
    outcomes = engine.tracker.finalize()
    detector_stats = engine.detector.stats if isinstance(engine, SpbPrefetch) else None
    result = SimResult(
        workload=trace.name,
        config_key=config.cache_key(),
        policy=config.store_prefetch.value,
        sb_entries=config.core.store_buffer_per_thread,
        pipeline=stats,
        topdown=TopDownMetrics.from_stats(stats, config.core.width),
        traffic=hierarchy.traffic,
        l1_stats=hierarchy.l1d.stats,
        l2_stats=hierarchy.l2.stats,
        l3_stats=hierarchy.uncore.l3.stats,
        prefetch_outcomes=outcomes,
        sb_stats=pipeline.sb.stats,
        engine_stats=engine.stats,
        detector_stats=detector_stats,
    )
    result.energy = EnergyModel().evaluate(result)
    result.extras["regions"] = stats.stalls_by_region(trace.region_of)
    result.extras["l1_mshr"] = hierarchy.l1_mshr.stats
    return result


def simulate_multicore(
    traces: Sequence[Trace],
    config: SystemConfig,
    seed: int = 7,
    tracer=None,
) -> MulticoreResult:
    """Run one per-core trace each on a coherent multi-core system."""
    system = MulticoreSystem(config, list(traces), seed=seed, tracer=tracer)
    return system.run()


def result_key(
    name: str, length: int, seed: int, config: SystemConfig, warmup: int = 0
) -> str:
    """Canonical content key of one single-core run.

    Workload traces are deterministic functions of (name, length, seed), so
    together with ``config.cache_key()`` (a stable hash of the whole machine
    description) and :data:`MODEL_VERSION` the string identifies the run
    completely.  Both the in-process :class:`ResultsCache` and the on-disk
    result store in :mod:`repro.campaign` key by it, so the two tiers share
    entries.
    """
    return f"{name}-L{length}-s{seed}-w{warmup}-m{MODEL_VERSION}-{config.cache_key()}"


class ResultsCache:
    """Two-tier memoisation of single-core runs.

    The first tier is an in-process dictionary; an optional second tier is a
    persistent on-disk store (any object with ``load(key)``/``save(key,
    result)``, normally :class:`repro.campaign.ResultStore`) so results
    survive across sessions and a figure-suite re-run only simulates cells
    whose configuration changed.  Benchmarks share one module cache so,
    e.g., the at-commit/SB56 baseline is simulated once and reused by every
    figure that normalises against it.

    Hit/miss counters make the effect of each tier measurable:
    ``memory_hits``, ``disk_hits`` and ``misses`` (= simulations performed).
    """

    def __init__(self, store=None) -> None:
        self._results: dict[str, SimResult] = {}
        self.store = store
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0

    @property
    def hits(self) -> int:
        """Lookups served without simulating (memory + disk)."""
        return self.memory_hits + self.disk_hits

    def lookup(self, key: str) -> SimResult | None:
        """Fetch a cached result by content key, or count a miss."""
        result = self._results.get(key)
        if result is not None:
            self.memory_hits += 1
            return result
        if self.store is not None:
            result = self.store.load(key)
            if result is not None:
                self.disk_hits += 1
                self._results[key] = result
                return result
        self.misses += 1
        return None

    def insert(self, key: str, result: SimResult) -> None:
        """Record a freshly simulated result in both tiers."""
        self._results[key] = result
        if self.store is not None:
            self.store.save(key, result)

    def get(
        self,
        trace_factory,
        name: str,
        length: int,
        config: SystemConfig,
        seed: int = 1,
        warmup: int = 0,
    ) -> SimResult:
        key = result_key(name, length, seed, config, warmup)
        result = self.lookup(key)
        if result is None:
            trace = trace_factory(name, length=length, seed=seed)
            result = simulate(trace, config, warmup=warmup)
            self.insert(key, result)
        return result

    def stats(self) -> dict[str, int]:
        """Counter snapshot for session summaries."""
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "entries": len(self._results),
        }

    def clear(self) -> None:
        self._results.clear()

    def __len__(self) -> int:
        return len(self._results)
