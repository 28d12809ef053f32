"""Simultaneous multi-threading co-run model.

The paper evaluates SMT *indirectly*: it simulates one thread with the
statically partitioned per-thread SB share (56/2 = 28, 56/4 = 14).  This
module models the co-run itself: ``threads`` hardware threads share one
core's front end (dispatch alternates threads each cycle), one L1D port for
store drains (one store per cycle across all threads, round-robin), and one
private cache hierarchy — while the store buffer is statically partitioned,
exactly as Intel's optimisation manual describes.

This both validates the paper's approximation (a thread co-running under
SMT-2 behaves like the paper's SB28 single-thread run) and extends it: it
measures whole-core throughput, where SPB's benefit compounds across
threads because every thread's bursts stall the shared drain port.

The co-run has no fast path: it steps every core cycle, so each thread's
stall buckets and SB occupancy samples cover every cycle it ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.config.system import SystemConfig
from repro.core.policies import build_store_prefetch_engine
from repro.cpu.pipeline import Pipeline
from repro.isa.trace import Trace
from repro.memory.hierarchy import MemoryHierarchy
from repro.prefetch import build_prefetcher
from repro.stats.counters import PipelineStats


class _FanOutTracker:
    """Forwards hierarchy eviction callbacks to every thread's tracker."""

    def __init__(self, trackers) -> None:
        self._trackers = list(trackers)

    def on_removed(self, block: int) -> None:
        for tracker in self._trackers:
            tracker.on_removed(block)


@dataclass
class SmtResult:
    """Outcome of one SMT co-run."""

    cycles: int
    per_thread: list[PipelineStats]
    pipelines: list[Pipeline] = field(default_factory=list, repr=False)

    @property
    def committed_uops(self) -> int:
        return sum(stats.committed_uops for stats in self.per_thread)

    @property
    def core_ipc(self) -> float:
        """Whole-core throughput: committed µops per cycle, all threads."""
        return self.committed_uops / self.cycles if self.cycles else 0.0

    @property
    def sb_stall_cycles(self) -> int:
        return sum(stats.sb_stall_cycles for stats in self.per_thread)


class SmtCore:
    """One core running several hardware threads simultaneously."""

    def __init__(
        self,
        config: SystemConfig,
        traces: Sequence[Trace],
        seed: int = 7,
    ) -> None:
        if not traces:
            raise ValueError("need at least one per-thread trace")
        threads = len(traces)
        if threads not in (1, 2, 4):
            raise ValueError("SMT co-run supports 1, 2 or 4 threads")
        core = replace(config.core, smt_threads=threads)
        config = replace(config, core=core)
        self.config = config
        self.threads = threads
        # One shared hierarchy: SMT threads share the L1D and everything
        # behind it.
        self.hierarchy = MemoryHierarchy(
            config.caches, prefetcher=build_prefetcher(config.cache_prefetcher)
        )
        self.pipelines: list[Pipeline] = []
        engines = []
        for thread, trace in enumerate(traces):
            engine = build_store_prefetch_engine(
                config.store_prefetch, self.hierarchy, config.spb
            )
            engines.append(engine)
            self.pipelines.append(
                Pipeline(config, trace, self.hierarchy, engine, seed=seed + thread)
            )
        # Each engine installed itself as the hierarchy's tracker; replace
        # that with a fan-out so evictions reach every thread's tracker.
        self.hierarchy.prefetch_tracker = _FanOutTracker(
            engine.tracker for engine in engines
        )
        self.engines = engines
        self.cycle = 0

    def _step(self) -> None:
        """One core cycle: shared drain port, per-thread commit, alternating
        dispatch."""
        # One store per cycle may drain across all threads (shared L1 port);
        # rotate priority so no thread starves.
        for offset in range(self.threads):
            pipeline = self.pipelines[(self.cycle + offset) % self.threads]
            if pipeline._drain_sb():
                break
        for pipeline in self.pipelines:
            pipeline._commit()
        # The front end shares the dispatch width competitively: threads are
        # offered slots round-robin (rotating priority), and a thread that
        # cannot use its slots yields them to the next one — so a stalled
        # co-runner does not throttle a bursting thread.
        budget = self.pipelines[0].width
        for offset in range(self.threads):
            pipeline = self.pipelines[(self.cycle + offset) % self.threads]
            dispatched, reason, blocked_pc = pipeline._dispatch(budget)
            if dispatched:
                budget -= dispatched
            elif pipeline._ip < pipeline._n:
                pipeline._attribute_stall(reason, blocked_pc)
            if budget <= 0:
                break
        for pipeline in self.pipelines:
            pipeline.sb.sample_occupancy()
            pipeline.stats.cycles += 1
            pipeline.cycle += 1
        self.cycle += 1

    def run(self, max_cycles: int = 500_000_000) -> SmtResult:
        """Run all threads to completion, stepping every cycle."""
        while not all(p.done() for p in self.pipelines):
            self._step()
            if self.cycle > max_cycles:
                raise RuntimeError(f"SMT run exceeded {max_cycles} cycles")
        return SmtResult(
            cycles=self.cycle,
            per_thread=[p.stats for p in self.pipelines],
            pipelines=self.pipelines,
        )


def simulate_smt(
    traces: Sequence[Trace], config: SystemConfig, seed: int = 7
) -> SmtResult:
    """Run an SMT co-run of the given per-thread traces on one core."""
    return SmtCore(config, list(traces), seed=seed).run()
