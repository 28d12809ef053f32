"""An N-core system sharing the L3 and directory (paper §VI-F).

Each core has its own pipeline, private L1D/L2 and store-prefetch engine;
the cores share one :class:`SharedUncore`, so SPB bursts on one core can
invalidate lines another core holds — the coherence interaction §VI-F checks
for.

Cores interact only through the shared uncore, and only inside a cycle body:
a blocked core's state is frozen and it makes no hierarchy call.  Two loops
run a system:

* under ``engine="reference"`` every pending core steps every cycle, in core
  order — the specification of a multicore run;
* under ``engine="fast"`` (the default) a heap of ``(cycle, core)`` keys
  resumes one core at a time with the next key as its horizon
  (:meth:`repro.sim.fastpath.FastPipeline.core_loop`), so bodies still run
  in lockstep order while each core settles its own quiescent spans.  The
  multicore differential matrix proves it equal to the reference loop.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.config.system import SystemConfig
from repro.core.policies import build_store_prefetch_engine
from repro.cpu.pipeline import Pipeline
from repro.isa.trace import Trace
from repro.memory.hierarchy import MemoryHierarchy, SharedUncore
from repro.sim.fastpath import pipeline_class
from repro.prefetch import build_prefetcher
from repro.stats.counters import PipelineStats


@dataclass
class MulticoreResult:
    """Per-core results plus whole-system summary."""

    cycles: int
    per_core: list[PipelineStats]
    pipelines: list[Pipeline] = field(default_factory=list, repr=False)

    @property
    def committed_uops(self) -> int:
        return sum(stats.committed_uops for stats in self.per_core)

    @property
    def system_ipc(self) -> float:
        return self.committed_uops / self.cycles if self.cycles else 0.0

    @property
    def sb_stall_ratio(self) -> float:
        """Mean per-core SB stall fraction over the run."""
        if not self.per_core or not self.cycles:
            return 0.0
        total = sum(stats.sb_stall_cycles for stats in self.per_core)
        return total / (self.cycles * len(self.per_core))


class MulticoreSystem:
    """Builds and runs one multi-threaded workload."""

    def __init__(
        self,
        config: SystemConfig,
        traces: list[Trace],
        seed: int = 7,
        tracer=None,
    ) -> None:
        if not traces:
            raise ValueError("need at least one per-thread trace")
        self.config = config
        self.uncore = SharedUncore(config.caches, num_cores=len(traces))
        self.pipelines: list[Pipeline] = []
        for core_id, trace in enumerate(traces):
            hierarchy = MemoryHierarchy(
                config.caches,
                uncore=self.uncore,
                core_id=core_id,
                prefetcher=build_prefetcher(config.cache_prefetcher),
                tracer=tracer,
            )
            engine = build_store_prefetch_engine(
                config.store_prefetch, hierarchy, config.spb, tracer=tracer
            )
            self.pipelines.append(
                pipeline_class(config.engine)(
                    config, trace, hierarchy, engine,
                    seed=seed + core_id, tracer=tracer,
                )
            )

    def run(self, max_cycles: int = 500_000_000) -> MulticoreResult:
        """Run all cores to completion on the configured engine's loop."""
        if self.config.engine == "fast":
            self._run_heap(max_cycles)
        else:
            self._run_lockstep(max_cycles)
        return MulticoreResult(
            cycles=max(p.stats.cycles for p in self.pipelines),
            per_core=[p.stats for p in self.pipelines],
            pipelines=self.pipelines,
        )

    def _run_lockstep(self, max_cycles: int) -> None:
        """Step every pending core every cycle, in core order."""
        pending = [p for p in self.pipelines if not p.done()]
        while pending:
            progress = False
            for pipeline in pending:
                if pipeline.step():
                    progress = True
            # A core can only reach done() on a cycle it progressed.
            if progress:
                pending = [p for p in pending if not p.done()]
            if pending and pending[0].cycle > max_cycles:
                raise RuntimeError(f"multicore run exceeded {max_cycles} cycles")

    def _run_heap(self, max_cycles: int) -> None:
        """Run each core's loop in turn from a heap of ``(cycle, core)``."""
        loops = [p.core_loop(max_cycles) for p in self.pipelines]
        heap = []
        try:
            for core, loop in enumerate(loops):
                cycle = next(loop, None)
                if cycle is not None:
                    heap.append((cycle, core))
            heapq.heapify(heap)
            while heap:
                core = heap[0][1]
                # The horizon is the smallest key but the root's, which
                # sits in one of the root's children.
                horizon = min(heap[1:3], default=None)
                try:
                    cycle = loops[core].send(horizon)
                except StopIteration:
                    heapq.heappop(heap)
                else:
                    heapq.heapreplace(heap, (cycle, core))
        finally:
            for loop in loops:
                loop.close()
