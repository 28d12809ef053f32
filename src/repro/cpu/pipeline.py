"""Cycle-driven out-of-order core.

The model is trace-driven and commit-centric: the dynamics that decide the
paper's results all live at the back end (the store buffer filling, the ROB
backing up behind it, misses overlapping through the MSHRs), so the front
end is modelled as a dispatch stage of ``width`` µops per cycle with branch
redirects, and execution as a dependency-distance dataflow with the
latencies of Table I.

**Store-buffer model.**  As in Intel cores, a store-buffer entry is
allocated when the store *dispatches* and is released when the store
*performs* its L1 write after retirement.  A store that finds no free entry
stalls allocation — that is the SB-induced stall the paper's Figure 1
measures (Intel's Top-Down files it under memory-bound issue stalls).  At
commit the store's entry turns senior and the store becomes eligible to
drain, strictly in program order (x86-TSO's store→store order), one store
per cycle (the pipelined L1 store path), and only when the L1 holds its
block with write permission.

Each cycle runs SB drain, then commit, then dispatch.  Loads probe the SB
for store-to-load forwarding (the CAM search that bounds real SB sizes),
then access the hierarchy.  Mispredicted branches schedule a front-end
redirect and inject wrong-path work proportional to their resolution
latency — the mechanism behind the paper's observation that SPB's faster
load resolution cuts misspeculated instructions.

This class is the model's specification: :meth:`run` calls :meth:`step`
until :meth:`done`, one call per simulated cycle, so every counter is
charged by the cycle it belongs to.  The production engine
(:class:`repro.sim.fastpath.FastPipeline`) flattens the same cycle body and
settles quiescent spans by arithmetic; the differential harness
(:mod:`repro.sim.diffcheck`) proves it equal to this loop.
"""

from __future__ import annotations

import heapq
import random
from collections import deque

from repro.config.system import SystemConfig
from repro.core.policies import StorePrefetchEngine
from repro.core.store_buffer import StoreBuffer, StoreBufferEntry
from repro.cpu.branch import TraceAnnotatedPredictor, build_branch_predictor
from repro.isa.trace import Trace
from repro.memory.hierarchy import MemoryHierarchy
from repro.stats.counters import PipelineStats

#: Cap on wrong-path µops injected per mispredict (ROB-bounded in hardware).
_WRONG_PATH_CAP = 64
_WRONG_PATH_LOAD_FRACTION = 0.25
_WRONG_PATH_STORE_FRACTION = 0.08
_MAX_WRONG_PATH_ACCESSES = 8


def _op_class(op) -> str:
    """Event tag for a µop: the commit-counter class it belongs to."""
    if op.is_store:
        return "store"
    if op.is_load:
        return "load"
    if op.is_branch:
        return "branch"
    return "alu"


class Pipeline:
    """One hardware thread's view of the core."""

    def __init__(
        self,
        config: SystemConfig,
        trace: Trace,
        hierarchy: MemoryHierarchy,
        engine: StorePrefetchEngine,
        seed: int = 7,
        start_cycle: int = 0,
        tracer=None,
    ) -> None:
        core = config.core
        self.config = config
        self.trace = trace
        self.hierarchy = hierarchy
        self.engine = engine
        self.width = core.width
        self.rob_capacity = core.rob_entries
        self.iq_capacity = core.issue_queue_entries
        self.lq_capacity = core.load_queue_entries
        self.sq_capacity = core.store_buffer_per_thread
        self.sq_unbounded = engine.unbounded_sb
        self.mispredict_penalty = core.branch_mispredict_penalty
        self.block_bytes = config.caches.block_bytes
        # The senior (post-commit) portion of the store queue.  Capacity is
        # enforced at dispatch, so the deque itself never overflows.
        self.tracer = tracer
        self._core_id = hierarchy.core_id
        self.sb = StoreBuffer(
            self.sq_capacity, unbounded=True, coalescing=core.sb_coalescing,
            tracer=tracer, core=hierarchy.core_id,
        )
        self.predictor = build_branch_predictor(core.branch_predictor)
        self._trace_annotated = isinstance(self.predictor, TraceAnnotatedPredictor)
        self._rng = random.Random(seed)

        self._ops = list(trace)
        self._n = len(self._ops)
        self._ready = [0] * self._n  # completion cycle per trace index
        self._ip = 0
        self._rob: deque[tuple[int, object]] = deque()  # (index, op)
        self._loads_in_rob = 0
        self._sq_occupancy = 0  # stores dispatched but not yet performed
        self._sq_blocks: dict[int, int] = {}  # block -> in-flight store count
        self._iq_occupancy = 0
        self._iq_release: list[int] = []  # heap of issue times
        self._fetch_resume = 0
        self._sb_head_ready: int | None = None
        self._sb_head_accounted = False
        self._last_load_block = 0
        self._last_store_block = 0
        # The fast engine's block-reason latch, kept across resumptions of
        # its core loop (FastPipeline.core_loop).
        self._block_reason: str | None = None
        self._blocked_pc = 0
        # A warmed-up run continues the hierarchy's clock: MSHR and DRAM
        # state are stamped in absolute cycles.
        self.cycle = start_cycle
        self._fetch_resume = start_cycle
        self.stats = PipelineStats()

    # ------------------------------------------------------------------
    # Per-cycle phases
    # ------------------------------------------------------------------
    def _drain_sb(self) -> bool:
        """Try to perform the store at the SB head.  Returns progress."""
        head = self.sb.head()
        if head is None:
            return False
        cycle = self.cycle
        if self._sb_head_ready is None:
            arrival = self.hierarchy.fill_arrival(head.block, cycle)
            if not self._sb_head_accounted:
                # Classify the prefetch outcome the first time the head
                # tries to perform (late vs successful, Figure 11).
                self.engine.on_store_performed(head.block, cycle)
                self._sb_head_accounted = True
            if arrival is not None:
                self._sb_head_ready = arrival
            elif self.hierarchy.has_write_permission(head.block):
                self._sb_head_ready = cycle
            else:
                result = self.hierarchy.store_permission(head.block, cycle)
                self._sb_head_ready = result.completion
        if self._sb_head_ready > cycle:
            return False
        if self.hierarchy.has_write_permission(head.block):
            self.hierarchy.perform_store(head.block, cycle)
        self.sb.pop(cycle)
        self._sq_occupancy -= 1
        remaining = self._sq_blocks[head.block] - 1
        if remaining:
            self._sq_blocks[head.block] = remaining
        else:
            del self._sq_blocks[head.block]
        self._sb_head_ready = None
        self._sb_head_accounted = False
        return True

    def _commit(self) -> int:
        """Commit up to ``width`` completed µops in order."""
        committed = 0
        cycle = self.cycle
        stats = self.stats
        while committed < self.width and self._rob:
            index, op = self._rob[0]
            if self._ready[index] > cycle:
                break
            if op.is_store:
                block = op.addr // self.block_bytes
                coalesced = self.sb.push(
                    StoreBufferEntry(
                        block=block,
                        addr=op.addr,
                        size=op.size,
                        pc=op.pc,
                        commit_cycle=cycle,
                    )
                )
                if coalesced:
                    # The store merged into the SB tail: its queue slot is
                    # free immediately, and its block claim folds into the
                    # tail entry's.
                    self._sq_occupancy -= 1
                    remaining = self._sq_blocks[block] - 1
                    if remaining:
                        self._sq_blocks[block] = remaining
                    else:
                        del self._sq_blocks[block]
                self.engine.on_store_committed(block, op.addr, cycle)
                stats.committed_stores += 1
            elif op.is_load:
                self._loads_in_rob -= 1
                stats.committed_loads += 1
            elif op.is_branch:
                stats.committed_branches += 1
            self._rob.popleft()
            stats.committed_uops += 1
            committed += 1
            tracer = self.tracer
            if tracer is not None:
                tracer.emit(
                    cycle, "uop.commit", core=self._core_id,
                    pc=op.pc, value=index, tag=_op_class(op),
                )
        return committed

    def _inject_wrong_path(self, resolve_delay: int) -> None:
        """Wrong-path work fetched while a mispredicted branch resolves."""
        stats = self.stats
        wrong_uops = min(self.width * max(1, resolve_delay), _WRONG_PATH_CAP)
        stats.wrong_path_uops += wrong_uops
        loads = min(int(wrong_uops * _WRONG_PATH_LOAD_FRACTION), _MAX_WRONG_PATH_ACCESSES)
        stores = min(int(wrong_uops * _WRONG_PATH_STORE_FRACTION), _MAX_WRONG_PATH_ACCESSES)
        cycle = self.cycle
        for _ in range(loads):
            block = self._last_load_block + self._rng.randrange(64, 256)
            self.hierarchy.load(block, cycle + 1, wrong_path=True)
            stats.wrong_path_loads += 1
        for _ in range(stores):
            block = self._last_store_block + self._rng.randrange(64, 256)
            self.engine.on_wrong_path_store(block, cycle + 1)
            stats.wrong_path_stores += 1

    def _dispatch(self, budget: int | None = None) -> tuple[int, str | None, int]:
        """Dispatch up to ``budget`` µops (defaults to the full width).

        Returns ``(count, block_reason, blocked_pc)``; the PC identifies the
        store an SB-full stall should be attributed to (Figure 3).  The SMT
        co-run passes partial budgets so threads share the dispatch width
        competitively.
        """
        cycle = self.cycle
        width = self.width if budget is None else min(budget, self.width)
        if self._ip >= self._n:
            return 0, None, 0
        if self._fetch_resume > cycle:
            return 0, "frontend", 0
        # Release issue-queue entries whose µops have issued.
        while self._iq_release and self._iq_release[0] <= cycle:
            heapq.heappop(self._iq_release)
            self._iq_occupancy -= 1
        dispatched = 0
        stats = self.stats
        while dispatched < width and self._ip < self._n:
            op = self._ops[self._ip]
            if len(self._rob) >= self.rob_capacity:
                return dispatched, "rob", 0
            if self._iq_occupancy >= self.iq_capacity:
                return dispatched, "issue_queue", 0
            if op.is_load and self._loads_in_rob >= self.lq_capacity:
                return dispatched, "load_queue", 0
            if (
                op.is_store
                and not self.sq_unbounded
                and self._sq_occupancy >= self.sq_capacity
            ):
                return dispatched, "sb", op.pc
            index = self._ip
            dep_ready = 0
            if op.dep_distance and index >= op.dep_distance:
                dep_ready = self._ready[index - op.dep_distance]
            issue = max(cycle + 1, dep_ready)
            if op.is_load:
                block = op.addr // self.block_bytes
                self._last_load_block = block
                # Every load CAM-searches the store queue for forwarding —
                # the associative search that bounds real SB sizes (§I).
                self.sb.stats.cam_searches += 1
                if block in self._sq_blocks:
                    self.sb.stats.forwarding_hits += 1
                    completion = issue + self.config.caches.l1d.latency
                else:
                    completion = self.hierarchy.load(block, issue).completion
                stats.load_wait_cycles += completion - issue
                self._loads_in_rob += 1
            elif op.is_store:
                block = op.addr // self.block_bytes
                self._last_store_block = block
                completion = issue + op.latency
                self._sq_occupancy += 1
                self._sq_blocks[block] = self._sq_blocks.get(block, 0) + 1
                self.engine.on_store_executed(block, issue)
            else:
                completion = issue + op.latency
            self._ready[index] = completion
            self._rob.append((index, op))
            self._iq_occupancy += 1
            heapq.heappush(self._iq_release, issue)
            self._ip += 1
            dispatched += 1
            tracer = self.tracer
            if tracer is not None:
                kind_tag = _op_class(op)
                tracer.emit(
                    cycle, "uop.dispatch", core=self._core_id, pc=op.pc,
                    addr=op.addr if (op.is_load or op.is_store) else None,
                    value=index, tag=kind_tag,
                )
                tracer.emit(
                    issue, "uop.issue", core=self._core_id, value=index,
                    tag=kind_tag,
                )
            if op.is_branch:
                if self._trace_annotated:
                    mispredicted = op.mispredicted
                else:
                    predicted = self.predictor.predict(op.pc)
                    mispredicted = self.predictor.record(predicted, op.taken)
                    self.predictor.update(op.pc, op.taken)
                if mispredicted:
                    stats.mispredicted_branches += 1
                    self._fetch_resume = completion + self.mispredict_penalty
                    if tracer is not None:
                        tracer.emit(
                            cycle, "frontend.redirect", core=self._core_id,
                            pc=op.pc, value=self._fetch_resume,
                        )
                    self._inject_wrong_path(completion - cycle)
                    break
        return dispatched, None, 0

    def _attribute_stall(self, block_reason: str | None, blocked_pc: int) -> None:
        """Charge this cycle's dispatch stall to the blocking resource."""
        stats = self.stats
        tracer = self.tracer
        if tracer is not None and block_reason is not None:
            tracer.emit(
                self.cycle, "stall.dispatch", core=self._core_id,
                tag=block_reason, value=1,
                pc=blocked_pc if block_reason == "sb" else None,
            )
        if block_reason == "sb":
            stats.stalls.sb_full += 1
            stats.sb_stall_cycles += 1
            stats.sb_stall_by_pc[blocked_pc] += 1
        elif block_reason == "frontend":
            stats.stalls.frontend += 1
        elif block_reason == "issue_queue":
            stats.stalls.issue_queue_full += 1
        elif block_reason == "load_queue":
            stats.stalls.load_queue_full += 1
        elif block_reason == "rob":
            stats.stalls.rob_full += 1

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def done(self) -> bool:
        return self._ip >= self._n and not self._rob and self.sb.is_empty

    def step(self) -> bool:
        """Advance one cycle; returns whether anything progressed."""
        drained = self._drain_sb()
        committed = self._commit()
        dispatched, block_reason, blocked_pc = self._dispatch()
        if dispatched == 0 and self._ip < self._n:
            self._attribute_stall(block_reason, blocked_pc)
        if committed == 0 and self.hierarchy.l1_mshr.outstanding(self.cycle):
            self.stats.exec_stall_l1d_pending += 1
        self.sb.sample_occupancy()
        self.stats.cycles += 1
        self.cycle += 1
        return bool(drained or committed or dispatched)

    def run(self, max_cycles: int = 500_000_000) -> PipelineStats:
        """Run to completion, stepping every cycle."""
        while not self.done():
            self.step()
            if self.cycle > max_cycles:
                raise RuntimeError(
                    f"simulation exceeded {max_cycles} cycles "
                    f"(ip={self._ip}/{self._n}, rob={len(self._rob)}, sb={len(self.sb)})"
                )
        return self.stats
