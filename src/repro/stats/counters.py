"""Pipeline counters collected during a simulation run."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class StallBreakdown:
    """Dispatch/issue stall cycles attributed to the blocking resource.

    The paper's Figure 10 splits issue stalls into SB-induced stalls and
    stalls from every other back-end resource (ROB, issue queue, load queue,
    registers).  A cycle that dispatches no µop is charged to the first
    check that refused the next µop, in the order ROB, issue queue, load
    queue, SB; ``frontend`` counts cycles spent refilling after a branch
    mispredict.  A full ROB is charged to ``rob_full`` whatever its head is
    waiting for, so ``sb_full`` counts only cycles in which the next µop was
    a store with no free SB entry.
    """

    sb_full: int = 0
    rob_full: int = 0
    issue_queue_full: int = 0
    load_queue_full: int = 0
    frontend: int = 0

    @property
    def total(self) -> int:
        """All dispatch-stall cycles across causes."""
        return (
            self.sb_full
            + self.rob_full
            + self.issue_queue_full
            + self.load_queue_full
            + self.frontend
        )

    @property
    def other(self) -> int:
        """Everything that is not the store buffer (the paper's 'Other')."""
        return self.total - self.sb_full


@dataclass
class PipelineStats:
    """All counters one core accumulates during a run."""

    cycles: int = 0
    committed_uops: int = 0
    committed_stores: int = 0
    committed_loads: int = 0
    committed_branches: int = 0
    mispredicted_branches: int = 0
    wrong_path_uops: int = 0
    wrong_path_loads: int = 0
    wrong_path_stores: int = 0
    sb_stall_cycles: int = 0
    exec_stall_l1d_pending: int = 0
    load_wait_cycles: int = 0
    stalls: StallBreakdown = field(default_factory=StallBreakdown)
    sb_stall_by_pc: dict[int, int] = field(default_factory=lambda: defaultdict(int))

    @property
    def ipc(self) -> float:
        """Committed micro-ops per cycle."""
        return self.committed_uops / self.cycles if self.cycles else 0.0

    @property
    def sb_stall_ratio(self) -> float:
        """Fraction of cycles the pipeline was stalled on a full SB."""
        return self.sb_stall_cycles / self.cycles if self.cycles else 0.0

    @property
    def mean_load_wait(self) -> float:
        """Average memory wait per committed load, cycles."""
        if not self.committed_loads:
            return 0.0
        return self.load_wait_cycles / self.committed_loads

    def stalls_by_region(self, region_of) -> dict[str, int]:
        """Aggregate SB-stall cycles by code region (Figure 3)."""
        by_region: dict[str, int] = defaultdict(int)
        for pc, cycles in self.sb_stall_by_pc.items():
            by_region[region_of(pc)] += cycles
        return dict(by_region)
