"""DRAM channel bandwidth model.

The base timing model charges a fixed DRAM latency per off-chip miss, with
parallelism bounded only by the L3 MSHRs.  This port model adds a bandwidth
bound: each 64-byte line transfer occupies one of ``channels`` for
``burst_cycles``, so a storm of misses (an SPB page burst landing on cold
memory, say) serialises once the channels saturate — the first-order
behaviour of a real memory controller without simulating banks and rows.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass


@dataclass
class DramStats:
    accesses: int = 0
    queued_accesses: int = 0
    queue_cycles: int = 0

    @property
    def mean_queue_delay(self) -> float:
        return self.queue_cycles / self.accesses if self.accesses else 0.0


class DramPort:
    """Channel scheduler with demand-first priority.

    Demand fills start immediately (real controllers prioritise demand
    reads; their channel occupancy still blocks later *prefetch* transfers).
    Prefetch fills are first-come-first-served over everything, so a page
    burst serialises once the channels saturate instead of delaying the
    loads and stores the pipeline is waiting on.
    """

    def __init__(self, channels: int = 2, burst_cycles: int = 8) -> None:
        if channels <= 0 or burst_cycles <= 0:
            raise ValueError("channels and burst_cycles must be positive")
        self.channels = channels
        self.burst_cycles = burst_cycles
        self._free_at: list[int] = [0] * channels
        heapq.heapify(self._free_at)
        self.stats = DramStats()

    def schedule(self, cycle: int, *, prefetch: bool = True) -> int:
        """Reserve a channel for one line transfer starting at ``cycle``.

        Returns the queueing delay (always 0 for demand transfers).
        """
        free_at = self._free_at
        earliest = heapq.heappop(free_at)
        start = max(cycle, earliest) if prefetch else cycle
        heapq.heappush(free_at, start + self.burst_cycles)
        delay = start - cycle
        self.stats.accesses += 1
        if delay:
            self.stats.queued_accesses += 1
            self.stats.queue_cycles += delay
        return delay
