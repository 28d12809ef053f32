"""Set-associative cache with LRU replacement and MESI block states."""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from repro.config.cache import CacheConfig
from repro.memory.coherence import MESIState

_BY_CYCLE = itemgetter(1)


@dataclass
class CacheStats:
    """Per-cache activity counters (tag accesses feed Figure 13)."""

    tag_accesses: int = 0
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    invalidations: int = 0
    prefetch_fills: int = 0

    def merge(self, other: "CacheStats") -> None:
        self.tag_accesses += other.tag_accesses
        self.hits += other.hits
        self.misses += other.misses
        self.insertions += other.insertions
        self.evictions += other.evictions
        self.dirty_evictions += other.dirty_evictions
        self.invalidations += other.invalidations
        self.prefetch_fills += other.prefetch_fills


@dataclass(slots=True)
class _Line:
    """One resident cache line."""

    state: MESIState
    prefetched: bool = False


class SetAssociativeCache:
    """A single cache level indexed by block number.

    Lines carry a MESI state so the same structure serves L1/L2/L3.
    Replacement is exact LRU: each set keeps its blocks' last-use cycles in
    an int dict in insertion lockstep with the line dict, and the victim is
    the block with the smallest stamp.  ``min`` runs with a C-level key
    function and resolves ties to the first-inserted block (both dicts
    iterate in the same order by construction).  A block's age is the last
    stamp written for it, not the order of the calls that wrote it.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._set_mask = config.num_sets - 1
        self._assoc = config.associativity
        self._sets: list[dict[int, _Line]] = [{} for _ in range(config.num_sets)]
        self._last_use: list[dict[int, int]] = [{} for _ in range(config.num_sets)]
        self.stats = CacheStats()

    def _set_for(self, block: int) -> dict[int, _Line]:
        return self._sets[block & self._set_mask]

    def lookup(self, block: int, cycle: int) -> MESIState | None:
        """Look a block up, updating recency.  ``None`` means miss."""
        line = self.lookup_line(block, cycle)
        return None if line is None else line.state

    def lookup_line(self, block: int, cycle: int) -> _Line | None:
        """Like :meth:`lookup` but returns the line object itself.

        The hierarchy's hit paths read ``state`` *and* ``prefetched`` off
        the same line; returning it saves re-probing the set dict for each
        attribute.
        """
        stats = self.stats
        stats.tag_accesses += 1
        index = block & self._set_mask
        line = self._sets[index].get(block)
        if line is None:
            stats.misses += 1
            return None
        self._last_use[index][block] = cycle
        stats.hits += 1
        return line

    def peek(self, block: int) -> MESIState | None:
        """State of a block without touching recency or counters."""
        line = self._sets[block & self._set_mask].get(block)
        return None if line is None else line.state

    def was_prefetched(self, block: int) -> bool:
        line = self._sets[block & self._set_mask].get(block)
        return bool(line and line.prefetched)

    def clear_prefetched(self, block: int) -> None:
        line = self._sets[block & self._set_mask].get(block)
        if line is not None:
            line.prefetched = False

    def insert(
        self,
        block: int,
        state: MESIState,
        cycle: int,
        *,
        prefetched: bool = False,
    ) -> tuple[int, MESIState] | None:
        """Insert (or upgrade) a block; returns the evicted victim, if any.

        The victim is reported as ``(block, state)`` so the hierarchy can
        write back dirty data and update the directory.
        """
        index = block & self._set_mask
        cache_set = self._sets[index]
        last_use = self._last_use[index]
        existing = cache_set.get(block)
        if existing is not None:
            existing.state = state
            last_use[block] = cycle
            if prefetched:
                existing.prefetched = True
            return None
        stats = self.stats
        victim: tuple[int, MESIState] | None = None
        if len(cache_set) >= self._assoc:
            victim_block = min(last_use.items(), key=_BY_CYCLE)[0]
            del last_use[victim_block]
            victim_line = cache_set.pop(victim_block)
            victim = (victim_block, victim_line.state)
            stats.evictions += 1
            if victim_line.state == MESIState.M:
                stats.dirty_evictions += 1
        last_use[block] = cycle
        cache_set[block] = _Line(state, prefetched)
        stats.insertions += 1
        if prefetched:
            stats.prefetch_fills += 1
        return victim

    def set_state(self, block: int, state: MESIState) -> None:
        """Change the MESI state of a resident block (no recency update)."""
        line = self._set_for(block).get(block)
        if line is None:
            raise KeyError(f"block {block:#x} not resident")
        line.state = state

    def invalidate(self, block: int) -> MESIState | None:
        """Drop a block; returns its prior state or ``None`` if absent."""
        index = block & self._set_mask
        line = self._sets[index].pop(block, None)
        if line is None:
            return None
        del self._last_use[index][block]
        self.stats.invalidations += 1
        return line.state

    def resident_blocks(self) -> list[int]:
        """All resident block numbers (test/diagnostic helper)."""
        return [block for cache_set in self._sets for block in cache_set]

    def occupancy(self) -> int:
        return sum(len(cache_set) for cache_set in self._sets)
