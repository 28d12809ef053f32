"""Stream (stride) prefetcher — the paper's baseline L1 prefetcher.

Table I lists a "stream prefetcher (stride)" at L1.  We model a small table
of detected streams: a stream is confirmed after two accesses with the same
block-level stride, after which each demand access prefetches ``degree``
blocks ahead along the stride.  Stores prefetch with write intent; loads with
read intent.  This is deliberately conservative (degree 1 by default), which
is exactly the limitation §III-A of the paper describes: on a dense store
burst the stream prefetcher only ever runs one block ahead of the demand
stream.
"""

from __future__ import annotations

from operator import itemgetter

from repro.prefetch.base import PrefetcherBase

_TABLE_ENTRIES = 16
_BY_CYCLE = itemgetter(1)


class _StreamEntry:
    __slots__ = ("last_block", "stride", "confirmed")

    def __init__(self, block: int) -> None:
        self.last_block = block
        self.stride = 0
        self.confirmed = False


class StreamPrefetcher(PrefetcherBase):
    """Stride-confirming stream prefetcher with a bounded tracking table."""

    def __init__(self, degree: int = 1, table_entries: int = _TABLE_ENTRIES) -> None:
        super().__init__()
        if degree <= 0:
            raise ValueError("degree must be positive")
        self.degree = degree
        self.table_entries = table_entries
        # Keyed by block >> 6: one stream per 4 KiB region, so independent
        # streams don't alias.
        self._table: dict[int, _StreamEntry] = {}
        # Last-touch cycle per region, kept in lockstep with ``_table`` (same
        # insertion order, so min() tie-breaks identically); a flat int dict
        # lets the LRU eviction scan run on a C-level key function.
        self._last: dict[int, int] = {}

    def _entry_for(self, block: int, cycle: int) -> _StreamEntry:
        region = block >> 6
        table = self._table
        entry = table.get(region)
        if entry is None:
            if len(table) >= self.table_entries:
                # Evict the least recently used stream, recycling its
                # entry object (a fresh stream starts from scratch either
                # way, and irregular workloads evict on most accesses).
                oldest = min(self._last.items(), key=_BY_CYCLE)[0]
                entry = table.pop(oldest)
                del self._last[oldest]
                entry.last_block = block
                entry.stride = 0
                entry.confirmed = False
            else:
                entry = _StreamEntry(block)
            table[region] = entry
        self._last[region] = cycle
        return entry

    def _propose(self, block, hit, is_store, cycle):
        entry = self._entry_for(block, cycle)
        delta = block - entry.last_block
        if delta != 0:
            if delta == entry.stride and entry.stride != 0:
                entry.confirmed = True
            else:
                entry.stride = delta
                entry.confirmed = False
            entry.last_block = block
        if entry.confirmed and entry.stride != 0:
            return [
                (block + entry.stride * step, is_store)
                for step in range(1, self.degree + 1)
            ]
        return ()  # shared empty — most demand accesses propose nothing
