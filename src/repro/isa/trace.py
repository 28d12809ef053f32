"""Trace container: per-µop columns plus summary statistics.

A :class:`Trace` stores its micro-ops as seven parallel lists
(:class:`TraceColumns`) rather than as :class:`MicroOp` objects: the
workload generators append to the columns and the fast engine indexes them
directly, so the production path never builds a µop object.  Iterating or
indexing a trace yields :class:`MicroOp` views built on demand, for tests,
the litmus suite and the stepping reference engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator, NamedTuple

from repro.isa.uop import MicroOp, OpKind

#: OpKind members by value: the kind column stores plain integer codes.
_KINDS = tuple(OpKind)
_LOAD = int(OpKind.LOAD)
_STORE = int(OpKind.STORE)
_BRANCH = int(OpKind.BRANCH)
_KIND_CODES = frozenset(range(len(_KINDS)))
_IS_MEMORY = [kind in (OpKind.LOAD, OpKind.STORE) for kind in _KINDS]


class TraceColumns(NamedTuple):
    """The per-µop columns of a trace, one list per :class:`MicroOp` field."""

    kinds: list[int]
    pcs: list[int]
    addrs: list[int]
    sizes: list[int]
    deps: list[int]
    mispredicted: list[bool]
    taken: list[bool]

    @classmethod
    def empty(cls) -> "TraceColumns":
        """Seven fresh empty lists."""
        return cls([], [], [], [], [], [], [])


def _validate_columns(columns: TraceColumns) -> None:
    """Apply :class:`MicroOp`'s rules to whole columns at once.

    Raises the ``ValueError`` a :class:`MicroOp` with the same fields
    would, plus one for columns of unequal length or an unknown kind code.
    """
    n = len(columns.kinds)
    if any(len(column) != n for column in columns):
        raise ValueError(
            "trace columns differ in length: "
            + ", ".join(f"{name}={len(col)}" for name, col in zip(columns._fields, columns))
        )
    kinds = columns.kinds
    if not set(kinds) <= _KIND_CODES:
        raise ValueError(f"unknown µop kind codes: {sorted(set(kinds) - _KIND_CODES)}")
    if min(columns.deps, default=0) < 0:
        raise ValueError("dep_distance must be non-negative")
    # map/compress/min keep the common (valid) case in C; only a failure
    # scans for the offending µop.
    memory = list(map(_IS_MEMORY.__getitem__, kinds))
    if (min(compress(columns.sizes, memory), default=1) <= 0
            or min(compress(columns.addrs, memory), default=0) < 0):
        for i in compress(range(n), memory):
            if columns.sizes[i] <= 0:
                raise ValueError(
                    f"memory µop at pc={columns.pcs[i]:#x} needs a positive size"
                )
            if columns.addrs[i] < 0:
                raise ValueError("addresses must be non-negative")


@dataclass(frozen=True)
class TraceStats:
    """Static summary of a trace, used by tests and workload calibration."""

    total: int
    loads: int
    stores: int
    branches: int
    mispredicted_branches: int
    distinct_store_blocks: int
    distinct_store_pages: int

    @property
    def store_fraction(self) -> float:
        """Stores as a fraction of all micro-ops."""
        return self.stores / self.total if self.total else 0.0

    @property
    def load_fraction(self) -> float:
        """Loads as a fraction of all micro-ops."""
        return self.loads / self.total if self.total else 0.0


class Trace:
    """An immutable-by-convention sequence of micro-ops, stored as columns.

    Traces carry a ``name`` (the workload they came from) and an optional
    ``region_of`` mapping from PC to a human-readable code region
    (``memcpy``, ``memset``, ``clear_page``, ``app``...), which Figure 3 of
    the paper breaks stall attribution down by.

    ``Trace(ops)`` builds the columns from :class:`MicroOp` objects;
    :meth:`from_columns` adopts lists that were generated directly.
    """

    def __init__(
        self,
        ops: Iterable[MicroOp],
        name: str = "anonymous",
        regions: dict[int, str] | None = None,
    ) -> None:
        ops = list(ops)
        columns = TraceColumns(
            [int(op.kind) for op in ops],
            [op.pc for op in ops],
            [op.addr for op in ops],
            [op.size for op in ops],
            [op.dep_distance for op in ops],
            [op.mispredicted for op in ops],
            [op.taken for op in ops],
        )
        _validate_columns(columns)
        self._columns = columns
        self.name = name
        self._regions = dict(regions or {})

    @classmethod
    def from_columns(
        cls,
        columns: Iterable[list],
        name: str = "anonymous",
        regions: dict[int, str] | None = None,
    ) -> "Trace":
        """Validate and adopt (not copy) seven per-µop column lists."""
        columns = TraceColumns(*columns)
        _validate_columns(columns)
        return cls._adopt(columns, name, regions)

    @classmethod
    def _adopt(cls, columns: TraceColumns, name: str,
               regions: dict[int, str] | None) -> "Trace":
        """A trace over already-validated columns."""
        trace = cls.__new__(cls)
        trace._columns = columns
        trace.name = name
        trace._regions = dict(regions or {})
        return trace

    @property
    def columns(self) -> TraceColumns:
        """The trace's own column lists (shared, not copied: do not mutate)."""
        return self._columns

    def __len__(self) -> int:
        return len(self._columns.kinds)

    def __iter__(self) -> Iterator[MicroOp]:
        for kind, pc, addr, size, dep, mispredicted, taken in zip(*self._columns):
            yield MicroOp(_KINDS[kind], pc, addr, size, dep, mispredicted, taken)

    def __getitem__(self, index):
        """A :class:`MicroOp` view; a slice gives a list of views."""
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        kind, pc, addr, size, dep, mispredicted, taken = (
            column[index] for column in self._columns
        )
        return MicroOp(_KINDS[kind], pc, addr, size, dep, mispredicted, taken)

    def slice(self, start: int, stop: int) -> "Trace":
        """µops ``start`` to ``stop`` as a trace with the same name and regions."""
        return self._adopt(
            TraceColumns(*(column[start:stop] for column in self._columns)),
            self.name, self._regions,
        )

    def region_of(self, pc: int) -> str:
        """Code region a PC belongs to; ``app`` when unannotated."""
        return self._regions.get(pc, "app")

    @property
    def regions(self) -> dict[int, str]:
        """Copy of the PC-to-region annotation map."""
        return dict(self._regions)

    def stats(self, block_bytes: int = 64, page_bytes: int = 4096) -> TraceStats:
        """Compute static statistics over the trace."""
        kinds, addrs = self._columns.kinds, self._columns.addrs
        store_addrs = [a for k, a in zip(kinds, addrs) if k == _STORE]
        return TraceStats(
            total=len(kinds),
            loads=kinds.count(_LOAD),
            stores=len(store_addrs),
            branches=kinds.count(_BRANCH),
            mispredicted_branches=sum(
                1 for k, m in zip(kinds, self._columns.mispredicted)
                if k == _BRANCH and m
            ),
            distinct_store_blocks=len({a // block_bytes for a in store_addrs}),
            distinct_store_pages=len({a // page_bytes for a in store_addrs}),
        )

    def concat(self, other: "Trace", name: str | None = None) -> "Trace":
        """Concatenate two traces, merging their region annotations."""
        return self._adopt(
            TraceColumns(*(a + b for a, b in zip(self._columns, other._columns))),
            name or f"{self.name}+{other.name}",
            {**self._regions, **other._regions},
        )
