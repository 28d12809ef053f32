"""Composes kernels into deterministic application traces."""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Callable

from repro.isa.trace import Trace, TraceColumns
from repro.workloads import kernels as K

#: Address-space layout: each phase gets its own heap region so phases do not
#: accidentally alias, and each invocation advances through the region so
#: bursts hit cold memory the way fresh allocations do.
_REGION_BYTES = 1 << 32  # 4 GiB per phase slot
_PC_REGION = 1 << 16

#: A phase builder receives (invocation index, rng, base address, pc base)
#: and returns a KernelBuilder.
PhaseBuilder = Callable[[int, random.Random, int, int], K.KernelBuilder]


@dataclass(frozen=True)
class PhaseSpec:
    """One recurring phase of an application.

    ``weight`` is the relative share of the trace this phase occupies;
    ``chunk_uops`` is roughly how many µops one invocation emits before the
    generator rotates to the next phase (modelling phase interleaving at the
    granularity real applications show).
    """

    name: str
    build: PhaseBuilder
    weight: float
    chunk_uops: int = 2000

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"phase {self.name}: weight must be positive")
        if self.chunk_uops <= 0:
            raise ValueError(f"phase {self.name}: chunk_uops must be positive")


@dataclass(frozen=True)
class WorkloadSpec:
    """A named application: a weighted set of phases."""

    name: str
    phases: tuple[PhaseSpec, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError(f"workload {self.name} has no phases")


def build_trace(spec: WorkloadSpec, length: int, seed: int = 1) -> Trace:
    """Generate a deterministic trace of ~``length`` µops for ``spec``.

    Phases are emitted round-robin in proportion to their weights, each
    invocation continuing through its own address region so data-movement
    phases touch fresh (cold) memory like real allocations do.
    """
    if length <= 0:
        raise ValueError("length must be positive")
    # crc32, not hash(): string hashing is randomised per process
    # (PYTHONHASHSEED), which would make the "same" trace differ between
    # sessions and break content-keyed result reuse across processes.
    rng = random.Random(zlib.crc32(spec.name.encode()) ^ seed)
    total_weight = sum(phase.weight for phase in spec.phases)
    shares = [phase.weight / total_weight for phase in spec.phases]
    columns = TraceColumns.empty()
    kinds = columns.kinds
    regions: dict[int, str] = {}
    invocations = [0] * len(spec.phases)
    emitted = [0] * len(spec.phases)
    # Deficit scheduling: always run the phase that is furthest behind its
    # weighted share of the trace so far.  This keeps long-run proportions
    # equal to the weights and fires every phase early, even in short traces.
    # The +1 µop head start makes the very first picks follow weight order.
    while len(kinds) < length:
        total = len(kinds) + 1
        index = max(
            range(len(spec.phases)),
            key=lambda i: shares[i] * total - emitted[i],
        )
        phase = spec.phases[index]
        base = (index + 1) * _REGION_BYTES + invocations[index] * (1 << 20)
        pc_base = (index + 1) * _PC_REGION
        builder = phase.build(invocations[index], rng, base, pc_base)
        invocations[index] += 1
        emitted[index] += len(builder)
        for column, part in zip(columns, builder.columns):
            column.extend(part)
        regions.update(builder.regions)
    for column in columns:
        del column[length:]
    return Trace.from_columns(columns, name=spec.name, regions=regions)
