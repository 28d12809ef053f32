"""Cache geometry configuration (paper Table I)."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level.

    Sizes are in bytes.  ``latency`` is the load-to-use latency in cycles for
    a hit at this level, matching Table I of the paper.
    """

    name: str
    size_bytes: int
    associativity: int
    latency: int
    block_bytes: int = 64
    mshr_entries: int = 64

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.associativity <= 0:
            raise ValueError(f"{self.name}: size and associativity must be positive")
        if self.block_bytes <= 0 or self.block_bytes & (self.block_bytes - 1):
            raise ValueError(f"{self.name}: block size must be a power of two")
        sets = self.size_bytes // (self.associativity * self.block_bytes)
        if sets <= 0:
            raise ValueError(f"{self.name}: geometry yields no sets")
        if sets & (sets - 1):
            raise ValueError(f"{self.name}: number of sets must be a power of two")

    @property
    def num_sets(self) -> int:
        """Number of sets implied by the geometry."""
        return self.size_bytes // (self.associativity * self.block_bytes)


@dataclass(frozen=True)
class CacheHierarchyConfig:
    """Three-level hierarchy used throughout the paper (Table I).

    L1D and L2 are private per core; L3 is shared and holds the coherence
    directory.  ``dram_latency`` is the additional latency of a miss that
    leaves the chip.
    """

    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1D", 32 * 1024, 8, latency=4)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig("L2", 1024 * 1024, 16, latency=14)
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig("L3", 16 * 1024 * 1024, 16, latency=36)
    )
    dram_latency: int = 200
    # DRAM bandwidth: line transfers per channel are serialised.
    dram_channels: int = 2
    dram_burst_cycles: int = 8
    page_bytes: int = 4096
    # Data TLB (Table I: 8-way, 1 KB = 128 entries).  0 entries disables it.
    tlb_entries: int = 128
    tlb_associativity: int = 8
    tlb_walk_latency: int = 50

    def __post_init__(self) -> None:
        if not (self.l1d.block_bytes == self.l2.block_bytes == self.l3.block_bytes):
            raise ValueError("all levels must share one block size")
        if self.page_bytes % self.l1d.block_bytes:
            raise ValueError("page size must be a multiple of the block size")

    @property
    def block_bytes(self) -> int:
        """Cache-block size shared by all levels."""
        return self.l1d.block_bytes

    @property
    def blocks_per_page(self) -> int:
        """Cache blocks per virtual page."""
        return self.page_bytes // self.block_bytes
