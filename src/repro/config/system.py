"""Top-level system configuration tying core, caches and prefetchers together."""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import asdict, dataclass, field, replace

from repro.config.cache import CacheHierarchyConfig
from repro.config.core import CoreConfig, core_preset


class StorePrefetchPolicy(str, enum.Enum):
    """Store-prefetch strategies compared in the paper.

    * ``NONE`` — stores serialise at the SB head (no write prefetch).
    * ``AT_EXECUTE`` — prefetch-for-ownership when the store address is
      computed (Gharachorloo et al.); speculative, may be squashed.
    * ``AT_COMMIT`` — prefetch-for-ownership when the store commits into the
      SB (Intel's documented behaviour); the paper's baseline.
    * ``SPB`` — at-commit plus the paper's Store-Prefetch Burst detector.
    * ``IDEAL`` — unbounded SB, every buffered store prefetched in parallel.
    """

    NONE = "none"
    AT_EXECUTE = "at-execute"
    AT_COMMIT = "at-commit"
    SPB = "spb"
    IDEAL = "ideal"


class CachePrefetcherKind(str, enum.Enum):
    """Generic L1 cache prefetchers the paper layers under the store policies."""

    NONE = "none"
    STREAM = "stream"
    AGGRESSIVE = "aggressive"
    ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class SpbConfig:
    """Parameters of the SPB detector (paper §IV).

    The hardware budget is 67 bits: a 58-bit last-block register, a 4-bit
    saturating counter and a 5-bit store counter.  ``check_interval`` is the
    paper's N; the trigger threshold is ``N / stores_per_block`` where a
    64-byte block holds eight 8-byte stores.
    """

    check_interval: int = 48
    stores_per_block: int = 8
    counter_bits: int = 4
    dynamic_size: bool = False
    backward: bool = False
    # Extension beyond the paper (its footnote 2 leaves this unexplored):
    # burst across this many pages.  1 = the paper's page-bounded burst;
    # higher values assume the prefetcher works on virtual addresses and
    # translations resolve for the following pages.
    pages_per_burst: int = 1

    def __post_init__(self) -> None:
        if self.check_interval < self.stores_per_block:
            raise ValueError("N must be at least one block's worth of stores")
        if self.counter_bits <= 0:
            raise ValueError("counter_bits must be positive")
        if self.pages_per_burst <= 0:
            raise ValueError("pages_per_burst must be positive")

    @property
    def threshold(self) -> int:
        """Saturating-counter value that triggers a burst (N / 8 by default)."""
        return max(1, self.check_interval // self.stores_per_block)

    @property
    def counter_max(self) -> int:
        """Saturation value of the detector counter."""
        return (1 << self.counter_bits) - 1

    @property
    def storage_bits(self) -> int:
        """Total detector storage; 67 bits in the paper's configuration."""
        store_count_bits = max(1, (self.check_interval - 1).bit_length())
        return 58 + self.counter_bits + store_count_bits


#: Execution engines the runner can select.  ``fast`` (the default) is the
#: cycle-skipping engine in :mod:`repro.sim.fastpath`; ``reference`` steps
#: every cycle and is the model's specification, which the differential
#: harness (:mod:`repro.sim.diffcheck`) proves the fast engine equal to.
SIM_ENGINES = ("reference", "fast")


@dataclass(frozen=True)
class SystemConfig:
    """Everything a simulation run needs to know about the machine."""

    core: CoreConfig = field(default_factory=CoreConfig)
    caches: CacheHierarchyConfig = field(default_factory=CacheHierarchyConfig)
    store_prefetch: StorePrefetchPolicy = StorePrefetchPolicy.AT_COMMIT
    cache_prefetcher: CachePrefetcherKind = CachePrefetcherKind.STREAM
    spb: SpbConfig = field(default_factory=SpbConfig)
    num_cores: int = 1
    # Which execution engine simulates this config.  The engine changes how
    # fast the simulator runs, never what it computes, so it is excluded
    # from :meth:`cache_key` (see there).
    engine: str = "fast"

    def __post_init__(self) -> None:
        # Accept plain strings for the enums ("spb", "stream", ...).
        object.__setattr__(
            self, "store_prefetch", StorePrefetchPolicy(self.store_prefetch)
        )
        object.__setattr__(
            self, "cache_prefetcher", CachePrefetcherKind(self.cache_prefetcher)
        )
        if self.num_cores <= 0:
            raise ValueError("num_cores must be positive")
        if self.engine not in SIM_ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; choose from {SIM_ENGINES}"
            )

    @classmethod
    def skylake(
        cls,
        sb_entries: int = 56,
        store_prefetch: StorePrefetchPolicy | str = StorePrefetchPolicy.AT_COMMIT,
        **kwargs,
    ) -> "SystemConfig":
        """The paper's Table I baseline with a chosen SB size and policy."""
        policy = StorePrefetchPolicy(store_prefetch)
        return cls(
            core=CoreConfig().with_store_buffer(sb_entries),
            store_prefetch=policy,
            **kwargs,
        )

    @classmethod
    def preset(
        cls,
        name: str,
        store_prefetch: StorePrefetchPolicy | str = StorePrefetchPolicy.AT_COMMIT,
        sb_entries: int | None = None,
        **kwargs,
    ) -> "SystemConfig":
        """A Table II core preset, optionally overriding the SB size."""
        core = core_preset(name)
        if sb_entries is not None:
            core = core.with_store_buffer(sb_entries)
        return cls(core=core, store_prefetch=StorePrefetchPolicy(store_prefetch), **kwargs)

    def with_policy(self, policy: StorePrefetchPolicy | str) -> "SystemConfig":
        """Copy of this config with a different store-prefetch policy."""
        return replace(self, store_prefetch=StorePrefetchPolicy(policy))

    def with_sb(self, entries: int) -> "SystemConfig":
        """Copy of this config with a different SB capacity."""
        return replace(self, core=self.core.with_store_buffer(entries))

    def cache_key(self) -> str:
        """Stable hash of the machine description, used by the results cache.

        The ``engine`` field is deliberately excluded: the differential
        harness (:mod:`repro.sim.diffcheck`) proves the fast engine equal to
        the stepping specification, so the key identifies the *result*, not
        the code path that computed it.
        """
        payload_dict = asdict(self)
        payload_dict.pop("engine", None)
        payload = json.dumps(payload_dict, sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]
