"""Kernel generators: the building blocks of synthetic application traces.

Each kernel emits micro-ops the way a compiled loop would: a small set of
static PCs reused across iterations, realistic mixes of address generation,
data movement and loop-control branches.  A :class:`KernelBuilder` appends
each µop's fields straight to the trace columns; no :class:`MicroOp` object
is built.  Kernels that model library or OS
code (``memcpy``, ``memset``, ``clear_page``, ``calloc``) annotate their PCs
with the region name so Figure 3's stall-location breakdown can be rebuilt.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.isa.trace import Trace, TraceColumns
from repro.isa.uop import MicroOp, OpKind

_WORD = 8  # the paper's running example: 8-byte scalar stores
_LOAD = int(OpKind.LOAD)
_STORE = int(OpKind.STORE)
_BRANCH = int(OpKind.BRANCH)


@dataclass
class KernelBuilder:
    """Accumulates per-µop trace columns plus the PC-region annotations."""

    pc_base: int
    region: str = "app"
    columns: TraceColumns = field(default_factory=TraceColumns.empty)
    regions: dict[int, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.columns.kinds)

    @property
    def ops(self) -> list[MicroOp]:
        """The emitted µops as :class:`MicroOp` views (built on each call)."""
        return list(Trace.from_columns(self.columns))

    def pc(self, offset: int) -> int:
        """Assign (and annotate) the PC for a static instruction slot."""
        pc = self.pc_base + 4 * offset
        self.regions.setdefault(pc, self.region)
        return pc

    def _append(self, kind: int, pc: int, addr: int = 0, size: int = 0,
                dep: int = 0, mispredicted: bool = False,
                taken: bool = False) -> None:
        kinds, pcs, addrs, sizes, deps, mispreds, takens = self.columns
        kinds.append(kind)
        pcs.append(pc)
        addrs.append(addr)
        sizes.append(size)
        deps.append(dep)
        mispreds.append(mispredicted)
        takens.append(taken)

    def load(self, offset: int, addr: int, size: int = _WORD, dep: int = 0) -> None:
        """Append a load micro-op."""
        self._append(_LOAD, self.pc(offset), addr, size, dep)

    def store(self, offset: int, addr: int, size: int = _WORD, dep: int = 0) -> None:
        """Append a store micro-op."""
        self._append(_STORE, self.pc(offset), addr, size, dep)

    def alu(self, offset: int, kind: OpKind = OpKind.INT_ALU, dep: int = 0) -> None:
        """Append an arithmetic micro-op."""
        self._append(int(kind), self.pc(offset), dep=dep)

    def branch(self, offset: int, mispredicted: bool = False,
               taken: bool = True) -> None:
        """Append a branch micro-op with direction and annotation."""
        self._append(_BRANCH, self.pc(offset), mispredicted=mispredicted, taken=taken)


def memcpy_kernel(
    nbytes: int,
    dst_base: int,
    src_base: int,
    pc_base: int,
    region: str = "memcpy",
) -> KernelBuilder:
    """A word-at-a-time copy loop: load src, store dst, bump, branch.

    Produces the contiguous 8-byte store pattern of Figure 2: eight stores
    per 64-byte block, blocks strictly ascending — the pattern SPB detects.
    """
    b = KernelBuilder(pc_base=pc_base, region=region)
    words = max(1, nbytes // _WORD)
    for i in range(words):
        offset = i * _WORD
        b.load(0, src_base + offset)
        b.store(1, dst_base + offset, dep=1)  # store data depends on the load
        b.alu(2)  # pointer bump
        b.branch(3)  # loop back-edge, well predicted
    return b


def memset_kernel(
    nbytes: int,
    dst_base: int,
    pc_base: int,
    region: str = "memset",
    word_bytes: int = _WORD,
) -> KernelBuilder:
    """A word-at-a-time fill loop: pure contiguous stores plus loop control.

    ``word_bytes`` selects the store width (8 for scalar stores, 16/32 for
    vectorised fills) — the knob the SPB dynamic-size ablation varies.
    """
    b = KernelBuilder(pc_base=pc_base, region=region)
    words = max(1, nbytes // word_bytes)
    for i in range(words):
        b.store(0, dst_base + i * word_bytes, size=word_bytes)
        b.alu(1)
        b.branch(2)
    return b


def clear_page_kernel(
    pages: int,
    base: int,
    pc_base: int,
    page_bytes: int = 4096,
) -> KernelBuilder:
    """The kernel's ``clear_page_orig``: zeroes whole pages on first touch."""
    b = KernelBuilder(pc_base=pc_base, region="clear_page")
    for page in range(pages):
        page_base = base + page * page_bytes
        for i in range(page_bytes // _WORD):
            b.store(0, page_base + i * _WORD)
            b.alu(1)
    return b


def shuffled_store_kernel(
    nbytes: int,
    dst_base: int,
    pc_base: int,
    rng: random.Random,
    window: int = 8,
    region: str = "app",
) -> KernelBuilder:
    """Contiguous stores shuffled inside small windows by loop unrolling.

    Models the compiler-reordered stores the paper observed (e.g. ``roms``):
    the byte addresses are not monotonic, but every window still lands in the
    same or the next memory block, so SPB's block-delta detector still fires
    while an address-delta detector would not.
    """
    b = KernelBuilder(pc_base=pc_base, region=region)
    words = max(window, nbytes // _WORD)
    for window_start in range(0, words - window + 1, window):
        order = list(range(window))
        rng.shuffle(order)
        for slot, idx in enumerate(order):
            b.store(slot % 4, dst_base + (window_start + idx) * _WORD)
        b.alu(4)
        b.branch(5)
    return b


def strided_store_kernel(
    count: int,
    dst_base: int,
    stride: int,
    pc_base: int,
    region: str = "app",
) -> KernelBuilder:
    """Stores separated by a fixed stride larger than a block.

    A stream prefetcher tracks this; SPB deliberately does not (block deltas
    are neither 0 nor 1), so this kernel exercises SPB's selectivity.
    """
    b = KernelBuilder(pc_base=pc_base, region=region)
    for i in range(count):
        b.store(0, dst_base + i * stride)
        b.alu(1)
        b.alu(2)
        b.alu(3)
        b.branch(4)
    return b


def sparse_store_kernel(
    count: int,
    base: int,
    span_bytes: int,
    pc_base: int,
    rng: random.Random,
    region: str = "app",
) -> KernelBuilder:
    """Stores to random addresses in a span: unpredictable, prefetch-hostile."""
    b = KernelBuilder(pc_base=pc_base, region=region)
    span_words = max(1, span_bytes // _WORD)
    for _ in range(count):
        addr = base + rng.randrange(span_words) * _WORD
        b.store(0, addr)
        b.alu(1)
        b.alu(2, dep=1)
        b.alu(3)
        b.branch(4)
    return b


def load_stream_kernel(
    count: int,
    base: int,
    pc_base: int,
    stride: int = _WORD,
    region: str = "app",
) -> KernelBuilder:
    """Sequential loads with a consumer: the stream-prefetcher-friendly case."""
    b = KernelBuilder(pc_base=pc_base, region=region)
    for i in range(count):
        b.load(0, base + i * stride)
        b.alu(1, kind=OpKind.FP_ALU, dep=1)
        b.branch(2)
    return b


def pointer_chase_kernel(
    count: int,
    base: int,
    working_set_bytes: int,
    pc_base: int,
    rng: random.Random,
    region: str = "app",
) -> KernelBuilder:
    """Dependent loads over a large working set: latency-bound, miss-heavy."""
    b = KernelBuilder(pc_base=pc_base, region=region)
    slots = max(1, working_set_bytes // _WORD)
    for _ in range(count):
        addr = base + rng.randrange(slots) * _WORD
        b.load(0, addr, dep=2)  # each load waits on the previous one
        b.alu(1, dep=1)
    return b


def compute_kernel(
    count: int,
    pc_base: int,
    fp_fraction: float = 0.5,
    chain: int = 2,
    region: str = "app",
    rng: random.Random | None = None,
) -> KernelBuilder:
    """Arithmetic with dependency chains: models compute-bound phases."""
    b = KernelBuilder(pc_base=pc_base, region=region)
    rng = rng or random.Random(0)
    for i in range(count):
        kind = OpKind.FP_MUL if rng.random() < fp_fraction else OpKind.INT_ALU
        dep = chain if i >= chain else 0
        b.alu(i % 8, kind=kind, dep=dep)
    return b


def branchy_kernel(
    count: int,
    pc_base: int,
    mispredict_rate: float,
    rng: random.Random,
    region: str = "app",
) -> KernelBuilder:
    """Data-dependent branches, a fraction of which mispredict.

    Directions follow a short periodic pattern with ``mispredict_rate``
    noise: a history predictor (gshare/TAGE) learns the pattern and only
    mispredicts the noise, while a bimodal predictor fails on balanced
    patterns.  The ``mispredicted`` annotation models the same residual
    noise for the "trace" front-end mode.
    """
    b = KernelBuilder(pc_base=pc_base, region=region)
    period = rng.choice((2, 3, 4, 6, 8))
    pattern = [rng.random() < 0.5 for _ in range(period)]
    for i in range(count):
        noisy = rng.random() < mispredict_rate
        b.alu(0, dep=1)
        b.branch(1, mispredicted=rng.random() < mispredict_rate,
                 taken=pattern[i % period] ^ noisy)
    return b
