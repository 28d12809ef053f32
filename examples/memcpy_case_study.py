#!/usr/bin/env python3
"""Case study: why a memcpy burst fills the store buffer, and how SPB fixes it.

Reconstructs the paper's motivating example (Figure 2 and §III-A): a tight
loop writing 8-byte words to contiguous addresses.  The script builds the
trace directly from the kernel generators — no SPEC mixture — so every cycle
of the difference between policies comes from the burst itself.

It then walks through what each mechanism contributes:

1. no prefetch  -> stores serialise at the SB head, one miss at a time;
2. at-commit    -> parallelism limited to the blocks inside the SB (~7);
3. SPB          -> one burst request covers the rest of each page.

Usage::

    python examples/memcpy_case_study.py [copy_kib]
"""

import sys

from repro import SystemConfig, simulate
from repro.isa.trace import Trace
from repro.workloads.kernels import memcpy_kernel


def build_copy(copy_kib: int) -> Trace:
    builder = memcpy_kernel(
        copy_kib * 1024,
        dst_base=0x1000_0000,
        src_base=0x2000_0000,
        pc_base=0x400,
    )
    return Trace.from_columns(builder.columns, name=f"memcpy-{copy_kib}KiB",
                              regions=builder.regions)


def main() -> None:
    copy_kib = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    trace = build_copy(copy_kib)
    stats = trace.stats()
    blocks = stats.distinct_store_blocks
    print(f"copying {copy_kib} KiB: {stats.stores} stores over {blocks} blocks "
          f"({stats.distinct_store_pages} pages)\n")

    print(f"{'policy':>12} {'SB':>5} {'cycles':>10} {'stores/kcycle':>14} "
          f"{'SB-stall':>9} {'bursts':>7}")
    for sb in (56, 14):
        for policy in ("none", "at-commit", "spb"):
            config = SystemConfig.skylake(sb_entries=sb, store_prefetch=policy)
            result = simulate(trace, config)
            bursts = (
                result.detector_stats.bursts_triggered
                if result.detector_stats is not None
                else 0
            )
            rate = 1000 * stats.stores / result.cycles
            print(
                f"{policy:>12} {sb:>5} {result.cycles:>10} {rate:>14.1f} "
                f"{result.sb_stall_ratio:>8.1%} {bursts:>7}"
            )
        print()

    # The mechanism, in numbers: how early does each policy secure ownership?
    print("prefetch outcome breakdown (store-side requests at the L1):")
    for policy in ("at-commit", "spb"):
        config = SystemConfig.skylake(sb_entries=14, store_prefetch=policy)
        outcomes = simulate(trace, config).prefetch_outcomes
        print(f"  {policy:>10}: {outcomes.fractions()} "
              f"(success rate {outcomes.success_rate:.0%})")


if __name__ == "__main__":
    main()
