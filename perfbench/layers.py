"""Per-layer metrics: simulated counts from a pass, host time from a profile.

Counts are sums over every core of every cell, so ratios weight each cell
by its work.  "pku" means per thousand committed (measured) µops.  Names are
prefixed with the ``repro`` package whose work they count.
"""

from __future__ import annotations

import cProfile
import os
import pstats

#: Packages whose cProfile self time is reported; the rest is "other".
SELF_TIME_PACKAGES = (
    "sim", "memory", "multicore", "workloads", "prefetch",
    "core", "cpu", "isa", "campaign",
)

#: Every per-layer metric ``--trace 1`` prints, with its unit.
PER_LAYER_UNITS = {
    "workloads.gen_s": "s",
    "workloads.gen_per_trace": "ratio",
    "sim.run_s": "s",
    "sim.host_ns_per_cycle": "ns/cycle",
    "cpu.cycles": "cycles",
    "cpu.ipc": "uops/cycle",
    "cpu.stall.sb_full_frac": "ratio",
    "cpu.stall.other_frac": "ratio",
    "cpu.exec_stall_l1d_pending_frac": "ratio",
    "core.sb.mean_occupancy": "entries",
    "core.sb.full_events_pku": "1/kuop",
    "core.sb.coalesced_frac": "ratio",
    "core.spb.bursts_pku": "1/kuop",
    "core.spb.blocks_per_burst": "blocks",
    "core.storepf.issued_pku": "1/kuop",
    "core.storepf.success_frac": "ratio",
    "memory.l1d.mpku": "1/kuop",
    "memory.l2.mpku": "1/kuop",
    "memory.l3.mpku": "1/kuop",
    "memory.l1d.invalidations_pku": "1/kuop",
    "memory.mshr.alloc_pku": "1/kuop",
    "memory.mshr.coalesced_frac": "ratio",
    "memory.mshr.full_delays_pku": "1/kuop",
    "memory.traffic.discarded_pf_frac": "ratio",
    "prefetch.fills_pku": "1/kuop",
    "multicore.build_s": "s",
    "multicore.system_ipc": "uops/cycle",
    "multicore.sb_stall_ratio": "ratio",
    "campaign.store_save_s": "s",
    "campaign.store_load_s": "s",
    "campaign.codec_s": "s",
    "campaign.warm_s": "s",
    "campaign.retries": "count",
    "trace.overhead_frac": "ratio",
    "bench.tracing_overhead_s": "s",
    "bench.tracing_overhead_frac": "ratio",
    **{f"{package}.self_s": "s" for package in SELF_TIME_PACKAGES + ("other",)},
}



def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def counts(run) -> dict[str, float]:
    """Simulated per-layer counts of one pass (deterministic per seed)."""
    cores = [core for cell in run.cells for core in cell.cores]

    def total(pick) -> float:
        return sum(pick(core) for core in cores)

    committed = total(lambda c: c.pipeline.committed_uops)
    cycles = total(lambda c: c.pipeline.cycles)
    kilo = committed / 1000
    engine_bursts = total(lambda c: c.engine.burst_requests)
    mshr_allocs = total(lambda c: c.l1_mshr.allocations)
    mshr_coalesced = total(lambda c: c.l1_mshr.coalesced)
    multicore = [cell for cell in run.cells if len(cell.cores) > 1]
    mc_cores = [core for cell in multicore for core in cell.cores]
    mc_slots = sum(cell.cycles * len(cell.cores) for cell in multicore)
    return {
        "cpu.cycles": cycles,
        "cpu.ipc": _ratio(committed, cycles),
        "cpu.stall.sb_full_frac": _ratio(total(lambda c: c.pipeline.stalls.sb_full), cycles),
        "cpu.stall.other_frac": _ratio(total(lambda c: c.pipeline.stalls.other), cycles),
        "cpu.exec_stall_l1d_pending_frac": _ratio(
            total(lambda c: c.pipeline.exec_stall_l1d_pending), cycles
        ),
        "core.sb.mean_occupancy": _ratio(
            total(lambda c: c.sb.occupancy_integral),
            total(lambda c: c.sb.occupancy_samples),
        ),
        "core.sb.full_events_pku": _ratio(total(lambda c: c.sb.full_events), kilo),
        "core.sb.coalesced_frac": _ratio(
            total(lambda c: c.sb.coalesced), total(lambda c: c.sb.pushes)
        ),
        "core.spb.bursts_pku": _ratio(
            total(lambda c: c.detector.bursts_triggered if c.detector else 0), kilo
        ),
        "core.spb.blocks_per_burst": _ratio(
            total(lambda c: c.engine.burst_blocks_requested), engine_bursts
        ),
        "core.storepf.issued_pku": _ratio(
            total(lambda c: c.engine.prefetches_issued), kilo
        ),
        "core.storepf.success_frac": _ratio(
            total(lambda c: c.outcomes.successful), total(lambda c: c.outcomes.issued)
        ),
        "memory.l1d.mpku": _ratio(total(lambda c: c.l1d.misses), kilo),
        "memory.l2.mpku": _ratio(total(lambda c: c.l2.misses), kilo),
        "memory.l3.mpku": _ratio(sum(c.l3.misses for c in run.cells if c.l3), kilo),
        "memory.l1d.invalidations_pku": _ratio(total(lambda c: c.l1d.invalidations), kilo),
        "memory.mshr.alloc_pku": _ratio(mshr_allocs, kilo),
        "memory.mshr.coalesced_frac": _ratio(mshr_coalesced, mshr_allocs + mshr_coalesced),
        "memory.mshr.full_delays_pku": _ratio(total(lambda c: c.l1_mshr.full_delays), kilo),
        "memory.traffic.discarded_pf_frac": _ratio(
            total(lambda c: c.traffic.discarded_prefetch_requests),
            total(lambda c: c.traffic.cpu_store_prefetch_requests),
        ),
        "prefetch.fills_pku": _ratio(total(lambda c: c.l1d.prefetch_fills), kilo),
        "multicore.system_ipc": _ratio(
            sum(c.pipeline.committed_uops for c in mc_cores),
            sum(cell.cycles for cell in multicore),
        ),
        "multicore.sb_stall_ratio": _ratio(
            sum(c.pipeline.sb_stall_cycles for c in mc_cores), mc_slots
        ),
        "workloads.gen_per_trace": run.gen_per_trace,
        "campaign.retries": run.retries,
    }


def timings(run) -> dict[str, float]:
    """Host-time spans the benchmark recorded around each layer's calls."""
    spans = run.spans.seconds
    cycles = sum(core.pipeline.cycles for cell in run.cells for core in cell.cores)
    return {
        "workloads.gen_s": spans["workloads.gen"],
        "sim.run_s": spans["sim.run"],
        "sim.host_ns_per_cycle": _ratio(spans["sim.run"] * 1e9, cycles),
        "multicore.build_s": spans["multicore.build"],
        "campaign.store_save_s": spans["campaign.store_save"],
        "campaign.store_load_s": spans["campaign.store_load"],
        "campaign.warm_s": spans["campaign.warm"],
    }


def package_of(filename: str) -> str:
    """``repro`` package a profiled function belongs to ("other" if none)."""
    parts = os.path.normpath(filename).split(os.sep)
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro" and parts[index + 1] in SELF_TIME_PACKAGES:
            return parts[index + 1]
    return "other"


def self_time(profile: cProfile.Profile) -> dict[str, float]:
    """cProfile self (``tottime``) seconds grouped by ``repro`` package."""
    grouped = dict.fromkeys(SELF_TIME_PACKAGES + ("other",), 0.0)
    for (filename, _, _), row in pstats.Stats(profile).stats.items():
        grouped[package_of(filename)] += row[2]
    return {f"{package}.self_s": seconds for package, seconds in grouped.items()}
