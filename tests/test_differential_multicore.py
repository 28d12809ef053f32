"""Multicore differential matrix: lockstep loop and event heap vs the oracle.

Every cell of :func:`repro.sim.diffcheck.multicore_matrix` runs one PARSEC
workload through both engines and through the step-every-cycle oracle.  Both
engines must equal the oracle across the complete per-core statistics tree
and the shared-uncore tree, and each other on every core's event stream in
canonical form.  The matrix includes SPB cells on dedup, whose shared heap
drives cross-core invalidations through the directory — a dedicated test
pins that coverage so the matrix cannot silently stop exercising coherence.
"""

from __future__ import annotations

from dataclasses import replace

from repro.config.system import SystemConfig
from repro.cpu.pipeline import Pipeline
from repro.multicore.system import MulticoreSystem
from repro.sim.diffcheck import (
    MulticoreDiffCase,
    canonical_core_events,
    multicore_matrix,
    run_multicore_case,
    shrink_multicore_case,
)
from repro.trace.events import TraceEvent
from repro.workloads.parsec import parsec

import pytest

MATRIX = multicore_matrix()


@pytest.mark.parametrize("case", MATRIX, ids=[c.describe() for c in MATRIX])
def test_engines_bit_identical(case):
    report = run_multicore_case(case)
    assert report.identical, report.message()


def test_oracle_catches_cycles_only_jumps(monkeypatch):
    """A lockstep jump that charges only ``cycles`` must fail the oracle.

    Such a jump drops the stall buckets, SB occupancy samples and
    L1D-pending cycles of every blocked core.  The event heap does not use
    ``_skip_to`` and must stay equal to the oracle.
    """
    def cycles_only(self, target):
        self.stats.cycles += target - self.cycle
        self.cycle = target

    monkeypatch.setattr(Pipeline, "_skip_to", cycles_only)
    case = MulticoreDiffCase(
        workload="canneal",
        config=SystemConfig.skylake(
            sb_entries=14, store_prefetch="at-commit", num_cores=2
        ),
        threads=2,
        length=1_500,
    )
    problems = run_multicore_case(case).problems
    assert any(p.startswith("oracle vs reference:") for p in problems)
    assert not any(p.startswith("oracle vs fast:") for p in problems)


class TestCanonicalCoreEvents:
    def test_stall_runs_merge_and_releases_lose_their_stamps(self):
        lockstep = [
            TraceEvent(10, "stall.dispatch", pc=4, tag="sb", value=1),
            TraceEvent(11, "stall.dispatch", pc=4, tag="sb", value=1),
            TraceEvent(11, "mshr.release", value=11),
            TraceEvent(12, "stall.dispatch", pc=4, tag="sb", value=5),
            TraceEvent(17, "uop.commit", value=3, tag="load"),
        ]
        heap = [
            TraceEvent(10, "stall.dispatch", pc=4, tag="sb", value=1),
            TraceEvent(11, "stall.dispatch", pc=4, tag="sb", value=6),
            TraceEvent(17, "mshr.release", value=11),
            TraceEvent(17, "uop.commit", value=3, tag="load"),
        ]
        events, releases = canonical_core_events(lockstep)
        assert (events, releases) == canonical_core_events(heap)
        assert events[0] == TraceEvent(10, "stall.dispatch", pc=4, tag="sb", value=7)
        assert releases == [11]

    def test_different_stall_causes_stay_apart(self):
        stream = [
            TraceEvent(10, "stall.dispatch", pc=4, tag="sb", value=1),
            TraceEvent(11, "stall.dispatch", pc=8, tag="sb", value=1),
            TraceEvent(12, "stall.dispatch", tag="rob", value=1),
        ]
        assert canonical_core_events(stream)[0] == stream


def test_matrix_includes_spb_cross_core_invalidation():
    """The SPB/dedup cell really does send cross-core invalidations.

    Without this pin, a workload-generator change could quietly make the
    matrix coherence-free and the differential proof would no longer cover
    the scheduler's MESI interleaving.
    """
    case = next(
        c for c in MATRIX
        if c.workload == "dedup" and c.config.store_prefetch.value == "spb"
    )
    traces = parsec(
        case.workload, threads=case.threads, length=case.length, seed=case.seed
    )
    system = MulticoreSystem(
        case.config.with_engine("fast"), traces, seed=case.sim_seed
    )
    system.run()
    assert system.uncore.directory.stats.invalidations_sent > 0


def test_matrix_covers_every_policy_and_multiple_core_counts():
    policies = {c.config.store_prefetch.value for c in MATRIX}
    assert policies == {"none", "at-execute", "at-commit", "spb", "ideal"}
    assert {c.threads for c in MATRIX} >= {2, 4}


def test_shrink_returns_identical_case_unchanged():
    case = MulticoreDiffCase(
        workload="swaptions",
        config=SystemConfig.skylake(sb_entries=14, num_cores=2),
        threads=2,
        length=256,
    )
    assert shrink_multicore_case(case) == case


def test_shrink_reduces_threads_and_length():
    """Greedy shrink halves along both axes while divergence persists.

    There is no real engine divergence to shrink, so this drives the search
    with a stub that reports every trial as diverging, which forces the
    shrink to the floor on both axes and checks ``config.num_cores`` tracks
    the thread count.
    """
    import repro.sim.diffcheck as diffcheck

    case = MulticoreDiffCase(
        workload="swaptions",
        config=SystemConfig.skylake(sb_entries=14, num_cores=4),
        threads=4,
        length=512,
    )

    class FakeReport:
        identical = False

    def fake_run(trial):
        return FakeReport()

    real_run = diffcheck.run_multicore_case
    diffcheck.run_multicore_case = fake_run
    try:
        shrunk = diffcheck.shrink_multicore_case(case)
    finally:
        diffcheck.run_multicore_case = real_run
    assert shrunk.length == 64
    assert shrunk.threads == 1
    assert shrunk.config.num_cores == 1
    assert shrunk == replace(
        case, length=64, threads=1, config=replace(case.config, num_cores=1)
    )
