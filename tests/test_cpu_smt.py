"""Tests for the SMT co-run model."""

import pytest

from repro import SystemConfig, spec2017
from repro.cpu.smt import SmtCore, simulate_smt


def traces(app, n, length=8_000):
    return [spec2017(app, length=length, seed=1 + i) for i in range(n)]


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SmtCore(SystemConfig(), [])

    def test_rejects_three_threads(self):
        with pytest.raises(ValueError):
            SmtCore(SystemConfig(), traces("gcc", 3, length=1_000))

    def test_partitions_sb(self):
        core = SmtCore(SystemConfig(), traces("gcc", 2, length=1_000))
        assert core.pipelines[0].sq_capacity == 28

    def test_threads_share_one_hierarchy(self):
        core = SmtCore(SystemConfig(), traces("gcc", 2, length=1_000))
        assert core.pipelines[0].hierarchy is core.pipelines[1].hierarchy


class TestExecution:
    def test_all_threads_complete(self):
        result = simulate_smt(traces("gcc", 2), SystemConfig())
        assert all(s.committed_uops == 8_000 for s in result.per_thread)

    def test_smt2_throughput_exceeds_single_thread(self):
        single = simulate_smt(traces("gcc", 1), SystemConfig())
        dual = simulate_smt(traces("gcc", 2), SystemConfig())
        assert dual.core_ipc > single.core_ipc

    def test_smt_thread_slower_than_alone(self):
        # Co-running threads share the front end: when a single thread's
        # IPC already exceeds half the width, two of them cannot both run
        # at full speed, so the co-run takes longer than running alone.
        single = simulate_smt(traces("exchange2", 1), SystemConfig())
        dual = simulate_smt(traces("exchange2", 2), SystemConfig())
        assert dual.cycles > single.cycles
        # But far less than 2x: SMT recovers most of the second thread.
        assert dual.cycles < 1.5 * single.cycles

    def test_deterministic(self):
        a = simulate_smt(traces("bwaves", 2), SystemConfig())
        b = simulate_smt(traces("bwaves", 2), SystemConfig())
        assert a.cycles == b.cycles


class TestCycleAccounting:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_every_thread_samples_every_cycle(self, threads):
        """Each thread's SB occupancy is sampled once per core cycle.

        A co-run that jumped over quiescent spans charging only ``cycles``
        would leave the samples, and the stall buckets with them, short.
        """
        result = simulate_smt(traces("bwaves", threads), SystemConfig())
        for pipeline in result.pipelines:
            assert pipeline.stats.cycles == result.cycles
            assert pipeline.sb.stats.occupancy_samples == pipeline.stats.cycles


class TestPaperConnection:
    def test_spb_helps_more_under_smt4(self):
        """The paper's SMT argument, run as an actual co-run: SPB's relative
        gain grows with the number of SMT threads."""
        gains = {}
        for threads in (1, 4):
            base = simulate_smt(
                traces("bwaves", threads),
                SystemConfig.skylake(store_prefetch="at-commit"),
            )
            spb = simulate_smt(
                traces("bwaves", threads),
                SystemConfig.skylake(store_prefetch="spb"),
            )
            gains[threads] = base.cycles / spb.cycles
        assert gains[4] > gains[1]

    def test_sb_stalls_grow_with_threads(self):
        narrow = simulate_smt(
            traces("bwaves", 1), SystemConfig.skylake(store_prefetch="at-commit")
        )
        wide = simulate_smt(
            traces("bwaves", 4), SystemConfig.skylake(store_prefetch="at-commit")
        )
        # Total SB stalls (all threads) grow when the SB is split four ways.
        assert wide.sb_stall_cycles > narrow.sb_stall_cycles

    def test_partitioned_approximation_is_a_pessimistic_bound(self):
        """The paper approximates SMT-2 with a 28-entry single-thread run at
        full speed.  In a real co-run each thread progresses slower (shared
        front end), so its SB fills less often: the approximation's stall
        ratio upper-bounds the co-run's per-thread ratio."""
        from repro import simulate

        trace = spec2017("bwaves", length=8_000, seed=1)
        approx = simulate(
            trace, SystemConfig.skylake(sb_entries=28, store_prefetch="at-commit")
        )
        corun = simulate_smt(
            traces("bwaves", 2), SystemConfig.skylake(store_prefetch="at-commit")
        )
        per_thread_ratio = corun.per_thread[0].sb_stall_ratio
        assert per_thread_ratio <= approx.sb_stall_ratio + 0.01
