"""Tests for the DRAM channel bandwidth model."""

import pytest

from repro.memory.dram import DramPort


class TestScheduling:
    def test_idle_channels_have_no_delay(self):
        port = DramPort(channels=2, burst_cycles=8)
        assert port.schedule(0) == 0
        assert port.schedule(0) == 0

    def test_saturated_channels_queue_prefetches(self):
        port = DramPort(channels=1, burst_cycles=8)
        assert port.schedule(0) == 0
        assert port.schedule(0) == 8
        assert port.schedule(0) == 16

    def test_demand_never_queues(self):
        port = DramPort(channels=1, burst_cycles=8)
        for _ in range(4):
            assert port.schedule(0, prefetch=False) == 0

    def test_demand_occupancy_still_delays_prefetches(self):
        port = DramPort(channels=1, burst_cycles=8)
        port.schedule(0, prefetch=False)
        assert port.schedule(0) == 8

    def test_delay_shrinks_as_time_passes(self):
        port = DramPort(channels=1, burst_cycles=8)
        port.schedule(0)
        assert port.schedule(4) == 4
        assert port.schedule(100) == 0

    def test_two_channels_double_bandwidth(self):
        one = DramPort(channels=1, burst_cycles=8)
        two = DramPort(channels=2, burst_cycles=8)
        one_delay = sum(one.schedule(0) for _ in range(8))
        two_delay = sum(two.schedule(0) for _ in range(8))
        assert two_delay < one_delay

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            DramPort(channels=0)
        with pytest.raises(ValueError):
            DramPort(burst_cycles=0)


class TestStats:
    def test_counts_queued(self):
        port = DramPort(channels=1, burst_cycles=8)
        port.schedule(0)
        port.schedule(0)
        assert port.stats.accesses == 2
        assert port.stats.queued_accesses == 1
        assert port.stats.queue_cycles == 8
        assert port.stats.mean_queue_delay == 4.0


class TestHierarchyIntegration:
    def test_burst_of_misses_sees_bandwidth_limit(self):
        from dataclasses import replace

        from repro.config.cache import CacheHierarchyConfig
        from repro.memory.hierarchy import MemoryHierarchy

        narrow = MemoryHierarchy(
            CacheHierarchyConfig(dram_channels=1, dram_burst_cycles=16)
        )
        wide = MemoryHierarchy(
            CacheHierarchyConfig(dram_channels=8, dram_burst_cycles=1)
        )
        narrow_done = max(
            narrow.prefetch_block(block, cycle=0, want_write=True).completion
            for block in range(32)
        )
        wide_done = max(
            wide.prefetch_block(block, cycle=0, want_write=True).completion
            for block in range(32)
        )
        assert narrow_done > wide_done

    def test_l3_hits_do_not_touch_dram(self):
        from repro.config.cache import CacheHierarchyConfig
        from repro.memory.hierarchy import MemoryHierarchy

        hierarchy = MemoryHierarchy(CacheHierarchyConfig())
        hierarchy.load(10, cycle=0)
        # Evict block 10 from the 8-way L1 set (64-block stride aliases L1
        # sets but spreads over L2/L3 sets), then re-load: L2/L3 hit.
        for i in range(1, 13):
            hierarchy.load(10 + 64 * i, cycle=1000 * i)
        before = hierarchy.uncore.dram.stats.accesses
        hierarchy.load(10, cycle=100_000)
        assert hierarchy.uncore.dram.stats.accesses == before
