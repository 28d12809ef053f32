"""Tests for the memory-hierarchy timing model."""

import pytest

from repro.config.cache import CacheHierarchyConfig
from repro.memory.coherence import MESIState
from repro.memory.hierarchy import MemoryHierarchy, SharedUncore


@pytest.fixture
def config():
    return CacheHierarchyConfig()


@pytest.fixture
def hierarchy(config):
    return MemoryHierarchy(config)


class TestLoadTiming:
    def test_cold_load_pays_full_path(self, hierarchy, config):
        result = hierarchy.load(10, cycle=0)
        assert result.level == "MEM"
        expected = (
            config.tlb_walk_latency  # first touch of the page
            + config.l2.latency
            + config.l3.latency
            + config.dram_latency
        )
        assert result.completion == expected

    def test_warm_load_hits_l1(self, hierarchy, config):
        hierarchy.load(10, cycle=0)
        result = hierarchy.load(10, cycle=1000)
        assert result.level == "L1"
        assert result.completion == 1000 + config.l1d.latency

    def test_load_during_fill_waits_for_fill(self, hierarchy):
        first = hierarchy.load(10, cycle=0)
        second = hierarchy.load(10, cycle=5)
        assert second.completion == first.completion

    def test_l2_hit_after_l1_eviction(self, hierarchy, config):
        hierarchy.load(10, cycle=0)
        # Fill the L1 set of block 10 with conflicting blocks (64 sets).
        for i in range(1, 10):
            hierarchy.load(10 + 64 * i, cycle=1000 + i)
        result = hierarchy.load(10, cycle=5000)
        assert result.level == "L2"
        assert result.completion == 5000 + config.l2.latency


class TestStorePermission:
    def test_store_miss_fetches_ownership(self, hierarchy):
        result = hierarchy.store_permission(10, cycle=0)
        assert result.level == "MEM"
        assert hierarchy.l1_state(10) == MESIState.M

    def test_store_hit_on_owned_block(self, hierarchy, config):
        hierarchy.store_permission(10, cycle=0)
        result = hierarchy.store_permission(10, cycle=1000)
        assert result.level == "L1"
        assert result.completion == 1000 + config.l1d.latency

    def test_load_then_store_upgrades(self, hierarchy):
        hierarchy.load(10, cycle=0)
        assert hierarchy.l1_state(10) == MESIState.E  # sole reader
        hierarchy.store_permission(10, cycle=1000)
        assert hierarchy.l1_state(10) == MESIState.M

    def test_prefetch_discarded_when_writable(self, hierarchy):
        hierarchy.store_permission(10, cycle=0)
        before = hierarchy.traffic.discarded_prefetch_requests
        hierarchy.store_permission(10, cycle=1000, prefetch=True)
        assert hierarchy.traffic.discarded_prefetch_requests == before + 1

    def test_prefetch_counts_as_cpu_request(self, hierarchy):
        hierarchy.store_permission(10, cycle=0, prefetch=True)
        assert hierarchy.traffic.cpu_store_prefetch_requests == 1
        assert hierarchy.traffic.demand_stores == 0

    def test_has_write_permission(self, hierarchy):
        assert not hierarchy.has_write_permission(10)
        hierarchy.store_permission(10, cycle=0)
        assert hierarchy.has_write_permission(10)


class TestPerformStore:
    def test_requires_permission(self, hierarchy):
        with pytest.raises(RuntimeError):
            hierarchy.perform_store(10, cycle=0)

    def test_counts_demand_store_and_dirties(self, hierarchy):
        hierarchy.load(10, cycle=0)  # E state
        hierarchy.perform_store(10, cycle=1000)
        assert hierarchy.l1_state(10) == MESIState.M
        assert hierarchy.traffic.demand_stores == 1


class TestPrefetchBlock:
    def test_fills_with_prefetched_flag(self, hierarchy):
        hierarchy.prefetch_block(10, cycle=0, want_write=True)
        assert hierarchy.l1d.was_prefetched(10)
        assert hierarchy.has_write_permission(10)

    def test_noop_when_already_resident(self, hierarchy):
        hierarchy.load(10, cycle=0)
        assert hierarchy.prefetch_block(10, cycle=10) is None

    def test_read_resident_but_write_wanted_upgrades(self, hierarchy):
        uncore = SharedUncore(hierarchy.config, num_cores=2)
        a = MemoryHierarchy(hierarchy.config, uncore=uncore, core_id=0)
        b = MemoryHierarchy(hierarchy.config, uncore=uncore, core_id=1)
        a.load(10, cycle=0)
        b.load(10, cycle=0)  # both share now
        result = a.prefetch_block(10, cycle=100, want_write=True)
        assert result is not None
        assert a.has_write_permission(10)


class TestMultiCoreCoherence:
    def _pair(self, config):
        uncore = SharedUncore(config, num_cores=2)
        return (
            MemoryHierarchy(config, uncore=uncore, core_id=0),
            MemoryHierarchy(config, uncore=uncore, core_id=1),
        )

    def test_getx_invalidates_remote_copy(self, config):
        a, b = self._pair(config)
        a.store_permission(10, cycle=0)
        b.store_permission(10, cycle=1000)
        assert a.l1_state(10) is None
        assert b.l1_state(10) == MESIState.M

    def test_gets_downgrades_remote_owner(self, config):
        a, b = self._pair(config)
        a.store_permission(10, cycle=0)
        b.load(10, cycle=1000)
        assert a.l1_state(10) == MESIState.S

    def test_single_writer_invariant(self, config):
        a, b = self._pair(config)
        for cycle, hier in ((0, a), (1000, b), (2000, a), (3000, b)):
            hier.store_permission(10, cycle=cycle)
            writable = [
                h for h in (a, b)
                if h.l1_state(10) in (MESIState.M, MESIState.E)
            ]
            assert len(writable) == 1

    def test_remote_invalidation_counts_writeback_of_dirty(self, config):
        a, b = self._pair(config)
        a.store_permission(10, cycle=0)
        before = a.traffic.writebacks
        b.store_permission(10, cycle=1000)
        assert a.traffic.writebacks == before + 1


class TestTrafficAccounting:
    def test_l1_miss_requests_counted(self, hierarchy):
        hierarchy.load(10, cycle=0)
        hierarchy.load(11, cycle=0)
        assert hierarchy.traffic.l1_miss_requests == 2

    def test_wrong_path_loads_separated(self, hierarchy):
        hierarchy.load(10, cycle=0, wrong_path=True)
        assert hierarchy.traffic.wrong_path_loads == 1
        assert hierarchy.traffic.demand_loads == 0

    def test_prefetch_misses_subset_of_misses(self, hierarchy):
        hierarchy.prefetch_block(10, cycle=0, want_write=True)
        hierarchy.load(11, cycle=0)
        assert hierarchy.traffic.prefetch_miss_requests == 1
        assert hierarchy.traffic.l1_miss_requests == 2
