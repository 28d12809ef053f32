"""Tests for the set-associative cache."""

import pytest

from repro.config.cache import CacheConfig
from repro.memory.cache import SetAssociativeCache
from repro.memory.coherence import MESIState


def tiny_cache(assoc=2, sets=4):
    return SetAssociativeCache(
        CacheConfig("T", sets * assoc * 64, assoc, latency=1)
    )


class TestLookupInsert:
    def test_miss_then_hit(self):
        cache = tiny_cache()
        assert cache.lookup(5, cycle=0) is None
        cache.insert(5, MESIState.E, cycle=1)
        assert cache.lookup(5, cycle=2) == MESIState.E

    def test_peek_does_not_count(self):
        cache = tiny_cache()
        cache.insert(5, MESIState.M, cycle=0)
        before = cache.stats.tag_accesses
        assert cache.peek(5) == MESIState.M
        assert cache.peek(6) is None
        assert cache.stats.tag_accesses == before

    def test_hit_miss_counters(self):
        cache = tiny_cache()
        cache.lookup(1, 0)
        cache.insert(1, MESIState.S, 0)
        cache.lookup(1, 1)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.tag_accesses == 2

    def test_insert_existing_updates_state(self):
        cache = tiny_cache()
        cache.insert(1, MESIState.S, 0)
        victim = cache.insert(1, MESIState.M, 1)
        assert victim is None
        assert cache.peek(1) == MESIState.M
        assert cache.occupancy() == 1


class TestLruEviction:
    def test_evicts_least_recently_used(self):
        cache = tiny_cache(assoc=2, sets=1)
        cache.insert(0, MESIState.E, cycle=0)
        cache.insert(1, MESIState.E, cycle=1)
        cache.lookup(0, cycle=2)  # touch 0 so 1 is LRU
        victim = cache.insert(2, MESIState.E, cycle=3)
        assert victim == (1, MESIState.E)
        assert cache.peek(0) is not None
        assert cache.peek(1) is None

    def test_dirty_eviction_reported_with_state(self):
        cache = tiny_cache(assoc=1, sets=1)
        cache.insert(0, MESIState.M, cycle=0)
        victim = cache.insert(1, MESIState.E, cycle=1)
        assert victim == (0, MESIState.M)
        assert cache.stats.dirty_evictions == 1

    def test_occupancy_never_exceeds_associativity(self):
        cache = tiny_cache(assoc=2, sets=1)
        for block in range(10):
            cache.insert(block, MESIState.E, cycle=block)
        assert cache.occupancy() == 2

    def test_different_sets_do_not_conflict(self):
        cache = tiny_cache(assoc=1, sets=4)
        for block in range(4):  # blocks 0..3 map to distinct sets
            assert cache.insert(block, MESIState.E, cycle=block) is None
        assert cache.occupancy() == 4


class TestLruOrder:
    """Pins of the victim order that simulated results depend on.

    Recency is the last cycle stamped on a block, and ties go to the block
    inserted first; a rewrite that reorders the set on each touch instead
    would move results.
    """

    def test_equal_stamps_evict_first_inserted(self):
        cache = tiny_cache(assoc=2, sets=1)
        cache.insert(0, MESIState.E, cycle=5)
        cache.insert(1, MESIState.E, cycle=5)
        cache.lookup(1, cycle=5)
        assert cache.insert(2, MESIState.E, cycle=6) == (0, MESIState.E)

    def test_age_is_last_stamp_not_call_order(self):
        cache = tiny_cache(assoc=2, sets=1)
        cache.insert(0, MESIState.E, cycle=100)  # a fill that lands later
        cache.insert(1, MESIState.E, cycle=60)
        cache.lookup(0, cycle=50)  # the earlier stamp replaces 100
        assert cache.insert(2, MESIState.E, cycle=110) == (0, MESIState.E)

    def test_invalidate_then_reinsert_moves_block_to_back(self):
        cache = tiny_cache(assoc=3, sets=1)
        for block in range(3):
            cache.insert(block, MESIState.E, cycle=0)
        cache.invalidate(0)
        cache.insert(0, MESIState.E, cycle=0)
        assert cache.insert(3, MESIState.E, cycle=1) == (1, MESIState.E)
        assert cache.insert(4, MESIState.E, cycle=1) == (2, MESIState.E)
        assert cache.insert(5, MESIState.E, cycle=1) == (0, MESIState.E)


class TestStateManagement:
    def test_set_state(self):
        cache = tiny_cache()
        cache.insert(3, MESIState.E, 0)
        cache.set_state(3, MESIState.M)
        assert cache.peek(3) == MESIState.M

    def test_set_state_missing_raises(self):
        with pytest.raises(KeyError):
            tiny_cache().set_state(3, MESIState.M)

    def test_invalidate_returns_prior_state(self):
        cache = tiny_cache()
        cache.insert(3, MESIState.M, 0)
        assert cache.invalidate(3) == MESIState.M
        assert cache.peek(3) is None
        assert cache.stats.invalidations == 1

    def test_invalidate_absent_returns_none(self):
        cache = tiny_cache()
        assert cache.invalidate(3) is None
        assert cache.stats.invalidations == 0


class TestPrefetchedFlag:
    def test_prefetched_tracking(self):
        cache = tiny_cache()
        cache.insert(7, MESIState.M, 0, prefetched=True)
        assert cache.was_prefetched(7)
        cache.clear_prefetched(7)
        assert not cache.was_prefetched(7)

    def test_prefetch_fill_counter(self):
        cache = tiny_cache()
        cache.insert(7, MESIState.M, 0, prefetched=True)
        cache.insert(8, MESIState.M, 0)
        assert cache.stats.prefetch_fills == 1

    def test_demand_insert_over_prefetched_keeps_flag(self):
        cache = tiny_cache()
        cache.insert(7, MESIState.S, 0, prefetched=True)
        cache.insert(7, MESIState.M, 1)  # upgrade, not prefetched
        assert cache.was_prefetched(7)

    def test_resident_blocks_lists_all(self):
        cache = tiny_cache()
        cache.insert(1, MESIState.E, 0)
        cache.insert(2, MESIState.E, 0)
        assert sorted(cache.resident_blocks()) == [1, 2]
