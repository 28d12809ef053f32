"""Property-based tests for the extension components."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.cache import CacheConfig
from repro.cpu.branch import BimodalPredictor, GsharePredictor, TagePredictor
from repro.memory.cache import SetAssociativeCache
from repro.memory.coherence import MESIState
from repro.memory.dram import DramPort
from repro.memory.tlb import TLB

pages = st.integers(min_value=0, max_value=(1 << 36) - 1)
blocks = st.integers(min_value=0, max_value=(1 << 30) - 1)
pcs = st.integers(min_value=0, max_value=(1 << 20) - 1)


class TestTlbProperties:
    @given(st.lists(pages, min_size=1, max_size=300))
    @settings(max_examples=50)
    def test_occupancy_bounded_and_stats_balance(self, stream):
        tlb = TLB(entries=16, associativity=4, walk_latency=10)
        for cycle, page in enumerate(stream):
            extra = tlb.translate(page, cycle)
            assert extra in (0, 10)
        assert tlb.occupancy() <= 16
        assert tlb.stats.hits + tlb.stats.misses == len(stream)
        assert tlb.stats.walk_cycles == tlb.stats.misses * 10

    @given(st.lists(pages, min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_repeat_of_last_page_always_hits(self, stream):
        tlb = TLB(entries=16, associativity=4)
        for cycle, page in enumerate(stream):
            tlb.translate(page, cycle)
            assert tlb.translate(page, cycle) == 0  # immediate re-touch


class TestDramProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                    max_size=200))
    @settings(max_examples=50)
    def test_delays_bounded_by_queue_theory(self, arrival_gaps):
        port = DramPort(channels=2, burst_cycles=4)
        cycle = 0
        for gap in arrival_gaps:
            cycle += gap
            delay = port.schedule(cycle)
            assert delay >= 0
            # With 2 channels and 4-cycle bursts, the worst backlog after n
            # requests is bounded by n * burst / channels.
        assert port.stats.accesses == len(arrival_gaps)

    @given(st.integers(min_value=1, max_value=8))
    @settings(max_examples=20)
    def test_back_to_back_throughput_matches_channels(self, channels):
        port = DramPort(channels=channels, burst_cycles=10)
        delays = [port.schedule(0) for _ in range(channels * 3)]
        assert delays[:channels] == [0] * channels
        assert max(delays) == 20  # third wave starts two bursts later

    @given(st.lists(st.booleans(), min_size=1, max_size=100))
    @settings(max_examples=30)
    def test_demand_delay_always_zero(self, kinds):
        port = DramPort(channels=1, burst_cycles=8)
        for is_prefetch in kinds:
            delay = port.schedule(0, prefetch=is_prefetch)
            if not is_prefetch:
                assert delay == 0


class TestReplacementProperties:
    @given(st.lists(blocks, min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_lru_keeps_geometry(self, stream):
        cache = SetAssociativeCache(CacheConfig("T", 4 * 64 * 2, 2, latency=1))
        for cycle, block in enumerate(stream):
            cache.lookup(block, cycle)
            cache.insert(block, MESIState.E, cycle)
            assert cache.peek(block) is not None  # just-inserted is resident
        assert cache.occupancy() <= 8


class TestPredictorProperties:
    @given(st.lists(st.tuples(pcs, st.booleans()), min_size=1, max_size=300),
           st.sampled_from(["bimodal", "gshare", "tage"]))
    @settings(max_examples=30)
    def test_predict_update_never_crashes_and_stats_balance(self, stream, name):
        from repro.cpu.branch import build_branch_predictor

        predictor = build_branch_predictor(name)
        for pc, taken in stream:
            predicted = predictor.predict(pc)
            assert isinstance(predicted, bool)
            predictor.record(predicted, taken)
            predictor.update(pc, taken)
        assert predictor.stats.predictions == len(stream)
        assert 0 <= predictor.stats.mispredictions <= len(stream)

    @given(st.lists(st.booleans(), min_size=4, max_size=32))
    @settings(max_examples=30)
    def test_any_repeating_pattern_eventually_learned_by_gshare(self, pattern):
        # Any fixed pattern short enough for the history register is
        # learnable: the tail error rate must beat random guessing.
        predictor = GsharePredictor(history_bits=len(pattern) + 2)
        wrong = 0
        total = 0
        repeats = 120
        for r in range(repeats):
            for taken in pattern:
                predicted = predictor.predict(0x30)
                if r >= repeats // 2:
                    total += 1
                    wrong += predicted != taken
                predictor.update(0x30, taken)
        assert wrong / total < 0.5 or all(
            x == pattern[0] for x in pattern
        )  # degenerate constant patterns are trivially at 0
