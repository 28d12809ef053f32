"""Shadow-check integration tests and the disabled-tracer guard.

The shadow check runs real workloads with a :class:`MetricsRegistry`
attached and demands that every counter the simulator maintains by hand is
reproduced exactly by folding the event stream — the strongest whole-system
consistency statement the tracing layer can make.  The disabled-tracer
guard pins the other half of the contract: a run with ``tracer=None``
never builds an event, so it costs essentially what it did before the
tracing layer existed.
"""

from __future__ import annotations

import pytest

from repro import SystemConfig, parsec, simulate, spec2017
from repro.multicore.system import MulticoreSystem
from repro.trace import CollectorSink, ShadowCheckError, Tracer, shadow_registry_for
from repro.trace.events import TraceEvent

WORKLOADS = ["gcc", "bwaves", "roms", "x264"]
POLICIES = ["none", "at-commit", "spb", "ideal"]


def shadow_run(name, policy, *, length=4_000, sb=14, warmup=0):
    """Simulate with a shadow registry attached; return (registry, result)."""
    config = SystemConfig.skylake().with_policy(policy).with_sb(sb)
    registry = shadow_registry_for(config)
    tracer = Tracer([registry])
    result = simulate(
        spec2017(name, length=length), config, warmup=warmup, tracer=tracer
    )
    return registry, result


def full_diff(registry, result):
    return registry.diff(
        pipeline=result.pipeline,
        sb_stats=result.sb_stats,
        mshr_stats=result.extras["l1_mshr"],
        traffic=result.traffic,
        engine_stats=result.engine_stats,
        detector_stats=result.detector_stats,
    )


class TestShadowCheck:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_events_reproduce_counters_on_tier1_workloads(self, name):
        registry, result = shadow_run(name, "spb")
        assert full_diff(registry, result) == []

    @pytest.mark.parametrize("policy", POLICIES)
    def test_events_reproduce_counters_across_policies(self, policy):
        registry, result = shadow_run("roms", policy)
        assert full_diff(registry, result) == []

    def test_shadow_check_with_warmup_covers_measured_phase_only(self):
        # The tracer attaches after the warm-up reset, so event-derived
        # metrics must match the (reset) counters exactly.
        registry, result = shadow_run("bwaves", "spb", length=8_000, warmup=3_000)
        assert full_diff(registry, result) == []
        assert registry.committed_uops == result.pipeline.committed_uops == 5_000

    def test_assert_matches_raises_on_tampered_counters(self):
        registry, result = shadow_run("roms", "at-commit")
        result.pipeline.committed_stores += 1
        with pytest.raises(ShadowCheckError, match="committed_stores"):
            registry.assert_matches(pipeline=result.pipeline)

    def test_sb_capacity_invariant_armed_from_config(self):
        config = SystemConfig.skylake().with_sb(14)
        assert shadow_registry_for(config).sb_capacity == 14
        ideal = config.with_policy("ideal")
        assert shadow_registry_for(ideal).sb_capacity is None


class TestDisabledTracerOverhead:
    def test_disabled_tracer_is_near_free(self, monkeypatch):
        """tracer=None must not construct a single :class:`TraceEvent`.

        Every hook site is ``tr = self.tracer; if tr is not None``, so the
        disabled path only pays for the check.  Events built unconditionally
        would cost integer multiples of a run; counting constructions pins
        that deterministically, on both single-core engines and on the
        multicore event heap.
        """
        built = []
        init = TraceEvent.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("kind"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(TraceEvent, "__init__", counting_init)
        trace = spec2017("roms", length=6_000)
        for engine in ("reference", "fast"):
            config = SystemConfig.skylake(
                sb_entries=14, store_prefetch="spb", engine=engine
            )
            simulate(trace, config)
        # dedup's first store lands around µop ~6400.
        traces = parsec("dedup", threads=2, length=8_000)
        MulticoreSystem(
            SystemConfig.skylake(sb_entries=14, store_prefetch="spb", num_cores=2),
            traces,
        ).run()
        assert built == []
        # The counter does see the events of a traced run.
        simulate(trace, config, tracer=Tracer([CollectorSink()]))
        assert built

    def test_simulation_results_identical_with_and_without_tracer(self):
        trace = spec2017("gcc", length=4_000)
        config = SystemConfig.skylake().with_policy("spb")
        plain = simulate(trace, config)
        traced = simulate(trace, config, tracer=Tracer([CollectorSink()]))
        assert traced.cycles == plain.cycles
        assert traced.pipeline.committed_uops == plain.pipeline.committed_uops
        assert traced.traffic.demand_stores == plain.traffic.demand_stores
