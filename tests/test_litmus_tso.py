"""TSO litmus suite: ordering checks through the real SB + MESI machinery.

Each pattern runs across many seeded interleavings via
:func:`repro.trace.litmus.run_litmus`; the set of outcomes observed must
stay inside what x86-TSO allows.  A forbidden outcome appearing even once
means a store-order bug in the store buffer or the coherence plumbing —
exactly the class of bug aggregate cycle counters cannot see.
"""

from __future__ import annotations

import pytest

from repro.trace.litmus import LitmusMachine, fence, ld, run_litmus, st

SEEDS = range(250)


def _matching(outcomes, **regs):
    """Subset of outcomes matching ``{"0:r1": 1, ...}``-style constraints."""
    wanted = {(key.replace("_", ":"), value) for key, value in regs.items()}
    return {outcome for outcome in outcomes if wanted <= set(outcome)}


class TestMessagePassing:
    """MP: C0 publishes data then flag; C1 reading the flag must see the data.

    TSO forbids r1=1 ∧ r2=0 because stores drain in FIFO order — the flag
    store cannot become globally visible before the data store.
    """

    PROGRAMS = [
        [st("x", 1), st("y", 1)],
        [ld("r1", "y"), ld("r2", "x")],
    ]

    def test_forbidden_outcome_never_appears(self):
        outcomes = run_litmus(self.PROGRAMS, seeds=SEEDS)
        # r2 here is the *second* load, so stale data after a fresh flag
        # would be visible as (1:r1 = 1, 1:r2 = 0).
        assert not _matching(outcomes, **{"1:r1": 1, "1:r2": 0})

    def test_allowed_outcomes_are_reachable(self):
        outcomes = run_litmus(self.PROGRAMS, seeds=SEEDS)
        # Interleaving should reach both extremes: loads before any drain
        # (0,0) and loads after both drains (1,1).
        assert _matching(outcomes, **{"1:r1": 0, "1:r2": 0})
        assert _matching(outcomes, **{"1:r1": 1, "1:r2": 1})

    def test_forbidden_outcome_never_appears_with_coalescing(self):
        outcomes = run_litmus(self.PROGRAMS, seeds=SEEDS, coalescing=True)
        assert not _matching(outcomes, **{"1:r1": 1, "1:r2": 0})

    def test_holds_in_tiny_store_buffer(self):
        # sb_entries=1 forces every store to wait for the previous drain —
        # a different interleaving regime, same forbidden outcome.
        outcomes = run_litmus(self.PROGRAMS, seeds=SEEDS, sb_entries=1)
        assert not _matching(outcomes, **{"1:r1": 1, "1:r2": 0})


class TestStoreBuffering:
    """SB: the pattern store buffers *relax* — both loads may miss both stores.

    x86-TSO allows r1=0 ∧ r2=0 (each core reads before the other core's
    buffered store drains); inserting MFENCE between each store and load
    forbids it.  Seeing the relaxed outcome without fences and never with
    them is the signature of a real store buffer.
    """

    RELAXED = [
        [st("x", 1), ld("r1", "y")],
        [st("y", 1), ld("r2", "x")],
    ]
    FENCED = [
        [st("x", 1), fence(), ld("r1", "y")],
        [st("y", 1), fence(), ld("r2", "x")],
    ]

    def test_relaxed_outcome_reachable_without_fences(self):
        outcomes = run_litmus(self.RELAXED, seeds=SEEDS)
        assert _matching(outcomes, **{"0:r1": 0, "1:r2": 0}), (
            "store buffering never relaxed the SB pattern — the harness is "
            "draining stores eagerly instead of buffering them"
        )

    def test_fences_forbid_the_relaxed_outcome(self):
        outcomes = run_litmus(self.FENCED, seeds=SEEDS)
        assert not _matching(outcomes, **{"0:r1": 0, "1:r2": 0})

    def test_fences_forbid_it_with_coalescing_too(self):
        outcomes = run_litmus(self.FENCED, seeds=SEEDS, coalescing=True)
        assert not _matching(outcomes, **{"0:r1": 0, "1:r2": 0})


class TestSameAddressCoherence:
    """Per-location guarantees: forwarding, read-read and write-write order."""

    def test_store_to_load_forwarding_sees_own_store(self):
        # A core's own load must see its buffered store (no fence needed).
        outcomes = run_litmus([[st("x", 1), ld("r1", "x")]], seeds=SEEDS)
        assert outcomes == {(("0:r1", 1),)}

    def test_forwarding_picks_the_youngest_store(self):
        outcomes = run_litmus(
            [[st("x", 1), st("x", 2), ld("r1", "x")]], seeds=SEEDS
        )
        assert all((("0:r1", 2),) == outcome for outcome in outcomes)

    def test_corr_reads_of_one_location_never_go_backwards(self):
        # CoRR: once C1 observes x=1, a later read cannot see x=0 again.
        outcomes = run_litmus(
            [[st("x", 1)], [ld("r1", "x"), ld("r2", "x")]], seeds=SEEDS
        )
        assert not _matching(outcomes, **{"1:r1": 1, "1:r2": 0})

    def test_coww_final_value_is_the_last_store(self):
        # CoWW: same-address stores drain in program order, so the final
        # globally visible value is the last one written.
        for coalescing in (False, True):
            for seed in range(50):
                machine = LitmusMachine(
                    [[st("x", 1), st("x", 2)]], coalescing=coalescing, seed=seed
                )
                machine.run()
                assert machine.memory["x"] == 2, (
                    f"seed {seed} coalescing={coalescing}: CoWW violated"
                )

    def test_other_core_eventually_sees_final_value(self):
        # After both programs finish (SBs fully drained), memory holds the
        # last store regardless of interleaving.
        for seed in range(50):
            machine = LitmusMachine(
                [[st("x", 1), st("x", 2)], [ld("r1", "x")]], seed=seed
            )
            machine.run()
            assert machine.memory["x"] == 2
            assert machine.registers[(1, "r1")] in (0, 1, 2)


class TestEngineIndependence:
    """TSO-visible store ordering must not depend on the execution engine.

    The litmus machine above drives the SB and MESI hierarchy directly, so
    it cannot see the pipeline engine at all; this class closes that gap by
    checking the *pipeline-driven* SB event stream.  The FIFO tests run
    on each engine; the cross-engine tests additionally pin both streams
    against each other in a single run.
    """

    ENGINES = ("reference", "fast")

    @staticmethod
    def _sb_events(engine: str):
        from repro import SystemConfig, simulate, spec2017
        from repro.trace import CollectorSink, Tracer

        sink = CollectorSink()
        config = SystemConfig.skylake(
            sb_entries=14, store_prefetch="at-commit", engine=engine
        )
        simulate(
            spec2017("bwaves", length=6_000), config,
            tracer=Tracer([sink], kinds="sb.*"),
        )
        return sink.events

    @pytest.mark.parametrize("engine", ENGINES)
    def test_sb_drains_fifo_under_selected_engine(self, engine):
        """Drains leave the SB in insertion order — the TSO FIFO invariant."""
        events = self._sb_events(engine)
        inserted = [e.block for e in events if e.kind == "sb.insert"]
        drained = [e.block for e in events if e.kind == "sb.drain"]
        assert drained, "store-heavy workload must drain stores"
        assert drained == inserted[: len(drained)], (
            f"engine {engine!r} drained stores out of FIFO order"
        )

    def test_sb_event_stream_identical_across_engines(self):
        assert self._sb_events("reference") == self._sb_events("fast")

    @staticmethod
    def _multicore_sb_events(engine: str):
        from repro import SystemConfig, parsec, simulate_multicore
        from repro.trace import CollectorSink, Tracer

        sink = CollectorSink()
        config = SystemConfig.skylake(
            sb_entries=14, store_prefetch="at-commit",
            num_cores=2, engine=engine,
        )
        # dedup's first store lands around µop ~6400; 8000 µops gives both
        # cores a real SB insert/drain history to compare.
        traces = parsec("dedup", threads=2, length=8_000)
        simulate_multicore(traces, config, tracer=Tracer([sink], kinds="sb.*"))
        return sink.events

    @pytest.mark.parametrize("engine", ENGINES)
    def test_multicore_sb_drains_fifo_per_core_under_selected_engine(self, engine):
        """Each core's drains stay in its own insertion order (MP/SB shape).

        dedup's threads publish into a shared heap, so this is the
        message-passing pattern at scale: cross-core visibility goes
        through MESI while every core's own stores drain FIFO.
        """
        events = self._multicore_sb_events(engine)
        cores = {e.core for e in events}
        assert len(cores) == 2, "both cores must buffer stores"
        for core in cores:
            inserted = [
                e.block for e in events
                if e.core == core and e.kind == "sb.insert"
            ]
            drained = [
                e.block for e in events
                if e.core == core and e.kind == "sb.drain"
            ]
            assert drained, f"core {core} never drained a store"
            assert drained == inserted[: len(drained)], (
                f"engine {engine!r} drained core {core}'s stores "
                "out of FIFO order"
            )

    def test_multicore_sb_streams_identical_across_engines_per_core(self):
        """The event-heap scheduler preserves each core's SB event stream.

        Global interleaving differs by construction (cores are visited in
        heap order), so the comparison is per core — the architecturally
        ordered view.
        """
        ref = self._multicore_sb_events("reference")
        fast = self._multicore_sb_events("fast")
        for core in sorted({e.core for e in ref} | {e.core for e in fast}):
            ref_core = [e for e in ref if e.core == core]
            fast_core = [e for e in fast if e.core == core]
            assert ref_core == fast_core, (
                f"core {core}: SB event streams diverge across engines"
            )
