"""Columnar traces: column validation, MicroOp views and generator stability.

A :class:`Trace` stores seven per-µop columns; :class:`MicroOp` objects are
views built on demand.  These tests pin that the views and the columns agree,
that column construction enforces the µop rules, that the production path
(generation plus the fast engine) never builds a µop object, and that the
generators still draw their random numbers in the same order.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SystemConfig, parsec, simulate, spec2017
from repro.isa.trace import Trace, TraceColumns
from repro.isa.uop import MicroOp, OpKind
from repro.multicore.system import MulticoreSystem

LOAD, STORE, ALU = int(OpKind.LOAD), int(OpKind.STORE), int(OpKind.INT_ALU)


def fingerprint(trace: Trace) -> str:
    """sha256 over a trace's columns and region map."""
    payload = json.dumps(
        {
            "columns": [[int(value) for value in column] for column in trace.columns],
            "regions": sorted(trace.regions.items()),
        },
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class TestGeneratorFingerprints:
    """Every result key depends on the generators' RNG draw order.

    The digests were taken from the object-per-µop generators that preceded
    the columnar ones; a change that reorders a draw, or moves a field, shows
    up here before it silently shifts every simulated number.
    """

    @pytest.mark.parametrize("app, digest", [
        ("bwaves", "b429ed77a725396dddbfb44d2b400b84e373504b0330baae81a52b9b9de65eee"),
        ("roms", "0cc19d93ac6cf1430df0f720ef3605b1679ad53fcbe97a9045f09f252d932df7"),
        ("mcf", "284a4739998aa5768f5db5aaa2f86bb8577178f57c149c615ad341ff98fdad5d"),
    ])
    def test_spec(self, app, digest):
        assert fingerprint(spec2017(app, length=12_000, seed=3)) == digest

    def test_parsec_dedup_two_threads(self):
        traces = parsec("dedup", threads=2, length=6_000, seed=2)
        assert [fingerprint(t) for t in traces] == [
            "58217889bd72ce763da758b5ec1645a829d7f45c1277ef83458ff601a3f0d3c7",
            "68d55475c653a9cc4ebe4b7e55e66df5f99bcc6dd0ee716c2cd7384158c8f420",
        ]


class TestNoMicroOpsOnFastPath:
    def test_generation_and_fast_engine_build_no_microops(self, monkeypatch):
        """Generation, warm-up slicing and both fast loops read columns only."""
        built = []
        init = MicroOp.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args[0] if args else kwargs.get("kind"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(MicroOp, "__init__", counting_init)
        trace = spec2017("roms", length=6_000)
        traces = parsec("dedup", threads=2, length=8_000)
        assert built == []
        config = SystemConfig.skylake(sb_entries=14, store_prefetch="spb")
        assert config.engine == "fast"
        simulate(trace, config, warmup=1_000)
        MulticoreSystem(
            SystemConfig.skylake(sb_entries=14, store_prefetch="spb", num_cores=2),
            traces,
        ).run()
        assert built == []
        # The counter does see views: iterating a trace builds one per µop.
        assert len(list(trace)) == len(built) == len(trace)


class TestColumnValidation:
    def _columns(self, **overrides) -> TraceColumns:
        columns = TraceColumns(
            kinds=[LOAD, STORE, ALU],
            pcs=[0x10, 0x14, 0x18],
            addrs=[0x1000, 0x1008, 0],
            sizes=[8, 8, 0],
            deps=[0, 1, 2],
            mispredicted=[False, False, False],
            taken=[False, False, False],
        )
        return columns._replace(**overrides)

    def test_valid_columns_adopted_not_copied(self):
        columns = self._columns()
        trace = Trace.from_columns(columns, name="ok")
        assert len(trace) == 3
        assert trace.columns.addrs is columns.addrs

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            Trace.from_columns(self._columns(taken=[False, False]))

    def test_negative_dep_rejected(self):
        with pytest.raises(ValueError, match="dep_distance must be non-negative"):
            Trace.from_columns(self._columns(deps=[0, -1, 0]))

    def test_zero_size_memory_op_rejected(self):
        with pytest.raises(ValueError, match="needs a positive size"):
            Trace.from_columns(self._columns(sizes=[8, 0, 0]))

    def test_negative_address_memory_op_rejected(self):
        with pytest.raises(ValueError, match="addresses must be non-negative"):
            Trace.from_columns(self._columns(addrs=[-8, 0x1008, 0]))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown µop kind"):
            Trace.from_columns(self._columns(kinds=[LOAD, STORE, 42]))

    def test_non_memory_ops_need_no_size(self):
        # The ALU slot carries size 0, as MicroOp allows.
        assert Trace.from_columns(self._columns()).stats().total == 3


class TestViews:
    @pytest.fixture(scope="class")
    def trace(self):
        return spec2017("x264", length=3_000, seed=5)

    def test_views_rebuild_the_same_columns(self, trace):
        assert Trace(list(trace)).columns == trace.columns

    def test_view_fields_match_columns(self, trace):
        columns = trace.columns
        for i in (0, 1, len(trace) // 2, -1):
            op = trace[i]
            assert (int(op.kind), op.pc, op.addr, op.size, op.dep_distance,
                    op.mispredicted, op.taken) == tuple(c[i] for c in columns)

    @settings(max_examples=60, deadline=None)
    @given(a=st.integers(min_value=0, max_value=3_000),
           b=st.integers(min_value=0, max_value=3_000))
    def test_slice_equals_trace_of_view_slice(self, trace, a, b):
        sliced = trace.slice(a, b)
        assert sliced.columns == Trace(trace[a:b]).columns
        assert sliced.name == trace.name
        assert sliced.regions == trace.regions
