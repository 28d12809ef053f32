"""Tests for trace save/load round-trips."""

import pytest

from repro.isa.serialize import load_trace, save_trace
from repro.isa.trace import Trace
from repro.isa.uop import MicroOp, OpKind
from repro.workloads import spec2017


class TestRoundTrip:
    def _trace(self):
        ops = [
            MicroOp(OpKind.LOAD, pc=0x10, addr=0x1000, size=8, dep_distance=2),
            MicroOp(OpKind.STORE, pc=0x14, addr=0x1008, size=8),
            MicroOp(OpKind.BRANCH, pc=0x18, mispredicted=True),
            MicroOp(OpKind.BRANCH, pc=0x1C, taken=True),
            MicroOp(OpKind.FP_MUL, pc=0x20),
        ]
        return Trace(ops, name="roundtrip", regions={0x14: "memcpy"})

    def test_plain_roundtrip(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        save_trace(self._trace(), path)
        loaded = load_trace(path)
        assert loaded.name == "roundtrip"
        assert len(loaded) == 5

    def test_gzip_roundtrip(self, tmp_path):
        path = str(tmp_path / "t.jsonl.gz")
        save_trace(self._trace(), path)
        loaded = load_trace(path)
        assert len(loaded) == 5

    def test_fields_preserved(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        original = self._trace()
        save_trace(original, path)
        loaded = load_trace(path)
        for before, after in zip(original, loaded):
            assert before.kind == after.kind
            assert before.pc == after.pc
            assert before.addr == after.addr
            assert before.size == after.size
            assert before.dep_distance == after.dep_distance
            assert before.mispredicted == after.mispredicted
            assert before.taken == after.taken
        assert loaded.columns == original.columns

    def test_regions_preserved(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        save_trace(self._trace(), path)
        loaded = load_trace(path)
        assert loaded.region_of(0x14) == "memcpy"
        assert loaded.region_of(0x10) == "app"

    def test_simulation_identical_after_roundtrip(self, tmp_path):
        from repro import SystemConfig, simulate

        trace = spec2017("bwaves", length=5_000)
        path = str(tmp_path / "bwaves.jsonl.gz")
        save_trace(trace, path)
        loaded = load_trace(path)
        a = simulate(trace, SystemConfig())
        b = simulate(loaded, SystemConfig())
        assert a.cycles == b.cycles

    def test_branch_directions_survive_under_tage(self, tmp_path):
        """A real predictor sees the saved directions, not all not-taken."""
        from dataclasses import replace

        from repro import SystemConfig, simulate

        trace = spec2017("x264", length=8_000)
        path = str(tmp_path / "x264.jsonl.gz")
        save_trace(trace, path)
        loaded = load_trace(path)
        assert sum(op.taken for op in loaded) == sum(op.taken for op in trace) > 0
        config = SystemConfig.skylake()
        config = replace(config, core=replace(config.core, branch_predictor="tage"))
        a = simulate(trace, config)
        b = simulate(loaded, config)
        assert b.pipeline.mispredicted_branches == a.pipeline.mispredicted_branches
        assert b.cycles == a.cycles

    def test_version_1_rejected_with_regenerate_hint(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text('{"version": 1, "name": "x", "regions": {}}\n'
                        '[8, 16, 0, 0, 0, 0]\n')
        with pytest.raises(ValueError, match="regenerate"):
            load_trace(str(path))

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"version": 99, "name": "x", "regions": {}}\n')
        with pytest.raises(ValueError, match="unsupported trace format"):
            load_trace(str(path))
