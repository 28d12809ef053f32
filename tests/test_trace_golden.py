"""Golden-trace regression: the canonical workload's event stream is pinned.

The committed ``tests/golden/canonical_trace.jsonl`` is the bit-for-bit
event stream of a small hand-built workload (store bursts, loads, a branch
mispredict) run under the SPB policy.  Any timing change — an off-by-one in
a latency, a reordered drain, a changed stall attribution — shifts cycles
or event order and fails the digest comparison at event granularity, long
before it would move a figure.

Intentional timing changes regenerate the golden file::

    REPRO_REGOLDEN=1 PYTHONPATH=src python -m pytest tests/test_trace_golden.py

and the regenerated file is reviewed like any other diff.
"""

from __future__ import annotations

import os

import pytest

from repro.config import SystemConfig
from repro.isa.trace import Trace
from repro.isa.uop import MicroOp, OpKind
from repro.sim.runner import MODEL_VERSION, simulate
from repro.trace import CollectorSink, Tracer, events_digest, lines_digest

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_PATH = os.path.join(GOLDEN_DIR, "canonical_trace.jsonl")
DIGEST_PATH = os.path.join(GOLDEN_DIR, "canonical_trace.sha256")

#: sha256 of the golden trace file under each ``MODEL_VERSION``.  A timing
#: change regenerates the golden file; it must also bump the version (and
#: add its digest here), so persisted results keyed by the old version are
#: never served for the new model.
GOLDEN_DIGEST_BY_MODEL_VERSION = {
    2: "1bbede0dcd7e6199fd6a0bec52c582da1453e8bfc323ad3e4c14455edabb6198",
}


def canonical_trace() -> Trace:
    """A small deterministic workload touching every event producer.

    Built by hand (not the spec2017 generator) so the golden file only moves
    when the *simulator* changes, never when workload generation does.
    """
    ops: list[MicroOp] = []
    # A page-worth burst of contiguous stores: SB pressure, coalescing
    # opportunities, SPB windows and at least one burst.
    for i in range(48):
        ops.append(MicroOp(OpKind.STORE, pc=0x400, addr=0x2_0000 + i * 8, size=8))
    # Dependent ALU work and loads that miss, then hit.
    for i in range(16):
        ops.append(MicroOp(OpKind.INT_ALU, pc=0x500, dep_distance=1))
        ops.append(MicroOp(OpKind.LOAD, pc=0x508, addr=0x8_0000 + i * 64, size=8))
    # A mispredicted branch redirects the frontend.
    ops.append(MicroOp(OpKind.BRANCH, pc=0x600, mispredicted=True, taken=True))
    # A block-stride run on a fresh page: every store crosses a block
    # boundary, so the 48-store window clears the N/8 threshold and the
    # detector fires a page burst (spb.burst + a volley of prefetch events).
    # 64 stores, so a window boundary falls inside the run rather than on
    # the counter-resetting page jump at its edges.
    for i in range(64):
        ops.append(MicroOp(OpKind.STORE, pc=0x600, addr=0x4_0000 + i * 64, size=8))
    # Stores revisiting the first burst page (writable now: prefetch discards).
    for i in range(16):
        ops.append(MicroOp(OpKind.STORE, pc=0x700, addr=0x2_0000 + i * 64, size=8))
    ops.append(MicroOp(OpKind.NOP, pc=0x800))
    return Trace(ops, name="canonical")


def canonical_config() -> SystemConfig:
    return SystemConfig.skylake().with_policy("spb").with_sb(14)


def capture_events():
    sink = CollectorSink()
    simulate(canonical_trace(), canonical_config(), tracer=Tracer([sink]))
    return sink.events


class TestGoldenTrace:
    def test_canonical_trace_reproduces_bit_for_bit(self):
        if os.environ.get("REPRO_REGOLDEN"):
            pytest.skip("regenerating, see test_regenerate_golden")
        assert os.path.exists(GOLDEN_PATH), (
            "golden file missing — run REPRO_REGOLDEN=1 pytest "
            "tests/test_trace_golden.py and commit the result"
        )
        events = capture_events()
        golden_lines = open(GOLDEN_PATH, encoding="ascii").read().splitlines()
        fresh_lines = [event.to_json() for event in events]
        # Line-by-line first: a digest mismatch alone says nothing about
        # *where* the streams diverged.
        for index, (fresh, golden) in enumerate(zip(fresh_lines, golden_lines)):
            assert fresh == golden, (
                f"event stream diverges from golden at event {index}:\n"
                f"  fresh:  {fresh}\n  golden: {golden}\n"
                "If this timing change is intentional, regenerate with "
                "REPRO_REGOLDEN=1 and commit the new golden file."
            )
        assert len(fresh_lines) == len(golden_lines), (
            f"event count changed: {len(fresh_lines)} fresh vs "
            f"{len(golden_lines)} golden"
        )
        assert events_digest(events) == open(DIGEST_PATH).read().strip()

    def test_digest_file_matches_golden_file(self):
        if os.environ.get("REPRO_REGOLDEN"):
            pytest.skip("regenerating")
        lines = open(GOLDEN_PATH, encoding="ascii").read().splitlines()
        assert lines_digest(lines) == open(DIGEST_PATH).read().strip()

    def test_golden_change_bumps_model_version(self):
        if os.environ.get("REPRO_REGOLDEN"):
            pytest.skip("regenerating")
        lines = open(GOLDEN_PATH, encoding="ascii").read().splitlines()
        assert lines_digest(lines) == GOLDEN_DIGEST_BY_MODEL_VERSION.get(
            MODEL_VERSION
        ), (
            "the golden trace changed without a MODEL_VERSION bump: bump "
            "repro.sim.runner.MODEL_VERSION and pin the new digest in "
            "GOLDEN_DIGEST_BY_MODEL_VERSION"
        )

    def test_capture_is_deterministic(self):
        assert events_digest(capture_events()) == events_digest(capture_events())

    @pytest.mark.skipif(
        not os.environ.get("REPRO_REGOLDEN"),
        reason="set REPRO_REGOLDEN=1 to regenerate the golden trace",
    )
    def test_regenerate_golden(self):
        events = capture_events()
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(GOLDEN_PATH, "w", encoding="ascii") as handle:
            for event in events:
                handle.write(event.to_json())
                handle.write("\n")
        with open(DIGEST_PATH, "w", encoding="ascii") as handle:
            handle.write(events_digest(events) + "\n")
        assert os.path.getsize(GOLDEN_PATH) > 0
