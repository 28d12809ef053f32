"""Differential tests: the fast engine equals stepping every cycle.

Every case runs the reference engine, which steps every cycle and so *is*
the model's specification, and the fast engine; they must agree on the full
statistics tree and on the canonical event stream.  Four layers, all built
on :mod:`repro.sim.diffcheck`:

* the **matrix** — tier-1 workloads × every store-prefetch policy × warmup
  on/off, with trace lengths chosen so the store-heavy rows actually reach
  their store phases (storeless cells would leave the fast engine's
  SB/drain/SPB paths unproven);
* **synthetic store bursts** — hand-built dense-store traces that hammer
  the SB from µop 0 (tiny SB, coalescing, store/load interleave), which no
  generated workload prefix does;
* **shadow-checked cells** — a subset where each engine additionally carries
  a :class:`~repro.trace.MetricsRegistry` whose event-derived metrics must
  match that engine's own counters;
* a **hypothesis fuzzer** over (workload, length, seed, warmup, policy,
  SB size, prefetcher), mixing short structural traces with store-covering
  bwaves/roms lengths.  ``REPRO_DIFF_CASES`` scales the fuzz budget
  (default 50 examples); a diverging example is greedily shrunk to the
  smallest still-diverging configuration before the failure is reported.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config.system import StorePrefetchPolicy, SystemConfig
from repro.isa.trace import Trace
from repro.isa.uop import MicroOp, OpKind
from repro.memory.mshr import MSHRFile
from repro.sim.diffcheck import (
    DiffCase,
    compare_results,
    compare_values,
    default_matrix,
    diff_trace,
    run_case,
    shrink_case,
)

MATRIX = default_matrix()

FUZZ_EXAMPLES = int(os.environ.get("REPRO_DIFF_CASES", "50"))


class TestCompareValues:
    """The comparer itself must be able to see divergences."""

    def test_identical_results_compare_clean(self):
        report = run_case(DiffCase("exchange2", SystemConfig.skylake(), length=500))
        assert report.identical

    def test_scalar_divergence_is_reported_with_path(self):
        problems = []
        compare_values("x", {"a": 1}, {"a": 2}, problems)
        assert problems == ["x['a']: 1 != 2"]

    def test_dataclass_divergence_names_the_field(self):
        a = SystemConfig.skylake(sb_entries=14)
        b = SystemConfig.skylake(sb_entries=56)
        problems = compare_results(a, b)
        assert problems == ["result.core.store_buffer_entries: 14 != 56"]

    def test_length_mismatch_is_reported(self):
        problems = []
        compare_values("seq", [1, 2, 3], [1, 2], problems)
        assert problems == ["seq: length 3 != 2"]

    def test_missing_dict_key_is_reported(self):
        problems = []
        compare_values("d", {"only_ref": 1}, {}, problems)
        assert problems == ["d['only_ref']: only in reference result"]


def test_harness_catches_a_span_settled_one_cycle_short(monkeypatch):
    """A fast-loop span that stops charging one cycle early must diverge.

    With ``busy_until`` reporting the last in-flight L1 miss one cycle
    early, every quiescent span the fast loop settles by arithmetic charges
    one L1D-pending cycle too few; stepping never asks ``busy_until``.
    """
    exact = MSHRFile.busy_until
    monkeypatch.setattr(
        MSHRFile, "busy_until", lambda self: max(exact(self) - 1, 0)
    )
    case = DiffCase(
        "mcf", SystemConfig.skylake(sb_entries=14, store_prefetch="at-commit"),
        length=4_000,
    )
    problems = run_case(case).problems
    assert any(
        p.startswith("result.pipeline.exec_stall_l1d_pending:") for p in problems
    ), problems


@pytest.mark.parametrize("case", MATRIX, ids=lambda case: case.describe())
def test_engines_bit_identical(case):
    """Every matrix cell: equal SimResult trees and canonical event
    streams."""
    report = run_case(case)
    assert report.identical, report.message()


SHADOW_CASES = [
    case
    for case in MATRIX
    if case.workload in ("bwaves", "roms")
    and case.config.store_prefetch
    in (StorePrefetchPolicy.AT_COMMIT, StorePrefetchPolicy.SPB)
]


@pytest.mark.parametrize("case", SHADOW_CASES, ids=lambda case: case.describe())
def test_engines_identical_under_shadow_check(case):
    """Shadow-checked cells: event-derived metrics match per engine too."""
    report = run_case(case, shadow=True)
    assert report.identical, report.message()


def _store_burst_trace(words: int = 256, *, stride: int = 8) -> Trace:
    """Contiguous 8-byte stores across pages — the paper's Figure 2 pattern."""
    ops = [
        MicroOp(OpKind.STORE, pc=0x400, addr=0x10000 + i * stride, size=8)
        for i in range(words)
    ]
    return Trace(ops, name="synthetic-burst")


def _store_load_interleave_trace(pairs: int = 200) -> Trace:
    """Store/load pairs on overlapping blocks: coalescing plus forwarding."""
    ops = []
    for i in range(pairs):
        addr = 0x20000 + (i % 32) * 8
        ops.append(MicroOp(OpKind.STORE, pc=0x500, addr=addr, size=8))
        ops.append(MicroOp(OpKind.LOAD, pc=0x508, addr=addr, size=8, dep_distance=1))
    return Trace(ops, name="synthetic-interleave")


def _random_mix_trace(length: int = 600, seed: int = 3) -> Trace:
    """Seeded mix of stores, loads, ALU work and mispredicting branches."""
    rng = random.Random(seed)
    ops = []
    for i in range(length):
        roll = rng.random()
        if roll < 0.35:
            ops.append(
                MicroOp(
                    OpKind.STORE, pc=0x600 + (i % 7) * 8,
                    addr=rng.randrange(0, 1 << 20, 8), size=8,
                )
            )
        elif roll < 0.6:
            ops.append(
                MicroOp(
                    OpKind.LOAD, pc=0x700, addr=rng.randrange(0, 1 << 20, 8),
                    size=8, dep_distance=rng.choice((0, 1, 3)),
                )
            )
        elif roll < 0.7:
            ops.append(
                MicroOp(
                    OpKind.BRANCH, pc=0x800, taken=rng.random() < 0.5,
                    mispredicted=rng.random() < 0.1,
                )
            )
        else:
            ops.append(MicroOp(rng.choice((OpKind.INT_ALU, OpKind.FP_MUL)), pc=0x900))
    return Trace(ops, name="synthetic-mix")


SYNTHETIC_TRACES = {
    "burst": _store_burst_trace,
    "interleave": _store_load_interleave_trace,
    "mix": _random_mix_trace,
}


@pytest.mark.parametrize("policy", list(StorePrefetchPolicy), ids=lambda p: p.value)
@pytest.mark.parametrize("trace_name", sorted(SYNTHETIC_TRACES))
@pytest.mark.parametrize("sb_entries", [4, 14])
def test_synthetic_store_traces_bit_identical(trace_name, policy, sb_entries):
    """Dense stores from µop 0 under a tiny SB: maximum SB-path pressure."""
    trace = SYNTHETIC_TRACES[trace_name]()
    entries = 1024 if policy is StorePrefetchPolicy.IDEAL else sb_entries
    case = DiffCase(
        workload=trace.name, length=len(trace),
        config=SystemConfig.skylake(sb_entries=entries, store_prefetch=policy),
    )
    report = diff_trace(trace, case, shadow=True)
    assert report.identical, report.message()


_config_strategy = st.builds(
    SystemConfig.skylake,
    sb_entries=st.sampled_from((2, 14, 56)),
    store_prefetch=st.sampled_from(list(StorePrefetchPolicy)),
    cache_prefetcher=st.sampled_from(("none", "stream", "aggressive", "adaptive")),
)

_structural_cases = st.builds(
    DiffCase,
    workload=st.sampled_from(("exchange2", "mcf", "cactuBSSN", "lbm")),
    config=_config_strategy,
    length=st.integers(min_value=300, max_value=1_200),
    seed=st.integers(min_value=1, max_value=1_000),
    warmup=st.sampled_from((0, 100, 400)),
    sim_seed=st.integers(min_value=1, max_value=64),
)

# bwaves/roms emit their first store around µop 4400, so these lengths put
# real SB traffic (and a possible mid-burst warm-up split) under fuzz.
_store_heavy_cases = st.builds(
    DiffCase,
    workload=st.sampled_from(("bwaves", "roms")),
    config=_config_strategy,
    length=st.integers(min_value=4_600, max_value=6_500),
    seed=st.integers(min_value=1, max_value=1_000),
    warmup=st.sampled_from((0, 1_000, 4_700)),
    sim_seed=st.integers(min_value=1, max_value=64),
)

fuzz_cases = _structural_cases | _store_heavy_cases


class TestDifferentialFuzz:
    @settings(
        max_examples=FUZZ_EXAMPLES,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=fuzz_cases)
    def test_random_configurations_never_diverge(self, case):
        report = run_case(case)
        if not report.identical:
            minimal = shrink_case(case)
            pytest.fail(
                f"{report.message()}\nminimal diverging case: {minimal.describe()}"
            )


class TestShrinker:
    def test_non_diverging_case_is_returned_unchanged(self):
        case = DiffCase("exchange2", SystemConfig.skylake(), length=400)
        assert shrink_case(case) == case
