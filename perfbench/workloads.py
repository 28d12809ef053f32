"""The benchmark's three workloads, each one timed pass through the simulator.

A pass drives one workload from this process with no pool, records host-time
spans around the calls it makes into each ``repro`` layer, and returns the
simulated statistics of every cell so the caller can check and digest them.
Every simulation uses the fast engine, the single production loop.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field, fields, is_dataclass

from repro.campaign import Campaign, ResultStore, register_workload, run_campaign
from repro.campaign.progress import DISK_HIT, SIMULATED
from repro.config.system import SystemConfig
from repro.core.policies import SpbPrefetch
from repro.multicore.system import MulticoreSystem
from repro.sim.runner import ResultsCache, simulate
from repro.workloads import SB_BOUND_SPEC, parsec, spec2017

ENGINE = "fast"
POLICIES = ("at-commit", "spb")
READ_COMPUTE_SPEC = ("mcf", "omnetpp", "exchange2", "nab")
PARSEC_APPS = ("dedup", "canneal")
PARSEC_THREADS = 8

#: Workload kind the spec-sb-bound campaign generates its traces through.
#: Job keys leave the kind out, so result-store keys are those of "spec2017".
TIMED_SPEC_KIND = "spec2017-timed"


@dataclass(frozen=True)
class Sizes:
    """Trace lengths of one benchmark scale."""

    spec_length: int
    spec_warmup: int
    parsec_length: int  # µops per thread


FULL = Sizes(spec_length=30_000, spec_warmup=5_000, parsec_length=20_000)
SMOKE = Sizes(spec_length=2_000, spec_warmup=500, parsec_length=1_000)


class Spans:
    """Host seconds summed per span name, from calls timed by the benchmark."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)

    def call(self, name: str, fn, *args, **kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[name] += time.perf_counter() - started


class GenerationLog:
    """Counts and times trace-generator calls per distinct input."""

    def __init__(self, spans: Spans) -> None:
        self.spans = spans
        self.calls: Counter = Counter()

    def generate(self, factory, name: str, **kwargs):
        self.calls[(factory.__name__, name, tuple(sorted(kwargs.items())))] += 1
        return self.spans.call("workloads.gen", factory, name, **kwargs)

    @property
    def per_trace(self) -> float:
        return sum(self.calls.values()) / len(self.calls) if self.calls else 0.0


class TimedStore(ResultStore):
    """A :class:`ResultStore` whose saves and loads are timed as spans."""

    def __init__(self, root: str, spans: Spans) -> None:
        super().__init__(root)
        self.spans = spans

    def save(self, key, result):
        return self.spans.call("campaign.store_save", super().save, key, result)

    def load(self, key):
        return self.spans.call("campaign.store_load", super().load, key)


@dataclass
class CoreView:
    """Simulated statistics of one core of one cell."""

    pipeline: object
    sb: object
    l1d: object
    l2: object
    l1_mshr: object
    traffic: object
    engine: object
    detector: object
    outcomes: object


@dataclass
class Cell:
    """One simulated cell: its statistics and what it was asked to commit."""

    label: str
    cores: list[CoreView]
    l3: object
    cycles: int  # simulated cycles of the whole cell (measured part)
    expected_uops: int  # µops each core must commit
    record: object  # the full result tree the digest covers
    problems: list[str] = field(default_factory=list)

    def check(self) -> list[str]:
        """Output checks on this cell alone; returns the failures."""
        problems = list(self.problems)
        for index, core in enumerate(self.cores):
            if core.pipeline.committed_uops != self.expected_uops:
                problems.append(
                    f"{self.label} core {index} committed "
                    f"{core.pipeline.committed_uops} of {self.expected_uops} µops"
                )
        return problems

    def digest(self) -> str:
        text = json.dumps(_plain(self.record), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Pass:
    """One timed pass of a workload."""

    wall_s: float
    setup_s: float
    sim_s: float
    simulated_uops: int  # warm-up included
    cells: list[Cell]
    spans: Spans
    gen_per_trace: float
    retries: int = 0
    cold_results: list = field(default_factory=list)

    def failures(self) -> dict[str, list[str]]:
        """Check failures per cell label (cells with none are left out)."""
        found = {cell.label: cell.check() for cell in self.cells}
        return {label: problems for label, problems in found.items() if problems}

    def digests(self) -> dict[str, str]:
        return {cell.label: cell.digest() for cell in self.cells}


def _plain(value):
    """Canonical JSON-ready form of a statistics tree (dict order ignored)."""
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return sorted([_plain(k), _plain(v)] for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return repr(value)


def _result_view(result) -> CoreView:
    return CoreView(
        pipeline=result.pipeline,
        sb=result.sb_stats,
        l1d=result.l1_stats,
        l2=result.l2_stats,
        l1_mshr=result.extras["l1_mshr"],
        traffic=result.traffic,
        engine=result.engine_stats,
        detector=result.detector_stats,
        outcomes=result.prefetch_outcomes,
    )


def _single_cell(label: str, result, expected: int) -> Cell:
    return Cell(
        label=label,
        cores=[_result_view(result)],
        l3=result.l3_stats,
        cycles=result.cycles,
        expected_uops=expected,
        record=result,
    )


def _pipeline_view(pipeline) -> CoreView:
    engine = pipeline.engine
    hierarchy = pipeline.hierarchy
    return CoreView(
        pipeline=pipeline.stats,
        sb=pipeline.sb.stats,
        l1d=hierarchy.l1d.stats,
        l2=hierarchy.l2.stats,
        l1_mshr=hierarchy.l1_mshr.stats,
        traffic=hierarchy.traffic,
        engine=engine.stats,
        detector=engine.detector.stats if isinstance(engine, SpbPrefetch) else None,
        outcomes=engine.tracker.finalize(),
    )


def config(policy: str, sb_entries: int = 56, **kwargs) -> SystemConfig:
    return SystemConfig.skylake(
        sb_entries=sb_entries, store_prefetch=policy, engine=ENGINE, **kwargs
    )


def spec_sb_bound(seed: int, sizes: Sizes, scratch: str) -> Pass:
    """The figure-suite path: a 32-job campaign, cold then warm from its store."""
    spans = Spans()
    log = GenerationLog(spans)
    register_workload(
        TIMED_SPEC_KIND,
        lambda name, **kwargs: log.generate(spec2017, name, **kwargs),
    )
    campaign = Campaign.matrix(
        SB_BOUND_SPEC,
        policies=POLICIES,
        sb_sizes=(14, 56),
        length=sizes.spec_length,
        seed=seed,
        warmup=sizes.spec_warmup,
        base_config=config("at-commit"),
        workload_kind=TIMED_SPEC_KIND,
        name="spec-sb-bound",
    )
    root = tempfile.mkdtemp(prefix="store-", dir=scratch)
    try:
        store = TimedStore(root, spans)
        started = time.perf_counter()
        cold = run_campaign(campaign, cache=ResultsCache(store=store), max_workers=1)
        wall = time.perf_counter() - started
        warm = spans.call(
            "campaign.warm", run_campaign, campaign,
            cache=ResultsCache(store=store), max_workers=1,
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)

    cold_status = {outcome.job.key: outcome for outcome in cold.outcomes}
    warm_status = {outcome.job.key: outcome.status for outcome in warm.outcomes}
    cells = []
    expected = sizes.spec_length - sizes.spec_warmup
    for job in campaign:
        label = job.describe()
        result = cold.results.get(job.key)
        if result is None:
            cells.append(Cell(label, [], None, 0, expected, None, ["no result"]))
            continue
        cell = _single_cell(label, result, expected)
        outcome = cold_status.get(job.key)
        if outcome is None or outcome.status != SIMULATED:
            cell.problems.append(f"{label}: cold pass did not simulate the cell")
        if warm_status.get(job.key) != DISK_HIT:
            cell.problems.append(f"{label}: warm pass did not load the stored result")
        if warm.results.get(job.key) != result:
            cell.problems.append(f"{label}: stored result differs from the simulated one")
        cells.append(cell)
    if not cold.ok or not warm.ok:
        cells[0].problems.append("CampaignReport.ok is false")
    run_job_s = sum(o.wall_time for o in cold.outcomes if o.status == SIMULATED)
    gen_s = spans.seconds["workloads.gen"]
    spans.seconds["sim.run"] = run_job_s - gen_s
    return Pass(
        wall_s=wall,
        setup_s=gen_s,
        sim_s=run_job_s - gen_s,
        simulated_uops=sizes.spec_length * len(campaign),
        cells=cells,
        spans=spans,
        gen_per_trace=log.per_trace,
        retries=sum(o.attempts - 1 for o in cold.outcomes + warm.outcomes),
        cold_results=[cold.results[job.key] for job in campaign if job.key in cold.results],
    )


def spec_read_compute(seed: int, sizes: Sizes, scratch: str) -> Pass:
    """Direct ``simulate`` calls on load-miss-bound and compute-bound apps."""
    spans = Spans()
    log = GenerationLog(spans)
    cells = []
    started = time.perf_counter()
    for app in READ_COMPUTE_SPEC:
        trace = log.generate(spec2017, app, length=sizes.spec_length, seed=seed)
        for policy in POLICIES:
            result = spans.call(
                "sim.run", simulate, trace, config(policy), warmup=sizes.spec_warmup
            )
            cells.append(_single_cell(
                f"{app}/{policy}/SB56", result, sizes.spec_length - sizes.spec_warmup
            ))
    wall = time.perf_counter() - started
    return Pass(
        wall_s=wall,
        setup_s=spans.seconds["workloads.gen"],
        sim_s=spans.seconds["sim.run"],
        simulated_uops=sizes.spec_length * len(cells),
        cells=cells,
        spans=spans,
        gen_per_trace=log.per_trace,
    )


def parsec_8t(seed: int, sizes: Sizes, scratch: str) -> Pass:
    """8-thread PARSEC cells: generate, build the system, run it."""
    spans = Spans()
    log = GenerationLog(spans)
    cells = []
    started = time.perf_counter()
    for app in PARSEC_APPS:
        for policy in POLICIES:
            traces = log.generate(
                parsec, app, threads=PARSEC_THREADS,
                length=sizes.parsec_length, seed=seed,
            )
            system = spans.call(
                "multicore.build", MulticoreSystem,
                config(policy, num_cores=PARSEC_THREADS), traces,
            )
            result = spans.call("sim.run", system.run)
            views = [_pipeline_view(p) for p in result.pipelines]
            cells.append(Cell(
                label=f"{app}x{PARSEC_THREADS}/{policy}/SB56",
                cores=views,
                l3=system.uncore.l3.stats,
                cycles=result.cycles,
                expected_uops=sizes.parsec_length,
                record=[result.cycles, views, system.uncore.l3.stats],
            ))
    wall = time.perf_counter() - started
    gen_s = spans.seconds["workloads.gen"]
    return Pass(
        wall_s=wall,
        setup_s=gen_s + spans.seconds["multicore.build"],
        sim_s=spans.seconds["sim.run"],
        simulated_uops=sizes.parsec_length * PARSEC_THREADS * len(cells),
        cells=cells,
        spans=spans,
        gen_per_trace=log.per_trace,
    )


WORKLOADS = {
    "spec-sb-bound": spec_sb_bound,
    "spec-read-compute": spec_read_compute,
    "parsec-8t": parsec_8t,
}
