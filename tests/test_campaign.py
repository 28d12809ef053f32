"""Tests for the repro.campaign subsystem.

Covers the ISSUE's required cases: result-store round-trip, cache-key
stability across processes, parallel-equals-serial determinism, retry on
worker failure, and the zero-re-simulation guarantee of a second campaign
run, plus the manifest/CLI/telemetry surface.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro
from repro import ResultsCache, SystemConfig, simulate, spec2017
from repro.campaign import (
    Campaign,
    Job,
    ResultStore,
    campaign_from_manifest,
    decode_result,
    encode_result,
    execute_job,
    load_manifest,
    register_workload,
    run_campaign,
    run_job,
    workload_factory,
)
from repro.campaign.manifest import ManifestError
from repro.campaign.progress import DISK_HIT, FAILED, MEMORY_HIT, RETRY, SIMULATED
from repro.sim.runner import result_key

LENGTH = 2_000  # small but long enough to exercise every stat


def small_job(app="gcc", policy="at-commit", sb=14, **kwargs) -> Job:
    config = SystemConfig.skylake(sb_entries=sb, store_prefetch=policy)
    return Job(workload=app, length=LENGTH, config=config, **kwargs)


class TestJob:
    def test_key_matches_results_cache_key(self):
        job = small_job()
        assert job.key == result_key("gcc", LENGTH, 1, job.config)

    def test_key_distinguishes_config(self):
        assert small_job(sb=14).key != small_job(sb=56).key

    def test_key_distinguishes_warmup(self):
        assert small_job().key != small_job(warmup=500).key

    def test_key_stable_across_processes(self):
        job = small_job(policy="spb")
        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        script = (
            "from repro.campaign import Job\n"
            "from repro import SystemConfig\n"
            f"config = SystemConfig.skylake(sb_entries=14, store_prefetch='spb')\n"
            f"print(Job(workload='gcc', length={LENGTH}, config=config).key)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == job.key

    def test_trace_stable_across_hash_seeds(self):
        """Cross-session store reuse requires process-stable trace generation.

        String hashing is randomised per process (PYTHONHASHSEED), so the
        generator must not seed its RNG from ``hash(name)``; two processes
        with different hash seeds must produce identical traces.
        """
        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        script = (
            "from repro import spec2017\n"
            f"t = spec2017('gcc', length=500, seed=1)\n"
            "print([(int(op.kind), op.pc, op.addr) for op in t][:50])\n"
        )
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ)
            env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
            env["PYTHONHASHSEED"] = hash_seed
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.append(out.stdout)
        assert outputs[0] == outputs[1]

    def test_build_trace_uses_registered_factory(self):
        trace = small_job().build_trace()
        assert trace.name == "gcc"
        assert len(trace) == LENGTH

    def test_unknown_workload_kind(self):
        with pytest.raises(KeyError, match="unknown workload kind"):
            workload_factory("no-such-kind")


class TestCampaignMatrix:
    def test_cross_product_size(self):
        campaign = Campaign.matrix(
            ["gcc", "bwaves"], policies=["at-commit", "spb"],
            sb_sizes=[14, 56], prefetchers=["none", "stream"], length=LENGTH,
        )
        assert len(campaign) == 2 * 2 * 2 * 2

    def test_duplicate_cells_collapse(self):
        campaign = Campaign.matrix(
            ["gcc", "gcc"], policies=["at-commit"], length=LENGTH
        )
        assert len(campaign) == 1

    def test_kind_for_factory_roundtrip(self):
        assert Campaign.kind_for_factory(spec2017) == "spec2017"


class TestResultStore:
    def test_round_trip_equal(self, tmp_path):
        store = ResultStore(str(tmp_path))
        job = small_job(policy="spb")  # exercises detector_stats too
        result = run_job(job)
        store.save(job.key, result)
        loaded = store.load(job.key)
        assert loaded == result  # full dataclass-tree equality

    def test_codec_round_trip_bitexact(self):
        result = run_job(small_job())
        assert decode_result(json.loads(json.dumps(encode_result(result)))) == result

    def test_missing_key_is_none(self, tmp_path):
        assert ResultStore(str(tmp_path)).load("nope") is None

    def test_corrupt_file_is_miss(self, tmp_path):
        store = ResultStore(str(tmp_path))
        job = small_job()
        store.save(job.key, run_job(job))
        with open(store.path_for(job.key), "w") as handle:
            handle.write("{ not json")
        assert store.load(job.key) is None
        assert store.corrupt_loads == 1

    def test_schema_mismatch_is_miss(self, tmp_path):
        store = ResultStore(str(tmp_path))
        job = small_job()
        store.save(job.key, run_job(job))
        old = ResultStore(str(tmp_path), schema_version=99)
        assert old.load(job.key) is None
        assert old.corrupt_loads == 1

    def test_keys_and_clear(self, tmp_path):
        store = ResultStore(str(tmp_path))
        job = small_job()
        store.save(job.key, run_job(job))
        assert store.keys() == [job.key]
        assert store.clear() == 1
        assert len(store) == 0


class TestResultsCacheTiers:
    def test_counters(self, tmp_path):
        cache = ResultsCache(store=ResultStore(str(tmp_path)))
        cfg = SystemConfig()
        cache.get(spec2017, "gcc", LENGTH, cfg)
        cache.get(spec2017, "gcc", LENGTH, cfg)
        assert cache.stats() == {
            "memory_hits": 1, "disk_hits": 0, "misses": 1, "entries": 1,
        }
        assert cache.hits == 1

    def test_disk_tier_survives_new_cache(self, tmp_path):
        store_dir = str(tmp_path)
        ResultsCache(store=ResultStore(store_dir)).get(
            spec2017, "gcc", LENGTH, SystemConfig()
        )
        fresh = ResultsCache(store=ResultStore(store_dir))
        fresh.get(spec2017, "gcc", LENGTH, SystemConfig())
        assert fresh.disk_hits == 1
        assert fresh.misses == 0


class TestRunCampaign:
    def matrix(self):
        return Campaign.matrix(
            ["gcc", "bwaves"], policies=["at-commit", "spb"],
            sb_sizes=[14], length=LENGTH,
        )

    def test_parallel_equals_serial(self):
        campaign = self.matrix()
        serial = run_campaign(campaign, max_workers=1)
        parallel = run_campaign(campaign, max_workers=2)
        assert serial.ok and parallel.ok
        assert set(serial.results) == set(parallel.results)
        for key, result in serial.results.items():
            assert parallel.results[key] == result  # bit-identical trees

    def test_serial_matches_direct_simulate(self):
        campaign = self.matrix()
        report = run_campaign(campaign, max_workers=1)
        job = campaign.jobs[0]
        direct = simulate(
            spec2017(job.workload, length=job.length, seed=job.seed), job.config
        )
        assert report.get(job) == direct

    def test_second_run_zero_resimulations(self, tmp_path):
        campaign = self.matrix()
        first = run_campaign(
            campaign, cache=ResultsCache(store=ResultStore(str(tmp_path))),
            max_workers=1,
        )
        assert first.telemetry.simulated == len(campaign)
        cache = ResultsCache(store=ResultStore(str(tmp_path)))
        second = run_campaign(campaign, cache=cache, max_workers=1)
        assert second.telemetry.simulated == 0
        assert second.telemetry.disk_hits == len(campaign)
        assert cache.misses == 0
        assert second.results == first.results

    def test_memory_tier_within_one_run(self):
        campaign = self.matrix()
        cache = ResultsCache()
        run_campaign(campaign, cache=cache, max_workers=1)
        report = run_campaign(campaign, cache=cache, max_workers=1)
        assert report.telemetry.memory_hits == len(campaign)
        assert report.telemetry.simulated == 0

    def test_progress_events(self):
        events = []
        campaign = self.matrix()
        run_campaign(campaign, max_workers=1, progress=events.append)
        assert len(events) == len(campaign)
        assert all(event.status == SIMULATED for event in events)
        assert events[-1].completed == events[-1].total == len(campaign)
        assert events[-1].eta_seconds is None
        assert events[0].eta_seconds is not None
        assert events[0].jobs_per_sec > 0


class TestRetries:
    def test_retry_on_injected_crash_serial(self, tmp_path):
        sentinel = tmp_path / "crashed-once"

        def crashy(name, length=0, seed=1):
            if not sentinel.exists():
                sentinel.write_text("x")
                raise RuntimeError("injected worker crash")
            return spec2017(name, length=length, seed=seed)

        register_workload("crashy-serial", crashy)
        job = small_job(workload_kind="crashy-serial")
        events = []
        report = run_campaign([job], max_workers=1, retries=1,
                              progress=events.append)
        assert report.ok
        assert [event.status for event in events] == [RETRY, SIMULATED]
        assert report.outcomes[0].attempts == 2
        assert report.telemetry.retries == 1

    def test_retry_on_injected_crash_parallel(self, tmp_path):
        if sys.platform != "linux":
            pytest.skip("relies on fork inheriting the workload registry")
        sentinel = tmp_path / "crashed-once-parallel"

        def crashy(name, length=0, seed=1):
            if not sentinel.exists():
                sentinel.write_text("x")
                raise RuntimeError("injected worker crash")
            return spec2017(name, length=length, seed=seed)

        register_workload("crashy-parallel", crashy)
        jobs = [small_job(workload_kind="crashy-parallel"),
                small_job(app="bwaves")]
        report = run_campaign(jobs, max_workers=2, retries=2)
        assert report.ok
        assert report.telemetry.retries >= 1
        direct = run_job(small_job())
        assert report.get(jobs[0]) == direct

    def test_exhausted_retries_reported_failed(self):
        def always_crashes(name, length=0, seed=1):
            raise RuntimeError("boom")

        register_workload("always-crashes", always_crashes)
        job = small_job(workload_kind="always-crashes")
        report = run_campaign([job], max_workers=1, retries=1)
        assert not report.ok
        assert len(report.failures) == 1
        outcome = report.failures[0]
        assert outcome.status == FAILED
        assert outcome.attempts == 2
        assert "boom" in outcome.error
        assert report.get(job) is None


class TestExecuteJob:
    def test_routes_through_cache(self, tmp_path):
        cache = ResultsCache(store=ResultStore(str(tmp_path)))
        job = small_job()
        first = execute_job(job, cache=cache)
        second = execute_job(job, cache=cache)
        assert first is second
        assert cache.memory_hits == 1
        assert cache.misses == 1

    def test_matches_results_cache_get(self, tmp_path):
        cache = ResultsCache()
        job = small_job()
        via_engine = execute_job(job, cache=cache)
        via_get = cache.get(spec2017, "gcc", LENGTH, job.config)
        assert via_engine is via_get  # same key → same memoised object


class TestSweepsThroughEngine:
    def test_policy_sweep_parallel_equals_serial(self):
        from repro.sim.sweep import policy_sweep

        serial = policy_sweep(
            ResultsCache(), spec2017, ["gcc"], 14,
            ["at-commit", "spb"], LENGTH, max_workers=1,
        )
        parallel = policy_sweep(
            ResultsCache(), spec2017, ["gcc"], 14,
            ["at-commit", "spb"], LENGTH, max_workers=2,
        )
        assert serial == parallel


class TestManifest:
    def test_load_manifest(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "name": "slice", "apps": ["gcc"], "policies": ["spb"],
            "sb_sizes": [14], "length": LENGTH,
        }))
        campaign = load_manifest(str(path))
        assert campaign.name == "slice"
        assert len(campaign) == 1
        assert campaign.jobs[0].config.store_prefetch.value == "spb"

    def test_unknown_key_rejected(self):
        with pytest.raises(ManifestError, match="sb_size"):
            campaign_from_manifest({"apps": ["gcc"], "sb_size": [14]})

    def test_missing_apps_rejected(self):
        with pytest.raises(ManifestError, match="apps"):
            campaign_from_manifest({"policies": ["spb"]})

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ nope")
        with pytest.raises(ManifestError, match="not valid JSON"):
            load_manifest(str(path))


class TestCampaignCli:
    def test_cli_runs_and_caches(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["campaign", "--apps", "gcc", "--policies", "at-commit",
                "--sb-sizes", "14", "--length", str(LENGTH),
                "--workers", "1", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 simulated" in out
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 simulated" in out
        assert "1 disk hit(s)" in out

    def test_cli_manifest(self, tmp_path, capsys):
        from repro.cli import main

        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"apps": ["gcc"], "sb_sizes": [14],
                                        "length": LENGTH}))
        code = main(["campaign", "--manifest", str(manifest),
                     "--workers", "1", "--no-cache", "--quiet"])
        assert code == 0
        assert "gcc" in capsys.readouterr().out


class TestGeomeanDropReporting:
    def test_warns_with_count(self):
        from repro.sim.sweep import geomean

        with pytest.warns(RuntimeWarning, match="dropped 2 non-positive"):
            value = geomean([0.0, -1.0, 4.0])
        assert value == pytest.approx(4.0)

    def test_collects_dropped_values(self):
        from repro.sim.sweep import geomean

        dropped: list = []
        with pytest.warns(RuntimeWarning):
            geomean([0.0, 2.0, 8.0], dropped_out=dropped)
        assert dropped == [0.0]

    def test_no_warning_when_all_positive(self, recwarn):
        from repro.sim.sweep import geomean

        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestCampaignEngine:
    def test_matrix_engine_param_sets_every_cell(self):
        """Cells run the base config's engine: the fast one by default."""
        campaign = Campaign.matrix(
            apps=["bwaves"], policies=["at-commit", "spb"], sb_sizes=[14, 28],
        )
        assert all(job.config.engine == "fast" for job in campaign)
        reference = Campaign.matrix(
            apps=["bwaves"], base_config=SystemConfig(engine="reference"),
        )
        assert all(job.config.engine == "reference" for job in reference)

    def test_engine_does_not_change_job_keys(self):
        # Fast and reference cells must share cache/store entries.
        fast = Campaign.matrix(apps=["bwaves"], policies=["at-commit"])
        reference = Campaign.matrix(
            apps=["bwaves"], policies=["at-commit"],
            base_config=SystemConfig(engine="reference"),
        )
        assert [job.key for job in reference] == [job.key for job in fast]

    def test_manifest_engine_key(self):
        campaign = campaign_from_manifest({"apps": ["bwaves"]})
        assert all(job.config.engine == "fast" for job in campaign)

    def test_manifest_rejects_bad_engine(self):
        """The engine is not a manifest option, whatever its value."""
        for engine in ("fast", "turbo"):
            with pytest.raises(ManifestError, match="unknown manifest key"):
                campaign_from_manifest({"apps": ["bwaves"], "engine": engine})


class TestMulticoreJobs:
    """Multicore campaign cells: keys, codec, execution and the matrix."""

    @staticmethod
    def multicore_job(**kwargs) -> Job:
        config = SystemConfig.skylake(sb_entries=14, num_cores=2)
        defaults = dict(
            workload="swaptions", length=1_000, config=config,
            workload_kind="parsec", threads=2,
        )
        defaults.update(kwargs)
        return Job(**defaults)

    def test_key_matches_multicore_result_key(self):
        from repro.campaign import multicore_result_key

        job = self.multicore_job()
        assert job.key == multicore_result_key(
            "swaptions", 2, 1_000, 1, job.config
        )

    def test_multicore_keys_disjoint_from_single_core(self):
        single = small_job()
        multi = self.multicore_job(
            workload=single.workload, length=single.length, config=single.config
        )
        assert single.key != multi.key

    def test_key_distinguishes_threads(self):
        assert self.multicore_job(threads=2).key != (
            self.multicore_job(threads=4).key
        )

    def test_warmup_rejected(self):
        with pytest.raises(ValueError):
            self.multicore_job(warmup=100)

    def test_run_job_returns_multicore_result_without_pipelines(self):
        from repro.multicore.system import MulticoreResult

        result = run_job(self.multicore_job())
        assert isinstance(result, MulticoreResult)
        assert result.pipelines == []
        assert len(result.per_core) == 2
        assert result.committed_uops == 2_000

    def test_codec_round_trip_bitexact(self):
        from repro.campaign import (
            decode_multicore_result,
            encode_multicore_result,
        )

        result = run_job(self.multicore_job())
        payload = json.loads(json.dumps(encode_multicore_result(result)))
        assert decode_multicore_result(payload) == result

    def test_store_round_trip(self, tmp_path):
        job = self.multicore_job()
        result = run_job(job)
        store = ResultStore(str(tmp_path))
        store.save(job.key, result)
        assert store.load(job.key) == result

    def test_second_run_zero_resimulations(self, tmp_path):
        campaign = Campaign.matrix(
            apps=["swaptions"], policies=["at-commit", "spb"], sb_sizes=[14],
            length=1_000, threads=2, workload_kind="parsec",
        )
        store = ResultStore(str(tmp_path))
        first = run_campaign(campaign, store=store, max_workers=1)
        assert first.ok and first.telemetry.simulated == len(campaign)
        second = run_campaign(campaign, store=store, max_workers=1)
        assert second.ok and second.telemetry.simulated == 0
        for job in campaign:
            assert second.get(job) == first.get(job)

    def test_matrix_threads_sets_num_cores_and_kind(self):
        campaign = Campaign.matrix(
            apps=["dedup"], policies=["spb"], length=1_000,
            threads=4, workload_kind="parsec",
        )
        for job in campaign:
            assert job.threads == 4
            assert job.config.num_cores == 4
            assert job.workload_kind == "parsec"

    def test_engine_does_not_change_multicore_keys(self):
        kwargs = dict(
            apps=["dedup"], policies=["spb"], length=1_000,
            threads=2, workload_kind="parsec",
        )
        fast = Campaign.matrix(**kwargs)
        reference = Campaign.matrix(
            base_config=SystemConfig(engine="reference"), **kwargs
        )
        assert [job.key for job in reference] == [job.key for job in fast]

    def test_manifest_threads_key(self):
        campaign = campaign_from_manifest({
            "apps": ["swaptions"], "threads": 2,
            "workload_kind": "parsec", "length": 1_000,
        })
        assert all(job.threads == 2 for job in campaign)
