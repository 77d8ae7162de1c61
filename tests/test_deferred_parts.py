"""A run the timeline store answers defers its functional parts and its
pipeline result.

Table 1 reads only ``run.report``; a warm Table 1 must load no program,
trace, deadness analysis or timeline, serially or at ``jobs=2``, and at
``jobs=2`` it must start no worker pool. Exhibits that do read the parts
or the pipeline resolve them on first access to the same bytes the
simulating run holds; a timing entry whose pipeline result is lost is
simulated again.
"""

import asyncio
import dataclasses
import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.arch.trace import Trace
from repro.experiments import ablations, figure1, occupancy, table1
from repro.experiments.common import (
    ExperimentSettings,
    clear_caches,
    functional_cache_key,
    functional_parts,
    prefetch_functional,
    run_benchmark,
    run_benchmarks,
    timing_cache_key,
)
from repro.faults.batch import subject_key
from repro.pipeline.config import Trigger
from repro.pipeline.result import PipelineResult
from repro.runtime import resilience
from repro.runtime.cache import cache_key
from repro.runtime.context import use_runtime
from repro.serve.client import RemoteStore
from repro.serve.server import AvfServer, ServeConfig
from repro.workloads.spec2000 import get_profile

SETTINGS = ExperimentSettings(target_instructions=3000, seed=17)
PROFILES = [get_profile(name) for name in ("crafty", "mcf", "gap")]


@pytest.fixture(autouse=True)
def _clean():
    clear_caches()
    yield
    clear_caches()


def _fingerprint(run):
    """What the parts determine: program bytes, the baseline run, and
    the deadness classification."""
    return (cache_key(run.program),
            subject_key(run.program, run.execution),
            run.deadness.summary())


def _table1_text():
    return table1.format_result(table1.run(SETTINGS, PROFILES))


class TestWarmTable1:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_loads_no_functional_parts(self, tmp_path, jobs):
        with use_runtime(cache_dir=tmp_path, jobs=jobs):
            cold = _table1_text()
        clear_caches()
        with use_runtime(cache_dir=tmp_path, jobs=jobs) as context:
            warm = _table1_text()
            counters = dict(context.telemetry.counters)
        assert warm == cold
        assert counters.get("functional_loads", 0) == 0
        assert counters.get("functional_sims", 0) == 0
        assert counters.get("pipeline_sims", 0) == 0
        assert counters.get("timeline_loads", 0) == 0
        assert counters["timeline_store_hits"] == 3 * len(PROFILES)
        assert multiprocessing.active_children() == []

    def test_warm_parallel_pass_starts_no_pool(self, tmp_path,
                                               monkeypatch):
        """The parent answers every store hit itself: a warm Table 1 at
        ``jobs=2`` starts no worker pool and prints the serial table."""
        pools = []

        def counted(*args, **kwargs):
            pools.append(args)
            return ProcessPoolExecutor(*args, **kwargs)

        monkeypatch.setattr(resilience, "ProcessPoolExecutor", counted)
        with use_runtime(cache_dir=tmp_path, jobs=2):
            cold = _table1_text()
        assert len(pools) == 1
        clear_caches()
        with use_runtime(cache_dir=tmp_path):
            serial = _table1_text()
        clear_caches()
        with use_runtime(cache_dir=tmp_path, jobs=2) as context:
            warm = _table1_text()
            counters = dict(context.telemetry.counters)
        assert len(pools) == 1
        assert warm == serial == cold
        assert counters["timeline_store_hits"] == 3 * len(PROFILES)
        assert counters.get("timeline_loads", 0) == 0

    def test_parallel_runs_stay_deferred(self, tmp_path):
        with use_runtime(cache_dir=tmp_path):
            run_benchmarks(PROFILES, SETTINGS, Trigger.L1_MISS)
        clear_caches()
        with use_runtime(cache_dir=tmp_path, jobs=2) as context:
            runs = run_benchmarks(PROFILES, SETTINGS, Trigger.L1_MISS)
            assert all(run.loaded_parts is None for run in runs)
            runs[0].program
            assert context.telemetry.counters["functional_loads"] == 1

    def test_worker_loads_are_merged(self, tmp_path):
        # Functional entries only: every worker misses the timeline
        # store, loads its program's parts and sends them back.
        with use_runtime(cache_dir=tmp_path):
            prefetch_functional(PROFILES, SETTINGS)
        clear_caches()
        with use_runtime(cache_dir=tmp_path, jobs=2) as context:
            runs = run_benchmarks(PROFILES, SETTINGS, Trigger.NONE)
            counters = context.telemetry.counters
            assert counters["functional_loads"] == len(PROFILES)
            assert counters["functional_sims"] == 0
            assert all(run.loaded_parts is not None for run in runs)


class TestResolution:
    def test_deferred_parts_equal_the_simulated_ones(self, tmp_path):
        profile = PROFILES[0]
        with use_runtime(cache_dir=tmp_path):
            eager = run_benchmark(profile, SETTINGS, Trigger.L0_MISS)
            assert eager.loaded_parts is not None
            expected = _fingerprint(eager)
        clear_caches()
        with use_runtime(cache_dir=tmp_path) as context:
            lazy = run_benchmark(profile, SETTINGS, Trigger.L0_MISS)
            assert lazy.loaded_parts is None
            assert _fingerprint(lazy) == expected
            assert context.telemetry.counters["functional_loads"] == 1
        assert lazy.program is lazy.program
        assert lazy.execution is lazy.execution
        assert lazy.deadness is lazy.deadness

    def test_first_read_after_the_context_exits(self, tmp_path):
        profile = PROFILES[1]
        with use_runtime(cache_dir=tmp_path):
            expected = _fingerprint(run_benchmark(profile, SETTINGS))
        clear_caches()
        with use_runtime(cache_dir=tmp_path) as context:
            lazy = run_benchmark(profile, SETTINGS)
        # Resolved through the exited context's cache: a load, no sim.
        assert _fingerprint(lazy) == expected
        assert context.telemetry.counters["functional_loads"] == 1
        assert context.telemetry.counters["functional_sims"] == 0

    def test_without_a_cache_entry_the_parts_are_recomputed(self,
                                                            tmp_path):
        profile = PROFILES[2]
        with use_runtime(cache_dir=tmp_path) as context:
            expected = _fingerprint(run_benchmark(profile, SETTINGS))
            context.cache.path_for(
                functional_cache_key(profile, SETTINGS)).unlink()
        clear_caches()
        with use_runtime(cache_dir=tmp_path) as context:
            lazy = run_benchmark(profile, SETTINGS)
            assert context.telemetry.counters["timeline_store_hits"] == 1
            assert _fingerprint(lazy) == expected
            assert context.telemetry.counters["functional_sims"] == 1


    def test_a_row_form_entry_is_recomputed(self, tmp_path):
        """An entry holding a trace of row objects (the layout before the
        columnar trace) under the functional key is a wrong-shape entry:
        counted, recomputed and overwritten, never returned."""
        profile = PROFILES[0]
        with use_runtime(cache_dir=tmp_path):
            program, execution, deadness = functional_parts(profile,
                                                            SETTINGS)
        stale = dataclasses.replace(execution, trace=list(execution.trace))
        key = functional_cache_key(profile, SETTINGS)
        clear_caches()
        with use_runtime(cache_dir=tmp_path) as context:
            assert context.cache.put(key, (program, stale, deadness))
            parts = functional_parts(profile, SETTINGS)
            counters = context.telemetry.counters
            assert counters["cache_corrupt_entries"] == 1
            assert counters["functional_sims"] == 1
            assert counters["functional_loads"] == 0
            assert isinstance(parts[1].trace, Trace)
            assert parts[1].trace == execution.trace
        clear_caches()
        with use_runtime(cache_dir=tmp_path) as context:
            assert isinstance(functional_parts(profile, SETTINGS)[1].trace,
                              Trace)
            assert context.telemetry.counters["functional_loads"] == 1


class TestExhibitsThatReadParts:
    def test_figure1_warm_equals_cold(self, tmp_path):
        def text():
            return figure1.format_result(
                figure1.run(SETTINGS, benchmark="crafty", trials=60))

        with use_runtime(cache_dir=tmp_path):
            cold = text()
        clear_caches()
        with use_runtime(cache_dir=tmp_path) as context:
            warm = text()
            assert context.telemetry.counters["functional_loads"] == 1
        assert warm == cold

    def test_accounting_ablation_warm_equals_cold(self, tmp_path):
        def text():
            return ablations.format_result(
                ablations.accounting_policy(SETTINGS, PROFILES))

        with use_runtime(cache_dir=tmp_path):
            cold = text()
        clear_caches()
        with use_runtime(cache_dir=tmp_path) as context:
            warm = text()
            counters = context.telemetry.counters
            assert counters["functional_loads"] == len(PROFILES)
            assert counters["pipeline_sims"] == 0
        assert warm == cold


def _entry_path(context, profile, trigger=Trigger.NONE):
    return context.cache.path_for(timing_cache_key(
        profile, SETTINGS, SETTINGS.machine_for(profile, trigger)))


class TestDeferredTimeline:
    @pytest.mark.parametrize("exhibit", ["ablations", "occupancy"])
    def test_exhibits_that_read_pipelines_match(self, tmp_path, exhibit):
        def text():
            if exhibit == "ablations":
                return ablations.format_result(
                    ablations.accounting_policy(SETTINGS, PROFILES))
            return occupancy.format_result(occupancy.run(SETTINGS,
                                                         PROFILES))

        with use_runtime(cache_dir=tmp_path):
            cold = text()
        clear_caches()
        with use_runtime(cache_dir=tmp_path) as context:
            warm = text()
            counters = dict(context.telemetry.counters)
        assert warm == cold
        assert counters.get("pipeline_sims", 0) == 0
        # The accounting ablation integrates every run's timeline; the
        # occupancy decomposition reads only the reports.
        loads = counters["timeline_store_hits"] if exhibit == "ablations" \
            else 0
        assert counters.get("timeline_loads", 0) == loads

    def test_loaded_pipeline_is_the_simulated_one(self, tmp_path):
        profile = PROFILES[0]
        with use_runtime(cache_dir=tmp_path):
            expected = cache_key(run_benchmark(profile, SETTINGS).pipeline)
        clear_caches()
        with use_runtime(cache_dir=tmp_path) as context:
            run = run_benchmark(profile, SETTINGS)
            assert context.telemetry.counters.get("timeline_loads", 0) == 0
            assert cache_key(run.pipeline) == expected
            assert run.pipeline is run.pipeline
            assert context.telemetry.counters["timeline_loads"] == 1

    def test_a_whole_pickled_entry_still_loads(self, tmp_path):
        """An entry written as one ``(pipeline, report)`` pickle (the
        layout before split entries) is a hit, pipeline included."""
        profile = PROFILES[1]
        with use_runtime(cache_dir=tmp_path) as context:
            cold = run_benchmark(profile, SETTINGS)
            expected = cache_key(cold.pipeline)
            assert context.cache.put(
                timing_cache_key(profile, SETTINGS, cold.machine),
                (cold.pipeline, cold.report))
        clear_caches()
        with use_runtime(cache_dir=tmp_path) as context:
            run = run_benchmark(profile, SETTINGS)
            assert cache_key(run.pipeline) == expected
            assert run.report == cold.report
            counters = context.telemetry.counters
            assert counters["timeline_store_hits"] == 1
            assert counters.get("pipeline_sims", 0) == 0
            assert counters.get("cache_corrupt_entries", 0) == 0

    @pytest.mark.parametrize("damage", ["truncate", "delete"])
    def test_a_lost_timeline_is_simulated_again(self, tmp_path, damage):
        """The report decodes but the pipeline result does not (the file
        was cut short, or removed after the report was read): the run
        counts a corrupt entry, simulates the same bytes and stores a
        whole entry again."""
        profile = PROFILES[2]
        with use_runtime(cache_dir=tmp_path):
            expected = cache_key(run_benchmark(profile, SETTINGS).pipeline)
        clear_caches()
        with use_runtime(cache_dir=tmp_path) as context:
            path = _entry_path(context, profile)
            if damage == "truncate":
                data = path.read_bytes()
                path.write_bytes(data[:len(data) - 64])
            run = run_benchmark(profile, SETTINGS)
            assert context.telemetry.counters["timeline_store_hits"] == 1
            if damage == "delete":
                path.unlink()
            assert cache_key(run.pipeline) == expected
            counters = dict(context.telemetry.counters)
        assert counters["cache_corrupt_entries"] == 1
        assert counters["pipeline_sims"] == 1
        assert counters.get("timeline_loads", 0) == 0
        clear_caches()
        with use_runtime(cache_dir=tmp_path) as context:
            assert cache_key(run_benchmark(profile, SETTINGS).pipeline) \
                == expected
            counters = context.telemetry.counters
            assert counters["timeline_loads"] == 1
            assert counters.get("cache_corrupt_entries", 0) == 0

    def test_the_service_store_sends_whole_entries(self, tmp_path):
        """``store.get`` of a split entry answers a :class:`RemoteStore`
        with the whole ``(pipeline, report)`` value."""
        profile = PROFILES[0]
        ready = threading.Event()
        box = {}

        def serve():
            async def main():
                server = AvfServer(ServeConfig(host="127.0.0.1", port=0))
                await server.start()
                box["server"] = server
                box["loop"] = asyncio.get_running_loop()
                ready.set()
                await server.wait_stopped()

            asyncio.run(main())

        with use_runtime(cache_dir=tmp_path):
            cold = run_benchmark(profile, SETTINGS)
            expected = cache_key(cold.pipeline)
            thread = threading.Thread(target=serve, daemon=True)
            thread.start()
            assert ready.wait(10)
            store = RemoteStore(f"127.0.0.1:{box['server'].port}",
                                timeout=5.0)
            try:
                value = store.get(timing_cache_key(profile, SETTINGS,
                                                   cold.machine))
            finally:
                store.close()
                asyncio.run_coroutine_threadsafe(
                    box["server"].stop(), box["loop"]).result(10)
                thread.join(10)
        pipeline, report = value
        assert isinstance(pipeline, PipelineResult)
        assert cache_key(pipeline) == expected
        assert report == cold.report
