"""A run the timeline store answers defers its functional parts.

Table 1 reads only ``run.report``; a warm Table 1 must load no program,
trace or deadness analysis, serially or at ``jobs=2``. Exhibits that do
read the parts resolve them on first access to the same bytes the
simulating run holds.
"""

import dataclasses
import multiprocessing

import pytest

from repro.arch.trace import Trace
from repro.experiments import ablations, figure1, table1
from repro.experiments.common import (
    ExperimentSettings,
    clear_caches,
    functional_cache_key,
    functional_parts,
    prefetch_functional,
    run_benchmark,
    run_benchmarks,
)
from repro.faults.batch import subject_key
from repro.pipeline.config import Trigger
from repro.runtime.cache import cache_key
from repro.runtime.context import use_runtime
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
        assert counters["timeline_store_hits"] == 3 * len(PROFILES)
        assert multiprocessing.active_children() == []

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
