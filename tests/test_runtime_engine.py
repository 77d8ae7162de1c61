"""Golden equivalence tests: parallel execution is bit-identical to serial.

These pin the core determinism contract of the runtime engine: for any
worker count, campaign tallies (outcome counters, AVF estimates,
confidence intervals) and experiment results (IPC, AVF reports) match the
serial path exactly.
"""

import pytest

from repro.due.outcomes import FaultOutcome
from repro.due.tracking import TrackingLevel
from repro.experiments.common import (
    ExperimentSettings,
    clear_caches,
    close_remote_stores,
    prefetch_functional,
    run_benchmarks,
)
from repro.faults.campaign import CampaignConfig, run_campaign
from repro.pipeline.config import Trigger
from repro.runtime.context import use_runtime
from repro.serve.protocol import canonical_dumps, encode_benchmark
from repro.workloads.profile import BenchmarkProfile

_CAMPAIGN_VARIANTS = [
    pytest.param(dict(parity=False, tracking=TrackingLevel.PARITY_ONLY),
                 id="unprotected"),
    pytest.param(dict(parity=True, tracking=TrackingLevel.PARITY_ONLY),
                 id="parity"),
    pytest.param(dict(parity=True, tracking=TrackingLevel.MEM_PI),
                 id="tracked"),
]


def _tiny_profile(name: str, **overrides) -> BenchmarkProfile:
    defaults = dict(suite="int", body_items=60, w_noop=20.0,
                    w_branch_rand=2.0, fetch_bubble_prob=0.25, seed_salt=7)
    defaults.update(overrides)
    return BenchmarkProfile(name=name, **defaults)


class TestCampaignEquivalence:
    @pytest.mark.parametrize("variant", _CAMPAIGN_VARIANTS)
    def test_jobs_1_2_4_identical(self, variant, small_program,
                                  small_execution, small_pipeline):
        config = CampaignConfig(trials=45, seed=13, **variant)
        results = {
            jobs: run_campaign(small_program, small_execution,
                               small_pipeline, config, jobs=jobs)
            for jobs in (1, 2, 4)
        }
        reference = results[1]
        for jobs, result in results.items():
            assert result.counts == reference.counts, f"jobs={jobs}"
            assert result.tracker_misses == reference.tracker_misses
            assert result.trials == config.trials
            for outcome in FaultOutcome:
                assert result.rate(outcome) == reference.rate(outcome)
                assert result.rate_confidence(outcome) == \
                    reference.rate_confidence(outcome)
            assert result.sdc_avf_estimate == reference.sdc_avf_estimate
            assert result.due_avf_estimate == reference.due_avf_estimate

    def test_context_jobs_used_when_not_passed(self, small_program,
                                               small_execution,
                                               small_pipeline):
        config = CampaignConfig(trials=30, seed=21, parity=True)
        serial = run_campaign(small_program, small_execution, small_pipeline,
                              config, jobs=1)
        with use_runtime(jobs=2):
            parallel = run_campaign(small_program, small_execution,
                                    small_pipeline, config)
        assert parallel.counts == serial.counts

    def test_telemetry_counts_trials(self, small_program, small_execution,
                                     small_pipeline):
        config = CampaignConfig(trials=20, seed=4)
        with use_runtime(jobs=2) as context:
            run_campaign(small_program, small_execution, small_pipeline,
                         config)
            assert context.telemetry.counters["campaign_trials"] == 20
            assert context.telemetry.spans["campaign"] > 0.0
            workers = [t for t in context.telemetry.worker_timings
                       if t.label == "campaign"]
            assert sum(t.items for t in workers) == 20


class TestExperimentEquivalence:
    @pytest.mark.parametrize("trigger", [Trigger.NONE, Trigger.L1_MISS])
    def test_run_benchmarks_parallel_matches_serial(self, trigger):
        profiles = [_tiny_profile("eq-a"), _tiny_profile("eq-b", suite="fp"),
                    _tiny_profile("eq-c", w_cold_load=1.2)]
        settings = ExperimentSettings(target_instructions=2500)
        clear_caches()
        serial = run_benchmarks(profiles, settings, trigger, jobs=1)
        clear_caches()
        parallel = run_benchmarks(profiles, settings, trigger, jobs=2)
        clear_caches()
        for left, right in zip(serial, parallel):
            assert left.pipeline.cycles == right.pipeline.cycles
            assert left.pipeline.committed == right.pipeline.committed
            assert left.report.ipc == right.report.ipc
            assert left.report.sdc_avf == right.report.sdc_avf
            assert left.report.due_avf == right.report.due_avf
            assert left.report.false_due_avf == right.report.false_due_avf
            assert [i.encode() for i in left.program.instructions] == \
                [i.encode() for i in right.program.instructions]

    def test_prefetch_functional_parallel_matches_serial(self):
        profiles = [_tiny_profile("pf-a"), _tiny_profile("pf-b", w_mul=6.0)]
        settings = ExperimentSettings(target_instructions=2500)
        clear_caches()
        serial = prefetch_functional(profiles, settings, jobs=1)
        clear_caches()
        parallel = prefetch_functional(profiles, settings, jobs=2)
        clear_caches()
        for (p1, e1, d1), (p2, e2, d2) in zip(serial, parallel):
            assert [i.encode() for i in p1.instructions] == \
                [i.encode() for i in p2.instructions]
            assert e1.output_signature() == e2.output_signature()
            assert len(e1.trace) == len(e2.trace)

    def test_parallel_results_are_memoised(self):
        profiles = [_tiny_profile("memo-a"), _tiny_profile("memo-b")]
        settings = ExperimentSettings(target_instructions=2500)
        clear_caches()
        with use_runtime(jobs=2) as context:
            first = run_benchmarks(profiles, settings, Trigger.NONE)
            sims = context.telemetry.counters["pipeline_sims"]
            assert sims == len(profiles)
            second = run_benchmarks(profiles, settings, Trigger.NONE)
            assert context.telemetry.counters["pipeline_sims"] == sims
        clear_caches()
        assert [r.report.ipc for r in first] == \
            [r.report.ipc for r in second]

    def test_parallel_table1_reuses_warm_snapshots(self):
        """Pool workers keep their warm-hierarchy snapshots across tasks:
        Table 1 at jobs=2 matches serial byte for byte, and some profile
        restores the warm state a worker built under another trigger
        (each of 4 profiles runs 3 times on 2 workers)."""
        from repro.experiments import table1
        from repro.pipeline.core import clear_warm_snapshots

        profiles = [_tiny_profile(f"warm-{c}") for c in "abcd"]
        settings = ExperimentSettings(target_instructions=2000)
        clear_caches()
        clear_warm_snapshots()
        with use_runtime():
            serial = table1.format_result(table1.run(settings, profiles))
        clear_caches()
        clear_warm_snapshots()
        with use_runtime(jobs=2) as context:
            parallel = table1.format_result(table1.run(settings, profiles))
            misses = context.telemetry.counters["warm_hierarchy_misses"]
        clear_caches()
        assert parallel == serial
        assert 0 < misses < 3 * len(profiles)

    def test_parallel_workers_use_the_service_store(self, tmp_path):
        """Workers consult the context's remote timeline store too: with
        the service down, every parallel run records its failed lookup
        (merged into the parent's counters) and degrades to a local
        compute byte-identical to the serial, service-less run."""
        profiles = [_tiny_profile("svc-a"), _tiny_profile("svc-b"),
                    _tiny_profile("svc-c", w_cold_load=1.2)]
        settings = ExperimentSettings(target_instructions=2000)
        clear_caches()
        with use_runtime():
            serial = [canonical_dumps(encode_benchmark(run)) for run in
                      run_benchmarks(profiles, settings, Trigger.NONE)]
        clear_caches()
        with use_runtime(jobs=2, service="127.0.0.1:1",
                         service_timeout=2.0) as context:
            parallel = [canonical_dumps(encode_benchmark(run)) for run in
                        run_benchmarks(profiles, settings, Trigger.NONE)]
            counters = context.telemetry.counters
        close_remote_stores()
        clear_caches()
        assert parallel == serial
        remote = sum(count for name, count in counters.items()
                     if name.startswith("remote_store_"))
        assert remote > 0
        assert counters["remote_store_errors"] > 0
