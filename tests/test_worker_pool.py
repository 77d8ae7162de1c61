"""The runtime context's worker pool and the per-program strike subject.

One pool per context: every fan-out borrows it, breakage and watchdog
expiry replace it mid-context, and nothing outlives the context.
One subject per program per process: trial blocks and campaigns share
the program-level derivations, never a memo, so tallies and counters
are those of the one-block serial run.
"""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import replace
from functools import partial

import pytest

from repro.arch.executor import ExecutionLimits, FunctionalSimulator
from repro.due.tracking import EccScheme, TrackingLevel
from repro.experiments import common
from repro.experiments.common import (
    ExperimentSettings,
    clear_caches,
    prefetch_functional,
    run_benchmarks,
)
from repro.faults import batch, campaign
from repro.faults.batch import (
    SUBJECT_CACHE_ENTRIES,
    SubjectToken,
    local_subject,
    resolve_subject,
    subject_key,
)
from repro.faults.campaign import (
    CampaignConfig,
    execute_campaign,
    run_campaign,
)
from repro.isa.opcodes import Opcode
from repro.pipeline.config import Trigger
from repro.pipeline.core import PipelineSimulator
from repro.runtime.chaos import ChaosConfig, ChaosInjector
from repro.runtime.context import configure, reset_runtime, use_runtime
from repro.runtime import engine, resilience
from repro.runtime.resilience import (
    RetryPolicy,
    SubjectMismatch,
    WorkerPool,
)
from repro.runtime.telemetry import Telemetry
from repro.serve.protocol import canonical_dumps, encode_campaign
from repro.workloads.profile import BenchmarkProfile

from .conftest import TEST_SEED
from .helpers import I, program

FAST = RetryPolicy(retries=3, backoff_base=0.001, backoff_cap=0.002)

#: Pools whose workers start from a fresh interpreter.
_SPAWNED = partial(ProcessPoolExecutor,
                   mp_context=multiprocessing.get_context("spawn"))

#: Eight campaigns of one program: four protection points x two seeds.
EIGHT = [
    CampaignConfig(trials=24, seed=seed, **variant)
    for seed in (13, 14)
    for variant in (
        dict(),
        dict(parity=True),
        dict(parity=True, tracking=TrackingLevel.STORE_PI),
        dict(mbu_preset="terrestrial", scheme=EccScheme.SEC_DED),
    )
]

#: Counters that must not depend on blocking or scheduling.
_WORK_COUNTERS = ("oracle_", "batch_", "campaign_trials")


def _bytes(result) -> str:
    return canonical_dumps(encode_campaign(result))


def _work(telemetry: Telemetry) -> dict:
    return {name: count for name, count in telemetry.counters.items()
            if name.startswith(_WORK_COUNTERS)}


_SHARD_WORKER = campaign.shard_worker


def _refuse_last_block(subject, pipeline_result, config, start, stop,
                       chaos, cache_dir, attempt):
    """Shard worker whose process holds no subject for the last block of
    a 24-trial campaign: a pass that mixes merged blocks and a
    mismatch."""
    if subject.baseline is None and stop == 24:
        raise SubjectMismatch(f"no subject for [{start}, {stop})")
    return _SHARD_WORKER(subject, pipeline_result, config, start, stop,
                         chaos, cache_dir, attempt)


def _refuse_last_singles(subject, pipeline_result, config, start, stop,
                         chaos, cache_dir, attempt):
    """Shard worker that cannot resolve the slim token of the last trial
    of a 12-trial block when run alone: the quarantine pass mixes merged
    trials and a mismatch."""
    if subject.baseline is None and stop - start == 1 and stop % 12 == 0:
        raise SubjectMismatch(f"no subject for trial {start}")
    return _SHARD_WORKER(subject, pipeline_result, config, start, stop,
                         chaos, cache_dir, attempt)


@pytest.fixture(autouse=True)
def _clean():
    """Start and end every test with no subjects and no live workers."""
    clear_caches()
    yield
    clear_caches()


class _PoolStarts:
    """Counts the pools the supervisor starts; ``factory`` builds them."""

    def __init__(self) -> None:
        self.count = 0
        self.factory = ProcessPoolExecutor

    def __call__(self, *args, **kwargs):
        self.count += 1
        return self.factory(*args, **kwargs)


@pytest.fixture
def starts(monkeypatch):
    """Pools started during the test."""
    counter = _PoolStarts()
    monkeypatch.setattr(resilience, "ProcessPoolExecutor", counter)
    return counter


@pytest.fixture(scope="module")
def serial(small_program, small_execution, small_pipeline):
    """Serial reference bytes of every campaign the tests run."""
    clear_caches()
    with use_runtime():
        return [_bytes(run_campaign(small_program, small_execution,
                                    small_pipeline, config))
                for config in EIGHT]


class TestPoolLifetime:
    def test_eight_campaigns_share_one_pool(
            self, small_program, small_execution, small_pipeline, serial,
            starts):
        telemetry = Telemetry()
        with use_runtime(jobs=2, telemetry=telemetry):
            results = [_bytes(run_campaign(small_program, small_execution,
                                           small_pipeline, config))
                       for config in EIGHT]
            assert starts.count == 1
            assert multiprocessing.active_children()
        assert results == serial
        assert multiprocessing.active_children() == []
        with use_runtime():
            for config in EIGHT:
                run_campaign(small_program, small_execution, small_pipeline,
                             config)
        assert starts.count == 1

    def test_counters_match_serial(self, small_program, small_execution,
                                   small_pipeline):
        counters = {}
        for jobs in (1, 2):
            clear_caches()
            telemetry = Telemetry()
            with use_runtime(jobs=jobs, telemetry=telemetry):
                for config in EIGHT:
                    run_campaign(small_program, small_execution,
                                 small_pipeline, config)
            counters[jobs] = _work(telemetry)
        assert counters[1]["oracle_executions"] > 0
        assert counters[2] == counters[1]

    def test_replace_returns_after_the_manager_thread_exits(self):
        """A pool forked while the replaced pool's manager thread still
        runs can inherit that thread's lock held, and hang."""
        pool = WorkerPool(jobs=1)
        executor = pool.borrow(1)
        assert executor.submit(abs, -1).result() == 1
        manager = executor._executor_manager_thread
        pool.replace(executor)
        assert not manager.is_alive()

    def test_clear_caches_stops_the_workers(
            self, small_program, small_execution, small_pipeline, serial,
            starts):
        with use_runtime(jobs=2):
            run_campaign(small_program, small_execution, small_pipeline,
                         EIGHT[0])
            assert multiprocessing.active_children()
            clear_caches()
            assert multiprocessing.active_children() == []
            again = run_campaign(small_program, small_execution,
                                 small_pipeline, EIGHT[0])
            assert starts.count == 2
        assert _bytes(again) == serial[0]

    def test_configure_replacement_stops_the_workers(
            self, small_program, small_execution, small_pipeline, starts):
        try:
            configure(jobs=2)
            run_campaign(small_program, small_execution, small_pipeline,
                         EIGHT[0])
            assert starts.count == 1
            assert multiprocessing.active_children()
            configure(jobs=2)
            assert multiprocessing.active_children() == []
        finally:
            reset_runtime()
        assert multiprocessing.active_children() == []

    def test_spawned_workers_need_no_fork_inheritance(
            self, small_program, small_execution, small_pipeline, serial,
            starts):
        """Workers that inherit nothing from the parent derive the same
        subjects and tallies: the pool works under any start method."""
        starts.factory = _SPAWNED
        telemetry = Telemetry()
        with use_runtime(jobs=2, telemetry=telemetry):
            results = [_bytes(run_campaign(small_program, small_execution,
                                           small_pipeline, config))
                       for config in EIGHT[:2]]
            assert starts.count == 1
        assert results == serial[:2]
        assert "baselines_shipped" not in telemetry.counters
        assert multiprocessing.active_children() == []

    def test_killed_worker_rebuilds_the_pool_mid_context(
            self, small_program, small_execution, small_pipeline, serial,
            starts):
        chaos = ChaosConfig(modes=("kill-worker",), seed=5, kill_prob=1.0)
        telemetry = Telemetry()
        with use_runtime(jobs=2, policy=FAST, chaos=chaos,
                         telemetry=telemetry) as context:
            killed = run_campaign(small_program, small_execution,
                                  small_pipeline, EIGHT[1])
            assert telemetry.counters["workers_lost"] >= 1
            rebuilt = starts.count
            assert rebuilt >= 2
            context.chaos = None
            after = run_campaign(small_program, small_execution,
                                 small_pipeline, EIGHT[2])
            assert starts.count == rebuilt
        assert _bytes(killed) == serial[1]
        assert _bytes(after) == serial[2]
        assert multiprocessing.active_children() == []

    def test_hung_trial_rebuilds_the_pool_mid_context(
            self, small_program, small_execution, small_pipeline, serial,
            starts):
        config = EIGHT[0]
        seed = next(s for s in range(5000) if len([
            i for i in range(config.trials)
            if ChaosInjector(ChaosConfig(
                modes=("delay-trial",), seed=s, delay_prob=0.05)
            ).decide(0.05, "delay", "trial", i)]) == 1)
        chaos = ChaosConfig(modes=("delay-trial",), seed=seed,
                            delay_prob=0.05, delay_seconds=5.0)
        policy = replace(FAST, retries=0, trial_timeout=0.25)
        telemetry = Telemetry()
        with use_runtime(jobs=2, policy=policy, chaos=chaos,
                         telemetry=telemetry) as context:
            hung = run_campaign(small_program, small_execution,
                                small_pipeline, config)
            assert len(hung.completeness.quarantined) == 1
            assert telemetry.counters["trial_timeouts"] >= 1
            rebuilt = starts.count
            assert rebuilt >= 2
            context.chaos = None
            after = run_campaign(small_program, small_execution,
                                 small_pipeline, EIGHT[3])
            assert starts.count == rebuilt
        assert _bytes(after) == serial[3]
        assert multiprocessing.active_children() == []


    def test_concurrent_fan_outs_do_not_share_breakage(
            self, small_program, small_execution, small_pipeline):
        """Two threads' campaigns (a server's compute threads) take the
        pool in turn: workers killed under one never cost the other an
        attempt, and a watchdog clock never runs while a shard waits."""
        policy = replace(FAST, trial_timeout=2.0)
        kill = ChaosConfig(modes=("kill-worker",), seed=5, kill_prob=1.0)
        plans = {"killed": (EIGHT[1], kill), "innocent": (EIGHT[2], None)}
        with use_runtime():
            serial = {name: run_campaign(small_program, small_execution,
                                         small_pipeline, config)
                      for name, (config, _) in plans.items()}

        def campaign(config, chaos):
            telemetry = Telemetry()
            (counts, misses), report, _ = execute_campaign(
                small_program, small_execution, small_pipeline, config, 2,
                policy=policy, telemetry=telemetry, chaos=chaos)
            return counts, misses, report, telemetry.counters

        with use_runtime(jobs=2, policy=policy):
            with ThreadPoolExecutor(max_workers=2) as threads:
                futures = {name: threads.submit(campaign, *plan)
                           for name, plan in plans.items()}
                runs = {name: future.result()
                        for name, future in futures.items()}
        for name, (counts, misses, report, _) in runs.items():
            assert counts == serial[name].counts
            assert misses == serial[name].tracker_misses
            assert report.complete
        assert runs["killed"][2].retries >= 1
        innocent = runs["innocent"]
        assert innocent[2].retries == 0
        assert "workers_lost" not in innocent[3]
        assert "trial_timeouts" not in innocent[3]
        assert multiprocessing.active_children() == []

    def test_every_shard_reports_its_watchdog_start(
            self, small_program, small_execution, small_pipeline, serial,
            monkeypatch, tmp_path):
        """Four workers on two cores share one start pipe: each of the
        twelve checkpoint blocks reports its ticket once, intact."""
        reported = []
        started = resilience.WorkerPool.started

        def record(pool):
            tickets = started(pool)
            reported.extend(tickets)
            return tickets

        monkeypatch.setattr(resilience.WorkerPool, "started", record)
        telemetry = Telemetry()
        with use_runtime(jobs=4, policy=replace(FAST, trial_timeout=5.0),
                         telemetry=telemetry, checkpoint_dir=tmp_path):
            result = run_campaign(small_program, small_execution,
                                  small_pipeline, EIGHT[0])
        assert _bytes(result) == serial[0]
        assert telemetry.counters["checkpoint_writes"] == 12
        assert len(reported) == len(set(reported)) == 12
        assert "trial_timeouts" not in telemetry.counters
        assert multiprocessing.active_children() == []


def _tiny_profile(name: str) -> BenchmarkProfile:
    return BenchmarkProfile(name=name, suite="int", body_items=60,
                            w_noop=20.0, fetch_bubble_prob=0.25, seed_salt=7)


class TestFanOutTasksStartClean:
    def test_benchmark_counters_do_not_depend_on_earlier_tasks(
            self, starts):
        """A second fan-out on the same pool computes, and counts, what
        the first did: workers forget their earlier tasks' memos."""
        profiles = [_tiny_profile("clean-a"), _tiny_profile("clean-b")]
        settings = ExperimentSettings(target_instructions=2000)
        telemetry = Telemetry()
        with use_runtime(jobs=2, telemetry=telemetry):
            first = run_benchmarks(profiles, settings, Trigger.NONE)
            once = dict(telemetry.counters)
            common._run_cache.clear()
            common._functional_cache.clear()
            second = run_benchmarks(profiles, settings, Trigger.NONE)
            assert starts.count == 1
        twice = telemetry.counters
        for name in ("pipeline_sims", "functional_sims"):
            assert once[name] == len(profiles)
            assert twice[name] == 2 * once[name]
        assert [r.report.ipc for r in first] == \
            [r.report.ipc for r in second]

    def test_a_task_forgets_the_task_before_it(self):
        """Run in one process, as a long-lived worker would, the second
        benchmark task simulates and counts everything the first did."""
        profile = _tiny_profile("clean-e")
        settings = ExperimentSettings(target_instructions=2000)
        args = (profile, settings, Trigger.NONE, None, None, None, None,
                None, 0)
        with use_runtime():
            first = engine._benchmark_task(*args)
            second = engine._benchmark_task(*args)
            parts = [engine._functional_task(profile, settings, None, None,
                                             0)[1] for _ in range(2)]
        for name in ("pipeline_sims", "functional_sims"):
            assert first[1][name] == second[1][name] == 1
        assert [counters["functional_sims"] for counters in parts] == [1, 1]
        assert first[0][2] == second[0][2]

    def test_later_triggers_reuse_the_parents_functional_parts(self):
        """Each program is simulated functionally once across a run's
        trigger fan-outs, as with workers forked from the parent: the
        parent's parts travel with the benchmark tasks."""
        profiles = [_tiny_profile("clean-f"), _tiny_profile("clean-g")]
        settings = ExperimentSettings(target_instructions=2000)
        telemetry = Telemetry()
        with use_runtime(jobs=2, telemetry=telemetry):
            runs = {trigger: run_benchmarks(profiles, settings, trigger)
                    for trigger in (Trigger.NONE, Trigger.L1_MISS)}
        assert telemetry.counters["functional_sims"] == len(profiles)
        assert telemetry.counters["pipeline_sims"] == 2 * len(profiles)
        clear_caches()
        with use_runtime():
            for trigger, parallel in runs.items():
                serial = run_benchmarks(profiles, settings, trigger)
                assert [r.report for r in parallel] == \
                    [r.report for r in serial]

    def test_functional_counters_do_not_depend_on_earlier_tasks(self):
        profiles = [_tiny_profile("clean-c"), _tiny_profile("clean-d")]
        settings = ExperimentSettings(target_instructions=2000)
        telemetry = Telemetry()
        with use_runtime(jobs=2, telemetry=telemetry):
            prefetch_functional(profiles, settings)
            common._functional_cache.clear()
            prefetch_functional(profiles, settings)
        assert telemetry.counters["functional_sims"] == 2 * len(profiles)


class TestStrikeSubject:
    def test_checkpoint_blocks_derive_deadness_once(
            self, small_program, small_execution, small_pipeline,
            monkeypatch, tmp_path):
        """Four checkpoint blocks share one subject: one deadness
        analysis, and the tallies and counters of the one-block run."""
        config = CampaignConfig(trials=200, seed=7, parity=True)
        calls = []
        analyze = batch.analyze_deadness

        def counted(baseline):
            calls.append(baseline)
            return analyze(baseline)

        monkeypatch.setattr(batch, "analyze_deadness", counted)
        runs = {}
        for label, settings in (("one", {}),
                                ("four", {"checkpoint_dir": tmp_path})):
            clear_caches()
            calls.clear()
            telemetry = Telemetry()
            with use_runtime(telemetry=telemetry, **settings):
                result = run_campaign(small_program, small_execution,
                                      small_pipeline, config)
            runs[label] = (result, _work(telemetry), len(calls),
                           telemetry.counters.get("checkpoint_writes", 0))
        (one, one_work, one_calls, _), (four, four_work, four_calls,
                                        writes) = runs["one"], runs["four"]
        assert writes == 4
        assert one_calls == four_calls == 1
        assert four.counts == one.counts
        assert four.tracker_misses == one.tracker_misses
        assert four_work == one_work
        assert one_work["oracle_executions"] > 0

    def test_subject_cache_is_bounded(self):
        programs = [program([I(Opcode.MOVI, r1=1, imm=value),
                             I(Opcode.OUT, r2=1), I(Opcode.HALT)])
                    for value in range(SUBJECT_CACHE_ENTRIES + 3)]
        subjects = [local_subject(prog, FunctionalSimulator(prog).run())
                    for prog in programs]
        assert list(batch._SUBJECTS.values()) == \
            subjects[-SUBJECT_CACHE_ENTRIES:]
        newest = subjects[-1]
        assert local_subject(newest.program, newest.baseline) is newest

    def test_slim_token_rederives_the_same_baseline(
            self, small_program, small_execution):
        token = SubjectToken(subject_key(small_program, small_execution),
                             small_program)
        subject = resolve_subject(token)
        assert subject.baseline is not small_execution
        assert subject_key(small_program, subject.baseline) == token.key
        assert resolve_subject(token) is subject


class TestBaselineFidelity:
    @pytest.fixture(scope="class")
    def truncated(self, small_program, small_execution, base_machine):
        """A baseline that is not the program's own run: cut short."""
        baseline = FunctionalSimulator(
            small_program,
            ExecutionLimits(max_instructions=len(small_execution.trace) // 2),
        ).run()
        pipeline = PipelineSimulator(small_program, baseline.trace,
                                     base_machine, seed=TEST_SEED).run()
        return baseline, pipeline

    def test_slim_token_refuses_a_different_baseline(
            self, small_program, truncated):
        baseline, _ = truncated
        token = SubjectToken(subject_key(small_program, baseline),
                             small_program)
        with pytest.raises(SubjectMismatch, match=small_program.name):
            resolve_subject(token)

    def test_parallel_campaign_uses_the_callers_baseline(
            self, small_program, small_execution, small_pipeline, truncated):
        baseline, pipeline = truncated
        assert subject_key(small_program, baseline) != \
            subject_key(small_program, small_execution)
        config = CampaignConfig(trials=40, seed=3, parity=True)
        with use_runtime():
            reference = run_campaign(small_program, baseline, pipeline,
                                     config)
        clear_caches()
        telemetry = Telemetry()
        with use_runtime(jobs=2, policy=FAST, telemetry=telemetry):
            # Start the workers first, so none holds the truncated
            # baseline's subject and every shard must re-derive it.
            run_campaign(small_program, small_execution, small_pipeline,
                         EIGHT[0])
            assert "baselines_shipped" not in telemetry.counters
            parallel = run_campaign(small_program, baseline, pipeline,
                                    config)
        assert telemetry.counters["baselines_shipped"] == 1
        assert _bytes(parallel) == _bytes(reference)

    def test_spawned_workers_holding_some_subjects(
            self, small_program, truncated, starts):
        """A second campaign on the truncated baseline meets spawned
        workers that hold its subject (shipped to them by the first) and
        may meet workers that do not; its tallies stay the serial ones
        whichever worker ran which block."""
        baseline, pipeline = truncated
        configs = [CampaignConfig(trials=40, seed=seed, parity=True)
                   for seed in (3, 4)]
        with use_runtime():
            reference = [_bytes(run_campaign(small_program, baseline,
                                             pipeline, config))
                         for config in configs]
        clear_caches()
        starts.factory = _SPAWNED
        with use_runtime(jobs=2, policy=FAST):
            first = run_campaign(small_program, baseline, pipeline,
                                 configs[0])
            second = run_campaign(small_program, baseline, pipeline,
                                  configs[1])
            assert starts.count >= 1
        assert [_bytes(first), _bytes(second)] == reference

    def test_mixed_pass_merges_each_block_once(
            self, small_program, small_execution, small_pipeline, serial,
            monkeypatch, tmp_path):
        """Blocks merged before a SubjectMismatch are not run again: the
        retry ships the baseline to the unmerged blocks only."""
        monkeypatch.setattr(campaign, "shard_worker", _refuse_last_block)
        telemetry = Telemetry()
        with use_runtime(jobs=2, policy=FAST, telemetry=telemetry,
                         checkpoint_dir=tmp_path):
            result = run_campaign(small_program, small_execution,
                                  small_pipeline, EIGHT[0])
        assert _bytes(result) == serial[0]
        assert telemetry.counters["baselines_shipped"] == 1
        assert telemetry.counters["checkpoint_writes"] == 8

    def test_mixed_quarantine_pass_merges_each_trial_once(
            self, small_program, small_execution, small_pipeline,
            monkeypatch):
        """The single-trial quarantine pass recovers from a mismatch the
        same way, and quarantines exactly the serial run's trials."""
        config = EIGHT[1]
        seed = next(s for s in range(5000) if 1 <= len(ChaosInjector(
            ChaosConfig(modes=("poison-trial",), seed=s, poison_prob=0.05)
        ).poisoned_trials(config.trials)) <= 2)
        chaos = ChaosConfig(modes=("poison-trial",), seed=seed,
                            poison_prob=0.05)
        with use_runtime(policy=FAST, chaos=chaos):
            reference = run_campaign(small_program, small_execution,
                                     small_pipeline, config)
        assert reference.completeness.quarantined
        monkeypatch.setattr(campaign, "shard_worker",
                            _refuse_last_singles)
        telemetry = Telemetry()
        with use_runtime(jobs=2, policy=FAST, chaos=chaos,
                         telemetry=telemetry):
            result = run_campaign(small_program, small_execution,
                                  small_pipeline, config)
        assert telemetry.counters["baselines_shipped"] == 1
        assert result.counts == reference.counts
        assert result.tracker_misses == reference.tracker_misses
        assert result.completeness.quarantined == \
            reference.completeness.quarantined
