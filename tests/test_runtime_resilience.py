"""Golden-equivalence tests for the supervised campaign runtime.

The acceptance bar for the resilience layer: a campaign run under
injected faults — worker kills, transient and deterministic trial
crashes, hung trials, corrupted cache/checkpoint files, and an
interrupt/resume cycle — must produce tallies bit-identical to the
fault-free serial run (minus explicitly quarantined trials, which are
reported, never silently dropped).
"""

from collections import Counter

import json
import time

import pytest

from repro.faults.campaign import CampaignConfig, run_campaign, run_trial_block
from repro.runtime.chaos import ChaosConfig, ChaosInjector
from repro.runtime import resilience
from repro.runtime.context import use_runtime
from repro.runtime.resilience import (
    CampaignInterrupted,
    ResultInvalid,
    RetryPolicy,
    SupervisedTask,
    Supervisor,
)
from repro.runtime.telemetry import Telemetry

CONFIG = CampaignConfig(trials=36, seed=13)

#: Tiny backoff so retry storms cost microseconds, not test time.
FAST = RetryPolicy(retries=3, backoff_base=0.001, backoff_cap=0.002)


def _find_seed(predicate, limit=5000):
    """Smallest chaos seed whose deterministic decisions fit the scenario."""
    for seed in range(limit):
        if predicate(seed):
            return seed
    raise AssertionError("no chaos seed satisfies the test scenario")


def _block_counts(program, baseline, pipeline, config, indices):
    """Fault-free tallies for a set of trial indices (the oracle)."""
    counts, misses = Counter(), 0
    for index in indices:
        c, m = run_trial_block(program, baseline, pipeline, config,
                               index, index + 1)
        counts.update(c)
        misses += m
    return counts, misses


_INIT_WORKER = resilience._init_worker


def _slow_start(start_pipe) -> None:
    """Pool initializer slower than a single trial's budget plus the
    flat allowance deadlines used to carry (0.25 s + 1 s)."""
    time.sleep(1.5)
    _INIT_WORKER(start_pipe)


@pytest.fixture(scope="module")
def reference(small_program, small_execution, small_pipeline):
    """The fault-free serial campaign every chaos run must reproduce."""
    with use_runtime():
        return run_campaign(small_program, small_execution, small_pipeline,
                            CONFIG)


class TestGoldenEquivalence:
    def test_clean_run_reports_complete(self, reference):
        report = reference.completeness
        assert report is not None and report.complete
        assert report.retries == 0 and report.quarantined == ()
        assert report.confidence_widening == pytest.approx(1.0)
        assert report.format().startswith(
            "campaign completeness: 36/36 trials")
        # A failure-free telemetry summary stays quiet about resilience.
        assert "resilience" not in Telemetry().format_summary()

    def test_worker_kills_and_transient_faults(
            self, small_program, small_execution, small_pipeline, reference):
        """kill-worker + raise-trial + delay-trial across 2 workers: every
        shard dies at least once, yet tallies match the serial run."""
        chaos = ChaosConfig(
            modes=("kill-worker", "raise-trial", "delay-trial"), seed=99,
            kill_prob=1.0, raise_prob=0.2, delay_prob=0.2,
            delay_seconds=0.001)
        telemetry = Telemetry()
        with use_runtime(jobs=2, telemetry=telemetry, policy=FAST,
                         chaos=chaos):
            result = run_campaign(small_program, small_execution,
                                  small_pipeline, CONFIG)
        assert result.counts == reference.counts
        assert result.tracker_misses == reference.tracker_misses
        assert result.completeness.complete
        assert result.completeness.retries >= 1
        assert telemetry.counters["workers_lost"] >= 1
        assert telemetry.counters["retries"] >= 1
        summary = telemetry.format_summary(jobs=2)
        assert "resilience:" in summary and "workers lost" in summary

    def test_serial_transient_crash_recovers_exactly(
            self, small_program, small_execution, small_pipeline, reference):
        chaos = ChaosConfig(modes=("raise-trial",), seed=1, raise_prob=1.0)
        telemetry = Telemetry()
        with use_runtime(jobs=1, telemetry=telemetry, policy=FAST,
                         chaos=chaos):
            result = run_campaign(small_program, small_execution,
                                  small_pipeline, CONFIG)
        assert result.counts == reference.counts
        assert result.tracker_misses == reference.tracker_misses
        # Deterministic accounting: the single serial shard crashes once
        # (at trial 0, attempt 0) and succeeds on its first retry.
        assert telemetry.counters["trial_crashes"] == 1
        assert telemetry.counters["retries"] == 1
        assert result.completeness.retries == 1


class TestQuarantine:
    def test_poisoned_trials_are_quarantined_not_skewed(
            self, small_program, small_execution, small_pipeline, reference,
            tmp_path):
        seed = _find_seed(lambda s: 2 <= len(ChaosInjector(
            ChaosConfig(modes=("poison-trial",), seed=s, poison_prob=0.08)
        ).poisoned_trials(CONFIG.trials)) <= 5)
        chaos = ChaosConfig(modes=("poison-trial",), seed=seed,
                            poison_prob=0.08)
        poisoned = ChaosInjector(chaos).poisoned_trials(CONFIG.trials)
        telemetry = Telemetry()
        with use_runtime(jobs=1, telemetry=telemetry, policy=FAST,
                         chaos=chaos, cache_dir=tmp_path) as runtime:
            result = run_campaign(small_program, small_execution,
                                  small_pipeline, CONFIG)

        report = result.completeness
        assert report.degraded and not report.complete
        assert report.quarantined == poisoned
        assert result.trials == CONFIG.trials - len(poisoned)
        assert report.confidence_widening > 1.0

        # Surviving tallies are exactly the reference minus the poisoned
        # trials' outcomes: quarantine removes samples, never skews them.
        lost_counts, lost_misses = _block_counts(
            small_program, small_execution, small_pipeline, CONFIG, poisoned)
        expected = reference.counts.copy()
        expected.subtract(lost_counts)
        assert +expected == +result.counts
        assert result.tracker_misses == reference.tracker_misses - lost_misses

        # Degraded tallies must never enter the persistent cache.
        assert runtime.cache.puts == 0
        assert telemetry.counters["quarantined_trials"] == len(poisoned)
        assert telemetry.counters["campaigns_degraded"] == 1
        summary = telemetry.format_summary(cache=runtime.cache, jobs=1)
        assert "quarantined" in summary and "[degraded]" in summary

    def test_hung_trial_is_timed_out_and_quarantined(
            self, small_program, small_execution, small_pipeline):
        config = CampaignConfig(trials=12, seed=13)
        seed = _find_seed(lambda s: len([
            i for i in range(config.trials)
            if ChaosInjector(ChaosConfig(
                modes=("delay-trial",), seed=s, delay_prob=0.1)
            ).decide(0.1, "delay", "trial", i)]) == 1)
        chaos = ChaosConfig(modes=("delay-trial",), seed=seed,
                            delay_prob=0.1, delay_seconds=5.0)
        injector = ChaosInjector(chaos)
        (hung,) = [i for i in range(config.trials)
                   if injector.decide(0.1, "delay", "trial", i)]
        policy = RetryPolicy(retries=0, backoff_base=0.001,
                             backoff_cap=0.002, trial_timeout=0.25)
        telemetry = Telemetry()
        with use_runtime(jobs=2, telemetry=telemetry, policy=policy,
                         chaos=chaos):
            result = run_campaign(small_program, small_execution,
                                  small_pipeline, config)

        assert result.completeness.quarantined == (hung,)
        # Once for the shard, once for the isolated single trial.
        assert telemetry.counters["trial_timeouts"] >= 2

        survivors = [i for i in range(config.trials) if i != hung]
        expected, expected_misses = _block_counts(
            small_program, small_execution, small_pipeline, config,
            survivors)
        assert +result.counts == +expected
        assert result.tracker_misses == expected_misses


    def test_slow_worker_start_up_quarantines_no_innocent_trial(
            self, small_program, small_execution, small_pipeline,
            monkeypatch):
        """Every pool, the ones rebuilt after the hang included, takes
        1.5 s to start: the watchdog clock starts when a shard has
        derived its subject, so only the hung trial is charged."""
        monkeypatch.setattr(resilience, "_init_worker", _slow_start)
        config = CampaignConfig(trials=12, seed=13)
        seed = _find_seed(lambda s: len([
            i for i in range(config.trials)
            if ChaosInjector(ChaosConfig(
                modes=("delay-trial",), seed=s, delay_prob=0.1)
            ).decide(0.1, "delay", "trial", i)]) == 1)
        chaos = ChaosConfig(modes=("delay-trial",), seed=seed,
                            delay_prob=0.1, delay_seconds=5.0)
        injector = ChaosInjector(chaos)
        (hung,) = [i for i in range(config.trials)
                   if injector.decide(0.1, "delay", "trial", i)]
        policy = RetryPolicy(retries=0, backoff_base=0.001,
                             backoff_cap=0.002, trial_timeout=0.25)
        telemetry = Telemetry()
        with use_runtime(jobs=2, telemetry=telemetry, policy=policy,
                         chaos=chaos):
            result = run_campaign(small_program, small_execution,
                                  small_pipeline, config)

        assert result.completeness.quarantined == (hung,)
        # The shard holding the hung trial, then the trial alone.
        assert telemetry.counters["trial_timeouts"] == 2


class TestCheckpointResume:
    def test_interrupt_then_resume_is_bit_identical(
            self, small_program, small_execution, small_pipeline, reference,
            tmp_path):
        # Pick a seed whose first injected interrupt lands in the third
        # of the four checkpoint blocks, so exactly blocks [0,9) and
        # [9,18) are journalled when the campaign dies.
        def first_fire(seed):
            fired = [i for i in range(CONFIG.trials)
                     if ChaosInjector(ChaosConfig(
                         modes=("interrupt",), seed=seed,
                         interrupt_prob=0.08)
                     ).decide(0.08, "interrupt", "trial", i)]
            return fired[0] if fired else -1

        seed = _find_seed(lambda s: 20 <= first_fire(s) < 27)
        chaos = ChaosConfig(modes=("interrupt",), seed=seed,
                            interrupt_prob=0.08)
        telemetry = Telemetry()
        with use_runtime(jobs=1, telemetry=telemetry, policy=FAST,
                         chaos=chaos, checkpoint_dir=tmp_path):
            with pytest.raises(CampaignInterrupted) as info:
                run_campaign(small_program, small_execution, small_pipeline,
                             CONFIG)
        assert info.value.trials_done == 18
        assert "checkpoint journal flushed" in str(info.value)
        (journal_path,) = tmp_path.glob("campaign-*.json")
        assert len(json.loads(journal_path.read_text())["entries"]) == 2

        resumed_telemetry = Telemetry()
        with use_runtime(jobs=1, telemetry=resumed_telemetry, policy=FAST,
                         checkpoint_dir=tmp_path, resume=True):
            result = run_campaign(small_program, small_execution,
                                  small_pipeline, CONFIG)
        assert result.counts == reference.counts
        assert result.tracker_misses == reference.tracker_misses
        assert result.completeness.complete
        assert result.completeness.resumed_trials == 18
        assert resumed_telemetry.counters["checkpoint_resumed_trials"] == 18
        assert "trials resumed" in resumed_telemetry.format_summary()

    def test_resume_of_finished_campaign_recomputes_nothing(
            self, small_program, small_execution, small_pipeline, reference,
            tmp_path):
        with use_runtime(jobs=1, policy=FAST, checkpoint_dir=tmp_path):
            run_campaign(small_program, small_execution, small_pipeline,
                         CONFIG)
        telemetry = Telemetry()
        with use_runtime(jobs=1, telemetry=telemetry, policy=FAST,
                         checkpoint_dir=tmp_path, resume=True):
            result = run_campaign(small_program, small_execution,
                                  small_pipeline, CONFIG)
        assert result.counts == reference.counts
        assert result.completeness.resumed_trials == CONFIG.trials
        assert telemetry.counters["checkpoint_writes"] == 0

    def test_corrupted_journal_is_discarded_and_recomputed(
            self, small_program, small_execution, small_pipeline, reference,
            tmp_path):
        # 'corrupt-checkpoint' chaos garbles the journal after the run...
        chaos = ChaosConfig(modes=("corrupt-checkpoint",), seed=3)
        first = Telemetry()
        with use_runtime(jobs=1, telemetry=first, policy=FAST, chaos=chaos,
                         checkpoint_dir=tmp_path):
            damaged = run_campaign(small_program, small_execution,
                                   small_pipeline, CONFIG)
        assert damaged.counts == reference.counts
        assert first.counters["chaos_corruptions"] == 1

        # ...so the resume must detect it, discard it, and start over.
        second = Telemetry()
        with use_runtime(jobs=1, telemetry=second, policy=FAST,
                         checkpoint_dir=tmp_path, resume=True):
            result = run_campaign(small_program, small_execution,
                                  small_pipeline, CONFIG)
        assert result.counts == reference.counts
        assert result.tracker_misses == reference.tracker_misses
        assert result.completeness.resumed_trials == 0
        assert second.counters["checkpoint_corrupt"] == 1
        assert "corrupt journals discarded" in second.format_summary()


class TestCacheCorruption:
    def test_corrupted_cache_entry_recomputes_identically(
            self, small_program, small_execution, small_pipeline, reference,
            tmp_path):
        chaos = ChaosConfig(modes=("corrupt-cache",), seed=8)
        first = Telemetry()
        with use_runtime(telemetry=first, policy=FAST, chaos=chaos,
                         cache_dir=tmp_path) as cold:
            run_campaign(small_program, small_execution, small_pipeline,
                         CONFIG)
        # Two puts: the effect-oracle table and the campaign tally (only
        # the tally is the chaos corruption target).
        assert cold.cache.puts == 2
        assert first.counters["chaos_corruptions"] == 1

        # Warm run sees the garbled entry, treats it as a miss, recomputes
        # bit-identically, and overwrites it with a sound entry.
        with use_runtime(policy=FAST, cache_dir=tmp_path) as warm:
            result = run_campaign(small_program, small_execution,
                                  small_pipeline, CONFIG)
        assert result.counts == reference.counts
        assert warm.cache.errors == 1
        assert warm.cache.puts == 1

        with use_runtime(policy=FAST, cache_dir=tmp_path) as third:
            again = run_campaign(small_program, small_execution,
                                 small_pipeline, CONFIG)
        assert again.counts == reference.counts
        assert third.cache.hits == 1 and third.cache.errors == 0


# -- Supervisor-level validation (module-level fns: must pickle) ----------

def _echo_attempt(base, attempt):
    return base + attempt


def _require_base_plus_one(value, task):
    if value != task.key + 1:
        raise ResultInvalid(f"task {task.key} returned {value!r}")


class TestResultValidation:
    def test_invalid_results_are_retried(self):
        """Attempt 0 returns garbage; the validator rejects it and the
        retry (attempt 1) passes — across a real worker pool."""
        telemetry = Telemetry()
        collected = {}
        supervisor = Supervisor(
            FAST, label="echo", max_workers=2, telemetry=telemetry,
            validate=_require_base_plus_one,
            on_result=lambda index, task, value: collected.__setitem__(
                task.key, value))
        tasks = [SupervisedTask(fn=_echo_attempt, args=(key,), key=key,
                                deadline=False) for key in (10, 20)]
        quarantined = supervisor.run_pooled(tasks)
        assert quarantined == []
        assert collected == {10: 11, 20: 21}
        assert supervisor.retries == 2
        assert telemetry.counters["results_invalid"] == 2

    def test_exhausted_invalid_result_raises(self):
        supervisor = Supervisor(
            RetryPolicy(retries=0, backoff_base=0.001, backoff_cap=0.002),
            label="echo", validate=_require_base_plus_one)
        task = SupervisedTask(fn=_echo_attempt, args=(7,), key=999,
                              deadline=False)
        with pytest.raises(ResultInvalid, match="999"):
            supervisor.run_serial([task])
