"""Chaos injector and failure-taxonomy unit tests.

The chaos harness must itself be deterministic: identical seeds make
identical kill/delay/poison decisions regardless of scheduling, which is
what lets the resilience suite assert bit-identical tallies under
injected faults.
"""

import pickle
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.runtime.chaos import (
    CHAOS_MODES,
    ChaosConfig,
    ChaosError,
    ChaosInjector,
    in_worker_process,
)
from repro.runtime.resilience import (
    RetryPolicy,
    TrialCrash,
    TrialTimeout,
    WorkerLost,
    classify_failure,
)


class TestChaosConfig:
    def test_parse_modes(self):
        config = ChaosConfig.parse("kill-worker, corrupt-cache", seed=7)
        assert config.modes == ("kill-worker", "corrupt-cache")
        assert config.seed == 7
        assert config.enabled("kill-worker")
        assert not config.enabled("delay-trial")

    def test_parse_dedupes_and_strips(self):
        config = ChaosConfig.parse("kill-worker,kill-worker, ,raise-trial")
        assert config.modes == ("kill-worker", "raise-trial")

    def test_parse_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown chaos mode"):
            ChaosConfig.parse("kill-worker,meteor-strike")

    def test_parse_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            ChaosConfig.parse(" , ")

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            ChaosConfig(modes=("kill-worker",), kill_prob=1.5)
        with pytest.raises(ValueError):
            ChaosConfig(modes=("delay-trial",), delay_seconds=-1.0)

    def test_all_documented_modes_accepted(self):
        config = ChaosConfig.parse(",".join(CHAOS_MODES))
        assert set(config.modes) == set(CHAOS_MODES)

    def test_picklable_for_worker_handoff(self):
        config = ChaosConfig.parse("kill-worker", seed=3)
        assert pickle.loads(pickle.dumps(config)) == config


class TestInjectorDeterminism:
    def test_decisions_replay_exactly(self):
        a = ChaosInjector(ChaosConfig(modes=("raise-trial",), seed=42))
        b = ChaosInjector(ChaosConfig(modes=("raise-trial",), seed=42))
        decisions = [a.decide(0.3, "raise", "trial", i) for i in range(64)]
        assert decisions == [b.decide(0.3, "raise", "trial", i)
                             for i in range(64)]
        assert any(decisions) and not all(decisions)

    def test_different_seeds_differ(self):
        a = ChaosInjector(ChaosConfig(modes=(), seed=1))
        b = ChaosInjector(ChaosConfig(modes=(), seed=2))
        assert [a.decide(0.5, "x", i) for i in range(64)] != \
            [b.decide(0.5, "x", i) for i in range(64)]

    def test_sites_are_independent_streams(self):
        injector = ChaosInjector(ChaosConfig(modes=(), seed=9))
        kills = [injector.decide(0.5, "kill", i) for i in range(64)]
        raises = [injector.decide(0.5, "raise", i) for i in range(64)]
        assert kills != raises

    def test_poisoned_trials_matches_maybe_raise(self):
        config = ChaosConfig(modes=("poison-trial",), seed=11,
                             poison_prob=0.2)
        injector = ChaosInjector(config)
        expected = injector.poisoned_trials(50)
        assert expected  # prob 0.2 over 50 trials must hit something
        observed = []
        for index in range(50):
            try:
                injector.maybe_raise(("trial", index), attempt=3)
            except ChaosError:
                observed.append(index)
        assert tuple(observed) == expected

    def test_transient_raise_only_on_first_attempt(self):
        config = ChaosConfig(modes=("raise-trial",), seed=4, raise_prob=1.0)
        injector = ChaosInjector(config)
        with pytest.raises(ChaosError):
            injector.maybe_raise(("trial", 0), attempt=0)
        injector.maybe_raise(("trial", 0), attempt=1)  # must not raise


class TestInjectorSafety:
    def test_kill_never_fires_in_parent_process(self):
        assert not in_worker_process()
        config = ChaosConfig(modes=("kill-worker",), seed=1, kill_prob=1.0)
        ChaosInjector(config).maybe_kill(("shard", 0, 10), attempt=0)
        # Still alive: the parent is never killed.

    def test_interrupt_raises_keyboard_interrupt(self):
        config = ChaosConfig(modes=("interrupt",), seed=1,
                             interrupt_prob=1.0)
        with pytest.raises(KeyboardInterrupt):
            ChaosInjector(config).maybe_interrupt(("trial", 0))

    def test_corrupt_file_damages_deterministically(self, tmp_path):
        payload = bytes(range(256)) * 8
        first = tmp_path / "a.bin"
        second = tmp_path / "b.bin"
        first.write_bytes(payload)
        second.write_bytes(payload)
        injector = ChaosInjector(ChaosConfig(modes=("corrupt-cache",),
                                             seed=6))
        assert injector.corrupt_file(first, "cache", "k1")
        assert injector.corrupt_file(second, "cache", "k1")
        assert first.read_bytes() == second.read_bytes() != payload

    def test_corrupt_missing_file_is_harmless(self, tmp_path):
        injector = ChaosInjector(ChaosConfig(modes=("corrupt-cache",)))
        assert not injector.corrupt_file(tmp_path / "absent.bin", "x")


class TestClassifyFailure:
    def test_runtime_faults_pass_through(self):
        fault = TrialTimeout("deadline")
        assert classify_failure(fault) is fault

    def test_broken_pool_is_worker_lost(self):
        fault = classify_failure(BrokenProcessPool("pool died"))
        assert isinstance(fault, WorkerLost)

    def test_timeout_error_is_trial_timeout(self):
        assert isinstance(classify_failure(TimeoutError("slow")),
                          TrialTimeout)

    def test_generic_exception_is_trial_crash(self):
        fault = classify_failure(ZeroDivisionError("oops"))
        assert isinstance(fault, TrialCrash)
        assert "ZeroDivisionError" in str(fault)

    def test_chaos_error_is_trial_crash(self):
        assert isinstance(classify_failure(ChaosError("boom")), TrialCrash)

    def test_trial_crash_survives_pickling(self):
        fault = TrialCrash("trial 7 raised ChaosError: boom", trial_index=7)
        clone = pickle.loads(pickle.dumps(fault))
        assert clone.trial_index == 7
        assert str(clone) == str(fault)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(trial_timeout=0.0)

    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=1.0, jitter=0.5)
        delays = [policy.backoff_delay("campaign", 3, attempt)
                  for attempt in range(1, 8)]
        assert delays == [policy.backoff_delay("campaign", 3, attempt)
                          for attempt in range(1, 8)]
        for attempt, delay in enumerate(delays, start=1):
            base = min(1.0, 0.1 * 2 ** (attempt - 1))
            assert base * 0.5 <= delay <= base * 1.5
        # Exponential growth until the cap dominates.
        assert delays[-1] <= 1.5

    def test_zero_jitter_is_exact(self):
        policy = RetryPolicy(backoff_base=0.2, backoff_cap=10.0, jitter=0.0)
        assert policy.backoff_delay("x", 0, 1) == pytest.approx(0.2)
        assert policy.backoff_delay("x", 0, 3) == pytest.approx(0.8)

    def test_deadline_scales_with_items(self):
        policy = RetryPolicy(trial_timeout=0.5)
        assert policy.deadline_for(10) == pytest.approx(5.0)
        assert policy.deadline_for(0) == pytest.approx(0.5)
        assert RetryPolicy().deadline_for(10) is None

    def test_deadline_has_no_startup_allowance(self):
        # The clock starts when the shard reports that its set-up is
        # done, not at submit, so the budget is the trials' alone.
        assert RetryPolicy(trial_timeout=0.5).deadline_for(2) == 1.0
        with pytest.raises(TypeError):
            RetryPolicy(startup_grace=1.0)
