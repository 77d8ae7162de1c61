"""Persistent result-cache correctness.

Cold vs. warm equality, key sensitivity to every ingredient, --no-cache
bypass semantics, and corrupt-entry recovery.
"""

import dataclasses
import pickle

import pytest

from repro.arch.executor import ExecutionLimits, FunctionalSimulator
from repro.due.tracking import DEFAULT_PET_ENTRIES, EccScheme, TrackingLevel
from repro.experiments.common import (
    ExperimentSettings,
    clear_caches,
    run_benchmark,
)
from repro.faults.campaign import CampaignConfig, campaign_key, run_campaign
from repro.pipeline.config import Trigger
from repro.runtime.cache import MISS, Deferred, ResultCache, cache_key
from repro.runtime.context import configure, reset_runtime, use_runtime
from repro.runtime.resilience import RetryPolicy
from repro.workloads.profile import BenchmarkProfile
from repro.workloads.spec2000 import get_profile

from . import cache_keys_golden

CONFIG = CampaignConfig(trials=25, seed=6, parity=True)


@pytest.fixture()
def tiny_profile() -> BenchmarkProfile:
    return BenchmarkProfile(name="cachetest", suite="int", body_items=60,
                            w_noop=20.0, fetch_bubble_prob=0.25, seed_salt=5)


class TestResultCacheStore:
    def test_roundtrip_and_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("unit", 1, "two")
        assert cache.get(key) is MISS
        assert cache.put(key, {"a": 1})
        assert cache.get(key) == {"a": 1}
        assert (cache.hits, cache.misses, cache.puts) == (1, 1, 1)

    def test_split_entry_defers_one_item(self, tmp_path):
        """A split entry reads whole by default; a lazy read decodes all
        but the deferred item, which loads from the file on demand and
        refuses once the file has changed."""
        cache = ResultCache(tmp_path)
        key = cache_key("split")
        tail = list(range(10_000))
        assert cache.put(key, (tail, {"report": 1}), defer=0)
        assert cache.get(key) == (tail, {"report": 1})
        deferred, head = cache.get(key, lazy=True)
        assert isinstance(deferred, Deferred) and head == {"report": 1}
        assert deferred.load() == tail
        path = cache.path_for(key)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            deferred.load()
        assert cache.get(key) is MISS
        assert (cache.hits, cache.errors) == (2, 1)

    def test_none_is_a_valid_value(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("none-value")
        cache.put(key, None)
        assert cache.get(key) is None

    def test_corrupt_entry_is_a_miss_not_a_crash(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("corrupt")
        cache.put(key, [1, 2, 3])
        cache.path_for(key).write_bytes(b"\x00garbage\xff")
        assert cache.get(key) is MISS
        assert cache.errors == 1
        # A recompute overwrites the bad entry.
        cache.put(key, [1, 2, 3])
        assert cache.get(key) == [1, 2, 3]

    def test_corrupt_entry_ticks_telemetry_counter(self, tmp_path):
        """Degrading to a miss is counted, not silent: a serving process
        (or any long-lived runtime) must be able to see its store rot."""
        with use_runtime() as context:
            cache = ResultCache(tmp_path)
            key = cache_key("corrupt-counted")
            cache.put(key, {"x": 1})
            cache.path_for(key).write_bytes(b"\x00garbage\xff")
            assert cache.get(key) is MISS
            assert context.telemetry.counters["cache_corrupt_entries"] == 1
            # A clean miss (absent entry) is NOT a corruption.
            assert cache.get(cache_key("never-stored")) is MISS
            assert context.telemetry.counters["cache_corrupt_entries"] == 1
            summary = context.telemetry.format_summary(cache=cache)
            assert "1 corrupt" in summary


class TestCacheKeys:
    def test_key_is_stable(self):
        assert cache_key("a", 1, True) == cache_key("a", 1, True)

    def test_keys_match_the_golden_digests(self):
        """Every stored entry stays addressable: run, functional,
        campaign, subject and pipeline keys and the corner types derive
        the committed digests (``tests/cache_keys_golden.py``)."""
        golden = cache_keys_golden.load()
        derived = cache_keys_golden.derive()
        assert sorted(derived) == sorted(golden)
        changed = [name for name in golden if derived[name] != golden[name]]
        assert changed == []
        # Both forms of a pipeline result name the same entry.
        assert golden["pipeline/timeline"] == golden["pipeline/objects"]

    def test_every_campaign_ingredient_changes_the_key(self):
        base = CONFIG
        variants = [
            CampaignConfig(trials=26, seed=6, parity=True),
            CampaignConfig(trials=25, seed=7, parity=True),
            CampaignConfig(trials=25, seed=6, parity=False),
            CampaignConfig(trials=25, seed=6, parity=True,
                           tracking=TrackingLevel.MEM_PI),
            CampaignConfig(trials=25, seed=6, parity=True, pet_entries=64),
        ]
        keys = {cache_key("campaign", variant) for variant in [base] + variants}
        assert len(keys) == len(variants) + 1

    def test_program_bytes_change_the_key(self, small_program, tiny_profile):
        from repro.workloads.codegen import synthesize

        other = synthesize(tiny_profile, 2500, seed=1)
        assert cache_key(small_program) != cache_key(other)

    def test_unsupported_type_is_an_explicit_error(self):
        with pytest.raises(TypeError):
            cache_key(object())


class TestMbuCacheKeyDiscipline:
    """Growing the config must not fork the keys of pre-MBU results."""

    def test_single_bit_campaign_key_is_byte_identical_to_pre_mbu(self):
        """A replica of the config dataclass as it existed before the
        MBU tier (the six legacy fields, same name) hashes identically
        to today's config with the MBU knobs unset: every tally cached
        before the knobs existed is still served warm."""

        @dataclasses.dataclass(frozen=True)
        class CampaignConfig:  # the pre-MBU field set, field for field
            trials: int = 500
            seed: int = 2004
            parity: bool = False
            tracking: TrackingLevel = TrackingLevel.PARITY_ONLY
            pet_entries: int = DEFAULT_PET_ENTRIES
            ecc: bool = False

        legacy = CampaignConfig(trials=25, seed=6, parity=True)
        assert cache_key("campaign", legacy) == cache_key("campaign", CONFIG)

    def test_mbu_knobs_fork_the_key(self):
        base = CampaignConfig(trials=25, seed=6)
        variants = [
            CampaignConfig(trials=25, seed=6, mbu_preset="terrestrial"),
            CampaignConfig(trials=25, seed=6, mbu_preset="space"),
            CampaignConfig(trials=25, seed=6, scheme=EccScheme.SEC),
            CampaignConfig(trials=25, seed=6, scheme=EccScheme.TAEC),
            CampaignConfig(trials=25, seed=6, scheme=EccScheme.TAEC,
                           mbu_preset="terrestrial"),
        ]
        keys = {cache_key("campaign", variant)
                for variant in [base] + variants}
        assert len(keys) == len(variants) + 1

    def test_mbu_campaign_caches_warm(self, tmp_path, small_program,
                                      small_execution, small_pipeline):
        config = CampaignConfig(trials=20, seed=6, scheme=EccScheme.TAEC,
                                mbu_preset="terrestrial")
        with use_runtime(cache_dir=tmp_path) as context:
            cold = run_campaign(small_program, small_execution,
                                small_pipeline, config)
            assert context.telemetry.counters["campaign_trials"] == 20
        with use_runtime(cache_dir=tmp_path) as context:
            warm = run_campaign(small_program, small_execution,
                                small_pipeline, config)
            assert context.telemetry.counters["campaign_trials"] == 0
            assert context.cache.hits >= 1
        assert warm.counts == cold.counts
        assert warm.tracker_misses == cold.tracker_misses


class TestCampaignCaching:
    def test_cold_then_warm_equal(self, tmp_path, small_program,
                                  small_execution, small_pipeline):
        with use_runtime(cache_dir=tmp_path) as context:
            cold = run_campaign(small_program, small_execution,
                                small_pipeline, CONFIG)
            # Two puts: the effect-oracle table and the campaign tally.
            assert context.cache.puts == 2
            warm = run_campaign(small_program, small_execution,
                                small_pipeline, CONFIG)
            assert context.cache.hits == 1
        assert warm.counts == cold.counts
        assert warm.tracker_misses == cold.tracker_misses
        assert warm.trials == cold.trials

    def test_mutating_an_ingredient_misses(self, tmp_path, small_program,
                                           small_execution, small_pipeline):
        with use_runtime(cache_dir=tmp_path) as context:
            run_campaign(small_program, small_execution, small_pipeline,
                         CONFIG)
            changed = CampaignConfig(trials=25, seed=6, parity=True,
                                     tracking=TrackingLevel.PI_COMMIT)
            run_campaign(small_program, small_execution, small_pipeline,
                         changed)
            # The campaign tally missed both times (2 tally puts + 2
            # oracle-table puts); the only hit is the second campaign's
            # union-merge re-read of the shared oracle table — sharing
            # effects across configs is exactly what the oracle is for.
            assert context.cache.hits == 1
            assert context.cache.puts == 4

    def test_corrupt_campaign_entry_recomputes(self, tmp_path, small_program,
                                               small_execution,
                                               small_pipeline):
        with use_runtime(cache_dir=tmp_path) as context:
            cold = run_campaign(small_program, small_execution,
                                small_pipeline, CONFIG)
            entries = list(context.cache.root.glob("*/*.pkl"))
            assert len(entries) == 2  # campaign tally + oracle table
            tally = context.cache.path_for(campaign_key(
                small_program, small_execution, small_pipeline, CONFIG))
            tally.write_bytes(pickle.dumps("not a tally")[:-3])
            warm = run_campaign(small_program, small_execution,
                                small_pipeline, CONFIG)
            assert context.cache.errors >= 1
            assert context.telemetry.counters["cache_corrupt_entries"] >= 1
        assert warm.counts == cold.counts

    def test_no_cache_bypasses_reads_and_writes(self, tmp_path, small_program,
                                                small_execution,
                                                small_pipeline):
        with use_runtime(cache_dir=tmp_path, no_cache=True) as context:
            assert context.cache is None
            run_campaign(small_program, small_execution, small_pipeline,
                         CONFIG)
        assert list(tmp_path.glob("*/*.pkl")) == []

    def test_configure_no_cache_flag(self, tmp_path):
        try:
            context = configure(jobs=2, cache_dir=tmp_path, no_cache=True)
            assert context.cache is None
            assert context.jobs == 2
            context = configure(jobs=1, cache_dir=tmp_path)
            assert context.cache is not None
        finally:
            reset_runtime()

    def test_settings_are_the_context_fields(self, tmp_path):
        """``configure()`` and ``use_runtime()`` take every
        ``RuntimeContext`` field by name plus the CLI-style knobs, and
        nothing else."""
        policy = RetryPolicy(retries=5)
        with use_runtime(jobs=2, policy=policy, checkpoint_dir=tmp_path,
                         resume=True, service="localhost:1",
                         service_timeout=2.0, mbu_preset="space",
                         ecc_scheme="dec") as context:
            assert context.jobs == 2 and context.policy is policy
            assert context.checkpoint_dir == tmp_path and context.resume
            assert context.service == "localhost:1"
            assert context.service_timeout == 2.0
            assert (context.mbu_preset, context.ecc_scheme) == ("space",
                                                                "dec")
        try:
            context = configure(retries=0, trial_timeout=1.5,
                                chaos="kill-worker", chaos_seed=7)
            assert (context.policy.retries,
                    context.policy.trial_timeout) == (0, 1.5)
            assert context.chaos.modes == ("kill-worker",)
            assert context.chaos.seed == 7
        finally:
            reset_runtime()
        for removed in ("static_filter", "batch_strikes"):
            with pytest.raises(TypeError):
                configure(**{removed: False})


class TestCampaignKeysNameTheBaseline:
    """A campaign on a baseline cut 5 commits short, cached first, must
    not answer for the program's own baseline: not through the tally,
    the checkpoint journal, or the persisted effect-oracle table."""

    #: The tally the own baseline gets without any cache.
    CONFIG = CampaignConfig(trials=300)

    @pytest.fixture(scope="class")
    def crafty(self):
        clear_caches()
        with use_runtime():
            run = run_benchmark(get_profile("crafty"),
                                ExperimentSettings(target_instructions=4000))
            cut = FunctionalSimulator(run.program, ExecutionLimits(
                max_instructions=len(run.execution.trace) - 5)).run()
            reference = run_campaign(run.program, run.execution,
                                     run.pipeline, self.CONFIG)
        clear_caches()
        return run.program, run.execution, cut, run.pipeline, reference

    def test_cached_tally(self, tmp_path, crafty):
        program, own, cut, pipeline, reference = crafty
        with use_runtime(cache_dir=tmp_path):
            stale = run_campaign(program, cut, pipeline, self.CONFIG)
            result = run_campaign(program, own, pipeline, self.CONFIG)
        assert stale.counts != reference.counts  # the repro bites
        assert result.counts == reference.counts
        assert campaign_key(program, own, pipeline, self.CONFIG) != \
            campaign_key(program, cut, pipeline, self.CONFIG)

    def test_checkpoint_journal(self, tmp_path, crafty):
        program, own, cut, pipeline, reference = crafty
        with use_runtime(checkpoint_dir=tmp_path):
            run_campaign(program, cut, pipeline, self.CONFIG)
        with use_runtime(checkpoint_dir=tmp_path, resume=True):
            result = run_campaign(program, own, pipeline, self.CONFIG)
        assert result.counts == reference.counts
        assert result.completeness.resumed_trials == 0

    def test_persisted_oracle_entries(self, tmp_path, crafty):
        program, own, cut, pipeline, reference = crafty
        # The PET size changes the tally key but neither the strikes nor
        # the outcomes of an unprotected campaign, so only the oracle
        # table is shared between the two runs.
        other = dataclasses.replace(self.CONFIG, pet_entries=256)
        with use_runtime(cache_dir=tmp_path):
            run_campaign(program, cut, pipeline, self.CONFIG)
            result = run_campaign(program, own, pipeline, other)
        assert result.counts == reference.counts


class TestExperimentCaching:
    def test_warm_run_performs_zero_simulations(self, tmp_path, tiny_profile):
        settings = ExperimentSettings(target_instructions=2500)
        clear_caches()
        try:
            with use_runtime(cache_dir=tmp_path) as context:
                cold = run_benchmark(tiny_profile, settings, Trigger.NONE)
                assert context.telemetry.counters["pipeline_sims"] == 1
                assert context.telemetry.counters["functional_sims"] == 1
            clear_caches()  # drop the in-memory layer; keep the disk layer
            with use_runtime(cache_dir=tmp_path) as context:
                warm = run_benchmark(tiny_profile, settings, Trigger.NONE)
                assert context.telemetry.counters["pipeline_sims"] == 0
                assert context.telemetry.counters["functional_sims"] == 0
                # Only the run entry: the functional parts wait until
                # they are read.
                assert context.cache.hits == 1
            assert warm.report.ipc == cold.report.ipc
            assert warm.report.sdc_avf == cold.report.sdc_avf
            assert warm.pipeline.cycles == cold.pipeline.cycles
            assert warm.execution.output_signature() == \
                cold.execution.output_signature()
            # Read after the context exited, through the context's cache.
            assert context.cache.hits == 2
            assert context.telemetry.counters["functional_loads"] == 1
            assert context.telemetry.counters["functional_sims"] == 0
        finally:
            clear_caches()

    def test_trigger_and_size_invalidate(self, tmp_path, tiny_profile):
        settings = ExperimentSettings(target_instructions=2500)
        clear_caches()
        try:
            with use_runtime(cache_dir=tmp_path) as context:
                run_benchmark(tiny_profile, settings, Trigger.NONE)
                clear_caches()
                run_benchmark(tiny_profile, settings, Trigger.L1_MISS)
                # The timing entry misses (different squash trigger) but
                # the functional entry (trigger-independent) hits.
                assert context.telemetry.counters["pipeline_sims"] == 2
                assert context.telemetry.counters["functional_sims"] == 1
                clear_caches()
                bigger = ExperimentSettings(target_instructions=3000)
                run_benchmark(tiny_profile, bigger, Trigger.NONE)
                assert context.telemetry.counters["functional_sims"] == 2
        finally:
            clear_caches()
