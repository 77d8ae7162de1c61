"""Strike-evaluation fast-path tests.

The fast path's contract is *bit-identical tallies*: the effect oracle
(memoization + static pre-filter), the campaign-scoped evaluator, the
π-bit tracker memo, and the pipeline's warmed-hierarchy snapshot may only
change wall-clock, never a single outcome. These tests prove that
contract three ways:

* brute force — every ``(seq, bit)`` point of a tiny program whose trace
  exercises all three static-filter rules is compared against the seed
  slow path (``architectural_effect``);
* sampled — statically-killed points of the session workload are spot
  checked by re-execution;
* end-to-end — campaign tallies from the production classifier (cold
  and with a preloaded oracle) must equal the seed-era per-trial loop
  (one throwaway evaluator per trial) across every tracking level, plus
  the unprotected and ECC configurations.
"""

from collections import Counter

import pytest

from repro.arch.executor import FunctionalSimulator
from repro.due.pi_bit import PiBitTracker
from repro.due.tracking import TrackingLevel
from repro.faults.batch import StrikeClassifier, StrikeSubject, subject_key
from repro.faults.campaign import (
    CampaignConfig,
    run_campaign,
    run_trial_block,
    trial_seed,
)
from repro.faults.injector import architectural_effect
from repro.faults.oracle import (
    EffectOracle,
    load_persisted,
    oracle_cache_key,
    persist,
    validate_table,
)
from repro.isa.encoding import ENCODING_BITS, Field, field_bits
from repro.isa.opcodes import Opcode
from repro.runtime.cache import ResultCache
from repro.runtime.context import use_runtime
from repro.runtime.telemetry import Telemetry
from repro.util.rng import DeterministicRng
from tests.helpers import I, program
from tests.strike_reference import StrikeModel, evaluate_strike

R3_BIT = next(iter(field_bits(Field.R3)))
IMM_BIT = next(iter(field_bits(Field.IMM7)))
OPCODE_BIT = next(iter(field_bits(Field.OPCODE)))

STATIC_REASONS = {
    "non-live field",
    "predicated-false, non-qp/opcode flip",
    "dead destination value",
}


@pytest.fixture(scope="module")
def rule_setup():
    """A tiny program whose trace exercises every static-filter rule."""
    prog = program([
        I(Opcode.MOVI, r1=1, imm=5),            # live value
        I(Opcode.MOVI, r1=9, imm=3),            # dead: r9 never read
        I(Opcode.CMP_NE, r1=6, r2=1, r3=1),     # p6 = (r1 != r1) = False
        I(Opcode.ADDI, qp=6, r1=2, r2=1, imm=1),  # predicated false
        I(Opcode.ADD, r1=3, r2=1, r3=1),        # live, non-live IMM field
        I(Opcode.OUT, r2=1),
    ])
    baseline = FunctionalSimulator(prog).run()
    assert baseline.clean
    return prog, baseline


class TestStaticFilterSoundness:
    def test_exhaustive_equivalence_on_tiny_program(self, rule_setup):
        """Every (seq, bit) point: oracle == seed slow path, and every
        static classification is backed by an actual "none" re-execution."""
        prog, baseline = rule_setup
        oracle = EffectOracle(StrikeSubject(prog, baseline))
        reasons = set()
        for seq in range(len(baseline.trace)):
            for bit in range(ENCODING_BITS):
                truth = architectural_effect(prog, baseline, seq, bit)
                assert oracle.effect(seq, bit) == truth, (seq, bit)
                reason = oracle.classify_static(seq, bit)
                if reason is not None:
                    assert truth == "none", (seq, bit, reason)
                    reasons.add(reason)
        # The tiny program must actually exercise all three rules, or the
        # exhaustive sweep proves less than it claims.
        assert reasons == STATIC_REASONS
        assert oracle.static_kills > 0
        points = len(baseline.trace) * ENCODING_BITS
        assert oracle.executions + oracle.static_kills == points

    def test_sampled_on_session_workload(self, small_program,
                                         small_execution):
        """Statically-killed points of the real workload re-execute to
        "none" — the rules hold beyond hand-built corner cases."""
        oracle = EffectOracle(StrikeSubject(small_program, small_execution))
        trace = small_execution.trace
        killed = []
        for seq in range(0, len(trace), 97):
            for bit in range(ENCODING_BITS):
                if oracle.classify_static(seq, bit) is not None:
                    killed.append((seq, bit))
        assert len(killed) >= 40, "stride found too few inert points"
        rng = DeterministicRng(2024)
        for _ in range(40):
            seq, bit = killed[rng.randrange(len(killed))]
            assert architectural_effect(
                small_program, small_execution, seq, bit) == "none", (seq, bit)


class TestOracleMemo:
    def test_memo_serves_repeats_without_reexecution(self, rule_setup):
        prog, baseline = rule_setup
        oracle = EffectOracle(StrikeSubject(prog, baseline))
        first = oracle.effect(0, IMM_BIT)
        second = oracle.effect(0, IMM_BIT)
        assert first == second == "sdc"
        assert oracle.executions == 1
        assert oracle.memo_hits == 1

    def test_static_kill_is_memoized_too(self, rule_setup):
        prog, baseline = rule_setup
        oracle = EffectOracle(StrikeSubject(prog, baseline))
        assert oracle.effect(1, IMM_BIT) == "none"
        assert (oracle.static_kills, oracle.executions) == (1, 0)
        assert oracle.effect(1, IMM_BIT) == "none"
        assert (oracle.static_kills, oracle.memo_hits) == (1, 1)

    def test_filter_off_reexecutes_inert_points(self, rule_setup):
        """``reexecute`` bypasses the static filter and the memo."""
        prog, baseline = rule_setup
        oracle = EffectOracle(StrikeSubject(prog, baseline))
        assert oracle.reexecute(1, 1 << IMM_BIT) == "none"
        assert (oracle.executions, oracle.static_kills) == (1, 0)
        assert oracle.new_entries() == {}

    def test_preload_serves_without_execution(self, rule_setup):
        prog, baseline = rule_setup
        donor = EffectOracle(StrikeSubject(prog, baseline))
        donor.effect(0, IMM_BIT)
        donor.effect(1, IMM_BIT)
        table = donor.new_entries()
        assert table == {(0, IMM_BIT): "sdc", (1, IMM_BIT): "none"}

        warm = EffectOracle(StrikeSubject(prog, baseline))
        assert warm.preload(table) == 2
        assert warm.effect(0, IMM_BIT) == "sdc"
        assert (warm.executions, warm.memo_hits) == (0, 1)
        # Preloaded entries are not re-exported.
        assert warm.new_entries() == {}

    def test_preload_never_overwrites_local_entries(self, rule_setup):
        prog, baseline = rule_setup
        oracle = EffectOracle(StrikeSubject(prog, baseline))
        assert oracle.effect(0, IMM_BIT) == "sdc"
        assert oracle.preload({(0, IMM_BIT): "hang"}) == 0
        assert oracle.effect(0, IMM_BIT) == "sdc"

    def test_counter_names_match_telemetry(self, rule_setup):
        prog, baseline = rule_setup
        oracle = EffectOracle(StrikeSubject(prog, baseline))
        assert set(oracle.counters()) == {
            "oracle_memo_hits", "oracle_static_kills", "oracle_executions",
            "oracle_replayed_insts", "oracle_converged"}


class TestOraclePersistence:
    def test_roundtrip_and_union_merge(self, tmp_path, rule_setup):
        cache = ResultCache(tmp_path)
        key = oracle_cache_key(subject_key(*rule_setup))
        persist(cache, key, {(0, 3): "sdc"})
        assert load_persisted(cache, key) == {(0, 3): "sdc"}
        # A second campaign's entries merge, never replace.
        persist(cache, key, {(1, 4): "none"})
        assert load_persisted(cache, key) == {(0, 3): "sdc", (1, 4): "none"}

    def test_empty_entries_are_not_written(self, tmp_path, rule_setup):
        cache = ResultCache(tmp_path)
        persist(cache, oracle_cache_key(subject_key(*rule_setup)), {})
        assert cache.puts == 0

    def test_malformed_table_counts_as_error_miss(self, tmp_path,
                                                  rule_setup):
        cache = ResultCache(tmp_path)
        key = oracle_cache_key(subject_key(*rule_setup))
        cache.put(key, {"not-a-point": "sdc"})
        assert load_persisted(cache, key) == {}
        assert cache.errors == 1

    def test_no_cache_is_a_clean_noop(self, rule_setup):
        key = oracle_cache_key(subject_key(*rule_setup))
        assert load_persisted(None, key) == {}
        persist(None, key, {(0, 3): "sdc"})  # must not raise

    @pytest.mark.parametrize("bad", [
        ["not", "a", "dict"],
        {(1,): "none"},
        {(1, 2, 3): "none"},
        {("x", 2): "none"},
        {(1, 2): "bogus-effect"},
    ])
    def test_validate_table_rejects_malformed(self, bad):
        assert validate_table(bad) is None

    def test_validate_table_accepts_sound(self):
        table = {(0, 3): "sdc", (7, 40): "none"}
        assert validate_table(table) == table


class TestTrackerMemo:
    @pytest.mark.parametrize("level", list(TrackingLevel))
    def test_shared_tracker_matches_fresh_instances(self, small_execution,
                                                    level):
        """The campaign-shared (memoizing) tracker must answer exactly as
        a per-trial throwaway tracker did, for both memo key classes."""
        trace = small_execution.trace
        shared = PiBitTracker(trace, level)
        for seq in range(0, len(trace), 1291):
            for bit in (R3_BIT, OPCODE_BIT):
                fresh = PiBitTracker(trace, level).process_fault(seq, bit)
                assert shared.process_fault(seq, bit) == fresh
                # Second ask is served from the memo; still identical.
                assert shared.process_fault(seq, bit) == fresh


def _seed_slow_path(prog, baseline, pipeline_result, config):
    """The seed-era campaign loop: one throwaway evaluator per trial."""
    sampler = StrikeModel(pipeline_result)
    counts = Counter()
    tracker_misses = 0
    for index in range(config.trials):
        rng = DeterministicRng(trial_seed(config, prog.name, index))
        verdict = evaluate_strike(
            sampler.sample(rng), prog, baseline,
            parity=config.parity, tracking=config.tracking,
            pet_entries=config.pet_entries, ecc=config.ecc)
        counts[verdict.outcome] += 1
        if verdict.tracker_miss:
            tracker_misses += 1
    return counts, tracker_misses


def _golden_configs():
    configs = [CampaignConfig(trials=50, seed=77)]
    configs += [CampaignConfig(trials=50, seed=77, parity=True,
                               tracking=level) for level in TrackingLevel]
    configs.append(CampaignConfig(trials=50, seed=77, ecc=True))
    return configs


def _config_id(config):
    if config.ecc:
        return "ecc"
    if config.parity:
        return config.tracking.name.lower()
    return "unprotected"


class TestGoldenEquivalence:
    """Satellite (d): fast-path tallies == seed slow path, bit for bit."""

    @pytest.mark.parametrize("config", _golden_configs(), ids=_config_id)
    def test_every_fast_path_matches_seed_slow_path(
            self, config, small_program, small_execution, small_pipeline):
        golden = _seed_slow_path(small_program, small_execution,
                                 small_pipeline, config)

        # The production classifier with a cold oracle.
        donor = StrikeClassifier(
            StrikeSubject(small_program, small_execution), small_pipeline,
            config)
        assert run_trial_block(small_program, small_execution,
                               small_pipeline, config, 0, config.trials,
                               classifier=donor) == golden

        # Warm oracle (as after a persisted-cache load): zero execution.
        warm = StrikeClassifier(
            StrikeSubject(small_program, small_execution), small_pipeline,
            config)
        warm.oracle.preload(donor.oracle.new_entries())
        assert run_trial_block(small_program, small_execution,
                               small_pipeline, config, 0, config.trials,
                               classifier=warm) == golden
        assert warm.oracle.executions == 0
        assert warm.oracle.static_kills == 0

    def test_campaign_ticks_oracle_telemetry(
            self, small_program, small_execution, small_pipeline):
        with use_runtime() as context:
            run_campaign(small_program, small_execution, small_pipeline,
                         CampaignConfig(trials=40, seed=3))
            counters = context.telemetry.counters
            summary = context.telemetry.format_summary()
        consulted = (counters["oracle_memo_hits"]
                     + counters["oracle_static_kills"]
                     + counters["oracle_executions"])
        assert consulted > 0
        assert "oracle:" in summary


class TestOracleTelemetryFormat:
    def test_oracle_line_rendered(self):
        telemetry = Telemetry()
        telemetry.merge_counters({"oracle_memo_hits": 6,
                                  "oracle_static_kills": 3,
                                  "oracle_executions": 1})
        assert ("oracle: 6 memo hits, 3 static kills, 1 re-executions "
                "(90% fast path)") in telemetry.format_summary()

    def test_silent_when_oracle_unused(self):
        assert "oracle:" not in Telemetry().format_summary()

    def test_verbose_appends_warm_hierarchy_and_raw_counters(self):
        telemetry = Telemetry()
        telemetry.increment("warm_hierarchy_hits", 2)
        telemetry.increment("warm_hierarchy_misses")
        summary = telemetry.format_summary(verbose=True)
        assert ("warm hierarchy: 2 snapshot restores, "
                "1 full warm-ups") in summary
        assert "  warm_hierarchy_hits: 2" in summary
        # Non-verbose stays terse.
        assert "warm hierarchy" not in telemetry.format_summary()
