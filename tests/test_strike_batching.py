"""Differential harness for the strike classifier.

Campaigns classify strikes along one production path: each trial range
is drawn as a :class:`~repro.faults.batch.StrikeBatch` and classified by
a :class:`~repro.faults.batch.StrikeClassifier`. These tests pin it
against the per-trial reference in ``tests/strike_reference.py``:

* golden — for every ``TrackingLevel`` x {unprotected, parity, ECC}, a
  pinned-seed campaign must produce the reference's tallies, tracker
  misses, confidence intervals, oracle counters and oracle entries
  (and zero burst counters), on both the plain and the squash-heavy
  pipeline;
* stream equivalence — a hypothesis property that the array sampler
  draws exactly the (interval, bit, cycle) sequence the per-trial
  ``derive_seed`` sampler draws, for any seed and any ``--jobs N``
  sharding of the index space;
* mask soundness — every (instruction, bit) flip of a tiny program that
  exercises all three static rules: the precomputed kill masks kill a
  strike iff ``EffectOracle.classify_static`` kills it.

Plus the worker-count-independent cache key, the quarantine of a
degenerate pipeline result, and a pinned regression for the mcf-181
OOO+L0 baseline pathology from ROADMAP.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.faults.batch as batch_mod
from repro.arch.executor import FunctionalSimulator
from repro.due.outcomes import FaultOutcome
from repro.due.tracking import TrackingLevel
from repro.faults.batch import (
    StrikeBatch,
    StrikeSubject,
    build_kill_masks,
    draw_strike_batch,
)
from repro.faults.campaign import (
    CampaignConfig,
    run_campaign,
    run_trial_block,
    trial_seed,
)
from repro.faults.oracle import EffectOracle
from repro.isa.encoding import ENCODING_BITS
from repro.isa.opcodes import Opcode
from repro.pipeline.config import (
    IssuePolicy,
    MachineConfig,
    SquashConfig,
    Trigger,
)
from repro.pipeline.core import PipelineSimulator
from repro.pipeline.iq import NO_VALUE
from repro.runtime.context import use_runtime
from repro.runtime.engine import shard_trials
from repro.runtime.resilience import RetryPolicy, TrialCrash
from repro.runtime.telemetry import Telemetry
from repro.util.rng import DeterministicRng
from repro.workloads.codegen import synthesize
from repro.workloads.spec2000 import get_profile
from tests.helpers import I, program
from tests.strike_reference import (
    StrikeEvaluator,
    StrikeModel,
    assert_matches_reference,
    reference_block,
    sample_strike,
    sub_batch,
)

STATIC_REASONS = {
    "non-live field",
    "predicated-false, non-qp/opcode flip",
    "dead destination value",
}

ZERO_BURSTS = {"mbu_multi_bit": 0, "ecc_corrected": 0, "ecc_detected": 0,
               "ecc_escaped": 0}


def _golden_configs():
    """Every TrackingLevel x {unprotected, parity, ecc} (the strike
    stream forks on the tracking level, so each is a distinct campaign)."""
    configs = [CampaignConfig(trials=50, seed=77, tracking=level)
               for level in TrackingLevel]
    configs += [CampaignConfig(trials=50, seed=77, parity=True,
                               tracking=level) for level in TrackingLevel]
    configs += [CampaignConfig(trials=50, seed=77, ecc=True, tracking=level)
                for level in TrackingLevel]
    return configs


def _config_id(config):
    if config.parity:
        return config.tracking.name.lower()
    kind = "ecc" if config.ecc else "unprotected"
    if config.tracking is TrackingLevel.PARITY_ONLY:
        return kind
    return f"{kind}-{config.tracking.name.lower()}"


def _squash_id(config):
    if config.parity and config.tracking is TrackingLevel.PARITY_ONLY:
        return "parity"
    return _config_id(config)


class TestGoldenDifferential:
    """The production classifier against the per-trial reference."""

    @pytest.mark.parametrize("config", _golden_configs(), ids=_config_id)
    def test_batched_matches_scalar(self, config, small_program,
                                    small_execution, small_pipeline):
        classifier, _ = assert_matches_reference(
            small_program, small_execution, small_pipeline, config)
        # Single-bit campaigns never claim a burst or a decoder action.
        assert classifier.burst_counters() == ZERO_BURSTS

    @pytest.mark.parametrize("config", _golden_configs(), ids=_squash_id)
    def test_batched_matches_scalar_on_squash_pipeline(
            self, config, small_program, small_execution, squash_pipeline):
        """The squash-heavy pipeline exercises the wrong-path/squashed
        interval kinds the array pass classifies without the oracle."""
        classifier, _ = assert_matches_reference(
            small_program, small_execution, squash_pipeline, config)
        assert classifier.burst_counters() == ZERO_BURSTS

    def test_squash_pipeline_reads_wrong_path_strikes(
            self, small_program, small_execution, squash_pipeline):
        """The squash differential covers the wrong-path branch only if
        some strike is read on the wrong path: under parity without π
        tracking those are false DUEs that never reach the oracle."""
        config = CampaignConfig(trials=50, seed=77, parity=True)
        evaluator = StrikeEvaluator.for_config(small_program,
                                               small_execution, config)
        sampler = StrikeModel(squash_pipeline)
        verdicts = [evaluator.evaluate(sample_strike(
            sampler, config, small_program.name, index))
            for index in range(config.trials)]
        assert any(v.outcome is FaultOutcome.FALSE_DUE
                   and v.architectural_effect == "not_executed"
                   for v in verdicts)

    def test_run_campaign_matches_reference(
            self, small_program, small_execution, small_pipeline):
        config = CampaignConfig(trials=60, seed=11, parity=True,
                                tracking=TrackingLevel.REG_PI)
        with use_runtime():
            result = run_campaign(small_program, small_execution,
                                  small_pipeline, config)
        counts, misses, _ = reference_block(small_program, small_execution,
                                            small_pipeline, config)
        assert result.counts == counts
        assert result.tracker_misses == misses

    def test_run_campaign_sharded_batched_matches_serial_scalar(
            self, small_program, small_execution, small_pipeline):
        config = CampaignConfig(trials=48, seed=21, parity=True)
        with use_runtime(jobs=3):
            sharded = run_campaign(small_program, small_execution,
                                   small_pipeline, config)
        counts, misses, _ = reference_block(small_program, small_execution,
                                            small_pipeline, config)
        assert sharded.counts == counts
        assert sharded.tracker_misses == misses

    def test_cache_key_does_not_fork(self, tmp_path, small_program,
                                     small_execution, small_pipeline):
        """The worker count is not part of the campaign cache key: a
        tally computed serially is served warm to a sharded run (and the
        other way round), so results can never diverge by ``--jobs``."""
        config = CampaignConfig(trials=30, seed=5, parity=True)
        with use_runtime(cache_dir=tmp_path) as context:
            cold = run_campaign(small_program, small_execution,
                                small_pipeline, config)
            assert context.telemetry.counters["campaign_trials"] == 30
        with use_runtime(cache_dir=tmp_path, jobs=2) as context:
            warm = run_campaign(small_program, small_execution,
                                small_pipeline, config)
            # Served entirely from the serial run's cache entry.
            assert context.telemetry.counters["campaign_trials"] == 0
            assert context.cache.hits >= 1
        assert warm.counts == cold.counts
        assert warm.tracker_misses == cold.tracker_misses

        other = CampaignConfig(trials=30, seed=6, parity=True)
        with use_runtime(cache_dir=tmp_path, jobs=2) as context:
            cold2 = run_campaign(small_program, small_execution,
                                 small_pipeline, other)
        with use_runtime(cache_dir=tmp_path) as context:
            warm2 = run_campaign(small_program, small_execution,
                                 small_pipeline, other)
            assert context.telemetry.counters["campaign_trials"] == 0
        assert warm2.counts == cold2.counts


class TestSamplerStreamEquivalence:
    """The array sampler replays the per-trial draw stream."""

    @given(seed=st.integers(min_value=0, max_value=2 ** 16),
           jobs=st.integers(min_value=1, max_value=8))
    @settings(max_examples=10, deadline=None)
    def test_sampler_stream_equivalence(self, seed, jobs, small_program,
                                        small_pipeline):
        config = CampaignConfig(trials=36, seed=seed)
        full = draw_strike_batch(small_pipeline, config,
                                 small_program.name, 0, config.trials)
        sampler = StrikeModel(small_pipeline)
        intervals = small_pipeline.intervals
        for index, (row, cycle, bit) in enumerate(full.triples()):
            rng = DeterministicRng(
                trial_seed(config, small_program.name, index))
            strike = sampler.sample(rng)
            assert bit == strike.bit
            if row == NO_VALUE:
                assert strike.interval is None
                assert cycle == 0
            else:
                assert strike.interval is intervals[row]
                assert cycle == strike.cycle
        # Any --jobs N sharding: a shard's independent draw equals the
        # corresponding rows of the whole-campaign batch.
        for block in shard_trials(config.trials, jobs):
            shard = draw_strike_batch(small_pipeline, config,
                                      small_program.name,
                                      block.start, block.stop)
            assert shard == sub_batch(full, block.start, block.stop)

    @given(seed=st.integers(min_value=0, max_value=2 ** 32),
           parity=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_prefix_digest_seeds_match_trial_seed(self, seed, parity):
        """The batcher's forked-digest seed derivation is byte-for-byte
        ``trial_seed`` for every trial index."""
        config = CampaignConfig(trials=10, seed=seed, parity=parity)
        assert batch_mod._trial_seeds(config, "prog", 3, 13) == [
            trial_seed(config, "prog", index) for index in range(3, 13)]

    def test_ecc_sees_the_same_strike_stream(self, small_program,
                                             small_pipeline):
        """``trial_seed`` excludes ``ecc`` so protected and unprotected
        campaigns compare the identical strikes; the batcher preserves
        that."""
        plain = CampaignConfig(trials=30, seed=4)
        ecc = CampaignConfig(trials=30, seed=4, ecc=True)
        assert (draw_strike_batch(small_pipeline, plain,
                                  small_program.name, 0, 30)
                == draw_strike_batch(small_pipeline, ecc,
                                     small_program.name, 0, 30))


@pytest.fixture(scope="module")
def rule_setup():
    """A tiny program whose trace exercises every static-filter rule
    (mirrors ``test_oracle.py``): a live value, a dead destination, a
    predicated-false op, and a live op with a non-live IMM field."""
    prog = program([
        I(Opcode.MOVI, r1=1, imm=5),
        I(Opcode.MOVI, r1=9, imm=3),
        I(Opcode.CMP_NE, r1=6, r2=1, r3=1),
        I(Opcode.ADDI, qp=6, r1=2, r2=1, imm=1),
        I(Opcode.ADD, r1=3, r2=1, r3=1),
        I(Opcode.OUT, r2=1),
    ])
    baseline = FunctionalSimulator(prog).run()
    assert baseline.clean
    return prog, baseline


class TestMaskSoundness:
    """Kill masks == the oracle's static rules, point by point, over
    every (instruction, bit) flip."""

    def test_masks_match_classify_static_exhaustively(self, rule_setup):
        prog, baseline = rule_setup
        oracle = EffectOracle(StrikeSubject(prog, baseline))
        masks = build_kill_masks(baseline, oracle.deadness)
        assert len(masks) == len(baseline.trace)
        reasons = set()
        for seq in range(len(baseline.trace)):
            for bit in range(ENCODING_BITS):
                static = oracle.classify_static(seq, bit)
                assert bool((masks[seq] >> bit) & 1) == (static is not None), \
                    (seq, bit, static)
                if static is not None:
                    reasons.add(static)
        # The program must actually exercise all three rules, or the
        # sweep proves less than it claims.
        assert reasons == STATIC_REASONS

    def test_masks_match_on_session_workload_stride(self, small_program,
                                                    small_execution):
        """Beyond hand-built corners: strided sweep of the real trace."""
        oracle = EffectOracle(StrikeSubject(small_program, small_execution))
        masks = build_kill_masks(small_execution, oracle.deadness)
        checked = killed = 0
        for seq in range(0, len(small_execution.trace), 97):
            for bit in range(ENCODING_BITS):
                static = oracle.classify_static(seq, bit)
                assert bool((masks[seq] >> bit) & 1) == (static is not None)
                checked += 1
                killed += static is not None
        assert checked > 0 and killed > 0


class TestStrikeBatch:
    def test_len_slice_and_equality(self, small_program, small_pipeline):
        config = CampaignConfig(trials=20, seed=1)
        batch = draw_strike_batch(small_pipeline, config,
                                  small_program.name, 0, 20)
        assert len(batch) == 20
        part = draw_strike_batch(small_pipeline, config,
                                 small_program.name, 5, 12)
        assert (part.start, part.stop, len(part)) == (5, 12, 7)
        assert part.triples() == batch.triples()[5:12]
        assert part == sub_batch(batch, 5, 12)
        assert part != batch
        assert sub_batch(batch, 0, 20) == batch

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            StrikeBatch(0, 2, [1], [0, 0], [3, 4])

    def test_degenerate_pipeline_raises_like_strike_model(
            self, small_program, small_pipeline):
        empty = replace(small_pipeline, cycles=0, intervals=[])
        config = CampaignConfig(trials=5, seed=1)
        with pytest.raises(ValueError, match="empty entry-cycle space"):
            draw_strike_batch(empty, config, small_program.name, 0, 5)
        with pytest.raises(ValueError, match="empty entry-cycle space"):
            StrikeModel(empty)


class TestDegeneratePipeline:
    """An unsampleable pipeline result fails inside every shard and ends
    in the quarantine report, attributed to its workload."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_trial_is_quarantined(self, jobs, small_program,
                                        small_execution, small_pipeline):
        empty = replace(small_pipeline, cycles=0, intervals=[])
        config = CampaignConfig(trials=4, seed=1, parity=True)
        with use_runtime(jobs=jobs, policy=RetryPolicy(retries=0)):
            result = run_campaign(small_program, small_execution, empty,
                                  config)
        report = result.completeness
        assert report.quarantined == (0, 1, 2, 3)
        assert report.trials_succeeded == 0
        assert result.trials == 0

    def test_crash_names_the_workload(self, small_program, small_execution,
                                      small_pipeline):
        empty = replace(small_pipeline, cycles=0, intervals=[])
        config = CampaignConfig(trials=4, seed=1, parity=True)
        with pytest.raises(TrialCrash) as info:
            run_trial_block(small_program, small_execution, empty, config,
                            2, 3)
        assert info.value.trial_index == 2
        assert "empty entry-cycle space" in str(info.value)
        assert f"[{small_program.name}]" in str(info.value)


class TestTelemetryAndFlags:
    def test_campaign_ticks_batch_counters(self, small_program,
                                           small_execution, small_pipeline):
        with use_runtime() as context:
            run_campaign(small_program, small_execution, small_pipeline,
                         CampaignConfig(trials=40, seed=3))
            counters = context.telemetry.counters
            summary = context.telemetry.format_summary()
        assert counters["batch_trials"] == 40
        assert (counters["batch_vector_kills"]
                + counters["batch_scalar_kills"]
                + counters["batch_reexecutions"]) == 40
        assert "batch:" in summary

    def test_batch_line_format(self):
        telemetry = Telemetry()
        telemetry.merge_counters({"batch_trials": 10,
                                  "batch_vector_kills": 7,
                                  "batch_scalar_kills": 2,
                                  "batch_reexecutions": 1})
        assert ("batch: 7 vector kills, 2 scalar kills, 1 re-executions "
                "over 10 trials") in telemetry.format_summary()


def test_mcf_ooo_l0_baseline_completes():
    """Regression pin for the mcf OOO+L0 deadlock fix.

    The pathology was never scheduler pressure: an issued wrong-path
    load could survive its own squash window as an orphan and stall the
    OOO commit scan forever. The kernel and per-cycle loops now flush
    issued wrong-path entries whose resolution window has passed, so
    this baseline must finish within the default 30M-cycle budget."""
    profile = get_profile("mcf")
    prog = synthesize(profile, target_instructions=24_000, seed=2004)
    baseline = FunctionalSimulator(prog).run()
    assert baseline.clean
    machine = MachineConfig(
        fetch_bubble_prob=profile.fetch_bubble_prob,
        issue_policy=IssuePolicy.OOO_WINDOW,
        squash=SquashConfig(trigger=Trigger.L0_MISS))
    result = PipelineSimulator(prog, baseline.trace, machine,
                               seed=2004).run()
    assert result.cycles <= machine.max_cycles
