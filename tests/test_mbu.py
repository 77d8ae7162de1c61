"""Multi-bit upset tier: golden differentials, stream replay, ECC soundness.

The MBU tier extends three contracts at once, and each gets its own
proof here:

* golden — for every ``TrackingLevel`` x ``EccScheme`` combination
  and every ``EccScheme`` x MBU preset (plus the unprotected multi-bit
  queue), a pinned-seed campaign classified by the production path
  must produce the same tallies, tracker misses, burst counters,
  confidence intervals, and oracle accounting as the per-trial
  reference (``tests/strike_reference.py``), on both the plain and the
  squash-heavy pipeline — mirroring ``test_strike_batching.py``;
* stream equivalence — hypothesis properties that the batch drawer
  replays the reference ``sample`` + ``extend_strike`` draw sequence
  bit-for-bit for any seed, preset, and ``--jobs N`` sharding, and that
  single-bit campaigns draw zero extra randomness;
* ECC soundness — the ``classify_burst`` action table checked against
  an independent brute-force bit-enumeration reference for *every*
  mask of weight <= 3, plus the pattern-code/canonical-mask bijection
  the vectorised classifier relies on;
* lattice endpoints — ``scheme=PARITY`` / ``scheme=SEC`` reproduce the
  legacy ``parity`` / ``ecc`` booleans tally-for-tally on identical
  strikes.

Plus the FIT projection algebra, the design-space sweep exhibit's
byte-stability across worker counts, telemetry/CLI wiring, and the
attributable empty-entry-space diagnostic.
"""

import itertools
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.avf.fit import (
    DEFAULT_STRUCTURE_BITS,
    ENV_MULTIPLIER,
    ENVIRONMENTS,
    FIT_PER_MEGABIT,
    NODES,
    action_fractions,
    fit_matrix,
    rank_schemes,
    raw_structure_fit,
    scheme_fit_cells,
)
from repro.cli import build_parser, main
from repro.due.tracking import (
    CHECK_BITS,
    SCHEME_LADDER,
    BurstAction,
    EccScheme,
    TrackingLevel,
    classify_burst,
)
from repro.experiments import fitsweep
from repro.experiments.common import ExperimentSettings, clear_caches
from repro.faults.batch import (
    StrikeBatch,
    StrikeClassifier,
    StrikeSubject,
    draw_strike_batch,
    empty_space_message,
)
from repro.faults.campaign import CampaignConfig, run_campaign, trial_seed
from repro.faults.mbu import (
    CANONICAL_MASKS,
    PMF_RESOLUTION,
    PRESETS,
    BurstPattern,
    MbuPreset,
    get_preset,
    mask_for,
    representative_bit,
)
from repro.faults.oracle import EffectOracle
from repro.isa.encoding import ENCODING_BITS, Field, field_bits
from repro.runtime.context import get_runtime, reset_runtime, use_runtime
from repro.runtime.engine import shard_trials
from repro.runtime.telemetry import Telemetry
from repro.util.rng import DeterministicRng
from tests.strike_reference import (
    Strike,
    StrikeModel,
    assert_matches_reference,
    draw_second_bit,
    extend_strike,
    production_block,
    reference_block,
    sample_strike,
    sub_batch,
)

PRESET_NAMES = tuple(sorted(PRESETS))


def _mbu_configs():
    """Every TrackingLevel x EccScheme, plus the unprotected MBU queue."""
    configs = [CampaignConfig(trials=40, seed=77, scheme=scheme,
                              tracking=level, mbu_preset="terrestrial")
               for scheme in SCHEME_LADDER for level in TrackingLevel]
    configs.append(CampaignConfig(trials=40, seed=77,
                                  mbu_preset="terrestrial"))
    return configs


def _config_id(config):
    scheme = "none" if config.scheme is None else config.scheme.value
    return f"{scheme}-{config.tracking.name.lower()}"


class TestGoldenDifferential:
    """Batched MBU campaigns are bit-identical to the scalar loop for
    every protection point of the lattice."""

    @pytest.mark.parametrize("config", _mbu_configs(), ids=_config_id)
    def test_batched_matches_scalar(self, config, small_program,
                                    small_execution, small_pipeline):
        assert_matches_reference(small_program, small_execution,
                                 small_pipeline, config)

    @pytest.mark.parametrize("config", [
        CampaignConfig(trials=40, seed=77, scheme=scheme,
                       tracking=TrackingLevel.MEM_PI,
                       mbu_preset="space")
        for scheme in SCHEME_LADDER
    ] + [CampaignConfig(trials=40, seed=77, mbu_preset="space")],
        ids=[s.value for s in SCHEME_LADDER] + ["none"])
    def test_batched_matches_scalar_on_squash_pipeline(
            self, config, small_program, small_execution, squash_pipeline):
        """Squash-heavy pipelines exercise the wrong-path DETECT/ESCAPE
        branches the array pass classifies without the oracle."""
        assert_matches_reference(small_program, small_execution,
                                 squash_pipeline, config)

    @pytest.mark.parametrize("pipeline", ["small_pipeline",
                                          "squash_pipeline"])
    @pytest.mark.parametrize("preset", PRESET_NAMES)
    @pytest.mark.parametrize("scheme", list(SCHEME_LADDER) + [None],
                             ids=lambda s: "none" if s is None else s.value)
    def test_every_scheme_and_preset(self, scheme, preset, pipeline,
                                     request, small_program,
                                     small_execution):
        config = CampaignConfig(trials=40, seed=78, scheme=scheme,
                                mbu_preset=preset)
        assert_matches_reference(small_program, small_execution,
                                 request.getfixturevalue(pipeline), config)

    def test_campaign_actually_draws_bursts(self, small_program,
                                            small_execution, small_pipeline):
        """The differential proves nothing if no multi-bit burst was
        drawn; under the space preset (45% bursts) 40 trials without one
        would be a broken sampler, not luck."""
        config = CampaignConfig(trials=40, seed=77, scheme=EccScheme.TAEC,
                                mbu_preset="space")
        _, _, classifier = production_block(small_program, small_execution,
                                            small_pipeline, config)
        counters = classifier.burst_counters()
        assert counters["mbu_multi_bit"] > 0
        assert (counters["ecc_corrected"] + counters["ecc_detected"]
                + counters["ecc_escaped"]) > 0

    def test_unprotected_mbu_keeps_decoder_counters_silent(
            self, small_program, small_execution, small_pipeline):
        """No scheme, only bursts: the multi-bit draw counter ticks but
        no decoder action can be claimed."""
        config = CampaignConfig(trials=40, seed=77, mbu_preset="space")
        _, _, classifier = production_block(small_program, small_execution,
                                            small_pipeline, config)
        counters = classifier.burst_counters()
        assert counters["mbu_multi_bit"] > 0
        assert counters["ecc_corrected"] == 0
        assert counters["ecc_detected"] == 0
        assert counters["ecc_escaped"] == 0

    def test_run_campaign_sharded_matches_serial_scalar(
            self, small_program, small_execution, small_pipeline):
        config = CampaignConfig(trials=48, seed=21, scheme=EccScheme.SEC_DED,
                                tracking=TrackingLevel.REG_PI,
                                mbu_preset="terrestrial")
        with use_runtime(jobs=3):
            sharded = run_campaign(small_program, small_execution,
                                   small_pipeline, config)
        counts, misses, _ = reference_block(small_program, small_execution,
                                            small_pipeline, config)
        assert sharded.counts == counts
        assert sharded.tracker_misses == misses


class TestBurstStreamEquivalence:
    """The batch drawer replays the reference sample+extend draw stream."""

    @given(seed=st.integers(min_value=0, max_value=2 ** 16),
           jobs=st.integers(min_value=1, max_value=8),
           preset_name=st.sampled_from(PRESET_NAMES))
    @settings(max_examples=8, deadline=None)
    def test_burst_stream_equivalence(self, seed, jobs, preset_name,
                                      small_program, small_pipeline):
        config = CampaignConfig(trials=36, seed=seed, mbu_preset=preset_name)
        full = draw_strike_batch(small_pipeline, config,
                                 small_program.name, 0, config.trials)
        assert full.mask is not None and full.pattern is not None
        sampler = StrikeModel(small_pipeline)
        preset = get_preset(preset_name)
        for index, (row, cycle, bit) in enumerate(full.triples()):
            rng = DeterministicRng(
                trial_seed(config, small_program.name, index))
            strike = extend_strike(sampler.sample(rng), rng, preset)
            assert bit == strike.bit
            assert full.mask[index] == strike.mask
            pattern = BurstPattern(full.pattern[index])
            if pattern is BurstPattern.SINGLE:
                assert full.mask[index] == 0
            else:
                assert full.mask[index] != 0
        # Any --jobs N sharding: a shard's independent draw equals the
        # corresponding rows of the whole-campaign batch, mask and
        # pattern columns included.
        for block in shard_trials(config.trials, jobs):
            shard = draw_strike_batch(small_pipeline, config,
                                      small_program.name,
                                      block.start, block.stop)
            assert shard == sub_batch(full, block.start, block.stop)

    @given(seed=st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=8, deadline=None)
    def test_single_bit_stream_untouched_by_mbu_tier(self, seed,
                                                     small_program,
                                                     small_pipeline):
        """MBU-off batches carry no extra columns and draw the identical
        (interval, cycle, bit) stream as an MBU campaign — the pattern
        draw rides strictly *after* the sampler's draws."""
        plain = CampaignConfig(trials=24, seed=seed)
        mbu = CampaignConfig(trials=24, seed=seed, mbu_preset="space")
        plain_batch = draw_strike_batch(small_pipeline, plain,
                                        small_program.name, 0, 24)
        mbu_batch = draw_strike_batch(small_pipeline, mbu,
                                      small_program.name, 0, 24)
        assert plain_batch.mask is None and plain_batch.pattern is None
        assert plain_batch.triples() == mbu_batch.triples()

    def test_scheme_sees_the_same_strike_stream(self, small_program,
                                                small_pipeline):
        """``trial_seed`` excludes the scheme, so every lattice point of
        a design-space sweep compares the identical bursts."""
        batches = [
            draw_strike_batch(
                small_pipeline,
                CampaignConfig(trials=30, seed=4, scheme=scheme,
                               mbu_preset="terrestrial"),
                small_program.name, 0, 30)
            for scheme in list(SCHEME_LADDER) + [None]
        ]
        assert all(batch == batches[0] for batch in batches[1:])

    def test_drawn_masks_have_the_pattern_shape(self, small_program,
                                                small_pipeline):
        """Pattern codes and mask geometry stay in bijection: adjacent
        runs clamped in-word, random doubles at least two apart."""
        config = CampaignConfig(trials=400, seed=9, mbu_preset="space")
        batch = draw_strike_batch(small_pipeline, config,
                                  small_program.name, 0, 400)
        seen = Counter()
        for index, (_, _, bit) in enumerate(batch.triples()):
            pattern = BurstPattern(batch.pattern[index])
            mask = batch.mask[index]
            seen[pattern] += 1
            if pattern is BurstPattern.SINGLE:
                assert mask == 0
                continue
            assert mask >> ENCODING_BITS == 0
            assert mask >> bit & 1, "the struck bit is part of its burst"
            if pattern is BurstPattern.RANDOM_DOUBLE:
                others = [b for b in range(ENCODING_BITS)
                          if mask >> b & 1 and b != bit]
                assert len(others) == 1 and abs(others[0] - bit) >= 2
            else:
                width = (2 if pattern is BurstPattern.DOUBLE_ADJACENT
                         else 3)
                start = min(bit, ENCODING_BITS - width)
                assert mask == ((1 << width) - 1) << start
        # 400 space-preset trials must exercise every pattern shape.
        assert set(seen) == set(BurstPattern)


def _reference_action(scheme, bits):
    """Independent brute-force reference for the decoder action table.

    ``bits`` is the enumerated bit-position list of the error mask;
    weight and adjacency are recomputed from scratch here (not via
    ``_burst_shape``) so the production table is checked against a
    second, independently written encoding of each code's distance.
    """
    weight = len(bits)
    adjacent = sorted(bits) == list(range(min(bits), min(bits) + weight))
    if scheme is EccScheme.PARITY:
        return (BurstAction.DETECT if weight % 2 == 1
                else BurstAction.ESCAPE)
    if scheme is EccScheme.SEC:
        return (BurstAction.CORRECT if weight == 1
                else BurstAction.ESCAPE)
    if scheme is EccScheme.SEC_DED:
        if weight == 1:
            return BurstAction.CORRECT
        if weight == 2:
            return BurstAction.DETECT
        return BurstAction.ESCAPE
    if scheme is EccScheme.TAEC:
        if weight == 1 or (adjacent and weight in (2, 3)):
            return BurstAction.CORRECT
        if weight == 2:
            return BurstAction.DETECT
        return BurstAction.ESCAPE
    assert scheme is EccScheme.DEC
    if weight in (1, 2):
        return BurstAction.CORRECT
    if weight == 3:
        return BurstAction.DETECT
    return BurstAction.ESCAPE


class TestEccSoundness:
    """The classify_burst table against brute-force bit enumeration."""

    @pytest.mark.parametrize("scheme", SCHEME_LADDER,
                             ids=[s.value for s in SCHEME_LADDER])
    def test_exhaustive_weight_le3_sweep(self, scheme):
        """Every mask of weight 1..3 over the 41-bit word (11,521 masks
        per scheme) classifies exactly as the independent reference."""
        checked = 0
        for weight in (1, 2, 3):
            for bits in itertools.combinations(range(ENCODING_BITS), weight):
                mask = 0
                for bit in bits:
                    mask |= 1 << bit
                assert (classify_burst(scheme, mask)
                        == _reference_action(scheme, list(bits))), \
                    (scheme, bits)
                checked += 1
        assert checked == 41 + 820 + 10660

    @given(mask=st.integers(min_value=1, max_value=(1 << ENCODING_BITS) - 1),
           scheme=st.sampled_from(SCHEME_LADDER))
    @settings(max_examples=400, deadline=None)
    def test_classification_is_total(self, mask, scheme):
        """Beyond anything the samplers draw (weights 4..41), the table
        still matches the reference — the decoder never crashes on a
        pathological burst."""
        bits = [b for b in range(ENCODING_BITS) if mask >> b & 1]
        assert classify_burst(scheme, mask) == _reference_action(scheme, bits)

    @pytest.mark.parametrize("scheme", SCHEME_LADDER,
                             ids=[s.value for s in SCHEME_LADDER])
    def test_canonical_mask_stands_for_every_drawable_mask(self, scheme):
        """The vectorised classifier acts on pattern codes via the
        canonical masks; this is sound iff every mask ``mask_for`` can
        produce classifies identically to its pattern's canonical form."""
        for bit in range(ENCODING_BITS):
            for pattern in (BurstPattern.DOUBLE_ADJACENT,
                            BurstPattern.TRIPLE_ADJACENT):
                drawn = mask_for(pattern, bit)
                assert (classify_burst(scheme, drawn)
                        == classify_burst(scheme, CANONICAL_MASKS[pattern]))
            for second in range(ENCODING_BITS):
                if abs(second - bit) < 2:
                    continue
                drawn = mask_for(BurstPattern.RANDOM_DOUBLE, bit, second)
                canonical = CANONICAL_MASKS[BurstPattern.RANDOM_DOUBLE]
                assert (classify_burst(scheme, drawn)
                        == classify_burst(scheme, canonical))
        # SINGLE draws no mask; the single-bit flip is its own canonical.
        assert (classify_burst(scheme, 1)
                == classify_burst(scheme,
                                  CANONICAL_MASKS[BurstPattern.SINGLE]))

    def test_empty_mask_rejected(self):
        for bad in (0, -1):
            with pytest.raises(ValueError):
                classify_burst(EccScheme.SEC, bad)
            with pytest.raises(ValueError):
                representative_bit(bad)

    def test_check_bit_overhead_is_monotone_in_strength(self):
        """The lattice order is a real cost order: each stronger scheme
        spends at least as many check bits."""
        costs = [CHECK_BITS[scheme] for scheme in SCHEME_LADDER]
        assert costs == sorted(costs)


class TestLatticeEndpoints:
    """scheme=PARITY / scheme=SEC reproduce the legacy booleans."""

    @staticmethod
    def _classify_both(legacy, lattice, program, baseline, pipeline):
        """Both configs' classifiers on the legacy config's strikes (the
        campaign seeds fork on the ``parity`` flag, so the comparison
        must share one batch)."""
        batch = draw_strike_batch(pipeline, legacy, program.name, 0,
                                  legacy.trials)
        return [StrikeClassifier(StrikeSubject(program, baseline),
                                 pipeline, config).classify(batch)
                for config in (legacy, lattice)]

    @pytest.mark.parametrize("tracking", list(TrackingLevel),
                             ids=[t.name.lower() for t in TrackingLevel])
    def test_scheme_parity_matches_legacy_parity(self, tracking,
                                                 small_program,
                                                 small_execution,
                                                 small_pipeline):
        """On identical single-bit strikes the PARITY lattice point is
        tally-for-tally the legacy path."""
        legacy, lattice = self._classify_both(
            CampaignConfig(trials=120, seed=1234, parity=True,
                           tracking=tracking),
            CampaignConfig(trials=120, seed=1234, scheme=EccScheme.PARITY,
                           tracking=tracking),
            small_program, small_execution, small_pipeline)
        assert lattice == legacy

    def test_scheme_sec_matches_legacy_ecc(self, small_program,
                                           small_execution, small_pipeline):
        legacy, lattice = self._classify_both(
            CampaignConfig(trials=120, seed=99, ecc=True),
            CampaignConfig(trials=120, seed=99, scheme=EccScheme.SEC),
            small_program, small_execution, small_pipeline)
        assert lattice == legacy

    def test_scheme_excludes_legacy_flags(self, small_program,
                                          small_execution, small_pipeline):
        """No classifier can be built for a scheme plus a legacy flag:
        the config it is built from refuses the combination."""
        with pytest.raises(ValueError, match="lattice"):
            StrikeClassifier(StrikeSubject(small_program, small_execution),
                             small_pipeline,
                             CampaignConfig(parity=True,
                                            scheme=EccScheme.PARITY))
        with pytest.raises(ValueError, match="lattice"):
            StrikeClassifier(StrikeSubject(small_program, small_execution),
                             small_pipeline,
                             CampaignConfig(ecc=True, scheme=EccScheme.SEC))


class TestRepresentativeBit:
    def test_single_bit_mask_is_its_own_representative(self):
        for bit in range(ENCODING_BITS):
            assert representative_bit(1 << bit) == bit

    def test_opcode_intersection_wins(self):
        opcode_bits = sorted(field_bits(Field.OPCODE))
        non_opcode = [bit for bit in range(ENCODING_BITS)
                      if bit not in opcode_bits]
        mask = (1 << opcode_bits[1]) | (1 << non_opcode[0])
        assert representative_bit(mask) == opcode_bits[1]
        # Without an opcode bit, the lowest set bit stands in.
        mask = (1 << non_opcode[0]) | (1 << non_opcode[3])
        assert representative_bit(mask) == min(non_opcode[0], non_opcode[3])


class TestMaskOracleSoundness:
    """Static burst classification is a sound filter for re-execution."""

    def test_kill_mask_subset_iff_static_burst_kill(self, small_program,
                                                    small_execution):
        """The batch path's subset test against the per-bit kill masks
        decides exactly like ``classify_static_mask`` for every burst
        shape at a stride of committed instructions."""
        from repro.faults.batch import build_kill_masks

        oracle = EffectOracle(StrikeSubject(small_program, small_execution))
        masks = build_kill_masks(small_execution, oracle.deadness)
        bursts = [mask_for(BurstPattern.DOUBLE_ADJACENT, bit)
                  for bit in range(ENCODING_BITS)]
        bursts += [mask_for(BurstPattern.TRIPLE_ADJACENT, bit)
                   for bit in range(ENCODING_BITS)]
        bursts += [mask_for(BurstPattern.RANDOM_DOUBLE, bit, second)
                   for bit in range(0, ENCODING_BITS, 5)
                   for second in range(0, ENCODING_BITS, 7)
                   if abs(second - bit) >= 2]
        checked = killed = 0
        for seq in range(0, len(small_execution.trace), 97):
            for burst in bursts:
                subset = (masks[seq] & burst) == burst
                static = oracle.classify_static_mask(seq, burst)
                assert subset == (static is not None), (seq, bin(burst))
                checked += 1
                killed += static is not None
        assert checked > 0 and killed > 0

    def test_static_mask_filter_is_sound(self, small_program,
                                         small_execution, small_pipeline):
        """Every drawn burst the conjunction filters re-executes to
        "none": whatever the filter kills was benign anyway."""
        config = CampaignConfig(trials=150, seed=5, mbu_preset="space")
        oracle = EffectOracle(StrikeSubject(small_program, small_execution))
        sampler = StrikeModel(small_pipeline)
        killed = 0
        for index in range(config.trials):
            strike = sample_strike(sampler, config, small_program.name,
                                   index)
            if strike.interval is None or strike.interval.seq is None:
                continue
            seq, burst = strike.interval.seq, strike.burst_mask
            if oracle.classify_static_mask(seq, burst) is not None:
                assert oracle.reexecute(seq, burst) == "none", (seq, burst)
                killed += 1
        assert killed > 0


class TestStrikeBatchMbuColumns:
    def test_mask_and_pattern_come_as_a_pair(self):
        with pytest.raises(ValueError):
            StrikeBatch(0, 2, [1, 1], [0, 0], [3, 4], mask=[0, 3])
        with pytest.raises(ValueError):
            StrikeBatch(0, 2, [1, 1], [0, 0], [3, 4], pattern=[0, 1])

    def test_slice_carries_the_burst_columns(self, small_program,
                                             small_pipeline):
        config = CampaignConfig(trials=20, seed=1, mbu_preset="space")
        batch = draw_strike_batch(small_pipeline, config,
                                  small_program.name, 0, 20)
        part = draw_strike_batch(small_pipeline, config,
                                 small_program.name, 5, 12)
        assert list(part.mask) == list(batch.mask[5:12])
        assert list(part.pattern) == list(batch.pattern[5:12])
        assert part == sub_batch(batch, 5, 12)
        assert part != batch

    def test_mbu_batch_differs_from_plain_batch(self, small_program,
                                                small_pipeline):
        plain = draw_strike_batch(
            small_pipeline, CampaignConfig(trials=10, seed=1),
            small_program.name, 0, 10)
        mbu = draw_strike_batch(
            small_pipeline,
            CampaignConfig(trials=10, seed=1, mbu_preset="space"),
            small_program.name, 0, 10)
        assert plain != mbu


class TestEmptySpaceDiagnostic:
    """The degenerate-geometry error is attributable to its workload."""

    def test_message_carries_the_label(self, small_pipeline):
        empty = replace(small_pipeline, cycles=0, intervals=[])
        message = empty_space_message(empty, "crafty/ooo-l0")
        assert "empty entry-cycle space" in message
        assert "[crafty/ooo-l0]" in message
        assert f"{empty.iq_entries} entries x 0 cycles" in message
        # Label-less call sites keep the unlabelled message.
        assert "[" not in empty_space_message(empty)

    def test_strike_model_raises_with_label(self, small_pipeline):
        empty = replace(small_pipeline, cycles=0, intervals=[])
        with pytest.raises(ValueError, match=r"\[mcf-quarantine\]"):
            StrikeModel(empty, label="mcf-quarantine")

    def test_batched_drawer_names_the_program(self, small_pipeline):
        empty = replace(small_pipeline, cycles=0, intervals=[])
        config = CampaignConfig(trials=5, seed=1)
        with pytest.raises(ValueError, match=r"\[progname\]"):
            draw_strike_batch(empty, config, "progname", 0, 5)


class TestPresetAndConfigValidation:
    def test_preset_weights_must_sum_to_resolution(self):
        with pytest.raises(ValueError, match="sum"):
            MbuPreset("broken", (1, 2, 3, 4))
        with pytest.raises(ValueError, match="non-negative"):
            MbuPreset("broken", (-1, 1, PMF_RESOLUTION, 0))
        with pytest.raises(ValueError, match="one weight per"):
            MbuPreset("broken", (PMF_RESOLUTION, 0, 0))

    def test_builtin_presets_are_valid_pmfs(self):
        for name, preset in PRESETS.items():
            assert preset.name == name
            assert sum(preset.weights) == PMF_RESOLUTION
            assert sum(preset.probability(p)
                       for p in BurstPattern) == pytest.approx(1.0)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown MBU preset"):
            get_preset("lunar")
        with pytest.raises(ValueError, match="unknown MBU preset"):
            CampaignConfig(trials=5, seed=1, mbu_preset="lunar")

    def test_scheme_excludes_legacy_booleans(self):
        with pytest.raises(ValueError, match="lattice"):
            CampaignConfig(trials=5, seed=1, parity=True,
                           scheme=EccScheme.PARITY)
        with pytest.raises(ValueError, match="lattice"):
            CampaignConfig(trials=5, seed=1, ecc=True,
                           scheme=EccScheme.SEC)

    def test_mbu_preset_excludes_single_bit_booleans(self):
        with pytest.raises(ValueError, match="single-bit"):
            CampaignConfig(trials=5, seed=1, parity=True,
                           mbu_preset="terrestrial")
        with pytest.raises(ValueError, match="single-bit"):
            CampaignConfig(trials=5, seed=1, ecc=True,
                           mbu_preset="terrestrial")
        # Unprotected MBU and scheme-protected MBU are both legal.
        CampaignConfig(trials=5, seed=1, mbu_preset="terrestrial")
        CampaignConfig(trials=5, seed=1, mbu_preset="terrestrial",
                       scheme=EccScheme.DEC)

    def test_random_double_requires_second_bit(self):
        with pytest.raises(ValueError, match="second bit"):
            mask_for(BurstPattern.RANDOM_DOUBLE, 3)

    def test_second_bit_never_adjacent(self):
        rng = DeterministicRng(7)
        for bit in (0, 20, 40):
            for _ in range(50):
                assert abs(draw_second_bit(rng, bit) - bit) >= 2

    def test_extend_strike_single_keeps_the_strike(self):
        single = MbuPreset("single-only",
                           (PMF_RESOLUTION, 0, 0, 0))
        strike = Strike(interval=None, cycle=0, bit=7)
        extended = extend_strike(strike, DeterministicRng(1), single)
        assert extended is strike
        assert extended.mask == 0
        assert extended.burst_mask == 1 << 7


class TestFitProjection:
    def test_raw_structure_fit_composes_node_size_environment(self):
        assert raw_structure_fit("28nm", bits=1_000_000) == 74.0
        assert raw_structure_fit("16nm", bits=2_000_000,
                                 environment="avionics") \
            == pytest.approx(5.0 * 2.0 * 300.0)
        assert raw_structure_fit("7nm", bits=DEFAULT_STRUCTURE_BITS,
                                 environment="space") \
            == pytest.approx(0.4 * (64 * 41 / 1e6) * 50_000.0)

    def test_raw_structure_fit_validates_inputs(self):
        with pytest.raises(ValueError, match="unknown technology node"):
            raw_structure_fit("3nm")
        with pytest.raises(ValueError, match="unknown environment"):
            raw_structure_fit("28nm", environment="submarine")
        with pytest.raises(ValueError, match="positive"):
            raw_structure_fit("28nm", bits=0)

    def test_fit_matrix_order_and_values(self):
        cells = fit_matrix(0.25, 0.5, bits=1_000_000)
        assert [(c.node, c.environment) for c in cells] \
            == [(n, e) for n in NODES for e in ENVIRONMENTS]
        for cell in cells:
            raw = (FIT_PER_MEGABIT[cell.node]
                   * ENV_MULTIPLIER[cell.environment])
            assert cell.sdc_fit == pytest.approx(raw * 0.25)
            assert cell.due_fit == pytest.approx(raw * 0.5)
            assert cell.total_fit == pytest.approx(raw * 0.75)
            assert cell.mttf_years > 0

    def test_fit_matrix_validates_avfs(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError, match="AVF"):
                fit_matrix(bad, 0.0)
            with pytest.raises(ValueError, match="AVF"):
                fit_matrix(0.0, bad)

    def test_zero_fit_means_infinite_mttf(self):
        cells = fit_matrix(0.0, 0.0)
        assert all(cell.total_fit == 0.0 for cell in cells)
        assert all(cell.mttf_years == float("inf") for cell in cells)

    def test_mttf_consistent_with_mitf_module(self):
        from repro.avf.mitf import mttf_years_from_fit

        cell = fit_matrix(0.1, 0.2, bits=1_000_000)[0]
        assert cell.mttf_years == pytest.approx(
            mttf_years_from_fit(cell.total_fit))

    def test_action_fractions_match_hand_computation(self):
        terrestrial = get_preset("terrestrial")
        unprotected = action_fractions(None, terrestrial)
        assert unprotected[BurstAction.ESCAPE] == pytest.approx(1.0)
        assert unprotected[BurstAction.CORRECT] == 0.0
        sec = action_fractions(EccScheme.SEC, terrestrial)
        assert sec[BurstAction.CORRECT] == pytest.approx(0.85)
        assert sec[BurstAction.ESCAPE] == pytest.approx(0.15)
        assert sec[BurstAction.DETECT] == 0.0
        taec = action_fractions(EccScheme.TAEC, terrestrial)
        assert taec[BurstAction.CORRECT] == pytest.approx(0.99)
        assert taec[BurstAction.DETECT] == pytest.approx(0.01)
        assert taec[BurstAction.ESCAPE] == pytest.approx(0.0)

    @pytest.mark.parametrize("preset_name", PRESET_NAMES)
    def test_action_fractions_are_a_distribution(self, preset_name):
        preset = get_preset(preset_name)
        for scheme in list(SCHEME_LADDER) + [None]:
            fractions = action_fractions(scheme, preset)
            assert sum(fractions.values()) == pytest.approx(1.0)
            assert all(f >= 0.0 for f in fractions.values())

    def test_rank_schemes_orders_by_sdc_due_then_cost(self):
        residuals = {
            EccScheme.SEC: (0.10, 0.00),
            EccScheme.PARITY: (0.00, 0.20),
            EccScheme.TAEC: (0.00, 0.20),   # ties parity on AVFs...
            EccScheme.DEC: (0.00, 0.05),
        }
        ranking = rank_schemes(residuals)
        # ...so check bits break the tie: parity (1) before taec (8).
        assert ranking == (EccScheme.DEC, EccScheme.PARITY,
                           EccScheme.TAEC, EccScheme.SEC)

    def test_scheme_fit_cells_covers_every_scheme(self):
        residuals = {scheme: (0.01, 0.02) for scheme in SCHEME_LADDER}
        matrix = scheme_fit_cells(residuals, bits=1_000_000)
        assert set(matrix) == set(SCHEME_LADDER)
        for cells in matrix.values():
            assert len(cells) == len(NODES) * len(ENVIRONMENTS)


class TestFitSweepExhibit:
    @pytest.fixture(scope="class")
    def sweep_pair(self, small_profile):
        """One tiny sweep serial and one sharded, same settings."""
        settings = ExperimentSettings(target_instructions=2500, seed=7)
        texts = []
        results = []
        for jobs in (1, 3):
            clear_caches()
            with use_runtime(jobs=jobs):
                result = fitsweep.run(settings, profiles=[small_profile],
                                      trials=24)
                texts.append(fitsweep.format_result(result))
                results.append(result)
        clear_caches()
        return results, texts

    def test_byte_stable_across_jobs(self, sweep_pair):
        results, texts = sweep_pair
        assert texts[0] == texts[1]
        assert results[0].ranking == results[1].ranking

    def test_sweep_covers_the_whole_lattice(self, sweep_pair):
        (result, _), _ = sweep_pair
        assert set(result.rows) == set(SCHEME_LADDER) | {None}
        assert set(result.ranking) == set(SCHEME_LADDER)
        assert result.winner == result.ranking[0]
        for row in result.rows.values():
            assert row.residual == pytest.approx(row.sdc + row.due)
        cells = result.cells(result.winner)
        assert len(cells) == len(NODES) * len(ENVIRONMENTS)

    def test_format_mentions_every_scheme_and_node(self, sweep_pair):
        _, (text, _) = sweep_pair
        for scheme in SCHEME_LADDER:
            assert scheme.value in text
        assert "none" in text
        for node in NODES:
            assert node in text
        assert "Ranking (SDC first, DUE second, check bits last)" in text

    def test_scheme_name_restricts_the_sweep(self, small_profile):
        settings = ExperimentSettings(target_instructions=2500, seed=7)
        clear_caches()
        with use_runtime():
            result = fitsweep.run(settings, profiles=[small_profile],
                                  trials=12, scheme_name="taec")
        clear_caches()
        assert set(result.rows) == {None, EccScheme.TAEC}
        assert result.ranking == (EccScheme.TAEC,)

    def test_unknown_preset_fails_fast(self):
        with pytest.raises(ValueError, match="unknown MBU preset"):
            fitsweep.run(ExperimentSettings(target_instructions=2500),
                         preset_name="lunar")

    def test_runtime_knobs_feed_the_sweep(self):
        with use_runtime(mbu_preset="space", ecc_scheme="dec"):
            assert get_runtime().mbu_preset == "space"
            assert get_runtime().ecc_scheme == "dec"
            assert fitsweep._resolve_schemes(None) == [EccScheme.DEC]
        with use_runtime():
            assert fitsweep._resolve_schemes(None) == list(SCHEME_LADDER)


class TestTelemetryAndFlags:
    def test_scheme_campaign_ticks_burst_counters(self, small_program,
                                                  small_execution,
                                                  small_pipeline):
        config = CampaignConfig(trials=60, seed=3, scheme=EccScheme.TAEC,
                                mbu_preset="space")
        with use_runtime() as context:
            run_campaign(small_program, small_execution, small_pipeline,
                         config)
            counters = context.telemetry.counters
            summary = context.telemetry.format_summary()
        assert counters["mbu_multi_bit"] > 0
        assert (counters["ecc_corrected"] + counters["ecc_detected"]
                + counters["ecc_escaped"]) > 0
        assert "ecc:" in summary

    def test_single_bit_campaign_leaves_mbu_counters_silent(
            self, small_program, small_execution, small_pipeline):
        """Legacy campaigns must not grow new telemetry keys — their
        dumped summaries stay byte-identical to the pre-MBU format."""
        with use_runtime() as context:
            run_campaign(small_program, small_execution, small_pipeline,
                         CampaignConfig(trials=30, seed=3, parity=True))
            assert context.telemetry.counters["mbu_multi_bit"] == 0
            assert "ecc:" not in context.telemetry.format_summary()

    def test_mbu_line_format(self):
        telemetry = Telemetry()
        telemetry.merge_counters({"mbu_multi_bit": 9, "ecc_corrected": 5,
                                  "ecc_detected": 3, "ecc_escaped": 1})
        assert ("ecc: 5 corrected, 3 detected, 1 escaped "
                "(9 multi-bit bursts)") in telemetry.format_summary()

    def test_parser_mbu_flags(self):
        args = build_parser().parse_args(
            ["fitsweep", "--mbu-preset", "space", "--ecc-scheme", "taec"])
        assert args.mbu_preset == "space"
        assert args.ecc_scheme == "taec"
        defaults = build_parser().parse_args(["fitsweep"])
        assert defaults.mbu_preset is None
        assert defaults.ecc_scheme is None

    def test_parser_rejects_unknown_preset_and_scheme(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fitsweep", "--mbu-preset", "lunar"])
        capsys.readouterr()
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fitsweep", "--ecc-scheme", "crc"])
        capsys.readouterr()

    def test_main_fitsweep_smoke(self, capsys):
        try:
            assert main(["fitsweep", "--instructions", "2500",
                         "--trials", "12", "--ecc-scheme", "taec"]) == 0
            out = capsys.readouterr().out
            assert "taec" in out
            assert "Ranking" in out
        finally:
            reset_runtime()
