"""Per-trial reference semantics of strike sampling and classification.

Production campaigns draw and classify whole trial ranges as arrays
(:mod:`repro.faults.batch`). This module keeps the plain one-strike-at-a-
time statement of the same rules — the sampler, the multi-bit burst
draws, Figure 1's outcome tree walked branch by branch — so the
differential suites can compare the production path against an
independent formulation:

* :class:`StrikeModel` samples one strike from a trial's private
  ``DeterministicRng`` stream (bit first, then a uniform entry-cycle
  point), and :func:`extend_strike` grows it into a burst with draws
  strictly after that pair;
* :class:`StrikeEvaluator` classifies one strike at a time against an
  :class:`~repro.faults.oracle.EffectOracle` whose static verdicts come
  from ``classify_static`` rather than the production kill masks;
  :func:`reference_effect` re-executes a strike from the start of the
  program through the per-step reference interpreter
  (:func:`tests.arch_reference.reference_run`), the seed-era cost model
  with none of the production interpreter in it;
* :func:`reference_block` is the per-trial campaign loop.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

from repro.due.outcomes import FaultOutcome
from repro.due.pi_bit import PiBitTracker
from repro.due.tracking import (
    DEFAULT_PET_ENTRIES,
    BurstAction,
    EccScheme,
    TrackingLevel,
    classify_burst,
)
from repro.faults.batch import (
    StrikeBatch,
    StrikeClassifier,
    StrikeSubject,
    empty_space_message,
)
from repro.faults.campaign import CampaignResult, run_trial_block, trial_seed
from repro.faults.mbu import (
    PMF_RESOLUTION,
    BurstPattern,
    MbuPreset,
    get_preset,
    mask_for,
    representative_bit,
)
from repro.faults.injector import corrupt_burst
from repro.faults.oracle import EffectOracle, default_limits, effect_of
from repro.isa.encoding import ENCODING_BITS
from repro.pipeline.iq import OccupancyInterval, OccupantKind
from repro.pipeline.result import PipelineResult
from repro.util.rng import DeterministicRng

from .arch_reference import reference_run

_EFFECT_TO_OUTCOME = {
    "sdc": FaultOutcome.SDC,
    "trap": FaultOutcome.TRAP,
    "hang": FaultOutcome.HANG,
}


@dataclass(frozen=True)
class Strike:
    """One sampled upset.

    ``interval`` is None when the strike landed on an idle entry;
    ``cycle`` is absolute, ``bit`` indexes the 41-bit syllable. ``mask``
    is 0 for the classic single-event upset; a multi-bit burst stores
    its full flip mask there, with ``bit`` remaining the primary drawn
    bit.
    """

    interval: Optional[OccupancyInterval]
    cycle: int
    bit: int
    mask: int = 0

    @property
    def hit_idle(self) -> bool:
        return self.interval is None

    @property
    def burst_mask(self) -> int:
        """The flipped bits as a mask (never 0: singles are ``1 << bit``)."""
        return self.mask or (1 << self.bit)


class StrikeModel:
    """Uniform sampler over the queue's (entry x cycle x bit) space.

    The probability of hitting an occupant is proportional to its
    residency, and of hitting an idle entry equal to the queue's idle
    fraction — the exposure model behind the AVF equations.
    """

    def __init__(self, result: PipelineResult,
                 rng: Optional[DeterministicRng] = None,
                 label: Optional[str] = None) -> None:
        self._rng = rng
        self._intervals = result.intervals
        self._cumulative: List[int] = list(accumulate(
            interval.resident_cycles for interval in self._intervals))
        self._resident_total = (self._cumulative[-1]
                                if self._cumulative else 0)
        self._space_total = result.total_entry_cycles
        if self._space_total <= 0:
            raise ValueError(empty_space_message(result, label))
        if self._resident_total > self._space_total:
            raise ValueError("occupancy exceeds the entry-cycle space")

    def sample(self, rng: Optional[DeterministicRng] = None) -> Strike:
        """Draw one strike from ``rng`` (default: the bound stream)."""
        rng = rng if rng is not None else self._rng
        if rng is None:
            raise ValueError("no rng bound at construction or passed in")
        bit = rng.randrange(ENCODING_BITS)
        point = rng.randrange(self._space_total)
        if point >= self._resident_total:
            return Strike(interval=None, cycle=0, bit=bit)
        index = bisect_right(self._cumulative, point)
        interval = self._intervals[index]
        start = self._cumulative[index] - interval.resident_cycles
        cycle = interval.alloc_cycle + (point - start)
        return Strike(interval=interval, cycle=cycle, bit=bit)


def draw_pattern(rng, preset: MbuPreset) -> BurstPattern:
    """One pattern draw: a single ``randrange(PMF_RESOLUTION)``."""
    point = rng.randrange(PMF_RESOLUTION)
    acc = 0
    for pattern in BurstPattern:
        acc += preset.weights[pattern]
        if point < acc:
            return pattern
    raise AssertionError("preset weights do not cover the PMF resolution")


def draw_second_bit(rng, bit: int) -> int:
    """Second bit of a random double: uniform, rejecting the +/-1 window."""
    second = rng.randrange(ENCODING_BITS)
    while abs(second - bit) < 2:
        second = rng.randrange(ENCODING_BITS)
    return second


def extend_strike(strike: Strike, rng, preset: MbuPreset) -> Strike:
    """Grow one sampled strike into a burst.

    Called immediately after :meth:`StrikeModel.sample` on the same
    stream. Idle strikes draw their shape too — the particle does not
    know the entry was empty.
    """
    pattern = draw_pattern(rng, preset)
    if pattern is BurstPattern.SINGLE:
        return strike
    second = (draw_second_bit(rng, strike.bit)
              if pattern is BurstPattern.RANDOM_DOUBLE else None)
    return replace(strike, mask=mask_for(pattern, strike.bit, second))


@dataclass(frozen=True)
class StrikeVerdict:
    """Full diagnosis of one strike."""

    outcome: FaultOutcome
    #: Architectural effect of the corruption, ignoring detection:
    #: one of "none", "sdc", "trap", "hang", "not_executed".
    architectural_effect: str
    #: True when the tracker suppressed an error that was actually harmful.
    tracker_miss: bool = False


class StrikeEvaluator:
    """Figure 1's outcome tree, one strike at a time."""

    def __init__(
        self,
        program,
        baseline,
        parity: bool = False,
        tracking: TrackingLevel = TrackingLevel.PARITY_ONLY,
        pet_entries: int = DEFAULT_PET_ENTRIES,
        ecc: bool = False,
        oracle: Optional[EffectOracle] = None,
        scheme: Optional[EccScheme] = None,
        static_filter: bool = True,
        reference_interpreter: bool = False,
    ) -> None:
        if scheme is not None and (parity or ecc):
            raise ValueError(
                "the scheme lattice replaces the legacy parity/ecc flags")
        self.parity = parity
        self.tracking = tracking
        self.ecc = ecc
        self.scheme = scheme
        self.static_filter = static_filter
        self.reference_interpreter = reference_interpreter
        self.program = program
        self.baseline = baseline
        self.oracle = (oracle if oracle is not None
                       else EffectOracle(StrikeSubject(program, baseline)))
        self.tracker = (PiBitTracker(baseline.trace, tracking, pet_entries)
                        if parity or scheme is not None else None)
        self.burst_stats: Dict[str, int] = {
            "mbu_multi_bit": 0,
            "ecc_corrected": 0,
            "ecc_detected": 0,
            "ecc_escaped": 0,
        }

    @classmethod
    def for_config(cls, program, baseline, config, **kwargs):
        return cls(program, baseline, parity=config.parity,
                   tracking=config.tracking, pet_entries=config.pet_entries,
                   ecc=config.ecc, scheme=config.scheme, **kwargs)

    def burst_counters(self) -> Dict[str, int]:
        return dict(self.burst_stats)

    def _effect(self, seq: int, mask: int) -> str:
        """The oracle's verdict; without the static filter, every strike
        re-executes (the seed-era cost model), through the reference
        interpreter when ``reference_interpreter`` is set."""
        if self.static_filter:
            return self.oracle.effect_mask(seq, mask)
        if self.reference_interpreter:
            return reference_effect(self.program, self.baseline, seq, mask)
        return self.oracle.reexecute(seq, mask)

    def evaluate(self, strike: Strike) -> StrikeVerdict:
        """Classify one strike per Figure 1.

        Without protection outcomes are benign, SDC, trap, or hang. With
        ``parity`` the error is detected when the entry is read, and
        ``tracking`` decides whether it is signalled. With ``ecc`` every
        read strike is repaired in place.
        """
        interval = strike.interval
        if strike.mask:
            self.burst_stats["mbu_multi_bit"] += 1
        if interval is None:
            return StrikeVerdict(FaultOutcome.BENIGN_UNREAD, "not_executed")
        if not interval.issued or strike.cycle >= interval.issue_cycle:
            # Struck after the last read (Ex-ACE) or never read at all.
            return StrikeVerdict(FaultOutcome.BENIGN_UNREAD, "not_executed")
        if self.scheme is not None:
            return self._evaluate_scheme(strike, interval)
        if self.ecc:
            return StrikeVerdict(FaultOutcome.CORRECTED, "none")
        if interval.kind is not OccupantKind.COMMITTED:
            # Wrong-path occupant read before the squash: with parity
            # this is the canonical false DUE; a π bit carried to commit
            # suppresses it.
            if not self.parity:
                return StrikeVerdict(FaultOutcome.BENIGN_UNACE,
                                     "not_executed")
            if self.tracking >= TrackingLevel.PI_COMMIT:
                return StrikeVerdict(FaultOutcome.BENIGN_UNACE,
                                     "not_executed")
            return StrikeVerdict(FaultOutcome.FALSE_DUE, "not_executed")

        effect = self._effect(interval.seq, strike.burst_mask)
        if not self.parity:
            if effect == "none":
                return StrikeVerdict(FaultOutcome.BENIGN_UNACE, effect)
            return StrikeVerdict(_EFFECT_TO_OUTCOME[effect], effect)

        decision = self.tracker.process_fault(
            interval.seq, representative_bit(strike.burst_mask))
        if decision.signaled:
            if effect == "none":
                return StrikeVerdict(FaultOutcome.FALSE_DUE, effect)
            return StrikeVerdict(FaultOutcome.TRUE_DUE, effect)
        if effect == "none":
            return StrikeVerdict(FaultOutcome.BENIGN_UNACE, effect)
        return StrikeVerdict(_EFFECT_TO_OUTCOME[effect], effect,
                             tracker_miss=True)

    def _evaluate_scheme(self, strike: Strike, interval) -> StrikeVerdict:
        """A read strike under an :class:`EccScheme` decoder: ``CORRECT``
        repairs, ``DETECT`` behaves like parity, ``ESCAPE`` like an
        unprotected read."""
        burst = strike.burst_mask
        action = classify_burst(self.scheme, burst)
        if action is BurstAction.CORRECT:
            self.burst_stats["ecc_corrected"] += 1
            return StrikeVerdict(FaultOutcome.CORRECTED, "none")
        if action is BurstAction.DETECT:
            self.burst_stats["ecc_detected"] += 1
            if interval.kind is not OccupantKind.COMMITTED:
                if self.tracking >= TrackingLevel.PI_COMMIT:
                    return StrikeVerdict(FaultOutcome.BENIGN_UNACE,
                                         "not_executed")
                return StrikeVerdict(FaultOutcome.FALSE_DUE, "not_executed")
            effect = self._effect(interval.seq, burst)
            decision = self.tracker.process_fault(
                interval.seq, representative_bit(burst))
            if decision.signaled:
                if effect == "none":
                    return StrikeVerdict(FaultOutcome.FALSE_DUE, effect)
                return StrikeVerdict(FaultOutcome.TRUE_DUE, effect)
            if effect == "none":
                return StrikeVerdict(FaultOutcome.BENIGN_UNACE, effect)
            return StrikeVerdict(_EFFECT_TO_OUTCOME[effect], effect,
                                 tracker_miss=True)
        self.burst_stats["ecc_escaped"] += 1
        if interval.kind is not OccupantKind.COMMITTED:
            return StrikeVerdict(FaultOutcome.BENIGN_UNACE, "not_executed")
        effect = self._effect(interval.seq, burst)
        if effect == "none":
            return StrikeVerdict(FaultOutcome.BENIGN_UNACE, effect)
        return StrikeVerdict(_EFFECT_TO_OUTCOME[effect], effect)


def reference_effect(program, baseline, seq: int, mask: int) -> str:
    """Architectural effect of flipping ``mask`` in commit ``seq``.

    Re-executes the whole program, from its entry and under the oracle's
    budget, through :func:`tests.arch_reference.reference_run`.
    """
    corrupted = corrupt_burst(baseline.trace[seq].instruction, mask)
    rerun = reference_run(program, default_limits(baseline),
                          record_trace=False, override_seq=seq,
                          override_instruction=corrupted)
    return effect_of(rerun, baseline.output_signature())


def evaluate_strike(
    strike: Strike,
    program,
    baseline,
    parity: bool = False,
    tracking: TrackingLevel = TrackingLevel.PARITY_ONLY,
    pet_entries: int = DEFAULT_PET_ENTRIES,
    ecc: bool = False,
    reference_interpreter: bool = False,
) -> StrikeVerdict:
    """One-shot strike classification, as in the seed era: a throwaway
    evaluator with the static filter off, so each call re-executes
    (through the reference interpreter with ``reference_interpreter``)."""
    return StrikeEvaluator(
        program, baseline, parity=parity, tracking=tracking,
        pet_entries=pet_entries, ecc=ecc, static_filter=False,
        reference_interpreter=reference_interpreter,
    ).evaluate(strike)


def sample_strike(sampler: StrikeModel, config, program_name: str,
                  index: int) -> Strike:
    """Trial ``index``'s strike, drawn from its private seed stream."""
    rng = DeterministicRng(trial_seed(config, program_name, index))
    strike = sampler.sample(rng)
    if config.mbu_preset is not None:
        strike = extend_strike(strike, rng, get_preset(config.mbu_preset))
    return strike


def reference_block(program, baseline, pipeline_result, config,
                    start: int = 0, stop: Optional[int] = None,
                    evaluator: Optional[StrikeEvaluator] = None,
                    ) -> Tuple[Counter, int, StrikeEvaluator]:
    """The per-trial campaign loop over trials ``[start, stop)``.

    Returns ``(counts, tracker misses, evaluator)``; the evaluator's
    oracle and burst counters are what the production classifier must
    reproduce.
    """
    stop = config.trials if stop is None else stop
    if evaluator is None:
        evaluator = StrikeEvaluator.for_config(program, baseline, config)
    sampler = StrikeModel(pipeline_result, label=program.name)
    counts: Counter = Counter()
    tracker_misses = 0
    for index in range(start, stop):
        verdict = evaluator.evaluate(
            sample_strike(sampler, config, program.name, index))
        counts[verdict.outcome] += 1
        tracker_misses += verdict.tracker_miss
    return counts, tracker_misses, evaluator


def production_block(program, baseline, pipeline_result, config
                     ) -> Tuple[Counter, int, StrikeClassifier]:
    """The production path over all of ``config``'s trials, one block."""
    classifier = StrikeClassifier(StrikeSubject(program, baseline),
                                  pipeline_result, config)
    counts, tracker_misses = run_trial_block(
        program, baseline, pipeline_result, config, 0, config.trials,
        classifier=classifier)
    return counts, tracker_misses, classifier


def assert_matches_reference(program, baseline, pipeline_result, config
                             ) -> Tuple[StrikeClassifier, StrikeEvaluator]:
    """Classify ``config``'s campaign both ways; everything must agree.

    Tallies, tracker misses, derived rates and confidence intervals,
    oracle counters and computed oracle entries, burst counters, and the
    classifier's own counters: every trial is accounted for once, and
    the survivors it hands to the oracle are exactly the strikes the
    reference takes to the oracle.
    """
    counts, misses, classifier = production_block(
        program, baseline, pipeline_result, config)
    ref_counts, ref_misses, evaluator = reference_block(
        program, baseline, pipeline_result, config)
    assert counts == ref_counts
    assert misses == ref_misses
    oracle, ref_oracle = classifier.oracle, evaluator.oracle
    assert oracle.counters() == ref_oracle.counters()
    assert oracle.new_entries() == ref_oracle.new_entries()
    assert classifier.burst_counters() == evaluator.burst_counters()
    result = CampaignResult(config=config, counts=Counter(counts),
                            tracker_misses=misses)
    ref = CampaignResult(config=config, counts=Counter(ref_counts),
                         tracker_misses=ref_misses)
    for name in ("sdc_avf_estimate", "due_avf_estimate",
                 "corrected_estimate", "residual_uncorrectable_estimate"):
        assert getattr(result, name) == getattr(ref, name)
    for outcome in FaultOutcome:
        assert result.rate_confidence(outcome) == ref.rate_confidence(outcome)
    consulted = (ref_oracle.memo_hits + ref_oracle.static_kills
                 + ref_oracle.executions)
    assert classifier.counters() == {
        "batch_trials": config.trials,
        "batch_vector_kills": config.trials - consulted,
        "batch_scalar_kills": consulted - ref_oracle.executions,
        "batch_reexecutions": ref_oracle.executions,
    }
    return classifier, evaluator


def sub_batch(batch: StrikeBatch, start: int, stop: int) -> StrikeBatch:
    """Trials ``[start, stop)`` of a batch drawn from trial 0."""
    def cut(column):
        return None if column is None else column[start:stop]

    return StrikeBatch(start, stop, cut(batch.interval_index),
                       cut(batch.cycle), cut(batch.bit), cut(batch.mask),
                       cut(batch.pattern))
