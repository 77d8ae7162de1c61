"""Evaluation of one sampled strike.

The unprotected path re-executes the program with the struck in-flight
instruction's encoding bit flipped and compares observable output; the
parity-protected path additionally asks the π-bit engine whether the
detected error is signalled under the configured tracking level.

Campaigns evaluate thousands of strikes against one ``(program,
baseline)`` pair, so the heavy per-strike machinery is hoisted into a
campaign-scoped :class:`StrikeEvaluator`: the π-bit tracker, the
execution limits, and the baseline output signature are built once, and
architectural effects come from a shared :class:`~repro.faults.oracle.
EffectOracle` (memoized, statically pre-filtered, persistable). The
module-level :func:`evaluate_strike` remains as the one-shot convenience
wrapper with the original signature and semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.arch.executor import ExecutionLimits, FunctionalSimulator
from repro.arch.result import ExecutionResult
from repro.due.outcomes import FaultOutcome
from repro.due.pi_bit import PiBitTracker
from repro.due.tracking import (
    DEFAULT_PET_ENTRIES,
    BurstAction,
    EccScheme,
    TrackingLevel,
    classify_burst,
)
from repro.faults.mbu import representative_bit
from repro.faults.model import Strike
from repro.faults.oracle import EffectOracle, default_limits, effect_of
from repro.isa import encoding
from repro.isa.program import Program
from repro.pipeline.iq import OccupantKind
from repro.util.bitops import flip_bit

# Re-export for convenience in examples/tests.
StrikeSampler = None  # set below to avoid a circular definition


@dataclass(frozen=True)
class StrikeVerdict:
    """Full diagnosis of one strike."""

    outcome: FaultOutcome
    #: Architectural effect of the corruption, ignoring detection:
    #: one of "none", "sdc", "trap", "hang", "not_executed".
    architectural_effect: str
    #: True when the tracker suppressed an error that was actually harmful
    #: (a known artifact of trace-based π tracking; see DESIGN.md).
    tracker_miss: bool = False


def corrupt_instruction(instruction, bit: int):
    """Flip one bit of an instruction's 41-bit encoding and re-decode."""
    return encoding.decode(flip_bit(instruction.encode(), bit))


def corrupt_burst(instruction, mask: int):
    """Flip every set bit of ``mask`` in the encoding and re-decode."""
    if mask <= 0:
        raise ValueError("burst mask must have at least one set bit")
    return encoding.decode(instruction.encode() ^ mask)


def architectural_effect(
    program: Program,
    baseline: ExecutionResult,
    seq: int,
    bit: int,
    limits: Optional[ExecutionLimits] = None,
) -> str:
    """Re-execute with instruction ``seq`` corrupted; compare behaviour.

    This is the seed slow path, kept as the oracle's ground truth: every
    call re-executes, with no memoization and no static filtering.
    """
    original = baseline.trace[seq].instruction
    corrupted = corrupt_instruction(original, bit)
    if corrupted == original:
        raise AssertionError("bit flip must change the instruction")
    limits = limits or default_limits(baseline)
    rerun = FunctionalSimulator(program, limits).run(
        record_trace=False, override_seq=seq, override_instruction=corrupted)
    return effect_of(rerun, baseline.output_signature())


_EFFECT_TO_OUTCOME = {
    "sdc": FaultOutcome.SDC,
    "trap": FaultOutcome.TRAP,
    "hang": FaultOutcome.HANG,
}


class StrikeEvaluator:
    """Campaign-scoped strike classifier (Figure 1 semantics).

    Builds the per-campaign invariants exactly once — the π-bit tracker
    (stateless per fault, so one instance serves every trial), the
    execution limits, and the effect oracle — and classifies each strike
    via :meth:`evaluate`. Tallies are bit-identical to calling the
    one-shot :func:`evaluate_strike` per trial; only wall-clock differs.
    """

    def __init__(
        self,
        program: Program,
        baseline: ExecutionResult,
        parity: bool = False,
        tracking: TrackingLevel = TrackingLevel.PARITY_ONLY,
        pet_entries: int = DEFAULT_PET_ENTRIES,
        ecc: bool = False,
        oracle: Optional[EffectOracle] = None,
        static_filter: bool = True,
        scheme: Optional[EccScheme] = None,
    ) -> None:
        if scheme is not None and (parity or ecc):
            raise ValueError(
                "the scheme lattice replaces the legacy parity/ecc flags")
        self.program = program
        self.baseline = baseline
        self.parity = parity
        self.tracking = tracking
        self.ecc = ecc
        self.scheme = scheme
        self.oracle = oracle if oracle is not None else EffectOracle(
            program, baseline, static_filter=static_filter)
        #: One tracker for the whole campaign: it is stateless per fault
        #: (and memoizes decisions per strike point), so constructing it
        #: per trial was pure overhead. Any lattice scheme can flag a
        #: detected-uncorrectable error, so schemes carry one too.
        self.tracker = (PiBitTracker(baseline.trace, tracking, pet_entries)
                        if parity or scheme is not None else None)
        #: MBU/ECC accounting, mirrored into runtime telemetry by the
        #: campaign shards. The batched classifier ticks these same
        #: counters from its vector tallies, so the two paths stay
        #: comparable entry for entry.
        self.burst_stats: Dict[str, int] = {
            "mbu_multi_bit": 0,
            "ecc_corrected": 0,
            "ecc_detected": 0,
            "ecc_escaped": 0,
        }

    def burst_counters(self) -> Dict[str, int]:
        return dict(self.burst_stats)

    def evaluate(self, strike: Strike) -> StrikeVerdict:
        """Classify one strike per Figure 1.

        Without protection the structure is unprotected: outcomes are
        benign, SDC, trap, or hang. With ``parity`` the error is detected
        when the entry is read, and ``tracking`` decides whether it is
        signalled. With ``ecc`` (single-bit correction) every read strike
        is repaired in place — Figure 1's outcome 3 ("fault corrected;
        no error").
        """
        interval = strike.interval
        if strike.mask:
            self.burst_stats["mbu_multi_bit"] += 1
        if interval is None:
            return StrikeVerdict(FaultOutcome.BENIGN_UNREAD, "not_executed")
        if not interval.issued or strike.cycle >= interval.issue_cycle:
            # Struck after the last read (Ex-ACE) or never read at all
            # (squash victim, never-issued wrong path): nobody consumes
            # the bit.
            return StrikeVerdict(FaultOutcome.BENIGN_UNREAD, "not_executed")
        if self.scheme is not None:
            return self._evaluate_scheme(strike, interval)
        if self.ecc:
            # SECDED corrects the single-bit fault at read time.
            return StrikeVerdict(FaultOutcome.CORRECTED, "none")
        if interval.kind is not OccupantKind.COMMITTED:
            # Wrong-path occupant read before the squash: it executes but
            # its results never commit. With parity this is the canonical
            # false DUE; a π bit carried to commit suppresses it.
            if not self.parity:
                return StrikeVerdict(FaultOutcome.BENIGN_UNACE,
                                     "not_executed")
            if self.tracking >= TrackingLevel.PI_COMMIT:
                return StrikeVerdict(FaultOutcome.BENIGN_UNACE,
                                     "not_executed")
            return StrikeVerdict(FaultOutcome.FALSE_DUE, "not_executed")

        # Single-bit strikes take the seed-era oracle path; bursts go
        # through the mask oracle (identical for power-of-two masks).
        if strike.mask:
            effect = self.oracle.effect_mask(interval.seq, strike.burst_mask)
        else:
            effect = self.oracle.effect(interval.seq, strike.bit)
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
        # The tracker let a harmful corruption through: an artifact of
        # replaying π propagation over the uncorrupted trace (e.g. a
        # flipped destination specifier on a dead instruction clobbers a
        # live register the baseline never wrote). Real hardware poisons
        # the *corrupted* destination and stays sound.
        return StrikeVerdict(_EFFECT_TO_OUTCOME[effect], effect,
                             tracker_miss=True)

    def _evaluate_scheme(self, strike: Strike, interval) -> StrikeVerdict:
        """Classify a read strike under an :class:`EccScheme` decoder.

        The decoder acts at read time on the raw error pattern:
        ``CORRECT`` repairs in place (Figure 1's outcome 3), ``DETECT``
        behaves exactly like the parity machinery (signalled unless the
        tracker proves the occupant dead), and ``ESCAPE`` consumes the
        corruption silently, like an unprotected read.
        """
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
            effect = self.oracle.effect_mask(interval.seq, burst)
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
        # ESCAPE: aliased past the decoder — unprotected semantics.
        self.burst_stats["ecc_escaped"] += 1
        if interval.kind is not OccupantKind.COMMITTED:
            return StrikeVerdict(FaultOutcome.BENIGN_UNACE, "not_executed")
        effect = self.oracle.effect_mask(interval.seq, burst)
        if effect == "none":
            return StrikeVerdict(FaultOutcome.BENIGN_UNACE, effect)
        return StrikeVerdict(_EFFECT_TO_OUTCOME[effect], effect)


def evaluate_strike(
    strike: Strike,
    program: Program,
    baseline: ExecutionResult,
    parity: bool = False,
    tracking: TrackingLevel = TrackingLevel.PARITY_ONLY,
    pet_entries: int = DEFAULT_PET_ENTRIES,
    ecc: bool = False,
) -> StrikeVerdict:
    """One-shot strike classification (the seed-era entry point).

    Builds a throwaway :class:`StrikeEvaluator` with the static filter
    off, so each call costs exactly what it did before the fast path
    existed — campaigns should hold a shared evaluator instead.
    """
    return StrikeEvaluator(
        program, baseline, parity=parity, tracking=tracking,
        pet_entries=pet_entries, ecc=ecc, static_filter=False,
    ).evaluate(strike)


# Re-export the sampler under its public name.
from repro.faults.model import StrikeModel as StrikeSampler  # noqa: E402
