"""Monte-Carlo fault-injection campaigns."""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from math import sqrt
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from repro.arch.result import ExecutionResult
from repro.due.outcomes import FaultOutcome
from repro.due.tracking import DEFAULT_PET_ENTRIES, EccScheme, TrackingLevel
from repro.faults.batch import StrikeClassifier, draw_strike_batch
from repro.faults.mbu import get_preset
from repro.faults.oracle import oracle_cache_key, persist
from repro.isa.program import Program
from repro.pipeline.result import PipelineResult
from repro.runtime.cache import MISS, cache_key
from repro.runtime.chaos import ChaosInjector
from repro.runtime.checkpoint import CheckpointJournal
from repro.runtime.context import get_runtime
from repro.runtime.resilience import (
    CampaignInterrupted,
    CompletenessReport,
    RuntimeFault,
    TrialCrash,
    execute_campaign,
)
from repro.util.rng import derive_seed


@dataclass(frozen=True)
class CampaignConfig:
    """Shape of one injection campaign."""

    trials: int = 500
    seed: int = 2004
    parity: bool = False
    tracking: TrackingLevel = TrackingLevel.PARITY_ONLY
    pet_entries: int = DEFAULT_PET_ENTRIES
    #: Single-bit error correction (SECDED): strikes are repaired at read.
    ecc: bool = False
    #: Multi-bit upset severity preset name (see ``repro.faults.mbu``);
    #: None keeps the classic single-bit fault model.
    mbu_preset: Optional[str] = None
    #: Protection scheme from the ECC lattice (``repro.due.tracking``);
    #: replaces the legacy ``parity``/``ecc`` booleans when set.
    scheme: Optional[EccScheme] = None

    #: Fields omitted from content-addressed cache keys while None, so
    #: every pre-MBU campaign keeps its byte-identical key (see
    #: ``repro.runtime.cache``).
    _CACHE_OPTIONAL_FIELDS = ("mbu_preset", "scheme")

    def __post_init__(self) -> None:
        if self.trials <= 0:
            raise ValueError("trials must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.pet_entries <= 0:
            raise ValueError("pet_entries must be positive")
        if self.ecc and self.parity:
            raise ValueError("choose parity (detection) or ecc (correction)")
        if self.scheme is not None and (self.parity or self.ecc):
            raise ValueError(
                "the scheme lattice replaces the legacy parity/ecc flags")
        if self.mbu_preset is not None:
            get_preset(self.mbu_preset)  # validates the name
            if self.scheme is None and (self.parity or self.ecc):
                raise ValueError(
                    "multi-bit campaigns need a lattice scheme (or no "
                    "protection at all); parity/ecc are single-bit only")


@dataclass
class CampaignResult:
    """Outcome histogram plus derived rate estimates.

    ``completeness`` is populated by supervised runs; a degraded campaign
    (quarantined trials) keeps its tallies sound — rates and confidence
    intervals are computed over the trials that actually succeeded, so
    intervals widen rather than results silently skewing.
    """

    config: CampaignConfig
    counts: Counter = field(default_factory=Counter)
    tracker_misses: int = 0
    completeness: Optional[CompletenessReport] = None

    @property
    def trials(self) -> int:
        return sum(self.counts.values())

    def rate(self, *outcomes: FaultOutcome) -> float:
        """Fraction of strikes landing in the given outcome classes."""
        if self.trials == 0:
            return 0.0
        return sum(self.counts[o] for o in outcomes) / self.trials

    def rate_confidence(self, *outcomes: FaultOutcome, z: float = 1.96) -> float:
        """Binomial-normal half-width for :meth:`rate`."""
        p = self.rate(*outcomes)
        n = self.trials
        if n == 0:
            return float("inf")
        return z * sqrt(max(p * (1.0 - p), 0.0) / n)

    @property
    def sdc_avf_estimate(self) -> float:
        """Injection-based SDC AVF: strikes whose corruption reached output.

        Traps and hangs are included — a strike that crashes the program
        has certainly affected architecturally correct execution (the
        paper's ACE analysis counts them the same way).
        """
        return self.rate(FaultOutcome.SDC, FaultOutcome.TRAP,
                         FaultOutcome.HANG)

    @property
    def due_avf_estimate(self) -> float:
        """Injection-based DUE AVF (parity campaigns only)."""
        return self.rate(FaultOutcome.TRUE_DUE, FaultOutcome.FALSE_DUE)

    @property
    def false_due_estimate(self) -> float:
        return self.rate(FaultOutcome.FALSE_DUE)

    @property
    def corrected_estimate(self) -> float:
        """Fraction of strikes the protection scheme repaired in place."""
        return self.rate(FaultOutcome.CORRECTED)

    @property
    def residual_uncorrectable_estimate(self) -> float:
        """Everything the scheme failed to neutralise: SDC + DUE rates.

        The design-space sweep ranks ECC schemes on this — the fraction
        of strikes still visible as an error after correction, whether
        silent (escape reached output) or detected-uncorrectable.
        """
        return self.sdc_avf_estimate + self.due_avf_estimate

    def summary(self) -> Dict[str, float]:
        return {o.value: self.counts[o] / max(1, self.trials)
                for o in FaultOutcome if self.counts[o]}


def trial_seed(config: CampaignConfig, program_name: str, index: int) -> int:
    """Seed of trial ``index``'s private RNG stream.

    Each trial draws from its own :func:`derive_seed` stream, so a
    trial's strike depends only on its index — never on how many trials
    ran before it in the same process. That is the determinism contract
    the parallel engine relies on: any sharding of the index space
    reproduces the serial campaign bit-for-bit. ``ecc`` is deliberately
    excluded so ECC and unprotected campaigns with the same seed see the
    identical strike sequence (the tests compare them directly).
    """
    return derive_seed(config.seed, "campaign", program_name,
                       config.parity, int(config.tracking), "trial", index)


def run_trial_block(
    program: Program,
    baseline: ExecutionResult,
    pipeline_result: PipelineResult,
    config: CampaignConfig,
    start: int,
    stop: int,
    on_trial: Optional[Callable[[int], None]] = None,
    classifier: Optional[StrikeClassifier] = None,
) -> Tuple[Counter, int]:
    """Classify trials ``[start, stop)``; returns (counts, tracker misses).

    The block draws its own strikes (:func:`~repro.faults.batch.
    draw_strike_batch`, a pure function of the trial indices) and
    classifies them in one batch. ``classifier`` lets blocks of one
    campaign share a :class:`~repro.faults.batch.StrikeClassifier` (and
    its warm effect oracle); omitted, a fresh one is built. Either way
    the tallies are identical — only the amount of re-execution differs.

    ``on_trial`` (the chaos harness's hook) runs for every trial index
    before anything is drawn. Exceptions from the hook, the draw (an
    unsampleable pipeline result) or the classification are re-raised
    as :class:`TrialCrash` so the supervisor can retry, or split the
    block into single trials and quarantine the failing indices; tallies
    are only returned once the whole block completes.
    ``KeyboardInterrupt`` passes through untouched.
    """
    if on_trial is not None:
        for index in range(start, stop):
            try:
                on_trial(index)
            except RuntimeFault:
                raise
            except Exception as exc:
                raise TrialCrash(
                    f"trial {index} raised {type(exc).__name__}: {exc}",
                    trial_index=index) from exc
    try:
        if classifier is None:
            classifier = StrikeClassifier(program, baseline, pipeline_result,
                                          config)
        return classifier.classify(draw_strike_batch(
            pipeline_result, config, program.name, start, stop))
    except RuntimeFault:
        raise
    except Exception as exc:
        raise TrialCrash(
            f"trials [{start}, {stop}) raised {type(exc).__name__}: {exc}",
            trial_index=start if stop - start == 1 else None) from exc


def run_campaign(
    program: Program,
    baseline: ExecutionResult,
    pipeline_result: PipelineResult,
    config: Optional[CampaignConfig] = None,
    jobs: Optional[int] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume: Optional[bool] = None,
) -> CampaignResult:
    """Inject ``config.trials`` uniform strikes and classify each outcome.

    ``jobs`` defaults to the active runtime context's worker count; with
    more than one worker the trial index space is sharded across
    supervised processes (retry/backoff, watchdog deadlines, quarantine —
    see :mod:`repro.runtime.resilience`), producing tallies bit-identical
    to the serial path. When the context carries a persistent cache, the
    full tally is stored under a key covering the program bytes, the
    pipeline result, and the campaign config — a warm re-run injects
    nothing.

    With a ``checkpoint_dir`` (argument or context), completed trial
    blocks are journalled as they finish; a ``KeyboardInterrupt`` or
    SIGTERM drains the pool cleanly, leaves the journal flushed, and
    raises :class:`CampaignInterrupted` instead of tracebacking. Passing
    ``resume=True`` merges the journal and runs only the remaining
    trials — the final tallies are bit-identical to an uninterrupted run
    because every trial draws from its own derived seed stream.
    """
    config = config or CampaignConfig()
    runtime = get_runtime()
    telemetry = runtime.telemetry
    effective_jobs = runtime.jobs if jobs is None else jobs
    chaos = runtime.chaos
    if checkpoint_dir is None:
        checkpoint_dir = runtime.checkpoint_dir
    if resume is None:
        resume = runtime.resume

    campaign_id = None
    if runtime.cache is not None or checkpoint_dir is not None:
        campaign_id = cache_key("campaign", program, pipeline_result, config)

    if runtime.cache is not None:
        cached = runtime.cache.get(campaign_id)
        if cached is not MISS:
            try:
                counts, tracker_misses = cached
                counts = Counter(counts)
            except (TypeError, ValueError):
                # Unpicklable-but-wrong-shape entry: fall through and
                # recompute; the fresh put below overwrites it.
                runtime.cache.errors += 1
            else:
                return CampaignResult(config=config, counts=counts,
                                      tracker_misses=tracker_misses)

    journal = None
    if checkpoint_dir is not None:
        journal = CheckpointJournal(checkpoint_dir, campaign_id,
                                    config.trials)
        if not resume:
            # A fresh (non-resume) run must not inherit stale coverage.
            journal.discard()

    began = time.perf_counter()
    try:
        counts, tracker_misses, completeness, oracle_new = execute_campaign(
            program, baseline, pipeline_result, config, effective_jobs,
            policy=runtime.policy, telemetry=telemetry, journal=journal,
            chaos=chaos, cache_dir=runtime.cache_dir)
    except CampaignInterrupted:
        # The pool is drained and the journal (if any) holds every
        # completed block; account for the time and hand the partial
        # campaign to the caller for a summary + resume.
        telemetry.add_time("campaign", time.perf_counter() - began)
        raise
    telemetry.increment("campaign_trials", completeness.trials_succeeded)
    telemetry.add_time("campaign", time.perf_counter() - began)
    if completeness.degraded:
        telemetry.increment("campaigns_degraded")

    if runtime.cache is not None and completeness.complete and oracle_new:
        persist(runtime.cache, oracle_cache_key(program), oracle_new)

    if runtime.cache is not None and completeness.complete:
        # Degraded tallies are never cached: a later run with a healthier
        # environment must be able to produce the full campaign.
        runtime.cache.put(campaign_id, (dict(counts), tracker_misses))
        if chaos is not None and chaos.enabled("corrupt-cache"):
            ChaosInjector(chaos).corrupt_file(
                runtime.cache.path_for(campaign_id),
                "cache", campaign_id[:12])
            telemetry.increment("chaos_corruptions")
    if (journal is not None and chaos is not None
            and chaos.enabled("corrupt-checkpoint")):
        ChaosInjector(chaos).corrupt_file(journal.path, "journal",
                                          campaign_id[:12])
        telemetry.increment("chaos_corruptions")
    return CampaignResult(config=config, counts=counts,
                          tracker_misses=tracker_misses,
                          completeness=completeness)
