"""Monte-Carlo fault-injection campaigns and their supervised execution."""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from math import sqrt
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.arch.result import ExecutionResult
from repro.due.outcomes import FaultOutcome, Tally
from repro.due.tracking import DEFAULT_PET_ENTRIES, EccScheme, TrackingLevel
from repro.faults.batch import (
    StrikeClassifier,
    draw_strike_batch,
    local_subject,
)
from repro.faults.mbu import get_preset
from repro.faults.oracle import (
    load_persisted,
    oracle_cache_key,
    persist,
    validate_table,
)
from repro.isa.program import Program
from repro.pipeline.result import PipelineResult
from repro.runtime.cache import MISS, ResultCache, cache_key
from repro.runtime.chaos import ChaosConfig, ChaosInjector
from repro.runtime.checkpoint import CheckpointJournal, remaining_ranges
from repro.runtime.context import get_runtime
from repro.runtime.resilience import (
    CacheCorrupt,
    CampaignInterrupted,
    CompletenessReport,
    Held,
    ResultInvalid,
    RetryPolicy,
    RuntimeFault,
    SupervisedTask,
    Supervisor,
    TrialCrash,
    start_watchdog,
)
from repro.runtime.telemetry import Telemetry
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
    def tally(self) -> Tally:
        return Tally(self.counts, self.tracker_misses)

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
) -> Tally:
    """Classify trials ``[start, stop)`` and return their tally.

    The block draws its own strikes (:func:`~repro.faults.batch.
    draw_strike_batch`, a pure function of the trial indices) and
    classifies them in one batch. ``classifier`` lets blocks of one
    campaign share a :class:`~repro.faults.batch.StrikeClassifier` (and
    its warm effect oracle); omitted, a fresh one is built over the
    process's :class:`~repro.faults.batch.StrikeSubject` of ``(program,
    baseline)``. Either way the tallies are identical — only the amount
    of re-execution differs.

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
            classifier = StrikeClassifier(local_subject(program, baseline),
                                          pipeline_result, config)
        return classifier.classify(draw_strike_batch(
            pipeline_result, config, program.name, start, stop))
    except RuntimeFault:
        raise
    except Exception as exc:
        raise TrialCrash(
            f"trials [{start}, {stop}) raised {type(exc).__name__}: {exc}",
            trial_index=start if stop - start == 1 else None) from exc


# ---------------------------------------------------------------------------
# Campaign execution under supervision
# ---------------------------------------------------------------------------

def plan_blocks(spans: Sequence[Tuple[int, int]], jobs: int,
                fine: bool = False) -> List[Tuple[int, int]]:
    """Split remaining trial ranges into contiguous work blocks.

    ``fine`` (used when checkpointing) raises the block count to roughly
    4x the worker count so an interrupt loses at most a small block.
    Blocking never affects tallies — only scheduling and checkpoint
    granularity.
    """
    total = sum(stop - start for start, stop in spans)
    if total == 0:
        return []
    target = max(1, jobs)
    if fine:
        target = max(target, min(total, target * 4))
    chunk = max(1, -(-total // target))
    blocks: List[Tuple[int, int]] = []
    for start, stop in spans:
        cursor = start
        while cursor < stop:
            upper = min(stop, cursor + chunk)
            blocks.append((cursor, upper))
            cursor = upper
    return blocks


class ShardResult(NamedTuple):
    """What one shard hands back to :func:`execute_campaign`."""

    tally: Tally
    elapsed: float
    #: Effect-oracle entries the shard computed, for the parent to persist.
    oracle_new: Dict[Tuple[int, int], str]
    #: Oracle, batch and burst counters: telemetry, which depends on the
    #: sharding, so never part of the tally.
    counters: Dict[str, int]


def shard_worker(payload: Held, config, start: int, stop: int,
                 chaos_config: Optional[ChaosConfig],
                 cache_dir: Optional[str], attempt: int) -> ShardResult:
    """Classify trials ``[start, stop)`` under optional chaos injection.

    Runs in a worker process (or inline when serial). ``payload`` is
    the campaign's prepared strike subject and pipeline result, which a
    pooled worker started holding. The shard builds its own classifier
    over them — its effect oracle preloaded from the persistent cache
    when ``cache_dir`` is given — and only then starts its watchdog
    clock, so none of that set-up counts against the per-trial budget.
    Retry and quarantine operate on trial indices, because a shard's
    strikes are a pure function of the indices it covers.
    """
    on_trial = None
    if chaos_config is not None:
        injector = ChaosInjector(chaos_config)
        injector.maybe_kill(("shard", start, stop), attempt)

        def on_trial(index: int) -> None:
            injector.maybe_interrupt(("trial", index))
            injector.maybe_delay(("trial", index))
            injector.maybe_raise(("trial", index), attempt)

    began = time.perf_counter()
    subject, pipeline_result = payload.get()
    classifier = StrikeClassifier(subject, pipeline_result, config)
    if cache_dir is not None:
        classifier.oracle.preload(load_persisted(
            ResultCache(cache_dir), oracle_cache_key(subject.key)))
    start_watchdog()

    tally = run_trial_block(
        subject.program, subject.baseline, pipeline_result, config,
        start, stop, on_trial=on_trial, classifier=classifier)
    stats = classifier.oracle.counters()
    stats.update(classifier.counters())
    if config.scheme is not None or config.mbu_preset is not None:
        # Legacy single-bit campaigns skip the merge so their telemetry
        # dumps stay byte-identical to pre-MBU runs.
        stats.update(classifier.burst_counters())
    return ShardResult(tally, time.perf_counter() - began,
                       classifier.oracle.new_entries(), stats)


def validate_shard(value: Any, task: SupervisedTask) -> None:
    """Reject a structurally invalid shard result (:class:`ResultInvalid`)."""
    ok = (isinstance(value, ShardResult)
          and isinstance(value.tally, Tally)
          and isinstance(value.elapsed, float)
          and validate_table(value.oracle_new) is not None
          and isinstance(value.counters, dict)
          and all(isinstance(k, str) and isinstance(n, int)
                  for k, n in value.counters.items()))
    if not ok:
        raise ResultInvalid(
            f"shard {task.key} returned a malformed result: {value!r:.120}")
    value.tally.check(task.items, ResultInvalid)


def execute_campaign(
    program,
    baseline,
    pipeline_result,
    config,
    jobs: int,
    *,
    policy: Optional[RetryPolicy] = None,
    telemetry: Optional[Telemetry] = None,
    journal: Optional[CheckpointJournal] = None,
    chaos: Optional[ChaosConfig] = None,
    cache_dir: Optional[str] = None,
) -> Tuple[Tally, CompletenessReport, Dict[Tuple[int, int], str]]:
    """Run a campaign under full supervision.

    Handles resume (merging a checkpoint journal's completed ranges),
    retry/backoff, watchdog deadlines, pool rebuilds, two-phase
    quarantine (failed blocks are split into single trials so only the
    deterministically-failing indices are lost), and checkpointing of
    every completed block. Returns ``(tally, report, oracle_new)`` where
    ``oracle_new`` is the union of effect-oracle entries the shards
    computed (for the caller to persist). ``journal`` must cover
    ``config.trials`` trials.

    Each shard draws its own trials' strikes, so a degenerate pipeline
    result that cannot be sampled fails inside every shard as a
    :class:`TrialCrash` and ends in the quarantine report.

    The parent prepares the strike subject of ``(program, baseline)``
    once; a pooled fan-out has the pool's workers start holding it and
    ``pipeline_result``, so its shards carry neither and no worker
    derives anything the parent holds.

    A corrupt journal is discarded (counted in telemetry) and the
    campaign restarts from zero — never trust, always re-derive.
    """
    policy = policy or RetryPolicy()
    telemetry = telemetry or Telemetry()
    tally = Tally(Counter())
    oracle_new: Dict[Tuple[int, int], str] = {}
    covered: Sequence[Tuple[int, int]] = ()

    if journal is not None:
        try:
            state = journal.load()
        except CacheCorrupt:
            telemetry.increment("checkpoint_corrupt")
            journal.discard()
            state = None
        if state is not None:
            tally, covered = state.tally, state.ranges
    resumed = sum(stop - start for start, stop in covered)
    if resumed:
        telemetry.increment("checkpoint_resumed_trials", resumed)

    blocks = plan_blocks(remaining_ranges(config.trials, covered), jobs,
                         fine=journal is not None)

    def on_result(index: int, task: SupervisedTask,
                  shard: ShardResult) -> None:
        nonlocal tally
        tally = tally.merge(shard.tally)
        oracle_new.update(shard.oracle_new)
        start, stop = task.key
        if journal is not None:
            journal.record(start, stop, shard.tally)
            telemetry.increment("checkpoint_writes")
        telemetry.merge_counters(shard.counters)
        telemetry.record_worker("campaign", index, task.items, shard.elapsed)

    subject = local_subject(program, baseline).prepare()
    # The pool holds the pipeline result, so its identity names it.
    payload = Held((subject.key, id(pipeline_result)),
                   (subject, pipeline_result))
    retries = 0

    def run_pass(spans: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
        nonlocal retries
        tasks = [
            SupervisedTask(
                fn=shard_worker,
                args=(payload, config, start, stop, chaos, cache_dir),
                items=stop - start, key=(start, stop), deadline=True)
            for start, stop in spans
        ]
        supervisor = Supervisor(policy, label="campaign", max_workers=jobs,
                                telemetry=telemetry, quarantine=True,
                                validate=validate_shard, on_result=on_result)
        bad = (supervisor.run_pooled(tasks, held=[payload])
               if jobs > 1 and len(tasks) > 1
               else supervisor.run_serial(tasks))
        retries += supervisor.retries
        return [tasks[i].key for i in bad]

    quarantined: List[int] = []
    try:
        bad_blocks = run_pass(blocks)
        if bad_blocks:
            # Phase 2: isolate the deterministic failures trial-by-trial.
            singles = [(index, index + 1)
                       for start, stop in bad_blocks
                       for index in range(start, stop)]
            bad_trials = run_pass(singles)
            quarantined = sorted(start for start, _ in bad_trials)
    except KeyboardInterrupt:
        done = sum(tally.counts.values())
        raise CampaignInterrupted(
            f"campaign interrupted after {done}/{config.trials} trials"
            + ("; checkpoint journal flushed" if journal is not None
               else ""),
            trials_done=done) from None

    if quarantined:
        telemetry.increment("quarantined_trials", len(quarantined))

    report = CompletenessReport(
        trials_requested=config.trials,
        trials_succeeded=config.trials - len(quarantined),
        quarantined=tuple(quarantined),
        retries=retries,
        resumed_trials=resumed,
    )
    return tally, report, oracle_new


def campaign_key(program: Program, baseline: ExecutionResult,
                 pipeline_result: PipelineResult,
                 config: CampaignConfig) -> str:
    """Cache key of a campaign's tally and name of its checkpoint journal.

    Covers the strike subject (the program *and* the baseline run every
    strike is judged against, :func:`~repro.faults.batch.subject_key`),
    the pipeline result and the configuration, so a campaign on a
    different baseline of the same program never answers for this one.
    """
    return cache_key("campaign", local_subject(program, baseline).key,
                     pipeline_result, config)


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
    full tally is stored under :func:`campaign_key` (program, baseline,
    pipeline result and campaign config) — a warm re-run injects
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
        campaign_id = campaign_key(program, baseline, pipeline_result, config)

    if runtime.cache is not None:
        cached = runtime.cache.get(campaign_id)
        if cached is not MISS:
            try:
                counts, misses = cached
                tally = Tally(Counter(counts), misses).check(config.trials)
            except (TypeError, ValueError):
                # Unpicklable-but-wrong-shape entry: fall through and
                # recompute; the fresh put below overwrites it.
                runtime.cache.errors += 1
            else:
                return CampaignResult(config, *tally)

    journal = None
    if checkpoint_dir is not None:
        journal = CheckpointJournal(checkpoint_dir, campaign_id,
                                    config.trials)
        if not resume:
            # A fresh (non-resume) run must not inherit stale coverage.
            journal.discard()

    began = time.perf_counter()
    try:
        tally, completeness, oracle_new = execute_campaign(
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
        persist(runtime.cache,
                oracle_cache_key(local_subject(program, baseline).key),
                oracle_new)

    if runtime.cache is not None and completeness.complete:
        # Degraded tallies are never cached: a later run with a healthier
        # environment must be able to produce the full campaign.
        counts, misses = tally
        runtime.cache.put(campaign_id, (dict(counts), misses))
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
    return CampaignResult(config, *tally, completeness=completeness)
