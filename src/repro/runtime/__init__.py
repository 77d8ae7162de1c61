"""Parallel execution runtime: fan-out, cache, telemetry, resilience.

The runtime is deliberately orthogonal to the simulator: experiments and
campaigns consult the *active* :class:`~repro.runtime.context.RuntimeContext`
(jobs, cache, telemetry, retry policy, checkpointing, chaos) but compute
identical results whether they run serially, across worker processes,
out of the persistent cache, or through a crash/retry/resume history —
the supervision layer (:mod:`repro.runtime.resilience`) guarantees that
failures cost wall-clock time, never correctness.

The runtime knows nothing of what a campaign counts. Campaign
orchestration (block planning, the shard worker, merging and journalling
each block's :class:`~repro.due.outcomes.Tally`) lives in
:mod:`repro.faults.campaign`; the checkpoint journal
(:mod:`repro.runtime.checkpoint`) stores tallies in their JSON form.
"""

from repro.runtime.cache import CODE_VERSION, MISS, ResultCache, cache_key
from repro.runtime.chaos import (
    CHAOS_MODES,
    ChaosConfig,
    ChaosError,
    ChaosInjector,
)
from repro.runtime.checkpoint import (
    JOURNAL_VERSION,
    CheckpointJournal,
    JournalState,
    remaining_ranges,
)
from repro.runtime.context import (
    RuntimeContext,
    configure,
    get_runtime,
    reset_runtime,
    set_runtime,
    use_runtime,
)
from repro.runtime.engine import shard_trials
from repro.runtime.resilience import (
    CacheCorrupt,
    CampaignInterrupted,
    CompletenessReport,
    ResultInvalid,
    RetryPolicy,
    RuntimeFault,
    SupervisedTask,
    Supervisor,
    TrialCrash,
    TrialTimeout,
    WorkerLost,
    classify_failure,
)
from repro.runtime.telemetry import Telemetry, WorkerTiming

__all__ = [
    "CHAOS_MODES",
    "CODE_VERSION",
    "CacheCorrupt",
    "CampaignInterrupted",
    "ChaosConfig",
    "ChaosError",
    "ChaosInjector",
    "CheckpointJournal",
    "CompletenessReport",
    "JOURNAL_VERSION",
    "JournalState",
    "MISS",
    "ResultCache",
    "ResultInvalid",
    "RetryPolicy",
    "RuntimeContext",
    "RuntimeFault",
    "SupervisedTask",
    "Supervisor",
    "Telemetry",
    "TrialCrash",
    "TrialTimeout",
    "WorkerLost",
    "WorkerTiming",
    "cache_key",
    "classify_failure",
    "configure",
    "get_runtime",
    "remaining_ranges",
    "reset_runtime",
    "set_runtime",
    "shard_trials",
    "use_runtime",
]
