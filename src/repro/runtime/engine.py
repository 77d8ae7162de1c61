"""Process fan-out for campaigns and experiments, under supervision.

Determinism contract: every parallel entry point here produces results
bit-identical to its serial counterpart, for any worker count, any
scheduling order, and any recoverable failure history. Campaign trials
draw from per-trial seed streams (:func:`repro.util.rng.derive_seed`
over the trial index), so a shard's tallies depend only on *which* trial
indices it covers — retrying a crashed shard, or re-running it after a
worker was killed, reproduces the identical tallies. Benchmark runs are
deterministic functions of ``(profile, settings, trigger)``, so mapping
them over processes (and retrying on failure) changes wall-clock time,
never values. Merges happen in submission order and are commutative
anyway (counter sums, ordered result lists).

Failure handling lives in :mod:`repro.runtime.resilience`: every fan-out
here runs under a :class:`~repro.runtime.resilience.Supervisor` that
borrows the runtime context's worker pool, classifies failures, retries
with backoff, enforces watchdog deadlines, and replaces the pool when
workers die. The benchmark and functional tasks here carry their inputs.
Campaign trials fan out through :func:`repro.faults.campaign.
execute_campaign`, whose workers start holding the campaign's strike
subject and pipeline result (``WorkerPool.hold``).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

from repro.runtime.chaos import ChaosConfig, ChaosInjector
from repro.runtime.resilience import RetryPolicy, SupervisedTask, Supervisor
from repro.runtime.telemetry import Telemetry


def shard_trials(trials: int, shards: int) -> List[range]:
    """Partition ``range(trials)`` into at most ``shards`` contiguous,
    non-empty blocks whose concatenation is exactly ``range(trials)``."""
    if trials < 0:
        raise ValueError("trials must be non-negative")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if trials == 0:
        return []
    shards = min(shards, trials)
    base, extra = divmod(trials, shards)
    blocks: List[range] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        blocks.append(range(start, start + size))
        start += size
    return blocks


def _worker_counters(context) -> dict:
    """A worker's telemetry snapshot, with its cache traffic folded in so
    the parent's merged counters account for every hit and miss."""
    counters = dict(context.telemetry.counters)
    if context.cache is not None:
        counters["cache_hits"] = context.cache.hits
        counters["cache_misses"] = context.cache.misses
        counters["cache_puts"] = context.cache.puts
        counters["cache_errors"] = context.cache.errors
    return counters


def _fresh_worker(cache_dir: Optional[str], **settings):
    """Install a private serial context in a pool worker and empty the
    result and chunk memos an earlier task in the same worker left
    behind, so every task computes what it would in a fresh process.
    Warm-hierarchy snapshots are kept, as the serial path keeps them:
    each is keyed by, and compared with, the whole address stream it was
    warmed on, so a restore equals a fresh warm-up and only the
    ``warm_hierarchy_*`` counters differ."""
    from repro.experiments.common import clear_caches
    from repro.pipeline.compose import clear_chunk_memos
    from repro.runtime.cache import ResultCache
    from repro.runtime.context import RuntimeContext, set_runtime

    cache = ResultCache(cache_dir) if cache_dir else None
    context = set_runtime(RuntimeContext(jobs=1, cache=cache, **settings))
    clear_caches()
    clear_chunk_memos()
    return context


def _benchmark_task(profile, settings, trigger, parts,
                    cache_dir: Optional[str], chaos: Optional[ChaosConfig],
                    service: Optional[str],
                    service_timeout: Optional[float], attempt: int):
    """Worker: simulate one benchmark run under a private serial context.

    The parent has already missed the timeline stores for this run, so
    the worker does not look it up again. ``parts`` are the profile's
    functional parts when the parent already holds them (None
    otherwise), so the worker times the program instead of simulating it
    again. Returns ``((parts or None, pipeline, report), counters,
    seconds)``: parts are sent back only when the worker computed or
    loaded them, never when the parent shipped them.
    The worker writes to the same stores as the parent: the shared cache
    directory and, when ``service`` is set, the fleet-wide timeline
    store of that ``repro serve`` instance.
    """
    from repro.experiments.common import adopt_functional, simulate_run

    if chaos is not None:
        ChaosInjector(chaos).maybe_kill(("benchmark", profile.name), attempt)
    context = _fresh_worker(cache_dir, service=service,
                            service_timeout=service_timeout)
    if parts is not None:
        adopt_functional(profile, settings, parts)
    began = time.perf_counter()
    run = simulate_run(profile, settings,
                       settings.machine_for(profile, trigger))
    elapsed = time.perf_counter() - began
    own = None if parts is not None else run.loaded_parts
    return (own, run.pipeline, run.report), _worker_counters(context), elapsed


def run_benchmarks_parallel(
    profiles: Sequence[Any],
    settings,
    trigger,
    jobs: int,
    cache_dir: Optional[str] = None,
    telemetry: Optional[Telemetry] = None,
    policy: Optional[RetryPolicy] = None,
    chaos: Optional[ChaosConfig] = None,
    service: Optional[str] = None,
    service_timeout: Optional[float] = None,
    functional: Optional[Sequence[Any]] = None,
) -> List[Any]:
    """Map ``run_benchmark`` over profiles across supervised processes.

    Returns :class:`BenchmarkRun` objects in ``profiles`` order, each
    holding its functional parts. The caller has already looked every
    profile up in the timeline stores and missed.
    ``functional`` holds, per profile, the functional parts the caller
    already has (or None); they travel with the task. Each
    worker opens its own handle on the shared cache directory (writes are
    atomic) and, with ``service``, its own connection to the remote
    timeline store; its counter snapshot is merged into ``telemetry``.
    Failed profiles are retried per ``policy``; a profile that keeps
    failing raises its classified fault — an exhibit must never silently
    drop a benchmark.
    """
    from repro.experiments.common import BenchmarkRun

    results: Dict[int, Any] = {}
    functional = functional or [None] * len(profiles)

    def on_result(index: int, task: SupervisedTask, value) -> None:
        (own, pipeline, report), counters, seconds = value
        if telemetry is not None:
            telemetry.merge_counters(counters)
            telemetry.record_worker("benchmark", index, 1, seconds)
        results[index] = BenchmarkRun(
            profiles[index], settings, pipeline, report,
            own or functional[index],
            machine=settings.machine_for(profiles[index], trigger))

    tasks = [
        SupervisedTask(fn=_benchmark_task,
                       args=(profile, settings, trigger, parts, cache_dir,
                             chaos, service, service_timeout),
                       items=1, key=profile.name, deadline=False)
        for profile, parts in zip(profiles, functional)
    ]
    supervisor = Supervisor(policy or RetryPolicy(), label="benchmark",
                            max_workers=min(jobs, len(profiles)),
                            telemetry=telemetry, on_result=on_result)
    supervisor.run_pooled(tasks)
    return [results[index] for index in range(len(profiles))]


def _functional_task(profile, settings, cache_dir: Optional[str],
                     chaos: Optional[ChaosConfig], attempt: int):
    """Worker: synthesize + execute + classify one profile."""
    from repro.experiments.common import functional_parts

    if chaos is not None:
        ChaosInjector(chaos).maybe_kill(("functional", profile.name), attempt)
    context = _fresh_worker(cache_dir)
    parts = functional_parts(profile, settings)
    return parts, _worker_counters(context)


def functional_parallel(
    profiles: Sequence[Any],
    settings,
    jobs: int,
    cache_dir: Optional[str] = None,
    telemetry: Optional[Telemetry] = None,
    policy: Optional[RetryPolicy] = None,
    chaos: Optional[ChaosConfig] = None,
) -> List[Any]:
    """Map ``functional_parts`` over profiles across supervised processes."""
    results: Dict[int, Any] = {}

    def on_result(index: int, task: SupervisedTask, value) -> None:
        parts, counters = value
        if telemetry is not None:
            telemetry.merge_counters(counters)
        results[index] = parts

    tasks = [
        SupervisedTask(fn=_functional_task,
                       args=(profile, settings, cache_dir, chaos),
                       items=1, key=profile.name, deadline=False)
        for profile in profiles
    ]
    supervisor = Supervisor(policy or RetryPolicy(), label="functional",
                            max_workers=min(jobs, len(profiles)),
                            telemetry=telemetry, on_result=on_result)
    supervisor.run_pooled(tasks)
    return [results[index] for index in range(len(profiles))]
