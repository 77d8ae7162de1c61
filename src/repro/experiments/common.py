"""Shared plumbing for the experiment modules.

``run_benchmark`` owns the full per-benchmark flow:

    profile -> synthesize program -> functional execution -> deadness
            -> timing simulation (per squash config) -> AVF report

The functional half (program, trace, deadness) is cached per
(profile, size, seed) because every exhibit reuses it across squash
configurations; the timing half is cached per squash trigger. A run the
timeline store answers loads its functional half only when an exhibit
reads it (:class:`BenchmarkRun`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.deadcode import DeadnessAnalysis, analyze_deadness
from repro.arch.executor import FunctionalSimulator
from repro.arch.result import ExecutionResult
from repro.avf.avf_calc import IqAvfReport, compute_iq_avf
from repro.isa.program import Program
from repro.pipeline.config import MachineConfig, SquashConfig, Trigger
from repro.pipeline.core import PipelineSimulator
from repro.pipeline.result import PipelineResult
from repro.runtime.cache import MISS, cache_key
from repro.runtime.context import RuntimeContext, get_runtime
from repro.workloads.codegen import synthesize
from repro.workloads.profile import BenchmarkProfile


@dataclass(frozen=True)
class ExperimentSettings:
    """Run-size and seed knobs shared by all exhibits."""

    target_instructions: int = 60_000
    seed: int = 2004
    machine: MachineConfig = field(default_factory=MachineConfig)

    def machine_for(
        self, profile: BenchmarkProfile, trigger: Trigger
    ) -> MachineConfig:
        """Machine config specialised to one profile and squash trigger."""
        return replace(
            self.machine,
            fetch_bubble_prob=profile.fetch_bubble_prob,
            squash=replace(self.machine.squash, trigger=trigger),
        )


class BenchmarkRun:
    """Everything derived from one benchmark at one squash setting.

    ``pipeline`` and ``report`` are always held. A run that simulated
    holds its functional parts too; a run the timeline store answered
    resolves ``program``, ``execution`` and ``deadness`` through
    :func:`functional_parts` on first access, under the runtime context
    it was created in, and keeps them from then on. Table 1 reads only
    ``report``, so a warm Table 1 loads no program at all.
    """

    def __init__(
        self,
        profile: BenchmarkProfile,
        settings: ExperimentSettings,
        pipeline: PipelineResult,
        report: IqAvfReport,
        parts: Optional[Tuple[Program, ExecutionResult,
                              DeadnessAnalysis]] = None,
    ) -> None:
        self.profile = profile
        self.settings = settings
        self.pipeline = pipeline
        self.report = report
        self._parts = parts
        self._runtime: Optional[RuntimeContext] = (
            get_runtime() if parts is None else None)

    @property
    def loaded_parts(self) -> Optional[
            Tuple[Program, ExecutionResult, DeadnessAnalysis]]:
        """The functional parts if this run holds them, else None."""
        return self._parts

    def _functional(self) -> Tuple[Program, ExecutionResult,
                                   DeadnessAnalysis]:
        parts = self._parts
        if parts is None:
            with _RESOLVE_LOCK:
                parts = self._parts
                if parts is None:
                    parts = self._parts = functional_parts(
                        self.profile, self.settings, self._runtime)
                    self._runtime = None
        return parts

    @property
    def program(self) -> Program:
        return self._functional()[0]

    @property
    def execution(self) -> ExecutionResult:
        return self._functional()[1]

    @property
    def deadness(self) -> DeadnessAnalysis:
        return self._functional()[2]


#: Serialises first-access resolution, so two server threads reading one
#: run share one set of parts (``run.program is run.program``).
_RESOLVE_LOCK = threading.Lock()
_functional_cache: Dict[Tuple, Tuple] = {}
_run_cache: Dict[Tuple, BenchmarkRun] = {}
#: Open connections to remote timeline services, one per address.
_remote_stores: Dict[str, object] = {}


def clear_caches() -> None:
    """Drop memoised functional and timing results and the strike
    subjects derived from them, and shut the active context's worker
    pool down (mainly for tests)."""
    from repro.faults.batch import clear_subjects

    _functional_cache.clear()
    _run_cache.clear()
    clear_subjects()
    get_runtime().pool.shutdown()


def close_remote_stores() -> None:
    """Drop open service-store connections (tests / server restarts)."""
    for store in _remote_stores.values():
        store.close()
    _remote_stores.clear()


def _remote_store():
    """The timeline-store client for the context's service, if any.

    Connections are pooled per address and lazy: nothing is opened until
    a timing entry is actually fetched or written. All failures inside
    the returned store degrade to misses/dropped puts (see
    :class:`repro.serve.client.RemoteStore`), preserving the cache
    layer's never-take-a-run-down policy.
    """
    runtime = get_runtime()
    address = runtime.service
    if address is None:
        return None
    store = _remote_stores.get(address)
    if store is None:
        # Local import: the experiments package must stay importable
        # without the serving stack.
        from repro.serve.client import RemoteStore

        store = RemoteStore(address, timeout=runtime.service_timeout)
        _remote_stores[address] = store
    return store


def _functional_key(profile: BenchmarkProfile,
                    settings: ExperimentSettings) -> Tuple:
    return (profile.name, settings.target_instructions, settings.seed)


def _run_key(profile: BenchmarkProfile, settings: ExperimentSettings,
             machine: MachineConfig) -> Tuple:
    # The *full* machine config is part of the key. (An earlier version
    # keyed only on the trigger/squash knobs, silently aliasing runs that
    # differed in any other machine parameter — queue size, issue policy,
    # fetch_bubble_prob — the moment a caller varied them.)
    return (profile.name, settings.target_instructions, settings.seed,
            machine)


def functional_parts(
    profile: BenchmarkProfile, settings: ExperimentSettings,
    runtime: Optional[RuntimeContext] = None,
) -> Tuple[Program, ExecutionResult, DeadnessAnalysis]:
    """Synthesize + execute + classify once per (profile, size, seed).

    Consults the persistent cache of ``runtime`` (default: the active
    context) before simulating; a load ticks ``functional_loads`` and a
    simulation ``functional_sims`` on that context's telemetry.
    """
    key = _functional_key(profile, settings)
    if key in _functional_cache:
        return _functional_cache[key]
    runtime = runtime or get_runtime()
    disk_key = None
    if runtime.cache is not None:
        disk_key = cache_key("functional", profile,
                             settings.target_instructions, settings.seed)
        cached = runtime.cache.get(disk_key)
        if cached is not MISS:
            runtime.telemetry.increment("functional_loads")
            _functional_cache[key] = cached
            return cached
    program = synthesize(profile, settings.target_instructions,
                         seed=settings.seed)
    execution = FunctionalSimulator(program).run()
    if not execution.clean:
        raise RuntimeError(
            f"synthetic program {profile.name} did not halt cleanly: "
            f"{execution.status}")
    deadness = analyze_deadness(execution)
    runtime.telemetry.increment("functional_sims")
    _functional_cache[key] = (program, execution, deadness)
    if disk_key is not None:
        runtime.cache.put(disk_key, _functional_cache[key])
    return _functional_cache[key]


def adopt_functional(
    profile: BenchmarkProfile, settings: ExperimentSettings,
    parts: Tuple[Program, ExecutionResult, DeadnessAnalysis],
) -> None:
    """Memoise functional parts computed in another process."""
    _functional_cache[_functional_key(profile, settings)] = parts


def run_benchmark(
    profile: BenchmarkProfile,
    settings: Optional[ExperimentSettings] = None,
    trigger: Trigger = Trigger.NONE,
    machine: Optional[MachineConfig] = None,
) -> BenchmarkRun:
    """Full flow for one benchmark at one machine configuration (memoised).

    ``machine`` defaults to ``settings.machine_for(profile, trigger)``;
    passing it explicitly lets the ablations (queue sizes, issue policies,
    throttling, ...) share this memo and the persistent timeline store
    with the main exhibits instead of re-simulating. When ``machine`` is
    given, ``trigger`` is ignored.

    The persistent-cache entry for the timing half stores
    ``(pipeline, report)`` — the pipeline result carries its compact
    interval timeline, so a populated store
    lets the whole exhibit suite re-run without a single timing
    simulation. The (much larger) functional parts are cached once per
    (profile, size, seed) and shared by every machine configuration; a
    run the store answers loads them only when they are read.
    """
    settings = settings or ExperimentSettings()
    if machine is None:
        machine = settings.machine_for(profile, trigger)
    key = _run_key(profile, settings, machine)
    if key in _run_cache:
        return _run_cache[key]
    runtime = get_runtime()
    remote = _remote_store()
    disk_key = None
    if runtime.cache is not None or remote is not None:
        disk_key = cache_key("run", profile, settings.target_instructions,
                             settings.seed, machine)
    # Timing-entry lookup order: local persistent store, then the remote
    # service store (a remote hit is written through locally so the next
    # run in this environment answers without network traffic).
    cached = MISS
    if runtime.cache is not None:
        cached = runtime.cache.get(disk_key)
    if cached is MISS and remote is not None:
        cached = remote.get(disk_key)
        if cached is not MISS and runtime.cache is not None:
            runtime.cache.put(disk_key, cached)
    if cached is not MISS:
        try:
            pipeline, report = cached
        except (TypeError, ValueError):
            # Wrong-shape entry (whichever store produced it): degrade
            # to a recompute; the puts below overwrite it.
            runtime.telemetry.increment("cache_corrupt_entries")
        else:
            runtime.telemetry.increment("timeline_store_hits")
            run = BenchmarkRun(profile, settings, pipeline, report)
            _run_cache[key] = run
            return run
    parts = functional_parts(profile, settings)
    program, execution, deadness = parts
    pipeline = PipelineSimulator(program, execution.trace, machine,
                                 seed=settings.seed).run()
    runtime.telemetry.increment("pipeline_sims")
    report = compute_iq_avf(profile.name, pipeline, deadness)
    run = BenchmarkRun(profile, settings, pipeline, report, parts)
    _run_cache[key] = run
    if disk_key is not None:
        if runtime.cache is not None:
            runtime.cache.put(disk_key, (pipeline, report))
        if remote is not None:
            remote.put(disk_key, (pipeline, report))
    return run


def run_benchmarks(
    profiles: Iterable[BenchmarkProfile],
    settings: Optional[ExperimentSettings] = None,
    trigger: Trigger = Trigger.NONE,
    jobs: Optional[int] = None,
) -> List[BenchmarkRun]:
    """Batch :func:`run_benchmark`, fanning misses out across processes.

    With ``jobs`` (or the active context's worker count) above one, the
    profiles not already memoised are computed in worker processes; each
    worker writes through to the shared persistent cache, and results are
    returned in ``profiles`` order, bit-identical to the serial path. A
    worker sends functional parts back only when it computed or loaded
    them, so runs the store answered stay deferred here too.
    """
    settings = settings or ExperimentSettings()
    profiles = list(profiles)
    runtime = get_runtime()
    effective_jobs = runtime.jobs if jobs is None else jobs
    if effective_jobs > 1:
        pending = [
            p for p in profiles
            if _run_key(p, settings, settings.machine_for(p, trigger))
            not in _run_cache]
        if len(pending) > 1:
            from repro.runtime.engine import run_benchmarks_parallel

            runs = run_benchmarks_parallel(
                pending, settings, trigger, effective_jobs,
                cache_dir=runtime.cache_dir, telemetry=runtime.telemetry,
                policy=runtime.policy, chaos=runtime.chaos,
                service=runtime.service,
                service_timeout=runtime.service_timeout,
                functional=[
                    _functional_cache.get(_functional_key(p, settings))
                    for p in pending])
            for profile, run in zip(pending, runs):
                _run_cache[_run_key(
                    profile, settings,
                    settings.machine_for(profile, trigger))] = run
                if run.loaded_parts is not None:
                    _functional_cache.setdefault(
                        _functional_key(profile, settings),
                        run.loaded_parts)
    return [run_benchmark(profile, settings, trigger)
            for profile in profiles]


def prefetch_functional(
    profiles: Iterable[BenchmarkProfile],
    settings: Optional[ExperimentSettings] = None,
    jobs: Optional[int] = None,
) -> List[Tuple[Program, ExecutionResult, DeadnessAnalysis]]:
    """Batch :func:`functional_parts` across worker processes."""
    settings = settings or ExperimentSettings()
    profiles = list(profiles)
    runtime = get_runtime()
    effective_jobs = runtime.jobs if jobs is None else jobs
    if effective_jobs > 1:
        pending = [p for p in profiles
                   if _functional_key(p, settings) not in _functional_cache]
        if len(pending) > 1:
            from repro.runtime.engine import functional_parallel

            parts = functional_parallel(
                pending, settings, effective_jobs,
                cache_dir=runtime.cache_dir, telemetry=runtime.telemetry,
                policy=runtime.policy, chaos=runtime.chaos)
            for profile, part in zip(pending, parts):
                _functional_cache[_functional_key(profile, settings)] = part
    return [functional_parts(profile, settings) for profile in profiles]


def average_reports(reports: Iterable[IqAvfReport]) -> Dict[str, float]:
    """Arithmetic means of the headline metrics across benchmarks.

    The paper averages IPC and AVFs arithmetically across benchmarks
    (Table 1 'averaged across all benchmarks'); we do the same.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("no reports to average")
    n = len(reports)
    mean_ipc = sum(r.ipc for r in reports) / n
    mean_sdc = sum(r.sdc_avf for r in reports) / n
    mean_due = sum(r.due_avf for r in reports) / n
    mean_false = sum(r.false_due_avf for r in reports) / n
    return {
        "ipc": mean_ipc,
        "sdc_avf": mean_sdc,
        "due_avf": mean_due,
        "false_due_avf": mean_false,
        "ipc_over_sdc_avf": mean_ipc / mean_sdc if mean_sdc else 0.0,
        "ipc_over_due_avf": mean_ipc / mean_due if mean_due else 0.0,
    }
