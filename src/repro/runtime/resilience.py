"""Supervision layer: failure taxonomy, retry/backoff, quarantine.

Every process fan-out borrows the runtime context's one
:class:`WorkerPool`, so a run of campaigns starts its workers once.
This module wraps that pool with a supervisor that

* **classifies** every failure into a structured taxonomy
  (:class:`TrialCrash`, :class:`TrialTimeout`, :class:`WorkerLost`,
  :class:`CacheCorrupt`, :class:`ResultInvalid`),
* **retries** failed shards with exponential backoff plus deterministic
  jitter, under a per-trial watchdog deadline,
* **replaces** the context's pool when a worker dies or hangs (innocent
  in-flight shards are re-queued without being charged an attempt), and
* **quarantines** deterministically-failing trials after the retry
  budget, completing the campaign in degraded mode with an explicit
  :class:`CompletenessReport`.

Determinism is preserved throughout: a shard's result depends only on
which trial indices it covers (per-trial seed streams), so re-running a
shard after a crash — or splitting it into single trials to isolate a
poisoned index — reproduces the fault-free result bit-for-bit.

Campaign orchestration on top of this supervisor (block planning, the
shard worker, journalled resume) lives in the fault layer, beside the
campaign it runs; this module knows nothing of what a task computes.
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
import time
from collections import OrderedDict, deque
from contextlib import contextmanager
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from math import sqrt
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.runtime.telemetry import Telemetry
from repro.util.rng import DeterministicRng, derive_seed

#: Seam for the backoff jitter streams (arbitrary constant, never user
#: facing; folded with the task label/index/attempt via derive_seed).
_BACKOFF_SEED = 0xBAC0FF

#: Poll interval of the supervision loop; bounds watchdog resolution.
_TICK_SECONDS = 0.05


#: Worker side of the watchdog: the write end of the pool's start pipe
#: (set by :func:`_init_worker`) and the ticket of the running task.
_START_PIPE: Any = None
_TICKET: Optional[int] = None
#: Worker side of :meth:`WorkerPool.hold`: the values the worker started
#: holding, by name (set by :func:`_init_worker`).
_HELD: Dict[Any, Any] = {}

#: Bound on the values one pool holds: a run meets a few campaign
#: subjects at a time, and every worker keeps a copy of each.
HELD_ENTRIES = 4

#: Parent side: ticket numbers, unique across every fan-out of the
#: process, so a report left in a pipe by a finished fan-out never arms
#: a later one's clock.
_TICKETS = itertools.count()


def _init_worker(start_pipe, held: Dict[Any, Any]) -> None:
    """Pool initializer: keep the start pipe and held values, die quietly.

    Workers forked from the CLI inherit its SIGTERM->KeyboardInterrupt
    handler, so a supervisor pool teardown (``terminate()``) would spew a
    traceback per worker. Restore the default SIGTERM disposition and
    ignore SIGINT — on Ctrl-C the *parent* drains the pool deliberately.
    """
    import signal

    global _START_PIPE, _HELD
    _START_PIPE = start_pipe
    _HELD = held

    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass


def _run_ticketed(ticket: int, fn: Callable[..., Any],
                  args: Tuple[Any, ...], attempt: int) -> Any:
    """Run a pooled task in its worker with its watchdog ticket set."""
    global _TICKET
    _TICKET = ticket
    try:
        return fn(*args, attempt)
    finally:
        _TICKET = None


def start_watchdog() -> None:
    """Start the running pooled task's watchdog clock now.

    A task with a deadline calls this once its set-up is done (a
    campaign shard: after it has built its classifier), so worker
    start-up, argument unpickling and set-up never count against the
    per-trial budget. A no-op outside a pooled task.
    """
    if _START_PIPE is not None and _TICKET is not None:
        # One message of a few bytes: a single atomic pipe write, so
        # workers sharing the pipe never interleave.
        _START_PIPE.send(_TICKET)


# ---------------------------------------------------------------------------
# Failure taxonomy
# ---------------------------------------------------------------------------

class RuntimeFault(Exception):
    """Base class for classified campaign-runtime failures."""


class TrialCrash(RuntimeFault):
    """A trial (or the code around it) raised inside a worker."""

    def __init__(self, message: str, trial_index: Optional[int] = None):
        super().__init__(message, trial_index)
        self.trial_index = trial_index

    def __str__(self) -> str:
        return self.args[0]


class TrialTimeout(RuntimeFault):
    """A shard blew through its watchdog deadline (hung worker)."""


class WorkerLost(RuntimeFault):
    """A worker process died (killed, segfaulted, OOMed)."""


class CacheCorrupt(RuntimeFault):
    """A cache or checkpoint payload failed validation."""


class ResultInvalid(RuntimeFault):
    """A worker returned a structurally invalid result."""


class CampaignInterrupted(RuntimeFault):
    """KeyboardInterrupt/SIGTERM landed mid-campaign.

    The pool has been drained and any checkpoint journal holds every
    completed block; re-running with ``resume`` continues bit-identically.
    """

    def __init__(self, message: str, trials_done: int = 0):
        super().__init__(message, trials_done)
        self.trials_done = trials_done

    def __str__(self) -> str:
        return self.args[0]


#: Telemetry counter ticked for each taxonomy class.
FAULT_COUNTERS = {
    TrialCrash: "trial_crashes",
    TrialTimeout: "trial_timeouts",
    WorkerLost: "workers_lost",
    CacheCorrupt: "cache_corruptions",
    ResultInvalid: "results_invalid",
}


def classify_failure(exc: BaseException) -> RuntimeFault:
    """Map an arbitrary exception onto the structured taxonomy."""
    if isinstance(exc, RuntimeFault):
        return exc
    if isinstance(exc, BrokenExecutor):
        return WorkerLost(str(exc) or "worker process died")
    if isinstance(exc, TimeoutError):
        return TrialTimeout(str(exc) or "deadline exceeded")
    return TrialCrash(f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """How hard the supervisor fights before giving up on a task."""

    #: Additional attempts after the first (0 = fail fast).
    retries: int = 2
    #: First-retry backoff delay, in seconds; doubles per attempt.
    backoff_base: float = 0.05
    #: Backoff ceiling, in seconds.
    backoff_cap: float = 2.0
    #: Fraction of the delay randomised (deterministically) to de-correlate
    #: retry storms: delay is uniform in [base*(1-j), base*(1+j)].
    jitter: float = 0.5
    #: Watchdog deadline per trial, in seconds (None = no watchdog). A
    #: shard of N trials gets N * trial_timeout, counted from the moment
    #: its worker calls :func:`start_watchdog`, before it is declared hung.
    trial_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if self.backoff_base < 0.0 or self.backoff_cap < 0.0:
            raise ValueError("backoff delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.trial_timeout is not None and self.trial_timeout <= 0.0:
            raise ValueError("trial_timeout must be positive")

    def backoff_delay(self, label: str, index: int, attempt: int) -> float:
        """Deterministic exponential backoff with jitter for retry
        ``attempt`` (1-based) of task ``index``."""
        base = min(self.backoff_cap,
                   self.backoff_base * (2.0 ** max(0, attempt - 1)))
        if self.jitter == 0.0 or base == 0.0:
            return base
        rng = DeterministicRng(
            derive_seed(_BACKOFF_SEED, "backoff", label, index, attempt))
        return base * (1.0 - self.jitter + 2.0 * self.jitter * rng.random())

    def deadline_for(self, items: int) -> Optional[float]:
        """Seconds a task covering ``items`` trials may run, or None."""
        if self.trial_timeout is None:
            return None
        return self.trial_timeout * max(1, items)


# ---------------------------------------------------------------------------
# Completeness accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompletenessReport:
    """What fraction of a campaign actually ran, and at what cost."""

    trials_requested: int
    trials_succeeded: int
    quarantined: Tuple[int, ...] = ()
    retries: int = 0
    resumed_trials: int = 0

    @property
    def degraded(self) -> bool:
        return self.trials_succeeded < self.trials_requested

    @property
    def complete(self) -> bool:
        return not self.degraded

    @property
    def confidence_widening(self) -> float:
        """Factor by which binomial confidence half-widths grow because
        quarantined trials shrank the sample (sqrt(requested/succeeded))."""
        if self.trials_succeeded <= 0:
            return float("inf")
        return sqrt(self.trials_requested / self.trials_succeeded)

    def format(self) -> str:
        parts = [f"{self.trials_succeeded}/{self.trials_requested} trials"]
        if self.resumed_trials:
            parts.append(f"{self.resumed_trials} resumed from checkpoint")
        if self.retries:
            parts.append(f"{self.retries} retries")
        if self.quarantined:
            shown = ", ".join(str(i) for i in self.quarantined[:8])
            if len(self.quarantined) > 8:
                shown += ", ..."
            parts.append(
                f"quarantined [{shown}] — degraded mode, confidence "
                f"intervals widened x{self.confidence_widening:.3f}")
        return "campaign completeness: " + "; ".join(parts)


# ---------------------------------------------------------------------------
# The worker pool
# ---------------------------------------------------------------------------

class Held:
    """A task argument whose value every pool worker starts with.

    The fan-out has the pool hold it (``Supervisor.run_pooled(...,
    held=...)``); pickled, a ``Held`` is its ``name`` alone, so a task
    carrying one costs a few bytes however large the (never None) value.
    :meth:`get` returns the worker's copy, or the value itself when the
    task runs inline. ``name`` must name one value while a pool holds it.
    """

    def __init__(self, name: Any, value: Any = None) -> None:
        self.name = name
        self._value = value

    def __reduce__(self):
        return (Held, (self.name,))

    def get(self) -> Any:
        return _HELD[self.name] if self._value is None else self._value


class WorkerPool:
    """The process pool a runtime context lends to every fan-out.

    Started on first borrow with ``max(jobs, requested)`` workers and
    kept between fan-outs, so a run of campaigns pays the process
    start-up once. Every worker starts holding the pool's held values
    (:meth:`hold`, at most :data:`HELD_ENTRIES`, least recently held
    dropped first): they travel as the pool initializer's arguments, so
    a forked worker inherits them unpickled and a spawned one unpickles
    them once, and the tasks that read them carry only their names. One
    fan-out holds the pool at a time (:meth:`lease`), so a rebuild never
    kills another fan-out's work and a task's watchdog clock never runs
    while it waits for a worker. :meth:`replace` kills a broken or hung
    pool and the next borrow starts a fresh one holding the same values;
    :meth:`shutdown` stops the workers, waits for them and drops the
    held values. Each pool has a start pipe on which its workers report,
    by ticket, the tasks whose watchdog clocks start
    (:func:`start_watchdog`, read back by :meth:`started`).
    """

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = jobs
        #: Workers of the live pool (0 when none is running).
        self.workers = 0
        self._executor: Optional[ProcessPoolExecutor] = None
        self._pipe: Optional[Tuple[Any, Any]] = None
        #: Values every worker holds, least recently held first. A live
        #: pool's workers hold each (and maybe some evicted since).
        self._held: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._lease = threading.RLock()

    @contextmanager
    def lease(self) -> Iterator["WorkerPool"]:
        """Hold the pool for one fan-out; other threads' fan-outs wait."""
        with self._lease:
            yield self

    def hold(self, held: Held) -> None:
        """Have every worker hold ``held``'s value; call inside the lease.

        A live pool whose workers started without it is replaced, and
        the next :meth:`borrow` starts one holding it.
        """
        with self._lock:
            stale = self._executor if held.name not in self._held else None
            self._held[held.name] = held.get()
            self._held.move_to_end(held.name)
            while len(self._held) > HELD_ENTRIES:
                self._held.popitem(last=False)
        if stale is not None:
            self.replace(stale)

    def borrow(self, workers: int) -> ProcessPoolExecutor:
        """The live pool, started with ``max(jobs, workers)`` workers if
        none is running."""
        with self._lock:
            if self._executor is None:
                self.workers = max(self.jobs, workers)
                self._pipe = multiprocessing.Pipe(duplex=False)
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers, initializer=_init_worker,
                    initargs=(self._pipe[1], dict(self._held)))
            return self._executor

    def started(self) -> List[int]:
        """Tickets whose tasks started their watchdog clocks since the
        last call."""
        with self._lock:
            tickets = []
            while self._pipe is not None and self._pipe[0].poll():
                tickets.append(self._pipe[0].recv())
            return tickets

    def replace(self, executor: ProcessPoolExecutor) -> None:
        """Kill ``executor`` hard: hung workers are terminated, then reaped.

        The next :meth:`borrow` starts a fresh pool.
        """
        pipe = None
        with self._lock:
            if self._executor is executor:
                self._executor = None
                pipe, self._pipe = self._pipe, None
        _close_pipe(pipe)
        processes = list(getattr(executor, "_processes", {}).values())
        manager = getattr(executor, "_executor_manager_thread", None)
        executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                process.terminate()
                process.join(timeout=1.0)
            except Exception:
                pass
        # Wait for the pool's manager thread to see its workers gone. A
        # pool forked while it still holds the old executor's shutdown
        # lock hands its workers that lock held; a worker whose garbage
        # collector then frees the old executor blocks on it for good.
        if manager is not None:
            manager.join(timeout=5.0)

    def shutdown(self) -> None:
        """Stop the workers, wait for them and drop the held values."""
        with self._lock:
            executor, self._executor = self._executor, None
            pipe, self._pipe = self._pipe, None
            self._held.clear()
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)
        _close_pipe(pipe)


def _close_pipe(pipe: Optional[Tuple[Any, Any]]) -> None:
    """Close both ends of a pool's start pipe, if it has one."""
    if pipe is not None:
        for end in pipe:
            end.close()


# ---------------------------------------------------------------------------
# The supervisor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupervisedTask:
    """One unit of retryable work.

    ``fn`` must be picklable and accept ``(*args, attempt)`` — the
    supervisor appends the 0-based attempt number so chaos decisions and
    diagnostics can key on it. ``items`` scales the watchdog deadline and
    worker-timing records; ``deadline`` opts the task into the watchdog,
    whose clock starts when the pooled task calls :func:`start_watchdog`.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...]
    items: int = 1
    key: Any = None
    deadline: bool = True


class Supervisor:
    """Runs :class:`SupervisedTask`s with retry, backoff and quarantine.

    ``run_pooled`` borrows the active runtime context's
    :class:`WorkerPool` and has it replaced whenever a worker dies
    (``BrokenExecutor``) or a task overruns its watchdog deadline; tasks
    that were merely collocated with the failure are re-queued without
    being charged an attempt (except on pool breakage, where the guilty
    future cannot be told apart from its batch — those all take the
    charge, which is harmless because results never depend on the
    attempt number). ``run_serial`` executes inline with the same retry
    accounting.

    With ``quarantine=True`` exhausted tasks are set aside and reported;
    otherwise the final classified fault is raised.
    """

    def __init__(
        self,
        policy: RetryPolicy,
        *,
        label: str,
        max_workers: int = 1,
        telemetry: Optional[Telemetry] = None,
        quarantine: bool = False,
        validate: Optional[Callable[[Any, SupervisedTask], None]] = None,
        on_result: Optional[Callable[[int, SupervisedTask, Any], None]] = None,
    ) -> None:
        self.policy = policy
        self.label = label
        self.max_workers = max(1, max_workers)
        self.telemetry = telemetry
        self.quarantine = quarantine
        self.validate = validate
        self.on_result = on_result
        self.retries = 0

    # -- shared accounting ----------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        if self.telemetry is not None:
            self.telemetry.increment(name, amount)

    def _succeed(self, index: int, task: SupervisedTask, value: Any) -> None:
        if self.validate is not None:
            self.validate(value, task)
        if self.on_result is not None:
            self.on_result(index, task, value)

    def _charge(self, index: int, task: SupervisedTask, fault: RuntimeFault,
                attempts: List[int], sleeping: Dict[int, float],
                quarantined: List[int]) -> None:
        """Record a failed attempt; schedule a retry, quarantine, or raise."""
        self._count(FAULT_COUNTERS.get(type(fault), "runtime_faults"))
        attempts[index] += 1
        if attempts[index] <= self.policy.retries:
            self.retries += 1
            self._count("retries")
            delay = self.policy.backoff_delay(self.label, index,
                                              attempts[index])
            sleeping[index] = time.monotonic() + delay
            return
        if self.quarantine:
            quarantined.append(index)
            self._count("quarantined_tasks")
            return
        raise fault

    # -- serial path -----------------------------------------------------

    def run_serial(self, tasks: Sequence[SupervisedTask]) -> List[int]:
        """Run tasks inline; returns quarantined task indices."""
        quarantined: List[int] = []
        attempts = [0] * len(tasks)
        sleeping: Dict[int, float] = {}
        for index, task in enumerate(tasks):
            while True:
                try:
                    value = task.fn(*task.args, attempts[index])
                    self._succeed(index, task, value)
                    break
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    self._charge(index, task, classify_failure(exc),
                                 attempts, sleeping, quarantined)
                if index not in sleeping:
                    break  # quarantined
                time.sleep(max(0.0, sleeping.pop(index) - time.monotonic()))
        return quarantined

    # -- pooled path -----------------------------------------------------

    def run_pooled(self, tasks: Sequence[SupervisedTask],
                   held: Sequence[Held] = ()) -> List[int]:
        """Run tasks on the context's pool, its lease taken and its
        workers holding ``held``; returns quarantined indices."""
        # Local import: the context module imports this one.
        from repro.runtime.context import get_runtime

        with get_runtime().pool.lease() as workers:
            for value in held:
                workers.hold(value)
            return self._run_leased(workers, tasks)

    def _run_leased(self, workers: WorkerPool,
                    tasks: Sequence[SupervisedTask]) -> List[int]:
        quarantined: List[int] = []
        attempts = [0] * len(tasks)
        ready = deque(range(len(tasks)))
        sleeping: Dict[int, float] = {}
        inflight: Dict[Any, int] = {}
        #: Armed deadlines, by future; a future's clock starts when its
        #: worker reports the future's ticket.
        deadlines: Dict[Any, float] = {}
        tickets: Dict[int, Any] = {}
        pool = workers.borrow(self.max_workers)
        # Never more in flight than the pool has workers: a queued task's
        # watchdog clock would run while it waits.
        slots = min(self.max_workers, workers.workers)

        def rebuild() -> None:
            # Re-queue the in-flight survivors without charging them an
            # attempt, kill the pool and borrow a fresh one.
            nonlocal pool
            ready.extend(inflight.values())
            inflight.clear()
            deadlines.clear()
            tickets.clear()
            workers.replace(pool)
            pool = workers.borrow(self.max_workers)

        try:
            while ready or sleeping or inflight:
                now = time.monotonic()
                for index in [i for i, t in sleeping.items() if t <= now]:
                    del sleeping[index]
                    ready.append(index)
                while ready and len(inflight) < slots:
                    index = ready.popleft()
                    task = tasks[index]
                    ticket = next(_TICKETS)
                    try:
                        future = pool.submit(_run_ticketed, ticket, task.fn,
                                             task.args, attempts[index])
                    except BrokenExecutor:
                        # A worker died while the pool sat idle.
                        ready.appendleft(index)
                        rebuild()
                        continue
                    inflight[future] = index
                    tickets[ticket] = future
                if not inflight:
                    if sleeping:
                        pause = min(sleeping.values()) - time.monotonic()
                        time.sleep(max(0.0, min(pause, _TICK_SECONDS)))
                    continue
                done, _ = wait(list(inflight), timeout=_TICK_SECONDS,
                               return_when=FIRST_COMPLETED)
                broken = False
                for future in done:
                    index = inflight.pop(future)
                    deadlines.pop(future, None)
                    task = tasks[index]
                    try:
                        value = future.result()
                        self._succeed(index, task, value)
                    except KeyboardInterrupt:
                        raise
                    except BrokenExecutor as exc:
                        broken = True
                        self._charge(index, task,
                                     WorkerLost(
                                         f"worker died running "
                                         f"{self.label}[{task.key}]: {exc}"),
                                     attempts, sleeping, quarantined)
                    except Exception as exc:
                        self._charge(index, task, classify_failure(exc),
                                     attempts, sleeping, quarantined)
                if broken:
                    rebuild()
                    continue
                now = time.monotonic()
                for ticket in workers.started():
                    future = tickets.pop(ticket, None)
                    if future not in inflight:
                        continue  # finished before its report was read
                    task = tasks[inflight[future]]
                    limit = (self.policy.deadline_for(task.items)
                             if task.deadline else None)
                    if limit is not None:
                        deadlines[future] = now + limit
                expired = [future for future, limit in deadlines.items()
                           if limit <= now and future in inflight]
                if expired:
                    for future in expired:
                        index = inflight.pop(future)
                        deadlines.pop(future, None)
                        task = tasks[index]
                        self._charge(
                            index, task,
                            TrialTimeout(
                                f"{self.label}[{task.key}] exceeded "
                                f"{self.policy.deadline_for(task.items):.3g}s "
                                f"deadline"),
                            attempts, sleeping, quarantined)
                    # A hung worker cannot be cancelled individually.
                    rebuild()
        except BaseException:
            # Whatever is still running on the pool is abandoned with it.
            workers.replace(pool)
            raise
        return quarantined
