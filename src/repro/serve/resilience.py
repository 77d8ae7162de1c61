"""Client-side failure engineering for the AVF query service.

PR 6 gave the serve path one blind reconnect and fixed timeouts; this
module gives it the same discipline the campaign runtime got in PR 2 —
failures that merely degrade availability are absorbed, counted, and
reported, while failures that could corrupt answers are structurally
impossible (every retry re-issues an idempotent request and re-validates
the framed response; a garbled line can never be mistaken for an answer).

Three pieces:

* :class:`ClientPolicy` — how hard one logical request fights: retry
  count, exponential backoff with *deterministic* jitter (delegating to
  :class:`repro.runtime.resilience.RetryPolicy`, the exact machinery the
  process-pool supervisor uses), and a wall-clock **deadline budget**
  that caps the total time spent across all attempts, connects, and
  backoff sleeps;
* :class:`DeadlineBudget` — the running remainder of that budget, used
  to clip every per-attempt socket timeout so retries can never stretch
  a request past its cap;
* :class:`CircuitBreaker` — the classic closed → open → half-open
  machine over *transport* failures. After ``threshold`` consecutive
  failures the breaker opens and every subsequent call is refused
  locally (:class:`BreakerOpen`) without paying the connect tax; after
  ``reset_timeout`` one probe is let through, and its outcome closes or
  re-opens the circuit. Structured server errors never trip the breaker
  — a server that answers, even with an error, is alive.

Environment knobs (parsed by :func:`env_int` / :func:`env_float`, which
the server's ``REPRO_SERVE_*`` knobs share): ``REPRO_SERVICE_TIMEOUT``
(per-attempt socket timeout for ``--service`` clients),
``REPRO_SERVICE_RETRIES``, ``REPRO_SERVICE_BREAKER_THRESHOLD``,
``REPRO_SERVICE_BREAKER_RESET``.
"""

from __future__ import annotations

import os
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.runtime.resilience import RetryPolicy

#: Per-attempt timeout for resilient interactive clients (``ServeClient``).
DEFAULT_CLIENT_TIMEOUT = 300.0
#: Per-attempt socket timeout for the experiment-plumbing store client.
DEFAULT_STORE_TIMEOUT = 60.0
#: Consecutive transport failures before the breaker opens.
DEFAULT_BREAKER_THRESHOLD = 3
#: Seconds an open breaker waits before letting one probe through.
DEFAULT_BREAKER_RESET = 30.0
#: Retry budget (attempts after the first) for one logical request.
DEFAULT_CLIENT_RETRIES = 2


def env_float(name: str, default: float) -> float:
    """``$name`` as a float; ``default`` when unset or empty."""
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number (got {raw!r})")


def env_int(name: str, default: int) -> int:
    """``$name`` as an int; ``default`` when unset or empty."""
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer (got {raw!r})")


def service_timeout(default: float) -> float:
    """Per-attempt socket timeout: ``REPRO_SERVICE_TIMEOUT`` or ``default``."""
    value = env_float("REPRO_SERVICE_TIMEOUT", default)
    if value <= 0:
        raise ValueError(
            f"REPRO_SERVICE_TIMEOUT must be positive (got {value!r})")
    return value


def service_retries(default: int = DEFAULT_CLIENT_RETRIES) -> int:
    """Retry budget: ``REPRO_SERVICE_RETRIES`` or ``default``."""
    value = env_int("REPRO_SERVICE_RETRIES", default)
    if value < 0:
        raise ValueError(
            f"REPRO_SERVICE_RETRIES must be non-negative (got {value!r})")
    return value


@dataclass(frozen=True)
class ClientPolicy:
    """Retry/backoff/deadline budget for one logical service request.

    Backoff delays come from :meth:`RetryPolicy.backoff_delay`, so the
    jitter stream is a pure function of ``(label, request id, attempt)``
    — a retry storm de-correlates across clients and requests, yet any
    single run replays exactly.
    """

    #: Additional attempts after the first (0 = fail fast).
    retries: int = DEFAULT_CLIENT_RETRIES
    #: First-retry backoff delay, in seconds; doubles per attempt.
    backoff_base: float = 0.05
    #: Backoff ceiling, in seconds.
    backoff_cap: float = 2.0
    #: Fraction of the delay randomised (deterministically).
    jitter: float = 0.5
    #: Wall-clock cap, in seconds, on the *total* time one request may
    #: spend across every attempt, connect, and backoff sleep
    #: (None = only the per-attempt timeouts bound it).
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        # RetryPolicy validates the shared fields; deadline is ours.
        self._retry_policy()
        if self.deadline is not None and self.deadline <= 0.0:
            raise ValueError("deadline must be positive")

    def _retry_policy(self) -> RetryPolicy:
        return RetryPolicy(retries=self.retries,
                           backoff_base=self.backoff_base,
                           backoff_cap=self.backoff_cap,
                           jitter=self.jitter)

    def backoff_delay(self, label: str, index: int, attempt: int) -> float:
        """Deterministic delay before retry ``attempt`` (1-based)."""
        return self._retry_policy().backoff_delay(label, index, attempt)

    @classmethod
    def from_env(cls, **overrides) -> "ClientPolicy":
        values = {"retries": service_retries()}
        values.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**values)


class DeadlineBudget:
    """The running remainder of one request's wall-clock budget."""

    def __init__(self, seconds: Optional[float],
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.seconds = seconds
        self._clock = clock
        self._expires = None if seconds is None else clock() + seconds

    def remaining(self) -> Optional[float]:
        """Seconds left, or None when the budget is unbounded."""
        if self._expires is None:
            return None
        return max(0.0, self._expires - self._clock())

    def expired(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0.0

    def clip(self, timeout: Optional[float]) -> Optional[float]:
        """Bound a per-attempt timeout by what is left of the budget."""
        remaining = self.remaining()
        if remaining is None:
            return timeout
        if timeout is None:
            return remaining
        return min(timeout, remaining)


class BreakerOpen(ConnectionError):
    """Refused locally: the circuit breaker considers the service dead."""

    def __init__(self, message: str, retry_in: float = 0.0) -> None:
        super().__init__(message)
        #: Seconds until the breaker will admit a half-open probe.
        self.retry_in = retry_in


#: Breaker states, as exposed by :attr:`CircuitBreaker.state`.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"


class CircuitBreaker:
    """Closed → open → half-open over consecutive transport failures.

    Thread-safe (the blocking client may be shared across threads).
    ``on_transition(old, new)`` is invoked — outside the lock — on every
    state change, which is how the remote store folds breaker activity
    into the runtime telemetry.
    """

    def __init__(
        self,
        threshold: int = DEFAULT_BREAKER_THRESHOLD,
        reset_timeout: float = DEFAULT_BREAKER_RESET,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if reset_timeout <= 0.0:
            raise ValueError("reset_timeout must be positive")
        self.threshold = threshold
        self.reset_timeout = reset_timeout
        self.on_transition = on_transition
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self.counters: Counter = Counter()

    @classmethod
    def from_env(cls, **kwargs) -> "CircuitBreaker":
        """Defaults from ``REPRO_SERVICE_BREAKER_*`` knobs."""
        kwargs.setdefault("threshold", env_int(
            "REPRO_SERVICE_BREAKER_THRESHOLD", DEFAULT_BREAKER_THRESHOLD))
        kwargs.setdefault("reset_timeout", env_float(
            "REPRO_SERVICE_BREAKER_RESET", DEFAULT_BREAKER_RESET))
        return cls(**kwargs)

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def _transition(self, new: str) -> Optional[Callable[[str, str], None]]:
        """Move to ``new`` under the lock; returns the pending callback."""
        old, self._state = self._state, new
        if old == new:
            return None
        self.counters[f"breaker_{new.replace('-', '_')}"] += 1
        if self.on_transition is None:
            return None
        callback = self.on_transition
        return lambda: callback(old, new)

    def allow(self) -> bool:
        """May an attempt proceed right now?

        In the open state, one probe is admitted once ``reset_timeout``
        has elapsed (moving to half-open); everything else is refused
        and counted as a short-circuit.
        """
        # Unlocked fast path: a closed breaker admits everything. The
        # read races benignly with a concurrent open — at worst one
        # extra attempt slips through while the state flips.
        if self._state == CLOSED:
            return True
        pending = None
        with self._lock:
            if self._state == CLOSED:
                return True
            if (self._state == OPEN
                    and self._clock() - self._opened_at
                    >= self.reset_timeout):
                pending = self._transition(HALF_OPEN)
                self.counters["breaker_probes"] += 1
                admitted = True
            else:
                # Open before its window, or half-open with the probe
                # already in flight: refuse locally.
                self.counters["breaker_short_circuits"] += 1
                admitted = False
        if pending is not None:
            pending()
        return admitted

    def retry_in(self) -> float:
        """Seconds until an open breaker will admit a probe (0 = now)."""
        with self._lock:
            if self._state != OPEN:
                return 0.0
            return max(0.0,
                       self._opened_at + self.reset_timeout - self._clock())

    def record_success(self) -> None:
        """A request completed against a live server: close the circuit."""
        # Unlocked fast path for the steady state (closed, no failure
        # streak): nothing to transition, only the counter to tick. A
        # cross-thread race can at worst smudge the success count by
        # one; state changes stay behind the lock.
        if self._state == CLOSED and self._failures == 0:
            self.counters["breaker_successes"] += 1
            return
        with self._lock:
            self._failures = 0
            pending = self._transition(CLOSED)
            self.counters["breaker_successes"] += 1
        if pending is not None:
            pending()

    def record_failure(self) -> None:
        """A transport-level failure (connect refused, reset, timeout)."""
        with self._lock:
            self.counters["breaker_failures"] += 1
            pending = None
            if self._state == HALF_OPEN:
                # The probe failed: straight back to open.
                self._opened_at = self._clock()
                pending = self._transition(OPEN)
            else:
                self._failures += 1
                if self._failures >= self.threshold:
                    self._opened_at = self._clock()
                    pending = self._transition(OPEN)
        if pending is not None:
            pending()

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {"state": self._state,
                    "consecutive_failures": self._failures,
                    "threshold": self.threshold,
                    "reset_timeout": self.reset_timeout,
                    **{name: count
                       for name, count in sorted(self.counters.items())}}
