"""Clients for the AVF query service.

* :class:`AsyncServeClient` — the one implementation of the client side
  of the protocol. It multiplexes many concurrent requests over one
  connection by request id (the load harness drives thousands of
  in-flight queries through a handful of connections this way) and
  bounds every wait with one shared deadline watchdog. Built with a
  ``policy`` and ``breaker``, one logical ``request()`` also fights
  through transient failure: deterministic exponential backoff across
  reconnects, a wall-clock deadline budget capping the total spent, a
  circuit breaker that refuses locally once the service looks dead, and
  a lazy redial of a dropped connection shared by concurrent waiters.
  Built bare (``AsyncServeClient().connect(host, port)``) it makes one
  attempt per request, with no budget and no breaker;
* :class:`ServeClient` — a blocking facade for scripts, tests, and the
  remote store: it runs an :class:`AsyncServeClient` to completion on a
  private event loop and owns no socket or retry code of its own;
* :class:`RemoteStore` — the failure-tolerant ``store.get``/``store.put``
  wrapper the experiment plumbing uses as a fleet-wide timeline store.
  Its failure policy mirrors the on-disk cache's: the service must never
  take a run down, so connection failures and server-side errors count
  and degrade to misses / dropped puts — and once its breaker opens, a
  dead service costs near-zero (no connect tax) until a probe succeeds.

**What can never be wrong.** Every response line is re-validated here: a
line that fails to decode, or a server error carrying no request id
(meaning *our* request line was damaged in flight), is treated as wire
desync — the connection is torn down, every waiter on it fails with
``ConnectionError``, and a resilient client re-issues the idempotent
request. A damaged payload can therefore surface only as a structured
error or a retry, never as a silently different answer.

**Backoff index.** One logical request keeps one request id across all
of its attempts, and that id indexes the backoff jitter stream: the
delay before retry ``n`` is ``policy.backoff_delay("host:port", id, n)``,
the same rule the process-pool supervisor applies to its task indices.
"""

from __future__ import annotations

import asyncio
import base64
import itertools
import json
import pickle
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

from repro.runtime.cache import MISS
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    RETRYABLE_ERROR_CODES,
    canonical_dumps,
)
from repro.serve.resilience import (
    DEFAULT_CLIENT_TIMEOUT,
    DEFAULT_STORE_TIMEOUT,
    BreakerOpen,
    CircuitBreaker,
    ClientPolicy,
    DeadlineBudget,
    service_timeout,
)

#: Structured error codes that mean "try again later", not "you are
#: wrong": shed by admission control, refused during drain, or timed out
#: against the server's own compute deadline.
RETRYABLE_CODES = frozenset(RETRYABLE_ERROR_CODES)


class ServeError(Exception):
    """A structured error answer from the server."""

    def __init__(self, code: str, message: str,
                 retry_after: float = 0.0) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        #: Server's hint, in seconds, for when to retry (0 = no hint).
        self.retry_after = retry_after

    @property
    def retryable(self) -> bool:
        return self.code in RETRYABLE_CODES


def parse_address(address: str) -> Tuple[str, int]:
    """``host:port`` → ``(host, port)`` with a clear failure mode."""
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"service address must be host:port, "
                         f"got {address!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"service port must be an integer, got {port!r}")


def _error_from(response: Dict[str, Any]) -> ServeError:
    error = response.get("error") or {}
    retry_after = error.get("retry_after", 0.0)
    if not isinstance(retry_after, (int, float)) \
            or isinstance(retry_after, bool):
        retry_after = 0.0
    return ServeError(error.get("code", "unknown"),
                      error.get("message", ""),
                      retry_after=float(retry_after))


class AsyncServeClient:
    """Multiplexing asyncio client: many in-flight requests, one socket.

    ``timeout`` bounds each attempt's wait for its final line (and the
    dial); it is ``None`` — unbounded — for a bare client. Giving a
    ``policy`` or a ``breaker`` makes the client resilient: the other
    one, and ``timeout``, then default from the ``REPRO_SERVICE_*``
    knobs, and ``request`` retries per the policy behind the breaker
    (shared by callers that want fleet-wide memory). A resilient client
    built with ``host`` and ``port`` dials on its first request.

    Framing is trusted only while it parses: an undecodable response
    line or an unattributable server error kills the connection and
    fails every waiter on it (with ``ConnectionError``), so damage
    surfaces as a retryable failure, never as a wrong answer.
    """

    def __init__(self, host: Optional[str] = None,
                 port: Optional[int] = None, *,
                 timeout: Optional[float] = None,
                 policy: Optional[ClientPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None) -> None:
        self.host = host
        self.port = port
        if policy is not None or breaker is not None:
            if timeout is None:
                timeout = service_timeout(DEFAULT_CLIENT_TIMEOUT)
            if policy is None:
                policy = ClientPolicy.from_env()
            if breaker is None:
                breaker = CircuitBreaker.from_env()
        self.timeout = timeout
        self.policy = policy
        self.breaker = breaker
        self.counters: Counter = Counter()
        self._ids = itertools.count(1)
        self._writer: Optional[asyncio.StreamWriter] = None
        self._pump: Optional[asyncio.Task] = None
        #: Waiters on the current connection, by request id (a fresh
        #: dict per connection, so a dying pump fails only its own).
        self._pending: Dict[int, asyncio.Queue] = {}
        # Request deadlines are enforced by one shared watchdog timer
        # (re-armed at the earliest pending deadline), not a timer per
        # request — per request the cost is a dict write.
        self._deadlines: Dict[int, float] = {}
        self._watchdog: Optional[asyncio.TimerHandle] = None
        self._watchdog_when = 0.0
        self._dial_lock: Optional[asyncio.Lock] = None

    async def connect(self, host: str, port: int) -> "AsyncServeClient":
        """Dial ``host:port``, replacing any current connection."""
        self.host, self.port = host, port
        await self._dial(self.timeout)
        return self

    async def _dial(self, timeout: Optional[float]) -> None:
        await self.close()
        reader, writer = await asyncio.wait_for(asyncio.open_connection(
            self.host, self.port, limit=MAX_LINE_BYTES), timeout)
        self._pending = pending = {}
        self._writer = writer
        self._pump = asyncio.ensure_future(
            self._pump_responses(reader, writer, pending))

    async def close(self) -> None:
        """Drop the connection (a resilient client redials on demand)."""
        writer, self._writer = self._writer, None
        pump, self._pump = self._pump, None
        if self._watchdog is not None:
            self._watchdog.cancel()
            self._watchdog = None
        self._deadlines.clear()
        if pump is not None:
            pump.cancel()
            try:
                await pump
            except (asyncio.CancelledError, Exception):
                pass
        if writer is not None:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _pump_responses(self, reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter,
                              pending: Dict[int, asyncio.Queue]) -> None:
        try:
            while True:
                raw = await reader.readline()
                if not raw:
                    break
                try:
                    response = json.loads(raw)
                except (UnicodeDecodeError, json.JSONDecodeError):
                    # Wire desync: the framing is no longer trusted.
                    self.counters["client_desyncs"] += 1
                    break
                if response.get("event") == "error" \
                        and response.get("id") is None:
                    # The server could not attribute a request: one of
                    # our lines was damaged in flight.
                    self.counters["client_desyncs"] += 1
                    break
                queue = pending.get(response.get("id"))
                if queue is not None:
                    queue.put_nowait(response)
        except (ConnectionError, OSError, EOFError, ValueError):
            pass  # reset / over-long garbage line: same as a close
        finally:
            # Connection gone: fail every waiter on it, and close the
            # transport so no later request can register on it. Must
            # run on cancellation too — ``close()`` cancels this task
            # *and* disarms the deadline watchdog, so a waiter skipped
            # here would block forever with no timeout left to save it.
            writer.close()
            for queue in pending.values():
                queue.put_nowait(None)

    async def request(self, payload: Dict[str, Any],
                      collect_events: Optional[List[Dict[str, Any]]] = None
                      ) -> Dict[str, Any]:
        """Send one request; return its final ``result`` line.

        ``accepted`` progress lines are appended to ``collect_events``
        (with the final line) when it is given; an ``error`` line raises
        :class:`ServeError`. A bare client makes one attempt. A
        resilient one retries transport failures (connect refused,
        reset, timeout, wire desync) and retryable structured errors per
        its policy — with deterministic backoff, honouring the server's
        retry-after hint — until the retry or deadline budget runs out,
        and raises :class:`BreakerOpen` without touching the network
        while its circuit is open.
        """
        request_id = next(self._ids)
        if self.breaker is None:
            return await self._exchange(request_id, payload, collect_events,
                                        self.timeout)
        policy = self.policy
        breaker = self.breaker
        # Without a policy deadline there is no budget to keep: the
        # happy path is one breaker check and one exchange.
        budget = (None if policy.deadline is None
                  else DeadlineBudget(policy.deadline))
        last_error: Optional[Exception] = None
        retry_hint = 0.0
        for attempt in range(policy.retries + 1):
            if attempt:
                delay = max(policy.backoff_delay(
                    f"{self.host}:{self.port}", request_id, attempt),
                    retry_hint)
                remaining = None if budget is None else budget.remaining()
                if remaining is not None and delay >= remaining:
                    break  # sleeping would blow the deadline: give up now
                self.counters["client_retries"] += 1
                if delay > 0.0:
                    await asyncio.sleep(delay)
            retry_hint = 0.0
            if not breaker.allow():
                self.counters["client_short_circuits"] += 1
                raise BreakerOpen(
                    f"service {self.host}:{self.port} circuit is open "
                    f"(retry in {breaker.retry_in():.1f}s)",
                    retry_in=breaker.retry_in())
            timeout = (self.timeout if budget is None
                       else budget.clip(self.timeout))
            writer = self._writer
            try:
                if writer is None or writer.is_closing():
                    writer = await self._redial(timeout)
                response = await self._exchange(request_id, payload,
                                                collect_events, timeout)
            except ServeError as exc:
                # The server answered: it is alive, whatever it said.
                breaker.record_success()
                if exc.retryable and attempt < policy.retries:
                    self.counters["client_retryable_errors"] += 1
                    retry_hint = exc.retry_after
                    last_error = exc
                    continue
                raise
            except (OSError, EOFError, asyncio.TimeoutError) as exc:
                # Only tear the shared connection down if it is still
                # the one we failed on (a peer may have redialled).
                if writer is not None and writer is self._writer:
                    await self.close()
                breaker.record_failure()
                self.counters["client_transport_errors"] += 1
                last_error = exc
                continue
            breaker.record_success()
            return response
        self.counters["client_giveups"] += 1
        if last_error is not None:
            raise last_error
        raise TimeoutError(
            f"service {self.host}:{self.port}: deadline of "
            f"{policy.deadline}s exhausted before any attempt completed")

    async def _redial(self, timeout: Optional[float]
                      ) -> asyncio.StreamWriter:
        # Callers skip this when connected (the overwhelmingly common
        # case); the lock only matters when peers race to redial. It is
        # made here, inside the loop that uses it (Python 3.9 binds a
        # lock to the loop current at construction).
        if self._dial_lock is None:
            self._dial_lock = asyncio.Lock()
        async with self._dial_lock:
            writer = self._writer
            if writer is None or writer.is_closing():
                await self._dial(timeout)
            return self._writer

    #: Queue sentinel posted by the deadline watchdog.
    _TIMED_OUT = object()

    async def _exchange(self, request_id: int, payload: Dict[str, Any],
                        collect_events: Optional[List[Dict[str, Any]]],
                        timeout: Optional[float]) -> Dict[str, Any]:
        """One attempt: write the request line, await its final line.

        ``timeout`` is enforced by the client's shared watchdog timer
        feeding the response queue — not ``asyncio.wait_for``, whose
        Task-per-request wrapper is most of a warm round-trip on
        localhost. On expiry the attempt raises
        :class:`asyncio.TimeoutError`; the multiplexer tolerates the
        eventually-arriving stale line (its id no longer has a waiter).
        """
        writer = self._writer
        if writer is None or writer.is_closing():
            # Not connected — or a peer sharing this client dropped the
            # connection between our dispatch and now. Retryable.
            raise ConnectionError("connection closed")
        request = dict(payload)
        request["id"] = request_id
        pending = self._pending
        queue: asyncio.Queue = asyncio.Queue()
        pending[request_id] = queue
        if timeout is not None:
            self._arm_deadline(request_id, timeout)
        try:
            # One synchronous buffered write — deliberately no lock and
            # no drain(): the response-queue wait below is then the only
            # suspension point, so the deadline watchdog bounds the
            # whole request (an awaited drain on a dying transport can
            # hang outside any timeout's reach). Request lines are tiny;
            # the transport buffer soaks up any transient stall.
            writer.write((canonical_dumps(request) + "\n").encode())
            while True:
                response = await queue.get()
                if response is None:
                    raise ConnectionError("server connection closed")
                if response is self._TIMED_OUT:
                    raise asyncio.TimeoutError(
                        f"no final line within {timeout}s")
                if collect_events is not None:
                    collect_events.append(response)
                event = response.get("event")
                if event == "accepted":
                    continue
                if event == "error":
                    raise _error_from(response)
                return response
        finally:
            self._deadlines.pop(request_id, None)
            pending.pop(request_id, None)

    def _arm_deadline(self, request_id: int, timeout: float) -> None:
        """Register a deadline with the shared watchdog.

        The watchdog is one ``call_at`` armed for the earliest pending
        deadline; it only needs re-arming when a new deadline undercuts
        it, so a steady stream of same-timeout requests costs no timer
        traffic at all.
        """
        loop = asyncio.get_running_loop()
        when = loop.time() + timeout
        self._deadlines[request_id] = when
        if self._watchdog is None or when < self._watchdog_when:
            if self._watchdog is not None:
                self._watchdog.cancel()
            self._watchdog = loop.call_at(when, self._sweep_deadlines)
            self._watchdog_when = when

    def _sweep_deadlines(self) -> None:
        """Watchdog body: time out every overdue request, re-arm."""
        self._watchdog = None
        loop = asyncio.get_running_loop()
        now = loop.time()
        due = [rid for rid, when in self._deadlines.items() if when <= now]
        for rid in due:
            del self._deadlines[rid]
            queue = self._pending.get(rid)
            if queue is not None:
                queue.put_nowait(self._TIMED_OUT)
        if self._deadlines:
            when = min(self._deadlines.values())
            self._watchdog = loop.call_at(when, self._sweep_deadlines)
            self._watchdog_when = when


class ServeClient:
    """Blocking facade over one resilient :class:`AsyncServeClient`.

    Each call runs the async client to completion on a private event
    loop (``run_until_complete``, no thread), so it must not be made
    from inside a running loop. ``timeout`` is the per-*attempt* timeout
    (connect and read); ``None`` means ``REPRO_SERVICE_TIMEOUT`` or
    300 s. The ``policy`` governs how one logical request retries across
    attempts, and the ``breaker`` (shared by callers that want
    fleet-wide memory, private otherwise) short-circuits once the
    service looks dead.
    """

    def __init__(self, address: str, timeout: Optional[float] = None,
                 policy: Optional[ClientPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None) -> None:
        host, port = parse_address(address)
        self._client = AsyncServeClient(
            host, port, timeout=timeout, breaker=breaker,
            policy=policy if policy is not None else ClientPolicy.from_env())
        self.timeout = self._client.timeout
        self.counters = self._client.counters
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request; return its final line (see
        :meth:`AsyncServeClient.request`)."""
        if self._loop is None:
            self._loop = asyncio.new_event_loop()
        return self._loop.run_until_complete(self._client.request(payload))

    def close(self) -> None:
        if self._loop is not None:
            self._loop.run_until_complete(self._client.close())
            # Host names resolve on the loop's default executor.
            self._loop.run_until_complete(
                self._loop.shutdown_default_executor())
            self._loop.close()
            self._loop = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class RemoteStore:
    """Timeline-store client with the cache's never-fail degradation.

    ``get`` returns :data:`repro.runtime.cache.MISS` on anything but a
    clean hit; ``put`` returns False instead of raising. Both tick the
    active telemetry (``remote_store_hits`` / ``_misses`` / ``_puts`` /
    ``_errors`` / ``_short_circuits``) so the summary footer accounts for
    service traffic; a breaker of the store's own also reports each
    state change (``remote_store_breaker_open`` and friends).

    The wrapped client runs with ``retries=0``: falling back to local
    compute *is* the retry, so a struggling service is paid for exactly
    once per key — and once the breaker opens (after
    ``breaker.threshold`` consecutive connect failures) not even that:
    every further call is refused locally at near-zero cost until the
    reset window admits a probe.
    """

    def __init__(self, address: str, timeout: Optional[float] = None,
                 breaker: Optional[CircuitBreaker] = None) -> None:
        self.address = address
        if timeout is None:
            timeout = service_timeout(DEFAULT_STORE_TIMEOUT)
        if breaker is None:
            breaker = CircuitBreaker.from_env(
                on_transition=lambda old, new: self._count(
                    "breaker_" + new.replace("-", "_")))
        self.breaker = breaker
        self._client = ServeClient(address, timeout=timeout,
                                   policy=ClientPolicy(retries=0),
                                   breaker=breaker)

    def close(self) -> None:
        self._client.close()

    @staticmethod
    def _count(name: str) -> None:
        from repro.runtime.context import get_runtime

        get_runtime().telemetry.increment(f"remote_store_{name}")

    def _ask(self, request: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """One request's final line, or None (counted) on any failure."""
        try:
            return self._client.request(request)
        except BreakerOpen:
            self._count("short_circuits")
        except Exception:
            self._count("errors")
        return None

    def get(self, key: str) -> Any:
        response = self._ask({"op": "store.get", "key": key})
        if response is None:
            return MISS
        if not response.get("found"):
            self._count("misses")
            return MISS
        try:
            value = pickle.loads(base64.b64decode(response["value_b64"]))
        except Exception:
            self._count("errors")
            return MISS
        self._count("hits")
        return value

    def put(self, key: str, value: Any) -> bool:
        try:
            encoded = base64.b64encode(
                pickle.dumps(value,
                             protocol=pickle.HIGHEST_PROTOCOL)).decode()
        except Exception:
            self._count("errors")
            return False
        response = self._ask(
            {"op": "store.put", "key": key, "value_b64": encoded})
        if response is None:
            return False
        self._count("puts")
        return bool(response.get("stored"))
