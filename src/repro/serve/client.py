"""Clients for the AVF query service.

* :class:`ServeClient` — a blocking client (plain socket, one request at
  a time) for scripts, tests, and the remote store. One logical
  ``request()`` fights through transient failure: deterministic
  exponential backoff across reconnects, a wall-clock deadline budget
  capping the total spent, and a circuit breaker that refuses locally
  once the service looks dead;
* :class:`AsyncServeClient` — an asyncio client that multiplexes many
  concurrent requests over one connection by request id (the load
  harness drives thousands of in-flight queries through a handful of
  connections this way);
* :class:`ResilientAsyncClient` — the same retry/breaker/deadline
  discipline wrapped around :class:`AsyncServeClient`, reconnecting a
  shared connection under its concurrent waiters;
* :class:`RemoteStore` — the failure-tolerant ``store.get``/``store.put``
  wrapper the experiment plumbing uses as a fleet-wide timeline store.
  Its failure policy mirrors the on-disk cache's: the service must never
  take a run down, so connection failures and server-side errors count
  and degrade to misses / dropped puts — and once its breaker opens, a
  dead service costs near-zero (no connect tax) until a probe succeeds.

**What can never be wrong.** Every response line is re-validated here: a
line that fails to decode, or a server error carrying no request id
(meaning *our* request line was damaged in flight), is treated as wire
desync — the connection is torn down and the idempotent request is
re-issued. A damaged payload can therefore surface only as a structured
error or a retry, never as a silently different answer.
"""

from __future__ import annotations

import asyncio
import base64
import itertools
import json
import pickle
import socket
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

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


class WireDesync(ConnectionError):
    """The response stream stopped making sense: treat as transport loss.

    Raised when a response line is undecodable or the server reports an
    error for a request it could not attribute (``id: null`` — our
    request line was damaged in flight). Both mean the framing can no
    longer be trusted, so the connection is closed and the request
    retried; the damage can never be mistaken for an answer.
    """


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


class ServeClient:
    """Blocking single-request client over one persistent connection.

    ``timeout`` is the per-*attempt* socket timeout (connect and read);
    ``None`` means ``REPRO_SERVICE_TIMEOUT`` or 300 s. The ``policy``
    governs how one logical request retries across attempts, and the
    ``breaker`` (shared by callers that want fleet-wide memory, private
    otherwise) short-circuits once the service looks dead.
    """

    def __init__(self, address: str, timeout: Optional[float] = None,
                 policy: Optional[ClientPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.host, self.port = parse_address(address)
        self.timeout = (service_timeout(DEFAULT_CLIENT_TIMEOUT)
                        if timeout is None else timeout)
        self.policy = policy if policy is not None else ClientPolicy.from_env()
        self.breaker = (breaker if breaker is not None
                        else CircuitBreaker.from_env())
        self.counters: Counter = Counter()
        self._sleep = sleep
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._ids = itertools.count(1)

    def _connect(self, timeout: Optional[float] = None) -> None:
        sock = socket.create_connection(
            (self.host, self.port),
            timeout=self.timeout if timeout is None else timeout)
        self._sock = sock
        self._file = sock.makefile("rwb")

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request; return its final ``result`` line.

        ``accepted`` progress lines are consumed silently; an ``error``
        line raises :class:`ServeError`. Transport failures (connect
        refused, reset, timeout, wire desync) and retryable structured
        errors are retried per the policy — with deterministic backoff,
        honouring the server's retry-after hint — until the retry or
        deadline budget runs out. Raises :class:`BreakerOpen` without
        touching the network when the circuit is open.
        """
        request = dict(payload)
        request_id = next(self._ids)
        request["id"] = request_id
        line = (canonical_dumps(request) + "\n").encode()
        budget = DeadlineBudget(self.policy.deadline)
        label = f"{self.host}:{self.port}"
        last_error: Optional[Exception] = None
        retry_hint = 0.0
        for attempt in range(self.policy.retries + 1):
            if attempt:
                delay = max(self.policy.backoff_delay(label, request_id,
                                                      attempt), retry_hint)
                remaining = budget.remaining()
                if remaining is not None and delay >= remaining:
                    break  # sleeping would blow the deadline: give up now
                self.counters["client_retries"] += 1
                if delay > 0.0:
                    self._sleep(delay)
            retry_hint = 0.0
            if not self.breaker.allow():
                self.counters["client_short_circuits"] += 1
                raise BreakerOpen(
                    f"service {label} circuit is open "
                    f"(retry in {self.breaker.retry_in():.1f}s)",
                    retry_in=self.breaker.retry_in())
            try:
                if self._file is None:
                    self._connect(budget.clip(self.timeout))
                self._sock.settimeout(budget.clip(self.timeout))
                self._file.write(line)
                self._file.flush()
                response = self._read_final(request_id)
            except (ConnectionError, OSError, EOFError) as exc:
                self.close()
                self.breaker.record_failure()
                self.counters["client_transport_errors"] += 1
                last_error = exc
                continue
            except ServeError as exc:
                # The server answered: it is alive, whatever it said.
                self.breaker.record_success()
                if exc.retryable and attempt < self.policy.retries:
                    self.counters["client_retryable_errors"] += 1
                    retry_hint = exc.retry_after
                    last_error = exc
                    continue
                raise
            self.breaker.record_success()
            return response
        self.counters["client_giveups"] += 1
        if last_error is not None:
            raise last_error
        raise TimeoutError(
            f"service {label}: deadline of {self.policy.deadline}s "
            f"exhausted before any attempt completed")

    def _read_final(self, request_id: int) -> Dict[str, Any]:
        while True:
            raw = self._file.readline()
            if not raw:
                raise EOFError("server closed the connection")
            try:
                response = json.loads(raw)
            except (UnicodeDecodeError, json.JSONDecodeError):
                self.counters["client_desyncs"] += 1
                raise WireDesync("undecodable response line")
            event = response.get("event")
            if response.get("id") != request_id:
                if event == "error" and response.get("id") is None:
                    # The server could not even attribute the request:
                    # our line was damaged in flight.
                    self.counters["client_desyncs"] += 1
                    raise WireDesync(
                        "server rejected an unattributable request line")
                continue  # a stale line from an abandoned request
            if event == "accepted":
                continue
            if event == "error":
                raise _error_from(response)
            return response


class AsyncServeClient:
    """Multiplexing asyncio client: many in-flight requests, one socket.

    Framing is trusted only while it parses: an undecodable response
    line or an unattributable server error kills the connection and
    fails every waiter (with ``ConnectionError``), so damage surfaces as
    a retryable failure, never as a wrong answer.
    """

    def __init__(self) -> None:
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._pending: Dict[int, asyncio.Queue] = {}
        self._ids = itertools.count(1)
        self._pump: Optional[asyncio.Task] = None
        # Request deadlines are enforced by one shared watchdog timer
        # (re-armed at the earliest pending deadline), not a timer per
        # request — per request the cost is a dict write.
        self._deadlines: Dict[int, float] = {}
        self._watchdog: Optional[asyncio.TimerHandle] = None
        self._watchdog_when = 0.0

    async def connect(self, host: str, port: int) -> "AsyncServeClient":
        self._reader, self._writer = await asyncio.open_connection(
            host, port, limit=MAX_LINE_BYTES)
        self._pump = asyncio.ensure_future(self._pump_responses())
        return self

    async def close(self) -> None:
        if self._watchdog is not None:
            self._watchdog.cancel()
            self._watchdog = None
        self._deadlines.clear()
        if self._pump is not None:
            self._pump.cancel()
            try:
                await self._pump
            except (asyncio.CancelledError, Exception):
                pass
            self._pump = None
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
        # Fail any waiter that slipped in after the pump already exited
        # (a desynced pump ends without closing the writer, so a late
        # request can still register): its deadline was cleared above,
        # and a finished pump's cancel re-runs nothing.
        for queue in self._pending.values():
            queue.put_nowait(None)

    async def _pump_responses(self) -> None:
        assert self._reader is not None
        try:
            while True:
                raw = await self._reader.readline()
                if not raw:
                    break
                try:
                    response = json.loads(raw)
                except (UnicodeDecodeError, json.JSONDecodeError):
                    break  # wire desync: the framing is no longer trusted
                if response.get("event") == "error" \
                        and response.get("id") is None:
                    break  # a request line was damaged in flight
                queue = self._pending.get(response.get("id"))
                if queue is not None:
                    queue.put_nowait(response)
        except (ConnectionError, OSError, EOFError, ValueError):
            pass  # reset / over-long garbage line: same as a close
        finally:
            # Connection gone: fail every waiter. Must run on
            # cancellation too — ``close()`` cancels this task *and*
            # disarms the deadline watchdog, so a waiter skipped here
            # would block forever with no timeout left to save it.
            for queue in self._pending.values():
                queue.put_nowait(None)

    #: Queue sentinel posted by the per-request timer (see ``request``).
    _TIMED_OUT = object()

    async def request(self, payload: Dict[str, Any],
                      collect_events: Optional[List[Dict[str, Any]]] = None,
                      timeout: Optional[float] = None) -> Dict[str, Any]:
        """Send one request; return the final line (raises on error).

        ``timeout`` bounds the wait for the final line. It is enforced
        by the client's shared watchdog timer feeding the response
        queue — not ``asyncio.wait_for``, whose Task-per-request wrapper
        is most of a warm round-trip on localhost. On expiry the request
        raises :class:`asyncio.TimeoutError`; the multiplexer tolerates
        the eventually-arriving stale line (its id no longer has a
        waiter).
        """
        writer = self._writer
        if writer is None or writer.is_closing():
            # Not connected — or a peer sharing this client dropped the
            # connection between our dispatch and now. Retryable.
            raise ConnectionError("connection closed")
        request = dict(payload)
        request_id = next(self._ids)
        request["id"] = request_id
        queue: asyncio.Queue = asyncio.Queue()
        self._pending[request_id] = queue
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
            self._pending.pop(request_id, None)

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


class ResilientAsyncClient:
    """Retry/breaker/deadline discipline over a shared async connection.

    Many coroutines may call :meth:`request` concurrently; they share
    one :class:`AsyncServeClient` connection. When any of them hits a
    transport failure the connection is dropped (failing the others,
    who then retry through the same path) and re-dialled lazily.
    """

    def __init__(self, host: str, port: int,
                 timeout: Optional[float] = None,
                 policy: Optional[ClientPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None) -> None:
        self.host = host
        self.port = port
        self.timeout = (service_timeout(DEFAULT_CLIENT_TIMEOUT)
                        if timeout is None else timeout)
        self.policy = policy if policy is not None else ClientPolicy.from_env()
        self.breaker = (breaker if breaker is not None
                        else CircuitBreaker.from_env())
        self.counters: Counter = Counter()
        self._client: Optional[AsyncServeClient] = None
        self._connect_lock = asyncio.Lock()
        self._label = f"{host}:{port}"

    async def close(self) -> None:
        await self._drop()

    async def _drop(self) -> None:
        client, self._client = self._client, None
        if client is not None:
            await client.close()

    def _timeout(self, budget: Optional[DeadlineBudget]) -> Optional[float]:
        """This attempt's timeout: the per-attempt one, clipped by budget."""
        return self.timeout if budget is None else budget.clip(self.timeout)

    async def _ensure(self, budget: Optional[DeadlineBudget]
                      ) -> AsyncServeClient:
        # Callers skip this when already connected (the overwhelmingly
        # common case); the lock only matters when peers race to dial.
        async with self._connect_lock:
            if self._client is None:
                client = AsyncServeClient()
                await asyncio.wait_for(
                    client.connect(self.host, self.port),
                    self._timeout(budget))
                self._client = client
            return self._client

    async def request(self, payload: Dict[str, Any],
                      collect_events: Optional[List[Dict[str, Any]]] = None
                      ) -> Dict[str, Any]:
        # Without a policy deadline there is no budget to keep: the
        # happy path is one breaker check and one request.
        budget = (None if self.policy.deadline is None
                  else DeadlineBudget(self.policy.deadline))
        label = self._label
        last_error: Optional[Exception] = None
        retry_hint = 0.0
        for attempt in range(self.policy.retries + 1):
            if attempt:
                seed = payload.get("seed", 0)
                delay = max(self.policy.backoff_delay(
                    label, seed if isinstance(seed, int) else 0, attempt),
                    retry_hint)
                remaining = None if budget is None else budget.remaining()
                if remaining is not None and delay >= remaining:
                    break
                self.counters["client_retries"] += 1
                if delay > 0.0:
                    await asyncio.sleep(delay)
            retry_hint = 0.0
            if not self.breaker.allow():
                self.counters["client_short_circuits"] += 1
                raise BreakerOpen(
                    f"service {label} circuit is open "
                    f"(retry in {self.breaker.retry_in():.1f}s)",
                    retry_in=self.breaker.retry_in())
            client = None
            try:
                client = self._client or await self._ensure(budget)
                response = await client.request(
                    payload, collect_events, timeout=self._timeout(budget))
            except ServeError as exc:
                self.breaker.record_success()
                if exc.retryable and attempt < self.policy.retries:
                    self.counters["client_retryable_errors"] += 1
                    retry_hint = exc.retry_after
                    last_error = exc
                    continue
                raise
            except (ConnectionError, OSError, EOFError,
                    asyncio.TimeoutError, TimeoutError) as exc:
                # Only tear the shared connection down if it is still
                # the one we failed on (a peer may have re-dialled).
                if client is not None and client is self._client:
                    await self._drop()
                self.breaker.record_failure()
                self.counters["client_transport_errors"] += 1
                last_error = exc
                continue
            self.breaker.record_success()
            return response
        self.counters["client_giveups"] += 1
        if last_error is not None:
            raise last_error
        raise TimeoutError(
            f"service {label}: deadline of {self.policy.deadline}s "
            f"exhausted before any attempt completed")


class RemoteStore:
    """Timeline-store client with the cache's never-fail degradation.

    ``get`` returns :data:`repro.runtime.cache.MISS` on anything but a
    clean hit; ``put`` returns False instead of raising. Both tick the
    active telemetry (``remote_store_hits`` / ``_misses`` / ``_puts`` /
    ``_errors``, plus breaker/short-circuit counters) so the summary
    footer accounts for service traffic.

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
        self.breaker = (breaker if breaker is not None
                        else CircuitBreaker.from_env())
        self._client = ServeClient(
            address, timeout=timeout,
            policy=ClientPolicy(retries=0),
            breaker=self.breaker)
        self._synced: Counter = Counter()

    def close(self) -> None:
        self._client.close()

    @staticmethod
    def _telemetry():
        from repro.runtime.context import get_runtime

        return get_runtime().telemetry

    def _sync_counters(self) -> None:
        """Fold new client/breaker counter ticks into the telemetry."""
        telemetry = self._telemetry()
        merged = Counter(self._client.counters)
        merged.update(self.breaker.counters)
        for name, total in merged.items():
            delta = total - self._synced[name]
            if delta > 0:
                self._synced[name] = total
                telemetry.increment(f"remote_store_{name}", delta)

    def get(self, key: str) -> Any:
        try:
            response = self._client.request({"op": "store.get", "key": key})
        except BreakerOpen:
            self._telemetry().increment("remote_store_short_circuits")
            self._sync_counters()
            return MISS
        except Exception:
            self._telemetry().increment("remote_store_errors")
            self._sync_counters()
            return MISS
        self._sync_counters()
        if not response.get("found"):
            self._telemetry().increment("remote_store_misses")
            return MISS
        try:
            value = pickle.loads(base64.b64decode(response["value_b64"]))
        except Exception:
            self._telemetry().increment("remote_store_errors")
            return MISS
        self._telemetry().increment("remote_store_hits")
        return value

    def put(self, key: str, value: Any) -> bool:
        try:
            encoded = base64.b64encode(
                pickle.dumps(value,
                             protocol=pickle.HIGHEST_PROTOCOL)).decode()
            response = self._client.request(
                {"op": "store.put", "key": key, "value_b64": encoded})
        except BreakerOpen:
            self._telemetry().increment("remote_store_short_circuits")
            self._sync_counters()
            return False
        except Exception:
            self._telemetry().increment("remote_store_errors")
            self._sync_counters()
            return False
        self._sync_counters()
        self._telemetry().increment("remote_store_puts")
        return bool(response.get("stored"))
