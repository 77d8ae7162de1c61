"""The AVF query server.

One asyncio process answers AVF/MITF/false-DUE queries for arbitrary
``(profile, MachineConfig, tracking, campaign)`` tuples:

* **warm** keys come straight from a bounded in-memory LRU (mirroring the
  pipeline's ``_WARM_SNAPSHOTS`` discipline: a hit refreshes the entry,
  inserting past the cap evicts the least-recently-used answer) — no
  engine work, microsecond turnaround. A repeated request costs one
  parse-memo lookup (its :func:`~repro.serve.protocol.query_text`, which
  leaves out only ``id`` and ``deadline``, to the parsed query), one LRU
  lookup, and one write of the answer's pre-encoded text;
* **cold** keys are *coalesced*: the first request for a key creates one
  in-flight computation on the supervised engine (``run_benchmark`` /
  ``run_campaign`` under the process's runtime context, on the one
  compute thread so the event loop stays responsive) and every
  concurrent request for the same key awaits that single future — N
  clients, one simulation;
* the engine's own layers stack underneath: the in-process memos, the
  content-addressed result cache, and the persistent timeline store all
  apply, so even an LRU-evicted key usually re-resolves without
  simulating.

The server also exposes the result cache as a remote ``store.get`` /
``store.put`` endpoint, which is what lets CI runs and long campaigns on
other machines share one fleet-wide timeline store
(:class:`repro.serve.client.RemoteStore` is the client side). Store
values are pickles (base64 over the wire) — the service is a trusted
lab-internal component, same trust model as the on-disk cache.

**Overload and shutdown semantics.** Admission is bounded: once
``max_inflight`` cold computations are outstanding, *new* cold keys are
shed with a structured ``overloaded`` error carrying a retry-after hint
(warm hits and coalesced joins are free and always served — shedding
protects the engine, not the LRU). Each query is answered within the
server's ``compute_deadline`` (and/or the request's own ``deadline``
field) or fails with retryable ``deadline-exceeded`` — the computation
itself is never cancelled; it finishes and lands in the LRU for the next
asker. SIGTERM triggers a graceful drain: stop accepting connections,
answer everything in flight, refuse new queries with ``draining``, then
close (exit code 143). The ``health`` op reports live/ready/draining
plus the counters a fleet balancer or circuit breaker wants to see.

Every request ticks both the server's own :attr:`AvfServer.stats`
counters (authoritative, queryable via the ``stats`` op) and the runtime
telemetry, so ``repro serve`` prints the standard footer on shutdown.
"""

from __future__ import annotations

import asyncio
import base64
import os
import pickle
import signal
from collections import Counter, OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.runtime.cache import MISS
from repro.runtime.context import get_runtime
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    Query,
    answer_line,
    canonical_dumps,
    encode_answer,
    encode_benchmark,
    encode_campaign,
    parse_line,
    parse_query,
    query_text,
    validate_store_key,
)
from repro.serve.resilience import env_float, env_int

#: Default knobs (each has a ``REPRO_SERVE_*`` environment twin).
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8787
DEFAULT_LRU_ENTRIES = 256
#: Cold computations admitted before new cold keys are shed (0 = never).
DEFAULT_MAX_INFLIGHT = 64
#: Per-query answer deadline, in seconds (0 = none).
DEFAULT_COMPUTE_DEADLINE = 0.0
#: Retry-after hint attached to shed/draining errors, in seconds.
DEFAULT_RETRY_AFTER = 0.25
#: SIGTERM drain exit code (128 + SIGTERM), surfaced by ``repro serve``.
DRAIN_EXIT_CODE = 143
#: Longest request text the parse memo keeps: real queries run to a few
#: hundred characters, and an entry should not pin a huge request line.
MAX_PARSE_MEMO_TEXT = 8192


@dataclass(frozen=True)
class ServeConfig:
    """How one :class:`AvfServer` listens and bounds its memory."""

    host: str = DEFAULT_HOST
    port: int = DEFAULT_PORT
    #: Answered-key LRU capacity, and the parse memo's; 0 disables warm
    #: serving entirely.
    lru_entries: int = DEFAULT_LRU_ENTRIES
    #: Cold computations outstanding before new cold keys are shed with
    #: ``overloaded``; 0 disables shedding. Warm hits and coalesced
    #: joins are never shed.
    max_inflight: int = DEFAULT_MAX_INFLIGHT
    #: Seconds a query may wait for its answer before the *request*
    #: fails with ``deadline-exceeded`` (the computation continues and
    #: lands in the LRU); 0 disables the server-side deadline.
    compute_deadline: float = DEFAULT_COMPUTE_DEADLINE
    #: Retry-after hint, in seconds, on shed/draining errors.
    retry_after: float = DEFAULT_RETRY_AFTER

    def __post_init__(self) -> None:
        if self.lru_entries < 0:
            raise ValueError("lru_entries must be >= 0")
        if self.max_inflight < 0:
            raise ValueError("max_inflight must be >= 0")
        if self.compute_deadline < 0:
            raise ValueError("compute_deadline must be >= 0")
        if self.retry_after < 0:
            raise ValueError("retry_after must be >= 0")

    @classmethod
    def from_env(cls, **overrides: Any) -> "ServeConfig":
        """Defaults from ``REPRO_SERVE_*`` knobs, then explicit overrides."""
        values = {
            "host": os.environ.get("REPRO_SERVE_HOST", DEFAULT_HOST),
            "port": env_int("REPRO_SERVE_PORT", DEFAULT_PORT),
            "lru_entries": env_int("REPRO_SERVE_LRU", DEFAULT_LRU_ENTRIES),
            "max_inflight": env_int("REPRO_SERVE_MAX_INFLIGHT",
                                     DEFAULT_MAX_INFLIGHT),
            "compute_deadline": env_float("REPRO_SERVE_DEADLINE",
                                           DEFAULT_COMPUTE_DEADLINE),
            "retry_after": env_float("REPRO_SERVE_RETRY_AFTER",
                                      DEFAULT_RETRY_AFTER),
        }
        values.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**values)


def resolve_query(query: Query) -> Dict[str, Any]:
    """Answer one query on the engine (the default cold-path resolver).

    Runs in a compute thread. Goes through the exact entry points a
    direct caller would use, so a served answer is the same object graph
    a local ``run_benchmark``/``run_campaign`` call produces — the
    encoders then guarantee byte-identical payloads.
    """
    from repro.experiments.common import ExperimentSettings, run_benchmark
    from repro.faults.campaign import run_campaign
    from repro.workloads.spec2000 import get_profile

    settings = ExperimentSettings(
        target_instructions=query.target_instructions, seed=query.seed)
    run = run_benchmark(get_profile(query.profile_name), settings,
                        machine=query.machine)
    if query.op == "avf":
        return encode_benchmark(run)
    result = run_campaign(run.program, run.execution, run.pipeline,
                          query.campaign)
    return encode_campaign(result)


class AvfServer:
    """Asyncio NDJSON query server over the runtime's stores."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        resolver: Optional[Callable[[Query], Dict[str, Any]]] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.resolver = resolver or resolve_query
        self.stats: Counter = Counter()
        #: Query key -> the answer's encoded ``(key, value)`` texts.
        self._lru: "OrderedDict[str, Tuple[str, str]]" = OrderedDict()
        #: Request text (:func:`query_text`) -> its parsed query.
        self._parsed: "OrderedDict[str, Query]" = OrderedDict()
        self._inflight: Dict[str, asyncio.Future] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._stopped: Optional[asyncio.Event] = None
        self._connections: set = set()
        self._requests: set = set()
        self._draining = False
        self.port: Optional[int] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind and begin accepting connections (port 0 picks a free one)."""
        self._stopped = asyncio.Event()
        # One compute thread: pure-Python simulation gains nothing from a
        # second under the GIL, and the engine's in-process memos stay
        # uncontended. Each computation still fans out over the runtime
        # context's ``jobs`` worker processes.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve")
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=MAX_LINE_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Drain (or cancel) connection handlers so loop teardown never
        # finds them mid-await.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
            self._connections.clear()
        for future in list(self._inflight.values()):
            if not future.done():
                future.cancel()
        self._inflight.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        if self._stopped is not None:
            self._stopped.set()

    async def drain(self) -> None:
        """Graceful shutdown: answer what is in flight, refuse the rest.

        Stops accepting new connections immediately, marks the server
        draining (new queries on existing connections get a retryable
        ``draining`` error), waits for every already-admitted request to
        be *answered* — computations are never abandoned mid-flight —
        then stops. Idempotent; a second call just waits alongside.
        """
        if self._draining:
            await self.wait_stopped()
            return
        self._draining = True
        self.stats["serve_drains"] += 1
        get_runtime().telemetry.increment("serve_drains")
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Admitted requests finish and write their answers; a client may
        # race a new request in while we wait, so re-snapshot until dry.
        drained = 0
        while True:
            pending = [task for task in self._requests if not task.done()]
            if not pending:
                break
            drained += len(pending)
            await asyncio.gather(*pending, return_exceptions=True)
        self.stats["serve_drained_answers"] += drained
        await self.stop()

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` (or a ``shutdown`` request) completes."""
        assert self._stopped is not None, "server was never started"
        await self._stopped.wait()

    @property
    def draining(self) -> bool:
        return self._draining

    # -- connection handling ------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """One client: read request lines, answer each in its own task.

        Per-request tasks let a connection pipeline: a warm query behind
        a cold one answers immediately. A write lock keeps response lines
        atomic. A client that disconnects mid-stream only breaks its own
        writes — in-flight computations it triggered run to completion
        (and land in the LRU for the next asker).
        """
        lock = asyncio.Lock()
        # This connection's unfinished requests only: a long-lived
        # connection must not keep every answered request's task alive.
        tasks: "set[asyncio.Task]" = set()
        me = asyncio.current_task()
        if me is not None:
            self._connections.add(me)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                except ValueError:
                    # Line past MAX_LINE_BYTES: the stream is desynced,
                    # so answer structurally and drop the connection.
                    self.stats["serve_errors"] += 1
                    get_runtime().telemetry.increment("serve_errors")
                    await self._send(writer, lock, {
                        "id": None, "event": "error", "ok": False,
                        "error": {"code": "line-too-long",
                                  "message": "request line exceeds "
                                             f"{MAX_LINE_BYTES} bytes"}})
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.ensure_future(
                    self._handle_line(line, writer, lock))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
                self._requests.add(task)
                task.add_done_callback(self._requests.discard)
        except asyncio.CancelledError:
            pass  # server stopping: fall through to cleanup
        finally:
            self._connections.discard(me)
            if tasks:
                pending = list(tasks)
                for task in pending:
                    task.cancel()
                await asyncio.gather(*pending, return_exceptions=True)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _send(self, writer: asyncio.StreamWriter, lock: asyncio.Lock,
                    payload: Dict[str, Any]) -> bool:
        """Encode and write one response line."""
        return await self._write(writer, lock,
                                 (canonical_dumps(payload) + "\n").encode())

    async def _write(self, writer: asyncio.StreamWriter, lock: asyncio.Lock,
                     data: bytes) -> bool:
        """Write one encoded response line; a dead client is not an error."""
        try:
            async with lock:
                writer.write(data)
                await writer.drain()
        except (ConnectionError, OSError, RuntimeError):
            self.stats["serve_client_disconnects"] += 1
            return False
        return True

    async def _handle_line(self, line: bytes, writer: asyncio.StreamWriter,
                           lock: asyncio.Lock) -> None:
        request_id = None
        telemetry = get_runtime().telemetry
        self.stats["serve_requests"] += 1
        telemetry.increment("serve_requests")
        try:
            request = parse_line(line)
            request_id = request.get("id")
            op = request.get("op")
            if op in ("avf", "campaign"):
                await self._handle_query(request, request_id, writer, lock)
            elif op == "ping":
                await self._send(writer, lock, {
                    "id": request_id, "event": "result", "ok": True,
                    "status": "warm", "value": "pong"})
            elif op == "stats":
                await self._handle_stats(request_id, writer, lock)
            elif op == "health":
                await self._handle_health(request_id, writer, lock)
            elif op == "store.get":
                await self._handle_store_get(request, request_id, writer,
                                             lock)
            elif op == "store.put":
                await self._handle_store_put(request, request_id, writer,
                                             lock)
            elif op == "shutdown":
                await self._send(writer, lock, {
                    "id": request_id, "event": "result", "ok": True,
                    "status": "warm", "value": "stopping"})
                asyncio.ensure_future(self.stop())
            else:
                raise ProtocolError(
                    "unknown-op", f"unknown op {op!r}; this server speaks "
                    "avf, campaign, ping, stats, health, store.get, "
                    "store.put, shutdown")
        except ProtocolError as exc:
            self.stats["serve_errors"] += 1
            telemetry.increment("serve_errors")
            await self._send(writer, lock, {
                "id": request_id, "event": "error", "ok": False,
                "error": exc.payload()})

    # -- the query path: LRU, coalescing, compute ---------------------------

    def _answer_deadline(self, request: Dict[str, Any]) -> Optional[float]:
        """Effective per-query deadline: min of server's and request's."""
        raw = request.get("deadline")
        client = None
        if isinstance(raw, (int, float)) and not isinstance(raw, bool) \
                and raw > 0:
            client = float(raw)
        server = self.config.compute_deadline or None
        if client is None:
            return server
        if server is None:
            return client
        return min(client, server)

    def _parse(self, request: Dict[str, Any]) -> Query:
        """:func:`parse_query`, memoized on the request's text.

        The text leaves out only ``id`` and ``deadline``, which the parse
        never reads, so requests that differ in nothing else share one
        parse. Only successful parses are kept: a malformed request
        raises its :class:`ProtocolError` every time. The memo is an LRU
        bounded, like the answers, by ``lru_entries``.
        """
        text = query_text(request)
        query = self._parsed.get(text)
        if query is not None:
            self._parsed.move_to_end(text)
            self.stats["serve_parse_hits"] += 1
            get_runtime().telemetry.increment("serve_parse_hits")
            return query
        query = parse_query(request)
        capacity = self.config.lru_entries
        if capacity and len(text) <= MAX_PARSE_MEMO_TEXT:
            while len(self._parsed) >= capacity:
                self._parsed.popitem(last=False)
            self._parsed[text] = query
        return query

    async def _handle_query(self, request: Dict[str, Any], request_id,
                            writer: asyncio.StreamWriter,
                            lock: asyncio.Lock) -> None:
        telemetry = get_runtime().telemetry
        query = self._parse(request)
        key = query.key
        cached = self._lru.get(key)
        if cached is not None:
            self._lru.move_to_end(key)
            self.stats["serve_warm_hits"] += 1
            telemetry.increment("serve_warm_hits")
            await self._write(writer, lock,
                              answer_line(request_id, "warm", cached))
            return
        if self._draining:
            # Warm answers above stay free during drain; new work does
            # not start.
            self.stats["serve_drain_refusals"] += 1
            telemetry.increment("serve_drain_refusals")
            raise ProtocolError("draining",
                                "server is draining; retry another replica",
                                retry_after=self.config.retry_after)
        future = self._inflight.get(key)
        if future is not None:
            self.stats["serve_coalesced"] += 1
            telemetry.increment("serve_coalesced")
            await self._send(writer, lock, {
                "id": request_id, "event": "accepted", "ok": True,
                "status": "coalesced", "key": key})
        else:
            if self.config.max_inflight \
                    and len(self._inflight) >= self.config.max_inflight:
                # Admission control: shedding protects the engine. The
                # hint scales with how far past the bound we are.
                self.stats["serve_shed_requests"] += 1
                telemetry.increment("serve_shed_requests")
                raise ProtocolError(
                    "overloaded",
                    f"{len(self._inflight)} computations in flight "
                    f"(bound {self.config.max_inflight}); retry later",
                    retry_after=self.config.retry_after)
            future = asyncio.get_running_loop().create_future()
            self._inflight[key] = future
            self.stats["serve_queue_peak"] = max(
                self.stats["serve_queue_peak"], len(self._inflight))
            asyncio.ensure_future(self._compute(query, future))
            await self._send(writer, lock, {
                "id": request_id, "event": "accepted", "ok": True,
                "status": "cold", "key": key})
        deadline = self._answer_deadline(request)
        try:
            answer = await asyncio.wait_for(asyncio.shield(future), deadline)
        except asyncio.TimeoutError as exc:
            if deadline is None:
                # No deadline was armed: the *compute* raised a timeout.
                raise ProtocolError(
                    "compute-failed", f"{type(exc).__name__}: {exc}")
            # The request fails; the computation keeps running and will
            # land in the LRU, so the retry is warm.
            self.stats["serve_deadline_expirations"] += 1
            telemetry.increment("serve_deadline_expirations")
            raise ProtocolError(
                "deadline-exceeded",
                f"no answer within {deadline}s (computation continues)",
                retry_after=self.config.retry_after)
        except asyncio.CancelledError:
            raise ProtocolError("shutdown", "server stopped mid-computation")
        except Exception as exc:  # surfaced per-request, server survives
            raise ProtocolError(
                "compute-failed", f"{type(exc).__name__}: {exc}")
        await self._write(writer, lock, answer_line(request_id, "cold",
                                                     answer))

    def _resolve_encoded(self, query: Query) -> Tuple[str, str]:
        """The resolver's answer, encoded for the wire (compute thread)."""
        return encode_answer(query.key, self.resolver(query))

    async def _compute(self, query: Query, future: asyncio.Future) -> None:
        """Run the resolver in a compute thread; exactly once per key.

        The future resolves to the answer's encoded texts, so the asker,
        every coalesced waiter and every later warm hit send the same
        bytes without encoding them again.
        """
        telemetry = get_runtime().telemetry
        self.stats["serve_cold_computes"] += 1
        telemetry.increment("serve_cold_computes")
        loop = asyncio.get_running_loop()
        try:
            answer = await loop.run_in_executor(
                self._executor, self._resolve_encoded, query)
        except Exception as exc:
            self.stats["serve_compute_failures"] += 1
            telemetry.increment("serve_compute_failures")
            if not future.done():
                future.set_exception(exc)
        else:
            self._remember(query.key, answer)
            if not future.done():
                future.set_result(answer)
        finally:
            self._inflight.pop(query.key, None)

    def _remember(self, key: str, answer: Tuple[str, str]) -> None:
        """Insert into the LRU, evicting the least-recently-used answer."""
        if self.config.lru_entries == 0:
            return
        telemetry = get_runtime().telemetry
        while len(self._lru) >= self.config.lru_entries:
            self._lru.popitem(last=False)
            self.stats["serve_lru_evictions"] += 1
            telemetry.increment("serve_lru_evictions")
        self._lru[key] = answer

    # -- auxiliary ops ------------------------------------------------------

    async def _handle_stats(self, request_id, writer: asyncio.StreamWriter,
                            lock: asyncio.Lock) -> None:
        snapshot = dict(self.stats)
        snapshot["lru_entries"] = len(self._lru)
        snapshot["inflight"] = len(self._inflight)
        snapshot["draining"] = self._draining
        await self._send(writer, lock, {
            "id": request_id, "event": "result", "ok": True,
            "status": "warm", "value": snapshot})

    async def _handle_health(self, request_id, writer: asyncio.StreamWriter,
                             lock: asyncio.Lock) -> None:
        """Live/ready/draining plus the stats a balancer/breaker wants."""
        inflight = len(self._inflight)
        shed_bound = self.config.max_inflight
        value = {
            "live": True,
            "ready": (not self._draining
                      and not (shed_bound and inflight >= shed_bound)),
            "draining": self._draining,
            "inflight": inflight,
            "max_inflight": shed_bound,
            "lru_entries": len(self._lru),
            "lru_capacity": self.config.lru_entries,
            "compute_deadline": self.config.compute_deadline,
            "counters": {
                name: self.stats[name]
                for name in ("serve_requests", "serve_warm_hits",
                             "serve_cold_computes", "serve_coalesced",
                             "serve_shed_requests",
                             "serve_deadline_expirations",
                             "serve_drain_refusals", "serve_errors",
                             "serve_compute_failures")
                if name in self.stats
            },
        }
        await self._send(writer, lock, {
            "id": request_id, "event": "result", "ok": True,
            "status": "warm", "value": value})

    async def _handle_store_get(self, request: Dict[str, Any], request_id,
                                writer: asyncio.StreamWriter,
                                lock: asyncio.Lock) -> None:
        key = validate_store_key(request.get("key"))
        cache = get_runtime().cache
        if cache is None:
            raise ProtocolError("no-store",
                                "this server has no persistent cache "
                                "attached (start it with --cache-dir)")
        telemetry = get_runtime().telemetry
        value = cache.get(key)
        if value is MISS:
            self.stats["serve_store_misses"] += 1
            telemetry.increment("serve_store_misses")
            await self._send(writer, lock, {
                "id": request_id, "event": "result", "ok": True,
                "status": "warm", "key": key, "found": False})
            return
        self.stats["serve_store_hits"] += 1
        telemetry.increment("serve_store_hits")
        encoded = base64.b64encode(
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)).decode()
        await self._send(writer, lock, {
            "id": request_id, "event": "result", "ok": True,
            "status": "warm", "key": key, "found": True,
            "value_b64": encoded})

    async def _handle_store_put(self, request: Dict[str, Any], request_id,
                                writer: asyncio.StreamWriter,
                                lock: asyncio.Lock) -> None:
        key = validate_store_key(request.get("key"))
        raw = request.get("value_b64")
        if not isinstance(raw, str):
            raise ProtocolError("bad-request",
                                "store.put requires a value_b64 string")
        cache = get_runtime().cache
        if cache is None:
            raise ProtocolError("no-store",
                                "this server has no persistent cache "
                                "attached (start it with --cache-dir)")
        try:
            value = pickle.loads(base64.b64decode(raw, validate=True))
        except Exception as exc:
            raise ProtocolError("bad-request",
                                f"undecodable store value: {exc}")
        stored = cache.put(key, value)
        telemetry = get_runtime().telemetry
        self.stats["serve_store_puts"] += 1
        telemetry.increment("serve_store_puts")
        await self._send(writer, lock, {
            "id": request_id, "event": "result", "ok": True,
            "status": "warm", "key": key, "stored": stored})


async def _serve_until_stopped(config: ServeConfig,
                               announce: Callable[[str], None]) -> int:
    server = AvfServer(config)
    await server.start()
    loop = asyncio.get_running_loop()
    terminated = False

    def _on_sigterm() -> None:
        nonlocal terminated
        terminated = True
        announce("[repro serve] SIGTERM: draining (answering in-flight "
                 "requests, refusing new work)")
        asyncio.ensure_future(server.drain())

    # Install the handler *before* announcing readiness: supervisors may
    # SIGTERM the instant they see the listening line.
    try:
        loop.add_signal_handler(signal.SIGTERM, _on_sigterm)
    except (NotImplementedError, RuntimeError):
        pass  # platform without loop signal handlers: Ctrl-C still works
    announce(f"[repro serve] listening on {config.host}:{server.port} "
             f"(lru={config.lru_entries}, "
             f"max_inflight={config.max_inflight})")
    try:
        await server.wait_stopped()
    finally:
        try:
            loop.remove_signal_handler(signal.SIGTERM)
        except (NotImplementedError, RuntimeError, ValueError):
            pass
        await server.stop()
    return DRAIN_EXIT_CODE if terminated else 0


def serve_forever(config: ServeConfig,
                  announce: Callable[[str], None] = print) -> int:
    """Blocking entry point for ``repro serve``.

    Returns the process exit code: 0 after a clean stop (Ctrl-C or a
    wire ``shutdown``), :data:`DRAIN_EXIT_CODE` (143 = 128+SIGTERM)
    after a SIGTERM-triggered graceful drain — distinct so supervisors
    can tell a commanded drain from a normal exit.
    """
    try:
        return asyncio.run(_serve_until_stopped(config, announce))
    except KeyboardInterrupt:
        return 0
