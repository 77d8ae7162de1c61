"""Failure semantics of the serve path: clients, breaker, server.

Three layers under test:

* the resilience primitives (:class:`CircuitBreaker` state machine under
  a fake clock, deadline budgets, deterministic backoff, env parsing);
* :class:`ServeClient` against a scripted TCP stub — server restart
  between requests, disconnect mid-request, stale-id skipping, wire
  desync, retryable structured errors with retry-after, breaker
  short-circuiting;
* :class:`AvfServer` overload/shutdown behaviour — load shedding,
  per-request deadlines, the ``health`` op, graceful drain — plus the
  end-to-end degrade-to-local guarantee: with the service dead, a
  50-key experiment completes bit-identically to a no-service run while
  paying at most ``breaker.threshold`` connection attempts in total.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.experiments.common import (
    ExperimentSettings,
    clear_caches,
    close_remote_stores,
    run_benchmark,
)
from repro.runtime.context import use_runtime
from repro.serve.client import (
    RemoteStore,
    ServeClient,
    ServeError,
)
from repro.serve.protocol import ProtocolError, canonical_dumps, \
    encode_benchmark
from repro.serve.resilience import (
    DEFAULT_BREAKER_THRESHOLD,
    BreakerOpen,
    CircuitBreaker,
    ClientPolicy,
    DeadlineBudget,
    service_retries,
    service_timeout,
)
from repro.serve.server import AvfServer, ServeConfig
from repro.workloads.spec2000 import get_profile

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _fresh_memos():
    clear_caches()
    close_remote_stores()
    yield
    clear_caches()
    close_remote_stores()


#: A policy that fails fast and sleeps for microseconds in tests.
FAST = ClientPolicy(retries=2, backoff_base=0.001, backoff_cap=0.002,
                    jitter=0.0)


def quiet_breaker() -> CircuitBreaker:
    """A breaker that effectively never opens (isolates retry tests)."""
    return CircuitBreaker(threshold=1000)


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- resilience primitives ----------------------------------------------------


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, reset_timeout=30.0,
                                 clock=clock)
        assert breaker.state == "closed"
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.counters["breaker_short_circuits"] == 1
        assert breaker.retry_in() == pytest.approx(30.0)

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, reset_timeout=10.0,
                                 clock=clock)
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(9.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.allow()  # the single probe
        assert breaker.state == "half-open"
        assert not breaker.allow()  # probe already in flight
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, reset_timeout=10.0,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(11.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        # The reset window restarts from the failed probe.
        assert breaker.retry_in() == pytest.approx(10.0)
        assert breaker.counters["breaker_open"] == 2

    def test_transitions_are_reported(self):
        clock = FakeClock()
        seen = []
        breaker = CircuitBreaker(threshold=1, reset_timeout=5.0, clock=clock,
                                 on_transition=lambda a, b: seen.append((a,
                                                                         b)))
        breaker.record_failure()
        clock.advance(6.0)
        breaker.allow()
        breaker.record_success()
        assert seen == [("closed", "open"), ("open", "half-open"),
                        ("half-open", "closed")]

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout=0.0)

    def test_snapshot_shape(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap["state"] == "closed"
        assert snap["consecutive_failures"] == 1
        assert snap["threshold"] == 2
        assert snap["breaker_failures"] == 1


class TestPolicyAndBudget:
    def test_backoff_matches_runtime_retry_policy(self):
        from repro.runtime.resilience import RetryPolicy

        policy = ClientPolicy(retries=3, backoff_base=0.1, backoff_cap=1.0,
                              jitter=0.5)
        twin = RetryPolicy(retries=3, backoff_base=0.1, backoff_cap=1.0,
                           jitter=0.5)
        for attempt in (1, 2, 3):
            assert policy.backoff_delay("svc", 7, attempt) \
                == twin.backoff_delay("svc", 7, attempt)

    def test_backoff_is_deterministic_and_decorrelated(self):
        policy = ClientPolicy(jitter=0.5)
        a = policy.backoff_delay("host:1", 1, 1)
        assert a == policy.backoff_delay("host:1", 1, 1)
        assert a != policy.backoff_delay("host:1", 2, 1)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ClientPolicy(retries=-1)
        with pytest.raises(ValueError):
            ClientPolicy(deadline=0.0)

    def test_deadline_budget_counts_down_and_clips(self):
        clock = FakeClock()
        budget = DeadlineBudget(10.0, clock=clock)
        assert budget.remaining() == pytest.approx(10.0)
        assert budget.clip(60.0) == pytest.approx(10.0)
        assert budget.clip(2.0) == pytest.approx(2.0)
        clock.advance(9.0)
        assert budget.clip(60.0) == pytest.approx(1.0)
        assert not budget.expired()
        clock.advance(2.0)
        assert budget.expired()
        assert budget.remaining() == 0.0

    def test_unbounded_budget(self):
        budget = DeadlineBudget(None)
        assert budget.remaining() is None
        assert not budget.expired()
        assert budget.clip(5.0) == 5.0
        assert budget.clip(None) is None


class TestEnvKnobs:
    def test_service_timeout_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_TIMEOUT", "12.5")
        assert service_timeout(300.0) == 12.5

    def test_service_timeout_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_TIMEOUT", "soon")
        with pytest.raises(ValueError, match="REPRO_SERVICE_TIMEOUT"):
            service_timeout(300.0)
        monkeypatch.setenv("REPRO_SERVICE_TIMEOUT", "-3")
        with pytest.raises(ValueError, match="positive"):
            service_timeout(300.0)

    def test_service_retries_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_RETRIES", "5")
        assert service_retries() == 5
        assert ClientPolicy.from_env().retries == 5
        monkeypatch.setenv("REPRO_SERVICE_RETRIES", "-1")
        with pytest.raises(ValueError, match="non-negative"):
            service_retries()

    def test_breaker_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_BREAKER_THRESHOLD", "7")
        monkeypatch.setenv("REPRO_SERVICE_BREAKER_RESET", "2.5")
        breaker = CircuitBreaker.from_env()
        assert breaker.threshold == 7
        assert breaker.reset_timeout == 2.5
        monkeypatch.setenv("REPRO_SERVICE_BREAKER_THRESHOLD", "many")
        with pytest.raises(ValueError, match="BREAKER_THRESHOLD"):
            CircuitBreaker.from_env()

    def test_client_timeout_configurable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_TIMEOUT", "42")
        with ServeClient("h:1") as client:
            assert client.timeout == 42.0
        with ServeClient("h:1", timeout=7.0) as client:
            assert client.timeout == 7.0  # explicit wins

    def test_serve_config_overload_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_MAX_INFLIGHT", "3")
        monkeypatch.setenv("REPRO_SERVE_DEADLINE", "1.5")
        config = ServeConfig.from_env()
        assert config.max_inflight == 3
        assert config.compute_deadline == 1.5
        monkeypatch.setenv("REPRO_SERVE_DEADLINE", "whenever")
        with pytest.raises(ValueError, match="REPRO_SERVE_DEADLINE"):
            ServeConfig.from_env()
        with pytest.raises(ValueError):
            ServeConfig(max_inflight=-1)
        with pytest.raises(ValueError):
            ServeConfig(compute_deadline=-0.5)

    def test_protocol_error_carries_retry_after(self):
        plain = ProtocolError("bad-request", "nope")
        assert "retry_after" not in plain.payload()
        hinted = ProtocolError("overloaded", "busy", retry_after=0.5)
        assert hinted.payload()["retry_after"] == 0.5


# -- ServeClient against a scripted TCP stub ---------------------------------


class ScriptedServer:
    """A TCP stub: each accepted connection runs the next script, then
    closes (which doubles as a server restart between connections)."""

    def __init__(self, *scripts) -> None:
        self.scripts = list(scripts)
        self.connections = 0
        self._sock = socket.socket()
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self.address = f"127.0.0.1:{self.port}"
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while self.scripts:
            script = self.scripts.pop(0)
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            self.connections += 1
            with conn:
                stream = conn.makefile("rwb")
                try:
                    script(stream)
                    stream.flush()
                except (OSError, ValueError):
                    pass

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass
        self._thread.join(timeout=5)


def _reply(stream, request, **fields) -> None:
    payload = {"id": request.get("id"), "event": "result", "ok": True,
               "status": "warm", **fields}
    stream.write((json.dumps(payload) + "\n").encode())
    stream.flush()


def answer_pong(stream) -> None:
    request = json.loads(stream.readline())
    _reply(stream, request, value="pong")


class TestServeClientReconnect:
    def test_server_restart_between_requests(self):
        """Connection 1 dies after request 1; request 2 transparently
        reconnects and succeeds."""
        stub = ScriptedServer(answer_pong, answer_pong)
        try:
            client = ServeClient(stub.address, timeout=5.0, policy=FAST,
                                 breaker=quiet_breaker())
            with client:
                assert client.request({"op": "ping"})["value"] == "pong"
                assert client.request({"op": "ping"})["value"] == "pong"
        finally:
            stub.close()
        assert stub.connections == 2
        assert client.counters["client_transport_errors"] == 1
        assert client.counters["client_retries"] == 1

    def test_disconnect_mid_request_retries(self):
        """The server reads the request and hangs up without answering;
        the retry lands on a fresh connection."""

        def hang_up(stream):
            stream.readline()  # consume the request, answer nothing

        stub = ScriptedServer(hang_up, answer_pong)
        try:
            with ServeClient(stub.address, timeout=5.0, policy=FAST,
                             breaker=quiet_breaker()) as client:
                assert client.request({"op": "ping"})["value"] == "pong"
        finally:
            stub.close()
        assert stub.connections == 2

    def test_stale_id_lines_are_skipped(self):
        """Leftover lines from an abandoned request must not be taken as
        the answer to the current one."""

        def stale_then_real(stream):
            request = json.loads(stream.readline())
            stream.write((json.dumps(
                {"id": 999, "event": "result", "ok": True,
                 "status": "warm", "value": "stale"}) + "\n").encode())
            _reply(stream, request, value="fresh")

        stub = ScriptedServer(stale_then_real)
        try:
            with ServeClient(stub.address, timeout=5.0, policy=FAST,
                             breaker=quiet_breaker()) as client:
                assert client.request({"op": "ping"})["value"] == "fresh"
        finally:
            stub.close()

    def test_undecodable_response_is_desync_not_answer(self):
        def garbage(stream):
            stream.readline()
            stream.write(b"\xff\xff{definitely-not-json\n")
            stream.flush()

        stub = ScriptedServer(garbage, answer_pong)
        try:
            with ServeClient(stub.address, timeout=5.0, policy=FAST,
                             breaker=quiet_breaker()) as client:
                assert client.request({"op": "ping"})["value"] == "pong"
                assert client.counters["client_desyncs"] == 1
        finally:
            stub.close()

    def test_unattributable_error_is_desync(self):
        """An ``id: null`` error means our request line was damaged in
        flight — re-issue it, do not wait forever."""

        def null_error(stream):
            stream.readline()
            stream.write((json.dumps(
                {"id": None, "event": "error", "ok": False,
                 "error": {"code": "bad-json", "message": "?"}})
                + "\n").encode())
            stream.flush()

        stub = ScriptedServer(null_error, answer_pong)
        try:
            with ServeClient(stub.address, timeout=5.0, policy=FAST,
                             breaker=quiet_breaker()) as client:
                assert client.request({"op": "ping"})["value"] == "pong"
        finally:
            stub.close()

    def test_retryable_error_retries_on_same_connection(self):
        def shed_then_answer(stream):
            request = json.loads(stream.readline())
            stream.write((json.dumps(
                {"id": request["id"], "event": "error", "ok": False,
                 "error": {"code": "overloaded", "message": "busy",
                           "retry_after": 0.001}}) + "\n").encode())
            stream.flush()
            request = json.loads(stream.readline())  # the retry
            _reply(stream, request, value="pong")

        stub = ScriptedServer(shed_then_answer)
        try:
            with ServeClient(stub.address, timeout=5.0, policy=FAST,
                             breaker=quiet_breaker()) as client:
                assert client.request({"op": "ping"})["value"] == "pong"
                assert client.counters["client_retryable_errors"] == 1
        finally:
            stub.close()
        assert stub.connections == 1

    def test_non_retryable_error_raises_immediately(self):
        def reject(stream):
            request = json.loads(stream.readline())
            stream.write((json.dumps(
                {"id": request["id"], "event": "error", "ok": False,
                 "error": {"code": "bad-request", "message": "no"}})
                + "\n").encode())
            stream.flush()

        stub = ScriptedServer(reject)
        try:
            with ServeClient(stub.address, timeout=5.0, policy=FAST,
                             breaker=quiet_breaker()) as client:
                with pytest.raises(ServeError) as exc_info:
                    client.request({"op": "ping"})
        finally:
            stub.close()
        assert exc_info.value.code == "bad-request"
        assert client.counters["client_retries"] == 0

    def test_retries_exhausted_raises_last_transport_error(self):
        def hang_up(stream):
            stream.readline()

        stub = ScriptedServer(hang_up, hang_up, hang_up)
        try:
            with ServeClient(stub.address, timeout=5.0, policy=FAST,
                             breaker=quiet_breaker()) as client:
                with pytest.raises((ConnectionError, EOFError)):
                    client.request({"op": "ping"})
        finally:
            stub.close()
        assert client.counters["client_giveups"] == 1

    def test_deadline_budget_caps_total_retry_time(self):
        """Against a dead port, a 150 ms deadline gives up long before
        the retry budget would."""
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        policy = ClientPolicy(retries=50, backoff_base=0.05,
                              backoff_cap=0.1, jitter=0.0, deadline=0.15)
        with ServeClient(f"127.0.0.1:{dead_port}", timeout=0.2,
                         policy=policy, breaker=quiet_breaker()) as client:
            started = time.monotonic()
            with pytest.raises(ConnectionError):
                client.request({"op": "ping"})
            elapsed = time.monotonic() - started
        assert elapsed < 2.0
        assert client.counters["client_retries"] < 50

    def test_breaker_short_circuits_dead_service(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=2, reset_timeout=30.0,
                                 clock=clock)
        with ServeClient(f"127.0.0.1:{dead_port}", timeout=0.2,
                         policy=ClientPolicy(retries=0),
                         breaker=breaker) as client:
            for _ in range(2):
                with pytest.raises(ConnectionError):
                    client.request({"op": "ping"})
            assert breaker.state == "open"
            with pytest.raises(BreakerOpen) as exc_info:
                client.request({"op": "ping"})
            assert exc_info.value.retry_in == pytest.approx(30.0)
            # No new connects while open.
            assert breaker.counters["breaker_failures"] == 2
            clock.advance(31.0)
            with pytest.raises(ConnectionError):  # the half-open probe
                client.request({"op": "ping"})
        assert breaker.state == "open"
        assert breaker.counters["breaker_probes"] == 1


# -- server overload & shutdown ----------------------------------------------


def serve_scenario(scenario, resolver=None, config=None):
    async def main():
        server = AvfServer(
            config or ServeConfig(host="127.0.0.1", port=0),
            resolver=resolver)
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.stop()

    return asyncio.run(main())


async def ask(server, request, collect_events=None):
    from repro.serve.client import AsyncServeClient

    client = await AsyncServeClient().connect("127.0.0.1", server.port)
    try:
        return await client.request(dict(request), collect_events)
    finally:
        await client.close()


def request_for(seed: int) -> dict:
    return {"op": "avf", "profile": "crafty",
            "target_instructions": 700, "seed": seed}


class GatedResolver:
    """Blocks inside the compute thread until released; counts calls."""

    def __init__(self) -> None:
        self.started = threading.Event()
        self.release = threading.Event()
        self.calls = []

    def __call__(self, query):
        self.calls.append(query.key)
        self.started.set()
        assert self.release.wait(10), "test deadlock: never released"
        return {"echo": query.seed}


class TestLoadShedding:
    def test_new_cold_keys_are_shed_past_the_bound(self):
        resolver = GatedResolver()
        config = ServeConfig(host="127.0.0.1", port=0, max_inflight=1,
                             retry_after=0.125)

        async def scenario(server):
            loop = asyncio.get_running_loop()
            first = asyncio.ensure_future(ask(server, request_for(1)))
            await loop.run_in_executor(None, resolver.started.wait, 10)
            # Bound hit: a *different* cold key is refused...
            with pytest.raises(ServeError) as shed:
                await ask(server, request_for(2))
            # ...but a coalesced join of the in-flight key is admitted,
            # and so is a health check.
            join = asyncio.ensure_future(ask(server, request_for(1)))
            await asyncio.sleep(0.05)
            health = await ask(server, {"op": "health"})
            resolver.release.set()
            results = await asyncio.gather(first, join)
            warm = await ask(server, request_for(1))  # warm during/after
            return shed.value, health, results, warm, dict(server.stats)

        shed, health, results, warm, stats = serve_scenario(
            scenario, resolver=resolver, config=config)
        assert shed.code == "overloaded"
        assert shed.retryable
        assert shed.retry_after == 0.125
        assert health["value"]["ready"] is False
        assert health["value"]["inflight"] == 1
        assert [r["value"] for r in results] == [{"echo": 1}, {"echo": 1}]
        assert warm["value"] == {"echo": 1}
        assert stats["serve_shed_requests"] == 1
        assert stats["serve_cold_computes"] == 1
        assert len(resolver.calls) == 1

    def test_shed_key_succeeds_once_load_clears(self):
        resolver = GatedResolver()
        config = ServeConfig(host="127.0.0.1", port=0, max_inflight=1)

        async def scenario(server):
            loop = asyncio.get_running_loop()
            first = asyncio.ensure_future(ask(server, request_for(1)))
            await loop.run_in_executor(None, resolver.started.wait, 10)
            with pytest.raises(ServeError):
                await ask(server, request_for(2))
            resolver.release.set()
            await first
            retried = await ask(server, request_for(2))
            return retried

        retried = serve_scenario(scenario, resolver=resolver, config=config)
        assert retried["value"] == {"echo": 2}


class TestComputeDeadline:
    def test_deadline_fails_request_but_not_computation(self):
        resolver = GatedResolver()

        async def scenario(server):
            loop = asyncio.get_running_loop()
            request = {**request_for(5), "deadline": 0.05}
            task = asyncio.ensure_future(ask(server, request))
            await loop.run_in_executor(None, resolver.started.wait, 10)
            with pytest.raises(ServeError) as exc_info:
                await task
            resolver.release.set()
            # The computation was never cancelled: it lands in the LRU
            # and the retry is warm, with no second resolver call.
            while True:
                final = await ask(server, request_for(5))
                if final["status"] == "warm":
                    break
                await asyncio.sleep(0.01)
            return exc_info.value, final, dict(server.stats)

        error, final, stats = serve_scenario(scenario, resolver=resolver)
        assert error.code == "deadline-exceeded"
        assert error.retryable
        assert final["value"] == {"echo": 5}
        assert stats["serve_deadline_expirations"] == 1
        assert stats["serve_cold_computes"] == 1
        assert len(resolver.calls) == 1

    def test_server_wide_deadline_from_config(self):
        resolver = GatedResolver()
        config = ServeConfig(host="127.0.0.1", port=0,
                             compute_deadline=0.05)

        async def scenario(server):
            with pytest.raises(ServeError) as exc_info:
                await ask(server, request_for(6))
            resolver.release.set()
            return exc_info.value

        error = serve_scenario(scenario, resolver=resolver, config=config)
        assert error.code == "deadline-exceeded"


class TestHealthAndDrain:
    def test_health_reports_ready(self):
        async def scenario(server):
            return await ask(server, {"op": "health"})

        health = serve_scenario(scenario, resolver=lambda q: {})
        value = health["value"]
        assert value["live"] is True
        assert value["ready"] is True
        assert value["draining"] is False
        assert value["max_inflight"] == ServeConfig().max_inflight

    def test_drain_answers_inflight_then_stops(self):
        resolver = GatedResolver()

        async def scenario(server):
            loop = asyncio.get_running_loop()
            pending = asyncio.ensure_future(ask(server, request_for(9)))
            await loop.run_in_executor(None, resolver.started.wait, 10)
            drain = asyncio.ensure_future(server.drain())
            await asyncio.sleep(0.05)
            assert server.draining
            # New queries are refused with a retryable error while the
            # in-flight one is still being answered.
            with pytest.raises((ServeError, ConnectionError)) as refusal:
                await ask(server, request_for(10))
            resolver.release.set()
            answered = await pending
            await drain
            await server.wait_stopped()
            return answered, refusal.value, dict(server.stats)

        answered, refusal, stats = serve_scenario(
            scenario, resolver=resolver)
        assert answered["value"] == {"echo": 9}
        if isinstance(refusal, ServeError):
            assert refusal.code == "draining"
            assert refusal.retryable
            assert stats["serve_drain_refusals"] == 1
        assert stats["serve_drains"] == 1
        assert stats["serve_drained_answers"] >= 1
        assert len(resolver.calls) == 1

    def test_drain_with_nothing_inflight_stops_immediately(self):
        async def scenario(server):
            await server.drain()
            await server.wait_stopped()
            return dict(server.stats)

        stats = serve_scenario(scenario, resolver=lambda q: {})
        assert stats["serve_drains"] == 1


class TestSigtermDrain:
    def test_repro_serve_drains_on_sigterm_with_exit_143(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env.pop("REPRO_SERVE_PORT", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        try:
            line = proc.stdout.readline()
            assert "listening on" in line, line
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 143, out
        assert "draining" in out
        assert "[runtime:" in out  # the telemetry footer still prints


# -- degrade-to-local under a dead service ------------------------------------


class TestDegradeToLocal:
    def test_fifty_keys_pay_at_most_threshold_connects_bit_identically(
            self, monkeypatch):
        """Acceptance: service down, 50 distinct keys, the whole run pays
        ``breaker.threshold`` connection attempts (not 50, and not 100
        for get+put), and every report is byte-identical to a run with
        no service configured at all."""
        attempts = []
        real_connect = asyncio.open_connection

        async def refused(host, port, *args, **kwargs):
            attempts.append((host, port))
            raise ConnectionRefusedError("service is down")

        monkeypatch.setattr(asyncio, "open_connection", refused)
        profile = get_profile("crafty")
        settings = [ExperimentSettings(target_instructions=1000, seed=s)
                    for s in range(50)]
        with use_runtime(service="127.0.0.1:1") as runtime:
            degraded = [canonical_dumps(encode_benchmark(
                run_benchmark(profile, s))) for s in settings]
            telemetry = dict(runtime.telemetry.counters)
        close_remote_stores()
        clear_caches()
        monkeypatch.setattr(asyncio, "open_connection", real_connect)
        with use_runtime():
            baseline = [canonical_dumps(encode_benchmark(
                run_benchmark(profile, s))) for s in settings]
        assert degraded == baseline
        assert len(attempts) == DEFAULT_BREAKER_THRESHOLD
        assert telemetry["remote_store_breaker_open"] == 1
        # 50 gets + 50 puts, minus the attempts that really dialled.
        assert telemetry["remote_store_short_circuits"] == \
            100 - DEFAULT_BREAKER_THRESHOLD
        assert telemetry["remote_store_errors"] == DEFAULT_BREAKER_THRESHOLD
        assert telemetry.get("remote_store_hits", 0) == 0

    def test_remote_store_breaker_recovers_when_service_returns(self):
        """Half-open probe against a *live* server closes the breaker and
        the store serves hits again."""

        async def main():
            server = AvfServer(ServeConfig(host="127.0.0.1", port=0),
                               resolver=lambda q: {})
            await server.start()
            return server

        # A real server, but the store first points at a dead port.
        clock = FakeClock()
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()

        with use_runtime():
            breaker = CircuitBreaker(threshold=1, reset_timeout=5.0,
                                     clock=clock)
            store = RemoteStore(f"127.0.0.1:{dead_port}", timeout=0.2,
                                breaker=breaker)
            from repro.runtime.cache import MISS

            key = "0" * 64
            assert store.get(key) is MISS
            assert breaker.state == "open"
            assert store.get(key) is MISS  # short-circuited, no dial
            assert breaker.counters["breaker_short_circuits"] == 1
            store.close()
