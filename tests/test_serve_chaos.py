"""Wire-level chaos differential suite for the AVF query service.

A real client talks to a real server through :class:`ChaosProxy`, which
drops, delays, resets, truncates, and garbles the byte stream on a
seeded deterministic schedule. The contract under test is absolute:

* every request either returns a payload **byte-identical** to the
  fault-free golden answer, or fails with a structured error — a wrong
  number is never acceptable;
* damage never multiplies work: across resets, retries, and desyncs,
  M distinct keys cost exactly M cold computations.

The schedule itself is also pinned down (same seed → same faults), so
a chaotic failure reproduces instead of flaking.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.experiments.common import clear_caches
from repro.runtime.context import use_runtime
from repro.serve.chaos import WIRE_CHAOS_MODES, ChaosProxy, WireChaosConfig
from repro.serve.client import AsyncServeClient, ServeError
from repro.serve.protocol import canonical_dumps
from repro.serve.resilience import CircuitBreaker, ClientPolicy
from repro.serve.server import AvfServer, ServeConfig
from repro.util.rng import DeterministicRng

#: The only acceptable ways for a request to not produce the golden
#: answer. Anything else (notably: a successful response with a
#: different payload) is a correctness bug.
STRUCTURED_FAILURES = (ServeError, ConnectionError, OSError, EOFError,
                       asyncio.TimeoutError, TimeoutError)

#: Retry hard, back off barely, never trip the breaker: the chaos tests
#: measure the protocol's integrity, not its patience.
PERSISTENT = ClientPolicy(retries=8, backoff_base=0.001, backoff_cap=0.01,
                          jitter=0.0)


@pytest.fixture(autouse=True)
def _fresh_memos():
    clear_caches()
    yield
    clear_caches()


class CountingResolver:
    """Thread-safe per-key invocation counter standing in for the engine."""

    def __init__(self):
        self.calls = {}
        self._lock = threading.Lock()

    def __call__(self, query):
        with self._lock:
            self.calls[query.key] = self.calls.get(query.key, 0) + 1
        return {"echo": query.seed}


def request_for(seed: int) -> dict:
    return {"op": "avf", "profile": "crafty",
            "target_instructions": 700, "seed": seed}


async def storm(requests, resolver, chaos, timeout=0.75, policy=PERSISTENT):
    """One client session through a chaos proxy against a fresh server.

    Returns ``(outcomes, proxy_counters, server_stats)`` where each
    outcome is ``("ok", response)`` or ``("fail", exception)``.
    """
    server = AvfServer(ServeConfig(host="127.0.0.1", port=0),
                       resolver=resolver)
    await server.start()
    proxy = ChaosProxy(("127.0.0.1", server.port), chaos)
    await proxy.start()
    client = AsyncServeClient(
        "127.0.0.1", proxy.port, timeout=timeout, policy=policy,
        breaker=CircuitBreaker(threshold=1_000_000))
    outcomes = []
    try:
        for request in requests:
            try:
                outcomes.append(("ok", await client.request(dict(request))))
            except STRUCTURED_FAILURES as exc:
                outcomes.append(("fail", exc))
    finally:
        await client.close()
        await proxy.stop()
        await server.stop()
    return outcomes, dict(proxy.counters), dict(server.stats)


# -- configuration and schedule ----------------------------------------------


class TestWireChaosConfig:
    def test_defaults_are_valid_and_armed(self):
        config = WireChaosConfig()
        assert all(config.enabled(mode) for mode in WIRE_CHAOS_MODES)

    def test_rejects_unknown_modes(self):
        with pytest.raises(ValueError, match="unknown wire chaos"):
            WireChaosConfig(modes=("drop", "scramble"))

    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ValueError, match="drop_prob"):
            WireChaosConfig(drop_prob=1.5)

    def test_rejects_probabilities_summing_past_one(self):
        with pytest.raises(ValueError, match="sum"):
            WireChaosConfig(drop_prob=0.6, reset_prob=0.6)

    def test_rejects_negative_seed_and_delay(self):
        with pytest.raises(ValueError, match="seed"):
            WireChaosConfig(seed=-1)
        with pytest.raises(ValueError, match="delay_seconds"):
            WireChaosConfig(delay_seconds=-0.1)

    def test_disabled_modes_never_fire(self):
        config = WireChaosConfig(modes=("reset",), reset_prob=1.0)
        proxy = ChaosProxy(("127.0.0.1", 1), config)
        for line in range(50):
            action, _ = proxy.decide("up", 1, line)
            assert action == "reset"


class TestDeterministicSchedule:
    def test_same_seed_same_schedule(self):
        a = ChaosProxy(("127.0.0.1", 1), WireChaosConfig(seed=7))
        b = ChaosProxy(("127.0.0.1", 2), WireChaosConfig(seed=7))
        schedule = [(d, c, i) for d in ("up", "down")
                    for c in range(1, 4) for i in range(40)]
        assert [a.decide(*s)[0] for s in schedule] \
            == [b.decide(*s)[0] for s in schedule]

    def test_different_seeds_differ(self):
        a = ChaosProxy(("127.0.0.1", 1), WireChaosConfig(seed=7))
        b = ChaosProxy(("127.0.0.1", 1), WireChaosConfig(seed=8))
        schedule = [("up", c, i) for c in range(1, 6) for i in range(40)]
        assert [a.decide(*s)[0] for s in schedule] \
            != [b.decide(*s)[0] for s in schedule]

    def test_directions_are_decorrelated(self):
        proxy = ChaosProxy(("127.0.0.1", 1), WireChaosConfig(seed=7))
        up = [proxy.decide("up", 1, i)[0] for i in range(60)]
        down = [proxy.decide("down", 1, i)[0] for i in range(60)]
        assert up != down

    def test_garbled_lines_never_decode(self):
        """0xFF stamping guarantees JSON decode failure — the structural
        reason chaos can never fabricate a plausible wrong answer."""
        line = (json.dumps({"id": 5, "event": "result", "ok": True,
                            "value": {"sdc_avf": 0.25}}) + "\n").encode()
        for seed in range(200):
            rng = DeterministicRng(seed)
            damaged = ChaosProxy.garble_line(line, rng)
            assert damaged.endswith(b"\n")
            assert damaged != line
            with pytest.raises((UnicodeDecodeError, json.JSONDecodeError)):
                json.loads(damaged)

    def test_garble_preserves_empty_lines(self):
        rng = DeterministicRng(1)
        assert ChaosProxy.garble_line(b"\n", rng) == b"\n"


# -- the differential matrix --------------------------------------------------


class TestChaosDifferential:
    @pytest.mark.parametrize("chaos_seed", [101, 202, 303, 404, 505])
    def test_no_silently_wrong_answer_under_full_chaos(self, chaos_seed):
        """All five fault modes armed: every success is byte-identical
        to the golden payload, every failure is structured, and no key
        is ever computed twice."""
        resolver = CountingResolver()
        keys = list(range(8))
        requests = [request_for(seed) for seed in keys] * 3

        outcomes, wire, stats = asyncio.run(storm(
            requests, resolver, WireChaosConfig(seed=chaos_seed)))

        successes = 0
        for (kind, payload), request in zip(outcomes, requests):
            if kind == "ok":
                successes += 1
                golden = canonical_dumps({"echo": request["seed"]})
                assert canonical_dumps(payload["value"]) == golden
            else:
                assert isinstance(payload, STRUCTURED_FAILURES)
        # The storm must neither block everything nor miss everything.
        assert successes >= len(requests) // 2, (outcomes, wire)
        faults = sum(wire.get(f"wire_{m}", 0)
                     for m in ("drop", "reset", "truncate", "garble"))
        assert faults > 0, wire
        # Dedup invariant: retries and resets never multiply work.
        assert all(count == 1 for count in resolver.calls.values()), \
            resolver.calls
        assert stats["serve_cold_computes"] == len(resolver.calls)

    def test_resets_never_multiply_computes(self):
        """Reset-heavy storm, K=30 requests over M=5 keys: exactly M
        computations, and the ones that answered answered correctly."""
        resolver = CountingResolver()
        requests = [request_for(seed % 5) for seed in range(30)]

        outcomes, wire, _ = asyncio.run(storm(
            requests, resolver,
            WireChaosConfig(modes=("reset",), seed=42, reset_prob=0.3),
            policy=ClientPolicy(retries=10, backoff_base=0.001,
                                backoff_cap=0.01, jitter=0.0)))

        for (kind, payload), request in zip(outcomes, requests):
            if kind == "ok":
                assert payload["value"] == {"echo": request["seed"]}
        assert wire["wire_reset"] > 0
        assert len(resolver.calls) == 5
        assert all(count == 1 for count in resolver.calls.values()), \
            resolver.calls

    def test_garble_only_storm_is_always_detected(self):
        """With every line at risk of damage, either the golden bytes
        arrive or the request fails — a garbled frame is never taken
        for an answer (0xFF can't decode as UTF-8)."""
        resolver = CountingResolver()
        requests = [request_for(seed % 4) for seed in range(20)]

        outcomes, wire, _ = asyncio.run(storm(
            requests, resolver,
            WireChaosConfig(modes=("garble",), seed=9, garble_prob=0.25)))

        for (kind, payload), request in zip(outcomes, requests):
            if kind == "ok":
                assert payload["value"] == {"echo": request["seed"]}
        assert wire["wire_garble"] > 0
        assert all(count == 1 for count in resolver.calls.values())

    def test_dead_upstream_is_a_structured_failure(self):
        async def main():
            proxy = ChaosProxy(("127.0.0.1", 1), WireChaosConfig(seed=1))
            await proxy.start()
            client = AsyncServeClient(
                "127.0.0.1", proxy.port, timeout=0.5,
                policy=ClientPolicy(retries=1, backoff_base=0.001,
                                    backoff_cap=0.01, jitter=0.0),
                breaker=CircuitBreaker(threshold=1_000_000))
            try:
                with pytest.raises(STRUCTURED_FAILURES):
                    await client.request(request_for(1))
            finally:
                await client.close()
                await proxy.stop()
            return dict(proxy.counters)

        counters = asyncio.run(main())
        assert counters["wire_upstream_refused"] >= 1


# -- the real engine under chaos ---------------------------------------------


AVF_REQUEST = {"op": "avf", "profile": "crafty",
               "target_instructions": 1500, "seed": 77}
CAMPAIGN_REQUEST = {"op": "campaign", "profile": "mcf",
                    "target_instructions": 1500, "seed": 77,
                    "trials": 20, "campaign_seed": 9, "parity": True}


class TestRealEngineUnderChaos:
    def test_warm_cold_and_campaign_answers_survive_chaos(self):
        """Cold AVF, warm AVF, and campaign queries through five chaos
        seeds: every answered payload is byte-identical to the answer a
        fault-free server gives for the same tuple."""

        async def golden_answers():
            server = AvfServer(ServeConfig(host="127.0.0.1", port=0))
            await server.start()
            client = AsyncServeClient(
                "127.0.0.1", server.port, timeout=30.0,
                policy=ClientPolicy(retries=0),
                breaker=CircuitBreaker(threshold=1_000_000))
            try:
                avf = await client.request(dict(AVF_REQUEST))
                campaign = await client.request(dict(CAMPAIGN_REQUEST))
            finally:
                await client.close()
                await server.stop()
            return {"avf": canonical_dumps(avf["value"]),
                    "campaign": canonical_dumps(campaign["value"])}

        with use_runtime():
            golden = asyncio.run(golden_answers())
            # cold (first ask per seed warms a fresh server's LRU from
            # the memoised engine), then warm (second ask)
            requests = [AVF_REQUEST, CAMPAIGN_REQUEST,
                        AVF_REQUEST, CAMPAIGN_REQUEST]
            answered = 0
            for chaos_seed in (11, 22, 33, 44, 55):
                outcomes, _, _ = asyncio.run(storm(
                    requests, None, WireChaosConfig(seed=chaos_seed),
                    timeout=30.0))
                for (kind, payload), request in zip(outcomes, requests):
                    if kind != "ok":
                        assert isinstance(payload, STRUCTURED_FAILURES)
                        continue
                    answered += 1
                    expected = golden["avf" if request["op"] == "avf"
                                      else "campaign"]
                    assert canonical_dumps(payload["value"]) == expected
            # Determinism guarantee aside, the storm settings are mild
            # enough that the vast majority of asks must land.
            assert answered >= 10
