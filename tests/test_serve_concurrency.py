"""Dedup/coalescing and LRU-bound properties of the AVF query server.

The load-bearing invariant: *K* requests over *M* distinct keys — any
interleaving, any connection fan-out — produce exactly *M* cold
computations and *K* correct responses. A stub resolver counts
its invocations per key, so a duplicate simulation is a counted fact,
not an inference from timing.
"""

from __future__ import annotations

import asyncio
import threading
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.context import use_runtime
from repro.serve.client import AsyncServeClient
from repro.serve.server import AvfServer, ServeConfig


class CountingResolver:
    """Thread-safe per-key invocation counter standing in for the engine."""

    def __init__(self, delay: float = 0.0):
        self.delay = delay
        self.calls = {}
        self._lock = threading.Lock()

    def __call__(self, query):
        with self._lock:
            self.calls[query.key] = self.calls.get(query.key, 0) + 1
        if self.delay:
            time.sleep(self.delay)
        return {"echo": query.seed}


def request_for(seed: int) -> dict:
    """Distinct seeds are the cheapest way to mint distinct keys."""
    return {"op": "avf", "profile": "crafty",
            "target_instructions": 700, "seed": seed}


class TestDedupCoalescing:
    @settings(max_examples=20, deadline=None)
    @given(
        distinct=st.integers(min_value=1, max_value=5),
        picks=st.lists(st.integers(min_value=0, max_value=4),
                       min_size=1, max_size=24),
    )
    def test_k_requests_over_m_keys_yield_m_computes(self, distinct, picks):
        """However K requests interleave, each distinct key computes once."""
        seeds = [1000 + i for i in range(distinct)]
        assigned = [seeds[p % distinct] for p in picks]
        resolver = CountingResolver(delay=0.002)
        config = ServeConfig(host="127.0.0.1", port=0, lru_entries=64)

        async def main():
            server = AvfServer(config, resolver=resolver)
            await server.start()
            pool = []
            try:
                for _ in range(min(4, len(assigned))):
                    pool.append(await AsyncServeClient().connect(
                        "127.0.0.1", server.port))
                finals = await asyncio.gather(
                    *(pool[i % len(pool)].request(request_for(seed))
                      for i, seed in enumerate(assigned)))
                stats = dict(server.stats)
            finally:
                for client in pool:
                    await client.close()
                await server.stop()
            return finals, stats

        with use_runtime():
            finals, stats = asyncio.run(main())

        used = set(assigned)
        assert len(resolver.calls) == len(used)
        assert all(count == 1 for count in resolver.calls.values()), \
            f"duplicate cold simulations: {resolver.calls}"
        assert stats["serve_cold_computes"] == len(used)
        # Every one of the K responses is correct for *its* key.
        assert len(finals) == len(assigned)
        for seed, final in zip(assigned, finals):
            assert final["ok"] is True
            assert final["value"] == {"echo": seed}
        # Request accounting is airtight: cold + coalesced + warm == K.
        assert stats["serve_requests"] == len(assigned)
        assert (stats["serve_cold_computes"]
                + stats.get("serve_coalesced", 0)
                + stats.get("serve_warm_hits", 0)) == len(assigned)

    def test_gated_coalescing_is_deterministic(self):
        """Five requests land while the one compute is provably in flight:
        exactly one ``cold`` acceptance, four ``coalesced``, one resolver
        call, five identical answers."""
        started = threading.Event()
        release = threading.Event()
        resolver_calls = []

        def gated_resolver(query):
            resolver_calls.append(query.key)
            started.set()
            assert release.wait(10), "test deadlock: resolver never released"
            return {"echo": query.seed}

        async def main():
            server = AvfServer(ServeConfig(host="127.0.0.1", port=0),
                               resolver=gated_resolver)
            await server.start()
            client = await AsyncServeClient().connect(
                "127.0.0.1", server.port)
            try:
                event_logs = [[] for _ in range(5)]
                tasks = [asyncio.ensure_future(
                    client.request(request_for(42), log))
                    for log in event_logs]
                # Every request must be *accepted* before we let the one
                # computation finish — that forces the coalesced path.
                while not all(log for log in event_logs):
                    await asyncio.sleep(0.005)
                release.set()
                finals = await asyncio.gather(*tasks)
                accept_statuses = sorted(log[0]["status"]
                                         for log in event_logs)
                stats = dict(server.stats)
            finally:
                await client.close()
                await server.stop()
            return finals, accept_statuses, stats

        with use_runtime():
            finals, accept_statuses, stats = asyncio.run(main())
        assert accept_statuses == ["coalesced"] * 4 + ["cold"]
        assert len(resolver_calls) == 1
        assert stats["serve_cold_computes"] == 1
        assert stats["serve_coalesced"] == 4
        assert [final["value"] for final in finals] == [{"echo": 42}] * 5


class TestLruBounds:
    @settings(max_examples=15, deadline=None)
    @given(capacity=st.integers(min_value=1, max_value=4),
           extra=st.integers(min_value=1, max_value=6))
    def test_lru_bounds_entries_and_refetch_is_correct(self, capacity,
                                                       extra):
        """Live entries never exceed the cap; an evicted key re-fetches
        correctly (one extra compute) and then serves warm again."""
        total = capacity + extra
        resolver = CountingResolver()
        config = ServeConfig(host="127.0.0.1", port=0, lru_entries=capacity)

        async def main():
            server = AvfServer(config, resolver=resolver)
            await server.start()
            client = await AsyncServeClient().connect(
                "127.0.0.1", server.port)
            try:
                for seed in range(total):
                    final = await client.request(request_for(seed))
                    assert final["value"] == {"echo": seed}
                    assert len(server._lru) <= capacity
                assert len(server._lru) == capacity
                assert server.stats["serve_lru_evictions"] == total - capacity
                # Seed 0 is long evicted: re-fetch recomputes, correctly.
                refetch = await client.request(request_for(0))
                assert refetch["status"] == "cold"
                assert refetch["value"] == {"echo": 0}
                # ... and the re-fetched answer is warm on the next ask.
                again = await client.request(request_for(0))
                assert again["status"] == "warm"
                assert again["value"] == {"echo": 0}
                stats = dict(server.stats)
            finally:
                await client.close()
                await server.stop()
            return stats

        with use_runtime():
            stats = asyncio.run(main())
        # Exactly one duplicate compute — the post-eviction re-fetch.
        assert sum(resolver.calls.values()) == total + 1
        assert max(resolver.calls.values()) == 2
        # The re-fetch insert evicts one more entry past the initial fill.
        assert stats["serve_lru_evictions"] == total - capacity + 1
        assert stats["serve_warm_hits"] == 1

    def test_lru_zero_disables_warm_serving(self):
        resolver = CountingResolver()
        config = ServeConfig(host="127.0.0.1", port=0, lru_entries=0)

        async def main():
            server = AvfServer(config, resolver=resolver)
            await server.start()
            client = await AsyncServeClient().connect(
                "127.0.0.1", server.port)
            try:
                first = await client.request(request_for(5))
                second = await client.request(request_for(5))
                stats = dict(server.stats)
                parsed = len(server._parsed)
            finally:
                await client.close()
                await server.stop()
            return first, second, stats, parsed

        with use_runtime():
            first, second, stats, parsed = asyncio.run(main())
        assert first["status"] == "cold"
        assert second["status"] == "cold"
        assert first["value"] == second["value"] == {"echo": 5}
        assert sum(resolver.calls.values()) == 2
        assert stats["serve_cold_computes"] == 2
        assert stats.get("serve_lru_evictions", 0) == 0
        # Nor is anything parsed twice from a memo.
        assert stats.get("serve_parse_hits", 0) == 0
        assert parsed == 0


class TestParseMemoBounds:
    @settings(max_examples=15, deadline=None)
    @given(capacity=st.integers(min_value=1, max_value=4),
           seeds=st.lists(st.integers(min_value=0, max_value=7),
                          min_size=1, max_size=16))
    def test_parse_memo_never_exceeds_lru_entries(self, capacity, seeds):
        """The memo is an LRU of ``lru_entries`` parses: every repeat of
        a request still in it is a parse hit, and it never grows past
        the cap, whatever the order of requests."""
        resolver = CountingResolver()
        config = ServeConfig(host="127.0.0.1", port=0, lru_entries=capacity)

        async def main():
            server = AvfServer(config, resolver=resolver)
            await server.start()
            client = await AsyncServeClient().connect(
                "127.0.0.1", server.port)
            try:
                for seed in seeds:
                    final = await client.request(request_for(seed))
                    assert final["value"] == {"echo": seed}
                    assert len(server._parsed) <= capacity
                stats = dict(server.stats)
            finally:
                await client.close()
                await server.stop()
            return stats

        # The same LRU, modelled: which asks should find their parse.
        memo, hits = [], 0
        for seed in seeds:
            if seed in memo:
                hits += 1
                memo.remove(seed)
            elif len(memo) == capacity:
                memo.pop(0)
            memo.append(seed)

        with use_runtime():
            stats = asyncio.run(main())
        assert stats.get("serve_parse_hits", 0) == hits
