"""AVF-as-a-service correctness.

Golden equivalence: every answer the server produces — warm, cold, or
under concurrency — must be byte-identical (:func:`canonical_dumps`) to
encoding a direct ``run_benchmark`` / ``run_campaign`` call for the same
tuple. Plus protocol-level behaviour: malformed requests get structured
errors on a connection that stays usable, and a client disconnecting
mid-stream neither kills the server nor wastes its computation.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.experiments.common import (
    ExperimentSettings,
    clear_caches,
    run_benchmark,
)
from repro.faults.campaign import run_campaign
from repro.runtime.context import use_runtime
from repro.runtime.telemetry import Telemetry
from repro.serve.client import AsyncServeClient, ServeError
from repro.serve.protocol import (
    answer_line,
    canonical_dumps,
    encode_answer,
    encode_benchmark,
    encode_campaign,
    parse_query,
)
from repro.serve.server import AvfServer, ServeConfig
from repro.workloads.spec2000 import get_profile

#: Small enough to answer in well under a second on the real engine.
AVF_REQUEST = {"op": "avf", "profile": "crafty",
               "target_instructions": 1500, "seed": 77}
CAMPAIGN_REQUEST = {"op": "campaign", "profile": "mcf",
                    "target_instructions": 1500, "seed": 77,
                    "trials": 20, "campaign_seed": 9, "parity": True}


def serve_scenario(scenario, resolver=None, config=None):
    """Boot a fresh server on an ephemeral port, run ``scenario(server)``."""

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
    client = await AsyncServeClient().connect("127.0.0.1", server.port)
    try:
        return await client.request(dict(request), collect_events)
    finally:
        await client.close()


@pytest.fixture(autouse=True)
def _fresh_memos():
    clear_caches()
    yield
    clear_caches()


class TestGoldenEquivalence:
    def test_avf_answer_matches_direct_engine_call(self):
        with use_runtime():
            query = parse_query(AVF_REQUEST)
            direct = encode_benchmark(run_benchmark(
                get_profile(query.profile_name),
                ExperimentSettings(target_instructions=1500, seed=77),
                machine=query.machine))

            async def scenario(server):
                client = await AsyncServeClient().connect(
                    "127.0.0.1", server.port)
                try:
                    cold = await client.request(dict(AVF_REQUEST))
                    warm = await client.request(dict(AVF_REQUEST))
                finally:
                    await client.close()
                return cold, warm

            cold, warm = serve_scenario(scenario)
        assert cold["status"] == "cold"
        assert warm["status"] == "warm"
        assert canonical_dumps(cold["value"]) == canonical_dumps(direct)
        assert canonical_dumps(warm["value"]) == canonical_dumps(direct)

    def test_campaign_answer_matches_direct_engine_call(self):
        with use_runtime():
            query = parse_query(CAMPAIGN_REQUEST)
            run = run_benchmark(
                get_profile(query.profile_name),
                ExperimentSettings(target_instructions=1500, seed=77),
                machine=query.machine)
            direct = encode_campaign(run_campaign(
                run.program, run.execution, run.pipeline, query.campaign))
            served = serve_scenario(
                lambda server: ask(server, CAMPAIGN_REQUEST))
        assert served["status"] == "cold"
        assert canonical_dumps(served["value"]) == canonical_dumps(direct)
        # The encoder drops zero-count outcomes, so the payload is stable
        # against outcome-enum growth; sanity-check the shape.
        assert served["value"]["trials"] == 20
        assert all(count > 0 for count in served["value"]["counts"].values())

    def test_concurrent_identical_queries_all_match_direct(self):
        """Six racing clients, one simulation, six byte-identical answers."""
        with use_runtime():
            query = parse_query(AVF_REQUEST)
            direct = encode_benchmark(run_benchmark(
                get_profile(query.profile_name),
                ExperimentSettings(target_instructions=1500, seed=77),
                machine=query.machine))
            clear_caches()  # the server must recompute, not reuse memos

            async def scenario(server):
                finals = await asyncio.gather(
                    *(ask(server, AVF_REQUEST) for _ in range(6)))
                return finals, dict(server.stats)

            finals, stats = serve_scenario(scenario)
        assert len(finals) == 6
        for final in finals:
            assert canonical_dumps(final["value"]) == canonical_dumps(direct)
        assert stats["serve_cold_computes"] == 1
        assert (stats.get("serve_warm_hits", 0)
                + stats.get("serve_coalesced", 0)) == 5

    def test_lru_evicted_key_re_resolves_without_simulating(self):
        """A, B, A with a one-entry LRU: B evicts A's answer, so the
        third ask is a server-level cold compute, but the engine's memos
        answer it: the same bytes and no new simulation."""
        other = {**AVF_REQUEST, "seed": 78}
        config = ServeConfig(host="127.0.0.1", port=0, lru_entries=1)
        with use_runtime() as runtime:
            counters = runtime.telemetry.counters

            def sims():
                return (counters["functional_sims"],
                        counters["pipeline_sims"])

            async def scenario(server):
                first = await ask(server, AVF_REQUEST)
                await ask(server, other)
                before = sims()
                again = await ask(server, AVF_REQUEST)
                return first, again, before, sims(), dict(server.stats)

            first, again, before, after, stats = serve_scenario(
                scenario, config=config)
        assert before == (2, 2)
        assert after == before
        assert again["status"] == "cold"
        assert canonical_dumps(again["value"]) \
            == canonical_dumps(first["value"])
        assert stats["serve_cold_computes"] == 3
        assert stats["serve_lru_evictions"] == 2


class TestProtocol:
    def test_malformed_request_is_structured_error(self):
        """Garbage on the wire answers with an error object — and the
        connection remains usable for the next, well-formed request."""

        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            try:
                writer.write(b"this is not json\n")
                await writer.drain()
                error = json.loads(await reader.readline())
                writer.write(b'{"op": "ping", "id": 7}\n')
                await writer.drain()
                pong = json.loads(await reader.readline())
            finally:
                writer.close()
                await writer.wait_closed()
            return error, pong, dict(server.stats)

        with use_runtime():
            error, pong, stats = serve_scenario(scenario)
        assert error["event"] == "error"
        assert error["ok"] is False
        assert error["error"]["code"] == "bad-json"
        assert pong == {"id": 7, "event": "result", "ok": True,
                        "status": "warm", "value": "pong"}
        assert stats["serve_errors"] == 1

    def test_bad_fields_map_to_structured_codes(self):
        cases = [
            ({"op": "frobnicate"}, "unknown-op"),
            ({"op": "avf"}, "bad-request"),  # missing profile
            ({"op": "avf", "profile": "nosuchbench"}, "unknown-profile"),
            ({"op": "avf", "profile": "crafty", "trigger": "l9_miss"},
             "bad-request"),
            ({"op": "avf", "profile": "crafty",
              "machine": {"fetch_width": "wide"}}, "bad-request"),
            ({"op": "avf", "profile": "crafty",
              "machine": {"warp_drive": 1}}, "bad-request"),
            ({"op": "avf", "profile": "crafty",
              "target_instructions": -5}, "bad-request"),
            ({"op": "campaign", "profile": "crafty", "trials": 0},
             "bad-request"),
            ({"op": "campaign", "profile": "crafty",
              "tracking": "FULL_PSYCHIC"}, "bad-request"),
            ({"op": "store.get", "key": "shorty"}, "bad-request"),
        ]

        async def scenario(server):
            client = await AsyncServeClient().connect(
                "127.0.0.1", server.port)
            codes = []
            try:
                for request, _ in cases:
                    with pytest.raises(ServeError) as exc_info:
                        await client.request(dict(request))
                    codes.append(exc_info.value.code)
                # After ten rejected requests the connection still works.
                pong = await client.request({"op": "ping"})
            finally:
                await client.close()
            return codes, pong

        with use_runtime():
            codes, pong = serve_scenario(scenario)
        assert codes == [expected for _, expected in cases]
        assert pong["value"] == "pong"

    def test_client_disconnect_mid_stream_wastes_nothing(self):
        """A client vanishing between ``accepted`` and ``result`` must not
        crash the server or cancel the computation: the next asker gets
        the answer without a recompute."""
        started = threading.Event()
        release = threading.Event()
        calls = []

        def gated_resolver(query):
            calls.append(query.key)
            started.set()
            assert release.wait(10), "test deadlock: resolver never released"
            return {"echo": query.seed}

        request = {"op": "avf", "profile": "crafty",
                   "target_instructions": 500, "seed": 3}

        async def scenario(server):
            loop = asyncio.get_running_loop()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write((json.dumps({**request, "id": 1}) + "\n").encode())
            await writer.drain()
            accepted = json.loads(await reader.readline())
            assert accepted["event"] == "accepted"
            assert accepted["status"] == "cold"
            # Wait until the compute thread is inside the resolver, then
            # vanish abruptly with the result still pending.
            await loop.run_in_executor(None, started.wait, 10)
            writer.close()
            await writer.wait_closed()
            release.set()
            final = await ask(server, request)
            pong = await ask(server, {"op": "ping"})
            return final, pong, dict(server.stats)

        with use_runtime():
            final, pong, stats = serve_scenario(
                scenario, resolver=gated_resolver)
        assert final["value"] == {"echo": 3}
        assert final["status"] in ("warm", "cold")
        assert pong["value"] == "pong"
        assert len(calls) == 1, "disconnect must not trigger a recompute"
        assert stats["serve_cold_computes"] == 1

    def test_compute_failure_is_per_request_not_fatal(self):
        def exploding_resolver(query):
            raise RuntimeError("engine said no")

        async def scenario(server):
            client = await AsyncServeClient().connect(
                "127.0.0.1", server.port)
            try:
                with pytest.raises(ServeError) as exc_info:
                    await client.request({"op": "avf", "profile": "crafty",
                                          "seed": 11})
                pong = await client.request({"op": "ping"})
            finally:
                await client.close()
            return exc_info.value, pong, dict(server.stats)

        with use_runtime():
            error, pong, stats = serve_scenario(
                scenario, resolver=exploding_resolver)
        assert error.code == "compute-failed"
        assert "engine said no" in error.message
        assert pong["value"] == "pong"
        assert stats["serve_compute_failures"] == 1

    def test_answered_requests_free_their_tasks(self):
        """A long-lived connection holds only its unfinished requests:
        each answered request's task is released while it stays open."""
        import gc

        def answered_tasks():
            return sum(
                1 for obj in gc.get_objects()
                if isinstance(obj, asyncio.Task) and obj.done()
                and obj.get_coro().__qualname__ == "AvfServer._handle_line")

        async def scenario(server):
            client = await AsyncServeClient().connect(
                "127.0.0.1", server.port)
            try:
                for _ in range(50):
                    await client.request(dict(AVF_REQUEST))
                    await client.request({"op": "ping"})
                await asyncio.sleep(0.01)  # let done callbacks run
                gc.collect()
                return answered_tasks()
            finally:
                await client.close()

        with use_runtime():
            # At most the newest one, still bound to the reader loop's
            # local; before, every one of the 100 stayed.
            assert serve_scenario(scenario, resolver=echo_resolver) <= 1


def echo_resolver(query):
    """A value whose text needs escaping: quotes, backslashes, non-ASCII."""
    return {"echo": query.seed, "note": 'café "quoted" \\ π'}


async def raw_lines(server, requests, count):
    """Send ``requests`` as raw lines; return the next ``count`` lines."""
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    try:
        for request in requests:
            writer.write((json.dumps(request) + "\n").encode())
        await writer.drain()
        return [await reader.readline() for _ in range(count)]
    finally:
        writer.close()
        await writer.wait_closed()


class TestEncodedAnswers:
    """Result lines are spliced from pre-encoded text, byte for byte."""

    #: An int, a string with quotes and non-ASCII, null, and absent.
    IDS = [7, 'r"é中\\', None, "absent"]

    @pytest.mark.parametrize("request_id", IDS)
    def test_warm_and_cold_lines_match_canonical_dumps(self, request_id):
        request = {"op": "avf", "profile": "crafty",
                   "target_instructions": 500, "seed": 31}
        if request_id != "absent":
            request["id"] = request_id
        echo = None if request_id == "absent" else request_id
        key = parse_query(request).key

        async def scenario(server):
            # accepted + cold result, then one warm result.
            return await raw_lines(server, [request], 2) + \
                await raw_lines(server, [request], 1)

        with use_runtime():
            accepted, cold, warm = serve_scenario(scenario,
                                                  resolver=echo_resolver)
        assert json.loads(accepted)["status"] == "cold"
        value = echo_resolver(parse_query(request))
        for status, line in (("cold", cold), ("warm", warm)):
            payload = {"id": echo, "event": "result", "ok": True,
                       "status": status, "key": key, "value": value}
            assert line == (canonical_dumps(payload) + "\n").encode()

    def test_coalesced_waiters_get_the_same_bytes(self):
        started = threading.Event()
        release = threading.Event()

        def gated(query):
            started.set()
            assert release.wait(10), "test deadlock: resolver never released"
            return echo_resolver(query)

        request = {"op": "avf", "profile": "crafty",
                   "target_instructions": 500, "seed": 32}
        key = parse_query(request).key

        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            try:
                for rid in ("first", "second"):
                    writer.write((json.dumps({**request, "id": rid})
                                  + "\n").encode())
                await writer.drain()
                accepted = [json.loads(await reader.readline())
                            for _ in range(2)]
                release.set()
                results = [await reader.readline() for _ in range(2)]
            finally:
                writer.close()
                await writer.wait_closed()
            return accepted, results

        with use_runtime():
            accepted, results = serve_scenario(scenario, resolver=gated)
        assert sorted(a["status"] for a in accepted) == ["coalesced", "cold"]
        value = echo_resolver(parse_query(request))
        expected = {(canonical_dumps({
            "id": rid, "event": "result", "ok": True, "status": "cold",
            "key": key, "value": value}) + "\n").encode()
            for rid in ("first", "second")}
        assert set(results) == expected

    @pytest.mark.parametrize("request_id", [
        0, -12, 2 ** 70, 1.5, True, False, "", "é", {"b": 1, "a": [2]},
        [None, "x"], None])
    def test_answer_line_splices_any_id(self, request_id):
        key = parse_query(AVF_REQUEST).key
        value = {"z": [1, 2.5, None], "a": 'say "hi" é'}
        for status in ("warm", "cold"):
            payload = {"id": request_id, "event": "result", "ok": True,
                       "status": status, "key": key, "value": value}
            assert answer_line(request_id, status,
                               encode_answer(key, value)) \
                == (canonical_dumps(payload) + "\n").encode()


class TestParseMemo:
    """Repeated requests share one parse; malformed ones never do."""

    def test_id_and_deadline_do_not_split_the_parse(self):
        base = {"op": "avf", "profile": "crafty",
                "target_instructions": 500, "seed": 41}
        variants = [{**base, "id": 1}, {**base, "id": "two"},
                    {**base, "id": None, "deadline": 30.0}, dict(base)]

        async def scenario(server):
            client = await AsyncServeClient().connect(
                "127.0.0.1", server.port)
            try:
                finals = [await client.request(dict(v)) for v in variants]
            finally:
                await client.close()
            return finals, dict(server.stats), len(server._parsed)

        with use_runtime():
            finals, stats, entries = serve_scenario(scenario,
                                                    resolver=echo_resolver)
        assert [f["status"] for f in finals] == ["cold"] + ["warm"] * 3
        assert {f["key"] for f in finals} == {parse_query(base).key}
        assert stats["serve_parse_hits"] == len(variants) - 1
        assert entries == 1

    def test_type_distinct_spellings_never_share_a_parse(self):
        valid = {"op": "campaign", "profile": "crafty",
                 "target_instructions": 500, "seed": 5, "trials": 10,
                 "parity": True}

        async def scenario(server):
            client = await AsyncServeClient().connect(
                "127.0.0.1", server.port)
            codes = []
            try:
                ok = await client.request(dict(valid))
                for _ in range(2):
                    with pytest.raises(ServeError) as exc_info:
                        await client.request({**valid, "parity": 1})
                    codes.append(exc_info.value.code)
                # 2000 and 2000.0 are different texts: two parses, but
                # 2000.0 is not an int, so it is refused.
                await client.request({**valid, "target_instructions": 2000})
                with pytest.raises(ServeError) as exc_info:
                    await client.request(
                        {**valid, "target_instructions": 2000.0})
                codes.append(exc_info.value.code)
                # A float field spelt 2 and 2.0: two parses, one key.
                avf = {"op": "avf", "profile": "crafty",
                       "target_instructions": 500, "seed": 5}
                spellings = [await client.request(
                    {**avf, "machine": {"frequency_ghz": ghz}})
                    for ghz in (2, 2.0)]
            finally:
                await client.close()
            return ok, codes, spellings, dict(server.stats)

        with use_runtime():
            ok, codes, spellings, stats = serve_scenario(
                scenario, resolver=echo_resolver)
        assert ok["ok"] is True
        assert codes == ["bad-request"] * 3
        assert spellings[0]["key"] == spellings[1]["key"]
        assert [s["status"] for s in spellings] == ["cold", "warm"]
        assert stats.get("serve_parse_hits", 0) == 0

    def test_malformed_requests_error_on_every_repeat(self):
        unknown = {"op": "avf", "profile": "nosuchbench", "seed": 1}

        async def scenario(server):
            client = await AsyncServeClient().connect(
                "127.0.0.1", server.port)
            codes = []
            try:
                for _ in range(3):
                    with pytest.raises(ServeError) as exc_info:
                        await client.request(dict(unknown))
                    codes.append(exc_info.value.code)
            finally:
                await client.close()
            return codes, dict(server.stats), len(server._parsed)

        with use_runtime():
            codes, stats, entries = serve_scenario(scenario,
                                                   resolver=echo_resolver)
        assert codes == ["unknown-profile"] * 3
        assert stats["serve_errors"] == 3
        assert stats.get("serve_parse_hits", 0) == 0
        assert entries == 0

    def test_an_oversized_request_is_answered_but_not_kept(self):
        from repro.serve.server import MAX_PARSE_MEMO_TEXT

        request = {"op": "avf", "profile": "crafty",
                   "target_instructions": 500, "seed": 44,
                   "note": "x" * MAX_PARSE_MEMO_TEXT}

        async def scenario(server):
            client = await AsyncServeClient().connect(
                "127.0.0.1", server.port)
            try:
                finals = [await client.request(dict(request))
                          for _ in range(2)]
            finally:
                await client.close()
            return finals, dict(server.stats), len(server._parsed)

        with use_runtime():
            finals, stats, entries = serve_scenario(scenario,
                                                    resolver=echo_resolver)
        assert [f["status"] for f in finals] == ["cold", "warm"]
        assert stats.get("serve_parse_hits", 0) == 0
        assert entries == 0

    def test_deadline_is_read_from_the_live_request(self):
        """A memo hit still honours the repeat's own ``deadline``."""
        release = threading.Event()

        def gated(query):
            assert release.wait(10), "test deadlock: resolver never released"
            return echo_resolver(query)

        request = {"op": "avf", "profile": "crafty",
                   "target_instructions": 500, "seed": 43}

        async def scenario(server):
            client = await AsyncServeClient().connect(
                "127.0.0.1", server.port)
            try:
                first = asyncio.ensure_future(client.request(dict(request)))
                with pytest.raises(ServeError) as exc_info:
                    await client.request({**request, "deadline": 0.05})
                release.set()
                final = await first
            finally:
                await client.close()
            return exc_info.value, final, dict(server.stats)

        with use_runtime():
            error, final, stats = serve_scenario(scenario, resolver=gated)
        assert error.code == "deadline-exceeded"
        assert final["status"] == "cold"
        assert stats["serve_parse_hits"] == 1
        assert stats["serve_deadline_expirations"] == 1



class TestServeFooter:
    def test_store_account_names_hits_misses_and_puts(self):
        """Two ``--service`` table1 runs against a cached server: 12
        misses and 12 puts, then 12 hits — each under its own name."""
        telemetry = Telemetry()
        for name, count in (("serve_requests", 36),
                            ("serve_store_hits", 12),
                            ("serve_store_misses", 12),
                            ("serve_store_puts", 12)):
            telemetry.increment(name, count)
        summary = telemetry.format_summary()
        assert "[store 12 hits, 12 misses, 12 puts]" in summary

    def test_store_account_shows_misses_alone(self):
        telemetry = Telemetry()
        telemetry.increment("serve_requests", 3)
        telemetry.increment("serve_store_misses", 3)
        assert "store 0 hits, 3 misses, 0 puts" \
            in telemetry.format_summary()
