"""``serve``: a ``repro serve`` process driven over localhost.

Setup boots the server and prewarms a pool of AVF keys. Each measured
repetition sends new AVF and campaign keys one after another, each with
duplicates sent while the first is in flight (the cold pass), then a
closed loop of warm requests over the connections (the warm pass).
In traced runs an open loop of Poisson arrivals probes latency at three
fixed rates and a ladder of rates. Every answer must be byte-identical
to the encoded result of a direct call.
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench.common import Checks, phase, reset_program_state
from perfbench.stats import (
    backlog_grows,
    counter_delta,
    open_loop_latencies,
    poisson_schedule,
    tail,
)

INSTRUCTIONS = 2_000
PROGRAM_SEED = 2004
WARM_KEYS = 6
#: Profiles of the new AVF and campaign keys of every cold pass, fixed so
#: that each pass costs the same; the program seed makes each key new.
#: Each key is sent COPIES times at once, so all but the first coalesce
#: onto one computation; the keys go one after another, since concurrent
#: computations share the server's interpreter lock and their combined
#: time varies with how its threads interleave.
COLD_AVF_PROFILES = ("eon-kajiya", "crafty", "applu", "twolf")
COLD_CAMPAIGN_PROFILES = ("mcf",)
COPIES = 3
CAMPAIGN_TRIALS = 100
WARM_REQUESTS = 3000
#: Closed-loop senders per connection in the warm pass: several requests
#: in flight keep the server busy instead of timing scheduler wake-ups.
IN_FLIGHT = 8
#: Open-loop rates in requests per second: about a fifth, two fifths and
#: three fifths of the warm rate of one closed-loop sender per connection
#: (~2,700/s, measured once on a 2-core x86-64 host), then fixed.
RATES = {"lo": 500, "mid": 1000, "hi": 1500}
#: Rates tried in order for ``max_qps``; the ladder stops at the first
#: rate that misses the limit.
LADDER = (500, 1000, 1500, 2000, 2500, 3000, 4000)
P99_LIMIT_MS = 10.0
#: Each open-loop rate runs long enough for 1,000+ samples (expected
#: 1,200, six standard deviations above), so the tail
#: rule reports a true p99.
OPEN_LOOP_SAMPLES = 1_200
SETUP_REPEATS = 3
#: Repetitions a run makes even when --seconds runs out sooner: one
#: repetition is too short to time steadily on a shared host.
MIN_REPS = 6
BOOT_TIMEOUT_S = 60.0

STATS_KEYS = {
    "serve.requests": "serve_requests",
    "serve.warm_hits": "serve_warm_hits",
    "serve.cold_computes": "serve_cold_computes",
    "serve.coalesced": "serve_coalesced",
    "serve.shed": "serve_shed_requests",
    "serve.deadline_expirations": "serve_deadline_expirations",
    "serve.errors": "serve_errors",
    "serve.lru_evictions": "serve_lru_evictions",
}


def avf_request(profile: str, seed: int) -> Dict[str, object]:
    return {"op": "avf", "profile": profile,
            "target_instructions": INSTRUCTIONS, "seed": seed}


def campaign_request(profile: str, seed: int) -> Dict[str, object]:
    return {"op": "campaign", "profile": profile,
            "target_instructions": INSTRUCTIONS, "seed": seed,
            "trials": CAMPAIGN_TRIALS, "campaign_seed": PROGRAM_SEED,
            "parity": True}


class ServerProcess:
    """A ``python -m repro serve`` child on a free localhost port."""

    def __init__(self, root: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        env.pop("REPRO_SERVICE", None)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0"],
            cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        line = self._read_announce()
        address = line.split("listening on ", 1)[1].split()[0]
        self.port = int(address.rsplit(":", 1)[1])

    def _read_announce(self) -> str:
        import selectors

        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        try:
            while time.monotonic() < deadline:
                if not selector.select(timeout=0.5):
                    if self.proc.poll() is not None:
                        break
                    continue
                line = self.proc.stdout.readline()
                if "listening on" in line:
                    return line
                if not line:
                    break
        finally:
            selector.close()
        self.stop()
        raise RuntimeError("repro serve did not announce a listening port")

    def peak_rss_mb(self) -> float:
        """The server's high-water resident set (``VmHWM``), in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Wait for a requested shutdown; terminate, then kill, if stuck."""
        try:
            self.proc.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            try:
                self.proc.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()


class Serve:
    name = "serve"
    min_reps = MIN_REPS

    def __init__(self, seed: int, scratch: Path, checks: Checks,
                 clock) -> None:
        self.seed = seed
        self.clock = clock
        self.root = scratch.parent
        self.checks = checks
        self.rng = random.Random(seed)
        self.connections = min(2, os.cpu_count() or 1)
        self.loop = asyncio.new_event_loop()
        self.server: Optional[ServerProcess] = None
        self.clients: List = []
        self.summary: Dict[str, tuple] = {}
        self.goldens: Dict[str, str] = {}
        self.rtt: Dict[str, List[float]] = {
            "warm": [], "cold": [], "coalesced": []}
        self.new_keys = 0
        # New keys are new programs: the seed picks their program seeds.
        self.fresh_seed = PROGRAM_SEED + 100_000 * (1 + seed)
        self.stats_before: Dict[str, float] = {}
        self.late: List[float] = []
        self.open_loop: Dict[str, float] = {}
        self.server_rss_mb = 0.0

    # -- process and connections --------------------------------------------

    def _run(self, coro):
        return self.loop.run_until_complete(coro)

    async def _connect(self) -> None:
        from repro.serve.client import AsyncServeClient

        self.clients = [
            await AsyncServeClient().connect("127.0.0.1", self.server.port)
            for _ in range(self.connections)]

    async def _shutdown(self) -> None:
        try:
            await self.clients[0].request({"op": "shutdown"})
        finally:
            for client in self.clients:
                await client.close()
            self.clients = []

    def _boot(self) -> None:
        self.server = ServerProcess(self.root)
        self._run(self._connect())
        self._run(self._prewarm())

    def _halt(self) -> None:
        if self.server is None:
            return
        try:
            self.server_rss_mb = max(self.server_rss_mb,
                                     self.server.peak_rss_mb())
            if self.clients:
                self._run(self._shutdown())
        finally:
            self.server.stop()
            self.server = None

    def setup(self) -> List[float]:
        from repro.workloads.spec2000 import ALL_PROFILES

        names = [p.name for p in ALL_PROFILES]
        self.warm_requests = [avf_request(name, PROGRAM_SEED) for name
                              in self.rng.sample(names, WARM_KEYS)]
        self.names = names
        times = []
        for attempt in range(SETUP_REPEATS):
            if attempt:
                self._halt()
            self.clock.start()
            self._boot()
            times.append(self.clock.stop())
        self.stats_before = self.counters()
        # Prewarm keys become goldens now, outside every timed phase.
        for request in self.warm_requests:
            self.golden(request)
        return times

    async def _prewarm(self) -> None:
        for request in self.warm_requests:
            await self.clients[0].request(dict(request))

    # -- requests ------------------------------------------------------------

    def golden(self, request: Dict[str, object]) -> str:
        """``canonical_dumps`` of the encoded direct call, memoised."""
        from repro.experiments.common import ExperimentSettings, run_benchmark
        from repro.faults.campaign import run_campaign
        from repro.serve.protocol import (
            canonical_dumps,
            encode_benchmark,
            encode_campaign,
            parse_query,
        )
        from repro.workloads.spec2000 import get_profile

        # Keyed by the request's own text: parsing it into a query costs
        # more than the answer's check, and the warm requests repeat.
        wire = canonical_dumps(request)
        if wire not in self.goldens:
            query = parse_query(dict(request))
            run = run_benchmark(
                get_profile(query.profile_name),
                ExperimentSettings(
                    target_instructions=query.target_instructions,
                    seed=query.seed),
                machine=query.machine)
            if query.op == "avf":
                value = encode_benchmark(run)
            else:
                value = encode_campaign(run_campaign(
                    run.program, run.execution, run.pipeline,
                    query.campaign))
            self.goldens[wire] = canonical_dumps(value)
        return self.goldens[wire]

    async def _send(self, client, request, recorder,
                    record: bool = True) -> Tuple[str, dict, float]:
        """One round trip: ``(class, final line, seconds)``."""
        events: List[dict] = []
        span = recorder.leaf("serve.client") if recorder else None
        started = time.perf_counter()
        try:
            final = await client.request(dict(request), collect_events=events)
        finally:
            if span is not None:
                span["end"] = time.perf_counter()
        elapsed = time.perf_counter() - started
        accepted = [e["status"] for e in events if e.get("event") == "accepted"]
        kind = accepted[0] if accepted else "warm"
        if record:
            self.rtt[kind].append(elapsed)
        return kind, final, elapsed

    def _new_seed(self) -> int:
        """A program seed no earlier request used: the key is new."""
        self.fresh_seed += 1
        self.new_keys += 1
        return self.fresh_seed

    def _cold_batch(self) -> List[Dict[str, object]]:
        """The cold profiles, each under a program seed never used."""
        return ([avf_request(name, self._new_seed())
                 for name in COLD_AVF_PROFILES]
                + [campaign_request(name, self._new_seed())
                   for name in COLD_CAMPAIGN_PROFILES])

    async def _cold_pass(self, batch, recorder) -> Tuple[float, list]:
        """The new keys one after another, each sent COPIES times at once."""
        outcomes = []
        self.clock.start()
        for request in batch:
            sends = [self._send(self.clients[i % len(self.clients)], request,
                                recorder) for i in range(COPIES)]
            outcomes += await asyncio.gather(*sends, return_exceptions=True)
        return self.clock.stop(), outcomes

    async def _warm_pass(self, recorder) -> Tuple[float, list]:
        per_client = WARM_REQUESTS // (len(self.clients) * IN_FLIGHT)

        async def closed_loop(client, offset):
            results = []
            for i in range(per_client):
                request = self.warm_requests[(offset + i)
                                             % len(self.warm_requests)]
                try:
                    results.append(
                        (request, await self._send(client, request,
                                                   recorder)))
                except Exception as exc:  # counted as a failed request
                    results.append((request, exc))
            return results

        self.clock.start()
        chunks = await asyncio.gather(*(
            closed_loop(client, k) for k, client in enumerate(
                self.clients * IN_FLIGHT)))
        return self.clock.stop(), [r for c in chunks for r in c]

    def _check(self, request, outcome) -> None:
        if isinstance(outcome, BaseException):
            self.checks.op(False, f"request failed: {outcome!r}")
            return
        _kind, final, _elapsed = outcome
        from repro.serve.protocol import canonical_dumps

        self.checks.op(
            canonical_dumps(final["value"]) == self.golden(request),
            f"answer for {request} differs from the direct call")

    def measure(self, rep: int, recorder=None) -> Dict[str, float]:
        batch = self._cold_batch()
        with phase(recorder, "phase.cold"):
            cold_s, cold = self._run(self._cold_pass(batch, recorder))
        with phase(recorder, "phase.warm"):
            warm_s, warm = self._run(self._warm_pass(recorder))
        copies = [r for r in batch for _ in range(COPIES)]
        for request, outcome in zip(copies, cold):
            self._check(request, outcome)
        for request, outcome in warm:
            self._check(request, outcome)
        # The direct calls behind the goldens fill the program's memos in
        # this process; only their text is kept. Dropping the rest keeps
        # the heap, and so the collector's pauses in the timed passes,
        # the same from one repetition to the next.
        reset_program_state()
        return {"cold_s": cold_s, "warm_s": warm_s}

    # -- open loop -------------------------------------------------------------

    async def _open_loop(self, rate: float, recorder) -> Dict[str, object]:
        """Poisson arrivals at ``rate``; latency counted from due time."""
        due = poisson_schedule(rate, OPEN_LOOP_SAMPLES / rate, self.rng)
        requests = [self.warm_requests[i % len(self.warm_requests)]
                    for i in range(len(due))]
        loop = asyncio.get_running_loop()
        sent = [0.0] * len(due)
        done = [0.0] * len(due)
        outcomes: List[object] = [None] * len(due)

        async def fire(i):
            client = self.clients[i % len(self.clients)]
            try:
                outcomes[i] = await self._send(client, requests[i],
                                               recorder, record=False)
            except Exception as exc:  # counted as a failed request
                outcomes[i] = exc
            done[i] = loop.time() - start

        tasks = []
        start = loop.time()
        for i, when in enumerate(due):
            delay = start + when - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            sent[i] = loop.time() - start
            tasks.append(asyncio.ensure_future(fire(i)))
        await asyncio.gather(*tasks)
        warm, lateness = open_loop_latencies(due, sent, done)
        failures = 0
        for request, outcome in zip(requests, outcomes):
            self._check(request, outcome)
            failures += isinstance(outcome, BaseException)
        return {"warm": warm, "late": lateness, "failures": failures,
                "grows": backlog_grows(warm)}

    async def _sweep(self, recorder) -> None:
        # An untimed warm-up at the middle rate: the first open loop after
        # the closed-loop passes otherwise pays the server's settling.
        await self._open_loop(RATES["mid"], None)
        results = {}
        for rate in sorted(set(LADDER) | set(RATES.values())):
            results[rate] = await self._open_loop(rate, recorder)
            self.late.extend(results[rate]["late"])
            _pct, p99, _n = tail(results[rate]["warm"])
            if rate >= max(RATES.values()) and (
                    p99 * 1000 > P99_LIMIT_MS or results[rate]["grows"]
                    or results[rate]["failures"]):
                break
        max_qps = 0
        for rate in LADDER:
            if rate not in results:
                break
            _pct, p99, _n = tail(results[rate]["warm"])
            if (p99 * 1000 > P99_LIMIT_MS or results[rate]["grows"]
                    or results[rate]["failures"]):
                break
            max_qps = rate
        self.open_loop = {"max_qps": max_qps}
        mid = results[RATES["mid"]]["warm"]
        self.open_loop["warm_p50_ms"] = statistics.median(mid) * 1000
        for label, rate in RATES.items():
            pct, value, n = tail(results[rate]["warm"])
            self.checks.expect(pct == 99.0, f"only {n} warm samples at "
                               f"{rate}/s: no p99")
            self.open_loop[f"warm_p99_ms.{label}"] = value * 1000

    def sweep(self, recorder=None) -> None:
        # The generator's own garbage collections would stall its sends
        # and read as server latency; collect up front, then pause them.
        gc.collect()
        gc.disable()
        try:
            self._run(self._sweep(recorder))
        finally:
            gc.enable()
        cold = self.rtt["cold"]
        self.summary = {
            "serve.warm_p50_ms": (self.open_loop["warm_p50_ms"], "ms"),
            "serve.cold_p50_ms": (
                statistics.median(cold) * 1000 if cold else 0.0, "ms"),
            "serve.max_qps": (self.open_loop["max_qps"], "1/s"),
        }
        for label in RATES:
            key = f"warm_p99_ms.{label}"
            self.summary[f"serve.{key}"] = (self.open_loop[key], "ms")

    # -- tracing ---------------------------------------------------------------

    def instrument(self, recorder) -> None:
        for samples in self.rtt.values():
            samples.clear()
        self.late = []

    def _stats(self) -> Dict[str, float]:
        async def fetch():
            return (await self.clients[0].request({"op": "stats"}))["value"]

        return self._run(fetch())

    def counters(self):
        stats = self._stats()
        return {name: stats.get(key, 0) for name, key in STATS_KEYS.items()}

    def layer_metrics(self, recorder) -> Dict[str, float]:
        # A high-water mark, not a counter: the peak over the whole run.
        metrics = {"serve.queue_peak": self._stats().get("serve_queue_peak",
                                                          0)}
        for kind, samples in self.rtt.items():
            if samples:
                pct, value, n = tail(samples)
                metrics[f"serve.rtt_ms.{kind}.p50"] = (
                    statistics.median(samples) * 1000)
                metrics[f"serve.rtt_ms.{kind}.tail"] = value * 1000
                metrics[f"serve.rtt_ms.{kind}.tail_pct"] = pct
                metrics[f"serve.rtt_ms.{kind}.n"] = n
        if self.late:
            pct, value, _n = tail(self.late)
            metrics["loadgen.late_ms.tail"] = value * 1000
            metrics["loadgen.late_ms.tail_pct"] = pct
        return metrics

    def finish(self) -> None:
        """One computation per distinct new key, and no server errors."""
        delta = counter_delta(self.stats_before, self.counters())
        self.server_rss_mb = max(self.server_rss_mb,
                                 self.server.peak_rss_mb())
        self.checks.expect(
            delta["serve.cold_computes"] == self.new_keys,
            f"{delta['serve.cold_computes']} cold computations for "
            f"{self.new_keys} distinct new keys")
        self.checks.expect(delta["serve.errors"] == 0,
                           f"{delta['serve.errors']} server errors")

    def peak_rss_mb(self) -> float:
        return self.server_rss_mb

    def close(self) -> None:
        try:
            self._halt()
        finally:
            self.loop.close()

