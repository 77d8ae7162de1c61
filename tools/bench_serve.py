"""Load harness for the AVF query service.

Drives thousands of concurrent mixed warm/cold queries at an
:class:`AvfServer` — in-process by default, or a live ``repro serve``
process via ``--external HOST:PORT`` — and asserts the service's
contracts on the way through:

* **byte identity**: every served answer (warm, cold, or coalesced)
  is byte-identical to encoding a direct ``run_benchmark`` /
  ``run_campaign`` call for the same tuple;
* **exact dedup**: across the whole run the server performs exactly one
  cold computation per distinct key — proven by the server's own
  ``stats`` counters, not inferred from timing;
* **warm latency**: warm-key answers come back with a p50 under
  ``--max-warm-p50-ms`` (default 1 ms on localhost);
* **resilience overhead**: routing the same warm queries through a
  retrying/circuit-breaking :class:`AsyncServeClient` (built with a
  ``policy`` and ``breaker``) costs at most
  ``--max-resilience-overhead-pct`` (default 5%) extra warm p50 over
  the bare client.

``--chaos-seed N`` interposes the deterministic wire-level
:class:`ChaosProxy` between the load clients and the server: lines are
dropped, delayed, reset, truncated, and garbled on a seeded schedule
while the checks above tighten into the hard failure-semantics
contract — zero silently-wrong answers and still exactly one compute
per distinct key. Degraded-mode (storm-under-chaos) latency, wire fault
counts, and client retry/breaker counters all land in the record.

Results land in ``BENCH_serve.json``; the exit status is non-zero if
any check fails.

    PYTHONPATH=src python tools/bench_serve.py
    PYTHONPATH=src python tools/bench_serve.py --small              # CI smoke
    PYTHONPATH=src python tools/bench_serve.py --small --external 127.0.0.1:8787
    PYTHONPATH=src python tools/bench_serve.py --small --external 127.0.0.1:8787 --chaos-seed 7
"""

from __future__ import annotations

import argparse
import asyncio
import json
import logging
import os
import platform
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from repro.experiments.common import (
    ExperimentSettings,
    clear_caches,
    run_benchmark,
)
from repro.faults.campaign import run_campaign
from repro.runtime.context import use_runtime
from repro.serve.chaos import ChaosProxy, WireChaosConfig
from repro.serve.client import AsyncServeClient, ServeError, parse_address
from repro.serve.protocol import (
    canonical_dumps,
    encode_benchmark,
    encode_campaign,
    parse_query,
)
from repro.serve.resilience import CircuitBreaker, ClientPolicy
from repro.serve.server import AvfServer, ServeConfig
from repro.workloads.spec2000 import ALL_PROFILES, get_profile

#: Acceptable request outcomes under chaos besides the golden bytes.
STRUCTURED_FAILURES = (ServeError, ConnectionError, OSError, EOFError,
                       asyncio.TimeoutError, TimeoutError)


def build_requests(args):
    """The distinct-key query mix: AVF points plus a few campaigns."""
    names = [profile.name for profile in ALL_PROFILES][:args.profiles]
    requests = []
    for seed_offset in range(args.seeds_per_profile):
        for name in names:
            requests.append({
                "op": "avf", "profile": name,
                "target_instructions": args.instructions,
                "seed": args.seed + seed_offset,
            })
    for name in names[:args.campaigns]:
        requests.append({
            "op": "campaign", "profile": name,
            "target_instructions": args.instructions,
            "seed": args.seed, "trials": args.trials,
            "campaign_seed": args.seed + 1, "parity": True,
        })
    return requests


def golden_answers(requests):
    """Direct engine answers through the service encoders — the oracle."""
    goldens = []
    for request in requests:
        query = parse_query(request)
        run = run_benchmark(
            get_profile(query.profile_name),
            ExperimentSettings(target_instructions=query.target_instructions,
                               seed=query.seed),
            machine=query.machine)
        if query.op == "avf":
            goldens.append(canonical_dumps(encode_benchmark(run)))
        else:
            goldens.append(canonical_dumps(encode_campaign(run_campaign(
                run.program, run.execution, run.pipeline, query.campaign))))
    return goldens


async def fetch_stats(client):
    return (await client.request({"op": "stats"}))["value"]


def _percentiles(latencies):
    ordered = sorted(latencies)
    return (statistics.median(ordered) * 1000,
            ordered[int(0.95 * len(ordered))] * 1000)


async def drive(args, requests, goldens, failures):
    """All serving phases under one event loop; returns the record body."""
    server = None
    proxy = None
    if args.external:
        upstream = parse_address(args.external)
    else:
        server = AvfServer(ServeConfig(host="127.0.0.1", port=0))
        await server.start()
        upstream = ("127.0.0.1", server.port)
    if args.chaos_seed is not None:
        # Aborted chaos connections make asyncio log a warning per
        # swallowed socket.send(); that is the proxy working as designed.
        logging.getLogger("asyncio").setLevel(logging.ERROR)
        proxy = ChaosProxy(upstream, WireChaosConfig(seed=args.chaos_seed))
        await proxy.start()
        target = ("127.0.0.1", proxy.port)
    else:
        target = upstream
    pool = []
    storm_pool = []
    resilient = None
    chaos_failed = 0
    try:
        # The control connection always dials the server directly: the
        # oracle checks and stats deltas must not themselves be damaged.
        control = await AsyncServeClient().connect(*upstream)
        pool.append(control)
        if args.chaos_seed is not None:
            # Under chaos the storm goes through retrying clients (the
            # raw client would just die at the first reset).
            storm_policy = ClientPolicy(retries=8, backoff_base=0.001,
                                        backoff_cap=0.01, jitter=0.0)
            storm_pool = [
                AsyncServeClient(
                    *target, timeout=args.chaos_timeout,
                    policy=storm_policy,
                    breaker=CircuitBreaker(threshold=1_000_000))
                for _ in range(args.connections)]
        else:
            for _ in range(args.connections - 1):
                pool.append(await AsyncServeClient().connect(*target))
            storm_pool = pool
        before = await fetch_stats(control)

        # ---- phase 1: warm half the keys (their storm repeats are warm,
        # the other half's first touch happens *inside* the storm) -------
        prewarmed = list(range(0, len(requests), 2))
        started = time.perf_counter()
        for index in prewarmed:
            final = await control.request(dict(requests[index]))
            if canonical_dumps(final["value"]) != goldens[index]:
                failures.append(f"prewarm answer {index} differs from the "
                                f"direct engine call")
        prewarm_s = time.perf_counter() - started

        # ---- phase 2: the storm — concurrent mixed warm/cold ------------
        async def one(task_index):
            index = (task_index * 7) % len(requests)
            client = storm_pool[task_index % len(storm_pool)]
            t0 = time.perf_counter()
            try:
                final = await client.request(dict(requests[index]))
            except STRUCTURED_FAILURES as exc:
                if args.chaos_seed is None:
                    raise
                return index, exc, time.perf_counter() - t0
            return index, final, time.perf_counter() - t0

        started = time.perf_counter()
        outcomes = await asyncio.gather(*(one(i) for i in range(args.storm)))
        storm_s = time.perf_counter() - started
        storm_latencies = []
        for index, final, elapsed in outcomes:
            storm_latencies.append(elapsed)
            if isinstance(final, Exception):
                chaos_failed += 1
                continue
            if canonical_dumps(final["value"]) != goldens[index]:
                failures.append(f"storm answer for key {index} differs "
                                f"from the direct engine call")

        # ---- phase 2b (chaos only): sweep every key over the clean
        # control connection so keys whose storm asks all failed still
        # get their one compute, then verify the full oracle ---------
        if args.chaos_seed is not None:
            for index, request in enumerate(requests):
                final = await control.request(dict(request))
                if canonical_dumps(final["value"]) != goldens[index]:
                    failures.append(f"post-storm answer {index} differs "
                                    f"from the direct engine call")

        # ---- phase 3: warm-key latency, raw client against the
        # retrying/circuit-breaking one. The two round trips alternate
        # per sample on the same request (and swap order each sample),
        # so host drift lands on both sides alike; the resilient
        # client's bookkeeping must cost nearly nothing on the happy
        # path. The warm path is measured off-chaos: both dial direct.
        resilient = AsyncServeClient(
            *upstream, timeout=30.0, policy=ClientPolicy(retries=2),
            breaker=CircuitBreaker())
        timed = {"raw": (control, []), "resilient": (resilient, [])}
        for i in range(args.warm_samples):
            request = requests[i % len(requests)]
            order = ("raw", "resilient") if i % 2 == 0 \
                else ("resilient", "raw")
            for label in order:
                client, latencies = timed[label]
                payload = dict(request)
                t0 = time.perf_counter()
                final = await client.request(payload)
                latencies.append(time.perf_counter() - t0)
                if final["status"] != "warm":
                    failures.append(f"{label} latency-phase answer {i} was "
                                    f"not warm (status {final['status']!r})")
        warm_latencies = timed["raw"][1]
        resilient_latencies = timed["resilient"][1]
        after = await fetch_stats(control)
    finally:
        for client in pool:
            await client.close()
        if args.chaos_seed is not None:
            for client in storm_pool:
                await client.close()
        if resilient is not None:
            await resilient.close()
        if proxy is not None:
            await proxy.stop()
        if server is not None:
            await server.stop()

    delta = {key: after.get(key, 0) - before.get(key, 0)
             for key in ("serve_requests", "serve_cold_computes",
                         "serve_warm_hits", "serve_parse_hits",
                         "serve_coalesced",
                         "serve_lru_evictions", "serve_errors",
                         "serve_shed_requests",
                         "serve_deadline_expirations", "serve_writes")}
    warm_p50, warm_p95 = _percentiles(warm_latencies)
    resilient_p50, resilient_p95 = _percentiles(resilient_latencies)
    overhead_pct = ((resilient_p50 - warm_p50) / warm_p50 * 100
                    if warm_p50 else 0.0)

    if delta["serve_cold_computes"] != len(requests):
        failures.append(
            f"dedup violated: {delta['serve_cold_computes']} cold "
            f"computations for {len(requests)} distinct keys")
    if delta["serve_errors"] and args.chaos_seed is None:
        failures.append(f"{delta['serve_errors']} serve errors during "
                        f"the run")
    if warm_p50 >= args.max_warm_p50_ms:
        failures.append(f"warm p50 {warm_p50:.3f} ms is above the "
                        f"{args.max_warm_p50_ms} ms bound")
    if overhead_pct >= args.max_resilience_overhead_pct:
        failures.append(
            f"resilient-client warm p50 {resilient_p50:.3f} ms is "
            f"{overhead_pct:.1f}% over the raw client's {warm_p50:.3f} ms "
            f"(bound {args.max_resilience_overhead_pct}%)")

    body = {
        "counts": {
            "distinct_keys": len(requests),
            "prewarmed_keys": len(prewarmed),
            "storm_requests": args.storm,
            "warm_samples": args.warm_samples,
            "connections": args.connections,
            "total_requests": (len(prewarmed) + args.storm
                               + 2 * args.warm_samples),
        },
        "seconds": {"prewarm": round(prewarm_s, 3),
                    "storm": round(storm_s, 3)},
        "latency_ms": {
            "warm_p50": round(warm_p50, 4),
            "warm_p95": round(warm_p95, 4),
            "storm_p50": round(
                statistics.median(storm_latencies) * 1000, 3),
            "storm_p95": round(
                sorted(storm_latencies)[
                    int(0.95 * len(storm_latencies))] * 1000, 3),
        },
        "resilience": {
            "warm_p50_resilient_ms": round(resilient_p50, 4),
            "warm_p95_resilient_ms": round(resilient_p95, 4),
            "overhead_pct": round(overhead_pct, 2),
            "max_overhead_pct": args.max_resilience_overhead_pct,
        },
        "throughput_qps": round(args.storm / storm_s, 1) if storm_s else None,
        "stats_delta": delta,
    }
    if args.chaos_seed is not None:
        retries = Counter()
        breaker = Counter()
        for client in storm_pool:
            retries.update(client.counters)
            breaker.update(client.breaker.counters)
        body["chaos"] = {
            "seed": args.chaos_seed,
            "wire": dict(proxy.counters),
            "storm_failed_structured": chaos_failed,
            "storm_answered": args.storm - chaos_failed,
            "degraded_p50_ms": body["latency_ms"]["storm_p50"],
            "degraded_p95_ms": body["latency_ms"]["storm_p95"],
            "client": dict(retries),
            "breaker": dict(breaker),
        }
        faults = sum(proxy.counters.get(f"wire_{m}", 0)
                     for m in ("drop", "reset", "truncate", "garble",
                               "delay"))
        if not faults:
            failures.append("chaos proxy was configured but injected "
                            "zero faults")
    return body


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Concurrency/latency harness for the AVF query "
                    "service; records BENCH_serve.json.")
    parser.add_argument("--instructions", type=int, default=4000)
    parser.add_argument("--profiles", type=int, default=6,
                        help="distinct benchmark profiles in the mix")
    parser.add_argument("--seeds-per-profile", type=int, default=2)
    parser.add_argument("--campaigns", type=int, default=4,
                        help="campaign queries appended to the mix")
    parser.add_argument("--trials", type=int, default=60)
    parser.add_argument("--seed", type=int, default=2004)
    parser.add_argument("--storm", type=int, default=2000,
                        help="concurrent mixed warm/cold requests")
    parser.add_argument("--warm-samples", type=int, default=2000,
                        help="sequential warm round-trips for the p50")
    parser.add_argument("--connections", type=int, default=8)
    parser.add_argument("--small", action="store_true",
                        help="CI preset: smaller tuples, 1200-query storm")
    parser.add_argument("--external", default=None, metavar="HOST:PORT",
                        help="target a running `repro serve` instead of "
                             "booting in-process")
    parser.add_argument("--chaos-seed", type=int, default=None,
                        help="interpose the deterministic wire chaos proxy "
                             "with this seed; the storm then runs through "
                             "retrying clients and the zero-wrong-answers "
                             "+ exact-dedup contract is enforced")
    parser.add_argument("--chaos-timeout", type=float, default=1.0,
                        help="per-attempt client timeout under chaos "
                             "(dropped lines cost one of these)")
    parser.add_argument("--max-warm-p50-ms", type=float, default=1.0)
    parser.add_argument("--max-resilience-overhead-pct", type=float,
                        default=5.0,
                        help="bound on the resilient client's extra warm "
                             "p50 over the raw client, in percent")
    parser.add_argument("--output", default="BENCH_serve.json")
    args = parser.parse_args()
    if args.small:
        args.instructions = min(args.instructions, 1500)
        args.profiles = min(args.profiles, 4)
        args.seeds_per_profile = 1
        args.campaigns = min(args.campaigns, 2)
        args.trials = min(args.trials, 20)
        args.storm = min(args.storm, 1200)
        args.warm_samples = min(args.warm_samples, 500)
    if args.chaos_seed is not None and args.small:
        # Dropped lines stall a retrying client for a full timeout;
        # keep the smoke matrix quick.
        args.storm = min(args.storm, 400)

    failures = []
    with use_runtime():
        requests = build_requests(args)
        print(f"mix: {len(requests)} distinct keys "
              f"({args.profiles} profiles x {args.seeds_per_profile} seeds "
              f"+ {args.campaigns} campaigns) x {args.instructions} "
              f"instructions; storm {args.storm} over "
              f"{args.connections} connections"
              + (f"; wire chaos seed {args.chaos_seed}"
                 if args.chaos_seed is not None else ""))
        goldens = golden_answers(requests)
        # The server must recompute every cold key for real — don't let
        # the oracle pass leave warm memos behind for an in-process run.
        clear_caches()
        body = asyncio.run(drive(args, requests, goldens, failures))
    clear_caches()

    record = {
        "mode": "external" if args.external else "in-process",
        "config": {
            "instructions": args.instructions,
            "profiles": args.profiles,
            "seeds_per_profile": args.seeds_per_profile,
            "campaigns": args.campaigns,
            "trials": args.trials,
            "seed": args.seed,
            "chaos_seed": args.chaos_seed,
        },
        **body,
        "requirements": {"max_warm_p50_ms": args.max_warm_p50_ms,
                         "max_resilience_overhead_pct":
                             args.max_resilience_overhead_pct,
                         "one_compute_per_distinct_key": True,
                         "byte_identical_to_direct_calls": True,
                         "zero_wrong_answers_under_chaos": True},
        "checks": {
            "byte_identical": not any("differs" in f for f in failures),
            "dedup_exact": not any("dedup" in f for f in failures),
            "warm_p50_in_bound": not any(f.startswith("warm p50")
                                         for f in failures),
            "resilience_overhead_in_bound": not any(
                "resilient-client" in f for f in failures),
        },
        "host": {"machine": platform.machine(), "cores": os.cpu_count(),
                 "python": platform.python_version()},
        "passed": not failures,
    }
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n")
    print(f"warm p50 {body['latency_ms']['warm_p50']:.3f} ms "
          f"(resilient {body['resilience']['warm_p50_resilient_ms']:.3f} ms, "
          f"+{body['resilience']['overhead_pct']:.1f}%), storm "
          f"{args.storm} requests in {body['seconds']['storm']}s "
          f"({body['throughput_qps']} qps), "
          f"{body['stats_delta']['serve_cold_computes']} cold computes for "
          f"{len(requests)} keys -> {args.output}")
    if args.chaos_seed is not None:
        chaos = body["chaos"]
        print(f"chaos: {chaos['storm_answered']}/{args.storm} answered "
              f"under fire ({chaos['storm_failed_structured']} structured "
              f"failures, 0 wrong answers required), wire faults: "
              + ", ".join(f"{k.replace('wire_', '')} {v}"
                          for k, v in sorted(chaos["wire"].items())
                          if k.startswith("wire_") and v))
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
