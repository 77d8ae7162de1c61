"""Benchmark of the exhibit suite over the timeline store and shared memo.

Times the timing-bound exhibit suite (Table 1, the occupancy decomposition,
Figures 2-4, and all five ablations) three ways:

* ``isolated`` — no persistent store, and every exhibit unit isolated
  from the others' in-process timing memo, so each pays for its own
  simulations;
* ``cold`` — the suite writing through an empty persistent timeline
  store, with the cross-exhibit memo shared: exhibits that evaluate the
  same (program, machine) point reuse one simulation, so the cold pass
  must run strictly fewer pipeline simulations than the isolated one;
* ``warm`` — the same suite against the populated store. Every pipeline
  result is deserialized from the store; the run fails if a single
  pipeline (or functional) simulation happens.

Every exhibit's *formatted output* must be byte-identical across the three
passes — the run aborts if not. The record also holds the size of each
program's functional cache entry (program, columnar trace, deadness) and
the warm Figure 3's seconds per functional load: it is the first unit
that reads the parts, so it loads every program's entry. Results land in ``BENCH_exhibits.json``
and the process exits non-zero when the warm speedup over the isolated
pass drops below ``--min-warm-speedup``.

A second head-to-head times the timing loop's chunk memo on a
SimPoint-scale catalogue workload (``--chunk-workload``, bubble-free
machine): the loop with the memo switched off vs with a cold memo vs a
warm memo. All three results must be byte-identical (stats, interval
columns, timeline-store cache key); the cold-memo speedup is gated by
``--min-chunk-speedup``.

    PYTHONPATH=src python tools/bench_exhibits.py
    PYTHONPATH=src python tools/bench_exhibits.py --small   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from tempfile import TemporaryDirectory

from repro.avf.occupancy import AccountingPolicy
from repro.experiments import (
    ablations,
    figure2,
    figure3,
    figure4,
    occupancy,
    table1,
)
from repro.experiments.common import (
    ExperimentSettings,
    clear_caches,
    functional_cache_key,
)
from repro.pipeline import compose
from repro.pipeline.compose import clear_chunk_memos
from repro.pipeline.config import MachineConfig, SquashConfig, Trigger
from repro.pipeline.core import PipelineSimulator, clear_warm_snapshots
from repro.runtime.cache import cache_key
from repro.runtime.context import use_runtime
from repro.workloads.scaled import build_scaled
from repro.workloads.spec2000 import ALL_PROFILES


def exhibit_units(settings, profiles):
    """(name, callable) pairs; each unit returns its formatted exhibit.

    The five ablations count as separate units, so the isolated pass
    runs each of them without the other units' timing runs.
    """
    return [
        ("table1", lambda: table1.format_result(
            table1.run(settings, profiles))),
        ("occupancy", lambda: occupancy.format_result(
            occupancy.run(settings, profiles))),
        ("figure2", lambda: figure2.format_result(
            figure2.run(settings, profiles))),
        ("figure3", lambda: figure3.format_result(
            figure3.run(settings, profiles))),
        ("figure4", lambda: figure4.format_result(
            figure4.run(settings, profiles))),
        ("ablation:accounting", lambda: ablations.format_result(
            ablations.accounting_policy(settings, profiles))),
        ("ablation:refetch", lambda: ablations.format_result(
            ablations.refetch_policy(settings, profiles))),
        ("ablation:squash-vs-throttle", lambda: ablations.format_result(
            ablations.squash_vs_throttle(settings, profiles))),
        ("ablation:issue-policy", lambda: ablations.format_result(
            ablations.issue_policy_contrast(settings, profiles))),
        ("ablation:queue-size", lambda: ablations.format_result(
            ablations.queue_size_sweep(settings, profiles))),
    ]


def run_suite(settings, profiles, isolate_units: bool):
    """Run every unit; returns ({name: output}, per-unit seconds)."""
    outputs = {}
    seconds = {}
    for name, unit in exhibit_units(settings, profiles):
        if isolate_units:
            clear_caches()
        started = time.perf_counter()
        outputs[name] = unit()
        seconds[name] = time.perf_counter() - started
    return outputs, seconds


def sim_counters(telemetry):
    """Simulations run, and the results the stores answered instead
    (``functional_loads``: functional parts an exhibit read from the
    persistent cache; ``timeline_loads``: stored pipeline results an
    exhibit read, each decoded on first use)."""
    return {name: telemetry.counters[name]
            for name in ("pipeline_sims", "functional_sims",
                         "timeline_store_hits", "functional_loads",
                         "timeline_loads")}


def _chunk_identical(a, b):
    """True when two timing results are indistinguishable downstream."""
    ta, tb = a.intervals, b.intervals
    return (a.cycles == b.cycles and a.stats == b.stats
            and list(ta.seq) == list(tb.seq)
            and list(ta.alloc) == list(tb.alloc)
            and list(ta.issue) == list(tb.issue)
            and list(ta.dealloc) == list(tb.dealloc)
            and cache_key(a) == cache_key(b))


def run_memo_off(sim):
    """The timing loop with its chunk-memo predicate patched to refuse."""
    memo_pays = compose._memo_pays
    compose._memo_pays = lambda config, trace: False
    try:
        return sim.run()
    finally:
        compose._memo_pays = memo_pays


def bench_chunk_memo(workload: str, seed: int):
    """Memo off vs cold memo vs warm memo, on a bubble-free machine.

    The memo engages only without fetch bubbles: its payoff case is
    draw-free chunk repetition. All three sides run through
    ``PipelineSimulator.run``, as production does, so all three pause
    the garbage collector the same way.
    """
    program, trace = build_scaled(workload)
    machine = MachineConfig(fetch_bubble_prob=0.0,
                            squash=SquashConfig(trigger=Trigger.L1_MISS))

    def sim():
        return PipelineSimulator(program, trace, machine, seed=seed)

    clear_chunk_memos()
    started = time.perf_counter()
    plain = run_memo_off(sim())
    memo_off_s = time.perf_counter() - started

    before = (compose.chunk_memo_hits, compose.chunk_memo_misses,
              compose.chunk_memo_fallbacks, compose.chunk_memo_splices)
    started = time.perf_counter()
    cold = sim().run()
    cold_s = time.perf_counter() - started
    started = time.perf_counter()
    warm = sim().run()
    warm_s = time.perf_counter() - started
    after = (compose.chunk_memo_hits, compose.chunk_memo_misses,
             compose.chunk_memo_fallbacks, compose.chunk_memo_splices)
    counters = dict(zip(("hits", "misses", "fallbacks", "splices"),
                        (b - a for a, b in zip(before, after))))
    clear_chunk_memos()
    return {
        "workload": workload,
        "rows": len(trace),
        "seconds": {"memo_off": round(memo_off_s, 3),
                    "cold": round(cold_s, 3),
                    "warm": round(warm_s, 3)},
        "speedup": {
            "cold_vs_memo_off": round(memo_off_s / cold_s, 2)
            if cold_s > 0 else float("inf"),
            "warm_vs_memo_off": round(memo_off_s / warm_s, 2)
            if warm_s > 0 else float("inf"),
        },
        "memo": counters,
        "outputs_identical": (_chunk_identical(plain, cold)
                              and _chunk_identical(plain, warm)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Time the exhibit suite over the timeline store; "
                    "record BENCH_exhibits.json.")
    parser.add_argument("--instructions", type=int, default=20_000)
    parser.add_argument("--profiles", type=int, default=None,
                        help="benchmark profile count (default: all 26)")
    parser.add_argument("--seed", type=int, default=2004)
    parser.add_argument("--small", action="store_true",
                        help="CI preset: 6 profiles x 6000 instructions")
    parser.add_argument("--min-warm-speedup", type=float, default=10.0)
    parser.add_argument("--chunk-workload", default=None,
                        help="scaled workload for the chunk-memo "
                             "head-to-head (default: mcf-2m, or "
                             "mcf-200k under --small)")
    parser.add_argument("--min-chunk-speedup", type=float, default=1.5,
                        help="required cold-memo speedup over the memo-off "
                             "loop on --chunk-workload")
    parser.add_argument("--output", default="BENCH_exhibits.json")
    args = parser.parse_args()
    if args.small:
        args.instructions = min(args.instructions, 6000)
        args.profiles = min(args.profiles or 6, 6)
    if args.chunk_workload is None:
        args.chunk_workload = "mcf-200k" if args.small else "mcf-2m"

    settings = ExperimentSettings(target_instructions=args.instructions,
                                  seed=args.seed)
    profiles = list(ALL_PROFILES)
    if args.profiles is not None:
        step = max(1, len(profiles) // args.profiles)
        profiles = profiles[::step][:args.profiles]
    print(f"suite: {len(profiles)} profiles x {args.instructions} "
          f"instructions, {len(exhibit_units(settings, profiles))} "
          f"exhibit units")

    def fresh():
        clear_caches()
        clear_warm_snapshots()

    # ---- isolated pass: no store, isolated units -------------------------
    fresh()
    with use_runtime() as context:
        started = time.perf_counter()
        isolated_out, isolated_units = run_suite(settings, profiles,
                                                 isolate_units=True)
        isolated_s = time.perf_counter() - started
        isolated_sims = sim_counters(context.telemetry)
    print(f"isolated (no store, no shared memo): {isolated_s:.2f}s  "
          f"{isolated_sims}")

    with TemporaryDirectory(prefix="bench-timeline-") as store_dir:
        # ---- cold pass: empty store, shared memo ------------------------
        fresh()
        with use_runtime(cache_dir=store_dir) as context:
            started = time.perf_counter()
            cold_out, cold_units = run_suite(settings, profiles,
                                             isolate_units=False)
            cold_s = time.perf_counter() - started
            cold_sims = sim_counters(context.telemetry)
            entry_bytes = {
                profile.name: context.cache.path_for(functional_cache_key(
                    profile, settings)).stat().st_size
                for profile in profiles}
        print(f"cold (empty store, shared memo): {cold_s:.2f}s  "
              f"{cold_sims}")
        print(f"functional entries: {sum(entry_bytes.values())} bytes "
              f"over {len(entry_bytes)} programs")

        # ---- warm pass: populated store ---------------------------------
        fresh()
        with use_runtime(cache_dir=store_dir) as context:
            started = time.perf_counter()
            warm_out, warm_units = run_suite(settings, profiles,
                                             isolate_units=False)
            warm_s = time.perf_counter() - started
            warm_sims = sim_counters(context.telemetry)
        print(f"warm (populated store): {warm_s:.2f}s  {warm_sims}")
    per_load_s = (warm_units["figure3"] / warm_sims["functional_loads"]
                  if warm_sims["functional_loads"] else None)
    fresh()

    # ---- chunk-memo head-to-head on a SimPoint-scale workload -----------
    chunk = bench_chunk_memo(args.chunk_workload, args.seed)
    print(f"chunk memo ({chunk['workload']}, {chunk['rows']} rows): "
          f"memo off {chunk['seconds']['memo_off']:.2f}s, "
          f"cold {chunk['seconds']['cold']:.2f}s "
          f"({chunk['speedup']['cold_vs_memo_off']:.2f}x), "
          f"warm {chunk['seconds']['warm']:.2f}s "
          f"({chunk['speedup']['warm_vs_memo_off']:.2f}x)  "
          f"{chunk['memo']}")

    failures = []
    for name in isolated_out:
        if cold_out[name] != isolated_out[name]:
            failures.append(f"cold output differs from isolated for {name}")
        if warm_out[name] != isolated_out[name]:
            failures.append(f"warm output differs from isolated for {name}")
    if cold_sims["pipeline_sims"] >= isolated_sims["pipeline_sims"]:
        failures.append(
            f"cold pass ran {cold_sims['pipeline_sims']} pipeline "
            f"simulations, not fewer than the isolated pass's "
            f"{isolated_sims['pipeline_sims']}: the shared memo reused "
            f"nothing")
    if warm_sims["pipeline_sims"]:
        failures.append(
            f"warm pass ran {warm_sims['pipeline_sims']} pipeline "
            f"simulations; the store must serve all of them")
    if warm_sims["timeline_store_hits"] <= 0:
        failures.append("warm pass never hit the timeline store")
    speedup_cold = isolated_s / cold_s if cold_s > 0 else float("inf")
    speedup_warm = isolated_s / warm_s if warm_s > 0 else float("inf")
    if speedup_warm < args.min_warm_speedup:
        failures.append(f"warm speedup {speedup_warm:.2f}x below the "
                        f"required {args.min_warm_speedup:.2f}x")
    if not chunk["outputs_identical"]:
        failures.append("memo-engaged run is not byte-identical to the "
                        "memo-off loop")
    if chunk["speedup"]["cold_vs_memo_off"] < args.min_chunk_speedup:
        failures.append(
            f"chunk-memo cold speedup "
            f"{chunk['speedup']['cold_vs_memo_off']:.2f}x below the "
            f"required {args.min_chunk_speedup:.2f}x")

    record = {
        "suite": {
            "profiles": len(profiles),
            "instructions": args.instructions,
            "seed": args.seed,
            "units": [name for name, _ in exhibit_units(settings, profiles)],
            "accounting_policies": [p.value for p in AccountingPolicy],
        },
        "seconds": {"isolated_suite": round(isolated_s, 3),
                    "cold_suite": round(cold_s, 3),
                    "warm_suite": round(warm_s, 3)},
        "per_unit_seconds": {
            "isolated": {k: round(v, 3) for k, v in isolated_units.items()},
            "cold": {k: round(v, 3) for k, v in cold_units.items()},
            "warm": {k: round(v, 3) for k, v in warm_units.items()},
        },
        "simulations": {"isolated": isolated_sims, "cold": cold_sims,
                        "warm": warm_sims},
        "functional_entries": {
            "bytes": entry_bytes,
            "total_bytes": sum(entry_bytes.values()),
            "warm_figure3_per_load_s": (None if per_load_s is None
                                        else round(per_load_s, 4)),
        },
        "speedup": {"cold_vs_isolated": round(speedup_cold, 2),
                    "warm_vs_isolated": round(speedup_warm, 2)},
        "outputs_identical": not any("differs" in f for f in failures),
        "chunk_memo": chunk,
        "requirements": {"cold_sims_below_isolated": True,
                         "min_warm_speedup": args.min_warm_speedup,
                         "min_chunk_speedup": args.min_chunk_speedup},
        "host": {"machine": platform.machine(), "cores": os.cpu_count(),
                 "python": platform.python_version()},
        "passed": not failures,
    }
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n")
    print(f"cold {speedup_cold:.2f}x, warm {speedup_warm:.2f}x vs isolated "
          f"-> {args.output}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
