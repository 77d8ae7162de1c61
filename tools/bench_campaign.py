"""Before/after benchmark of the strike-evaluation fast path.

Times one parity fault-injection campaign three ways on the same
workload and strike sequence:

* ``seed`` — the seed-era loop, taken from the per-trial reference in
  ``tests/strike_reference.py``: one throwaway evaluator per trial, no
  memoization, no static filter, and every committed read strike
  re-executed from the program's entry by the per-step reference
  interpreter (``tests/arch_reference.py``). No production code times
  this pass, so the ratios move only with the fast path;
* ``cold`` — the production campaign with an empty effect oracle (memo
  + static filter fill in as the campaign runs, and the table is
  persisted through the result cache); its record names the layer that
  moves it, oracle re-execution: the instructions the re-executions
  replayed and that count per second of the cold pass;
* ``warm`` — the same campaign re-run against the persisted oracle
  table. The campaign *tally* cache entry is deleted first so all trials
  genuinely run; only per-strike re-execution is skipped.

All paths must produce bit-identical outcome tallies — the run aborts
if they do not. Results land in ``BENCH_campaign.json`` and the process
exits non-zero when the warm speedup drops below ``--min-speedup``.

    PYTHONPATH=src python tools/bench_campaign.py
    PYTHONPATH=src python tools/bench_campaign.py \
        --trials 200 --instructions 8000 --min-speedup 1.5
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from collections import Counter
from pathlib import Path
from tempfile import TemporaryDirectory

from repro.due.tracking import TrackingLevel
from repro.experiments.common import ExperimentSettings, run_benchmark
from repro.faults.campaign import CampaignConfig, campaign_key, run_campaign
from repro.pipeline.config import Trigger
from repro.runtime.context import use_runtime
from repro.workloads.spec2000 import get_profile

# The seed-era pass runs the test suite's per-trial reference.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.strike_reference import (  # noqa: E402
    StrikeModel,
    evaluate_strike,
    sample_strike,
)


def seed_slow_path(run, config):
    """The seed-era campaign loop: per-trial evaluator, no fast path."""
    sampler = StrikeModel(run.pipeline)
    counts: Counter = Counter()
    for index in range(config.trials):
        verdict = evaluate_strike(
            sample_strike(sampler, config, run.program.name, index),
            run.program, run.execution,
            parity=config.parity, tracking=config.tracking,
            pet_entries=config.pet_entries, ecc=config.ecc,
            reference_interpreter=True)
        counts[verdict.outcome] += 1
    return counts


def timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def oracle_counters(telemetry):
    return {name: telemetry.counters[name]
            for name in ("oracle_memo_hits", "oracle_static_kills",
                         "oracle_executions", "oracle_replayed_insts",
                         "oracle_converged")}


def batch_counters(telemetry):
    return {name: telemetry.counters[name]
            for name in ("batch_trials", "batch_vector_kills",
                         "batch_scalar_kills", "batch_reexecutions")}


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Time the strike-evaluation fast path against the "
                    "seed-era slow path and record BENCH_campaign.json.")
    parser.add_argument("--benchmark", default="crafty")
    parser.add_argument("--instructions", type=int, default=12_000)
    parser.add_argument("--trials", type=int, default=500)
    parser.add_argument("--seed", type=int, default=2004)
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="required warm-vs-seed wall-clock ratio "
                             "(default 3.0)")
    parser.add_argument("--output", default="BENCH_campaign.json")
    args = parser.parse_args()

    settings = ExperimentSettings(target_instructions=args.instructions,
                                  seed=args.seed)
    config = CampaignConfig(trials=args.trials, seed=args.seed, parity=True,
                            tracking=TrackingLevel.PARITY_ONLY)
    run = run_benchmark(get_profile(args.benchmark), settings, Trigger.NONE)
    print(f"workload: {args.benchmark} x{args.instructions} "
          f"({len(run.execution.trace)} committed), "
          f"{args.trials}-trial parity campaign")

    golden, seed_s = timed(lambda: seed_slow_path(run, config))
    print(f"seed slow path: {seed_s:.2f}s")

    with TemporaryDirectory(prefix="bench-oracle-") as cache_dir:
        with use_runtime(cache_dir=cache_dir) as context:
            cold, cold_s = timed(lambda: run_campaign(
                run.program, run.execution, run.pipeline, config))
            cold_oracle = oracle_counters(context.telemetry)
        print(f"cold fast path: {cold_s:.2f}s  {cold_oracle}")

        with use_runtime(cache_dir=cache_dir) as context:
            # Drop the tally entry (keep the oracle table) so the warm
            # run re-evaluates every trial against the persisted memo.
            tally_key = campaign_key(run.program, run.execution,
                                     run.pipeline, config)
            context.cache.path_for(tally_key).unlink()
            warm, warm_s = timed(lambda: run_campaign(
                run.program, run.execution, run.pipeline, config))
            warm_oracle = oracle_counters(context.telemetry)
            warm_batch = batch_counters(context.telemetry)
        print(f"warm fast path: {warm_s:.2f}s  {warm_oracle}  {warm_batch}")

    failures = []
    if cold.counts != golden or warm.counts != golden:
        failures.append("fast-path tallies differ from the seed slow path")
    if warm_oracle["oracle_memo_hits"] <= 0:
        failures.append("warm run never hit the persisted oracle")
    if warm_batch["batch_trials"] != args.trials:
        failures.append("warm run did not classify every trial through "
                        "the strike classifier")
    speedup_warm = seed_s / warm_s if warm_s > 0 else float("inf")
    speedup_cold = seed_s / cold_s if cold_s > 0 else float("inf")
    replayed = cold_oracle["oracle_replayed_insts"]
    if speedup_warm < args.min_speedup:
        failures.append(f"warm speedup {speedup_warm:.2f}x below the "
                        f"required {args.min_speedup:.2f}x")

    record = {
        "benchmark": args.benchmark,
        "instructions": args.instructions,
        "committed": len(run.execution.trace),
        "trials": args.trials,
        "campaign": {"parity": True, "tracking": "PARITY_ONLY",
                     "seed": args.seed},
        "seconds": {"seed_slow_path": round(seed_s, 3),
                    "cold_fast_path": round(cold_s, 3),
                    "warm_fast_path": round(warm_s, 3)},
        "speedup": {"cold_vs_seed": round(speedup_cold, 2),
                    "warm_vs_seed": round(speedup_warm, 2)},
        "oracle": {"cold": cold_oracle, "warm": warm_oracle},
        "replay": {"cold_replayed_insts": replayed,
                   "cold_replayed_insts_per_s": round(replayed / cold_s)
                   if cold_s > 0 else None},
        "batch": warm_batch,
        "tallies_identical": (cold.counts == golden
                              and warm.counts == golden),
        "min_speedup_required": args.min_speedup,
        "host": {"machine": platform.machine(), "cores": os.cpu_count(),
                 "python": platform.python_version()},
        "passed": not failures,
    }
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n")
    print(f"cold {speedup_cold:.2f}x, warm {speedup_warm:.2f}x vs seed "
          f"-> {args.output}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
