"""Determinism gate for the FIT design-space sweep exhibit.

Runs the ``fitsweep`` exhibit twice — serial and with a sharded worker
pool — and requires the *formatted text* to be byte-identical: the
multi-bit campaigns underneath ride per-trial seed streams, so any
``--jobs N`` must reproduce the serial tallies bit-for-bit, and the FIT
algebra on top is closed-form.

Results (timings, per-pass campaign counters, the equality verdicts,
and the exhibit text itself) land in ``BENCH_fit.json``; the formatted
exhibit is written to ``benchmarks/results/fitsweep.txt`` so the
committed record tracks what the sweep actually reports.

    PYTHONPATH=src python tools/bench_fit.py
    PYTHONPATH=src python tools/bench_fit.py --small   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.experiments import fitsweep
from repro.experiments.common import ExperimentSettings, clear_caches
from repro.runtime.context import use_runtime


def run_pass(settings, trials, preset, jobs):
    """One full sweep under its own runtime; returns (text, secs, sims)."""
    clear_caches()
    with use_runtime(jobs=jobs) as context:
        started = time.perf_counter()
        result = fitsweep.run(settings, trials=trials, preset_name=preset)
        text = fitsweep.format_result(result)
        seconds = time.perf_counter() - started
        counters = {name: context.telemetry.counters[name]
                    for name in ("campaign_trials", "mbu_multi_bit",
                                 "ecc_corrected", "ecc_detected",
                                 "ecc_escaped")}
    return text, seconds, counters


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Byte-stability gate for the fitsweep exhibit; "
                    "records BENCH_fit.json.")
    parser.add_argument("--instructions", type=int, default=20_000)
    parser.add_argument("--trials", type=int, default=400)
    parser.add_argument("--seed", type=int, default=2004)
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker count for the sharded pass (default 2)")
    parser.add_argument("--preset", default="terrestrial",
                        choices=("terrestrial", "avionics", "space"))
    parser.add_argument("--small", action="store_true",
                        help="CI preset: 6000 instructions x 120 trials")
    parser.add_argument("--output", default="BENCH_fit.json")
    parser.add_argument("--exhibit-output",
                        default="benchmarks/results/fitsweep.txt")
    args = parser.parse_args()
    if args.small:
        args.instructions = min(args.instructions, 6000)
        args.trials = min(args.trials, 120)

    settings = ExperimentSettings(target_instructions=args.instructions,
                                  seed=args.seed)
    print(f"fitsweep: {args.instructions} instructions, {args.trials} "
          f"trials per campaign, preset {args.preset!r}")

    serial_text, serial_s, serial_sims = run_pass(
        settings, args.trials, args.preset, jobs=1)
    print(f"serial: {serial_s:.2f}s  {serial_sims}")
    sharded_text, sharded_s, sharded_sims = run_pass(
        settings, args.trials, args.preset, jobs=args.jobs)
    print(f"jobs={args.jobs}: {sharded_s:.2f}s  {sharded_sims}")
    clear_caches()

    failures = []
    if sharded_text != serial_text:
        failures.append(
            f"jobs={args.jobs} exhibit text differs from serial")
    if sharded_sims != serial_sims:
        failures.append(
            f"jobs={args.jobs} campaign counters differ from serial: "
            f"{sharded_sims} vs {serial_sims}")
    if not serial_sims["mbu_multi_bit"]:
        failures.append("sweep drew no multi-bit bursts; preset not wired")

    exhibit_path = Path(args.exhibit_output)
    exhibit_path.parent.mkdir(parents=True, exist_ok=True)
    exhibit_path.write_text(serial_text + "\n")

    record = {
        "settings": {"instructions": args.instructions,
                     "trials": args.trials, "seed": args.seed,
                     "preset": args.preset, "jobs": args.jobs},
        "seconds": {"serial": round(serial_s, 3),
                    "sharded": round(sharded_s, 3)},
        "counters": serial_sims,
        "byte_identical": {
            "sharded_vs_serial": sharded_text == serial_text,
        },
        "exhibit": args.exhibit_output,
        "host": {"machine": platform.machine(), "cores": os.cpu_count(),
                 "python": platform.python_version()},
        "passed": not failures,
    }
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n")
    print(f"byte-identical across jobs -> {args.output}"
          if not failures else f"-> {args.output}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
