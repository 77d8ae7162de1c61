"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload exhibits --seeds 1-10

For every end-to-end metric this prints the median of the runs and the
inter-quartile distance as a share of that median (the steadiness rule
the bounds in ``BENCHMARK.json`` are checked against), plus the spread
as a share of the metric's bound. Runs are sequential, from the root of
the checkout, with ``run_seconds`` from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.stats import quartile_spread  # noqa: E402


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        for line in lines:
            if line.startswith("# repetition"):
                print(f"seed {seed} {line[2:]}")
        result = json.loads(lines[-1])
        print(f"seed {seed}: exit {proc.returncode} correct "
              f"{result['correct']} failed {result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.4g}"
                  for k, v in result["metrics"].items()), flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    for name, series in values.items():
        if len(series) < 2:
            continue
        spread = quartile_spread(series)
        print(f"{name:32s} median {statistics.median(series):12.6g} "
              f"spread {spread:.4f} = {spread / bounds[name]:.2f} of bound "
              f"{bounds[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
