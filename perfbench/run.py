"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload exhibits --seed 1 --seconds 5 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
and scratch files go to ``.perfbench/``. With ``--trace 0`` the metrics
are the end-to-end metrics of ``BENCHMARK.json``, each the median over
the repetitions that fit in ``--seconds`` (at least one, or the
workload's ``min_reps``), with every time scaled to a reference host
speed (``perfbench/clock.py``). With
``--trace 1`` the run makes a warm-up repetition, then a traced one
between two untraced ones, and the metrics are the per-layer metrics:
span self times, program counter deltas and ratios, with
``other.self_s`` the remainder, so that the self times sum to
``trace.wall_s``. The spans are written as
Chrome trace-event JSON to ``.perfbench/trace-<workload>-<seed>.json``.
A run whose outputs fail a check prints ``"correct": false`` and exits 1;
a run that cannot start prints no result and exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.clock import HostClock, WallClock  # noqa: E402
from perfbench.common import Checks, peak_rss_mb  # noqa: E402
from perfbench.stats import (  # noqa: E402
    counter_delta,
    ratio,
    validate_metric_name,
)

#: Spans recorded around the program's entry points, by layer.
LAYER_SPANS = (
    "workloads.synthesize", "arch.run", "analysis.deadness", "pipeline.run",
    "avf.compute", "experiments", "runtime.cache.get", "runtime.cache.put",
    "faults.campaign", "serve.client",
)


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            validate_metric_name(metric["name"])
    return spec


def workload_class(name: str):
    from perfbench.campaign import Campaign
    from perfbench.exhibits import Exhibits
    from perfbench.longtrace import LongTrace
    from perfbench.serve import Serve

    return {w.name: w for w in (Exhibits, Campaign, LongTrace, Serve)}[name]


#: The program's packages every workload imports.
PROGRAM_MODULES = ("repro.experiments.common", "repro.faults.campaign",
                   "repro.serve.client")
IMPORT_REPEATS = 3


def import_seconds(clock) -> float:
    """Median time to start an interpreter and import the program.

    Part of every workload's set-up; timed in fresh interpreters, since
    this process can import a module only once.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "-c",
               "import " + ", ".join(PROGRAM_MODULES)]
    times = []
    for _ in range(IMPORT_REPEATS):
        clock.start()
        subprocess.run(command, cwd=ROOT, env=env, check=True)
        times.append(clock.stop())
    return statistics.median(times)


def untraced(workload, seconds: float) -> dict:
    cold, warm = [], []
    started = time.perf_counter()
    rep = 0
    while True:
        values = workload.measure(rep)
        cold.append(values["cold_s"])
        warm.append(values["warm_s"])
        print(f"# repetition {rep}: cold_s {values['cold_s']:.6g} "
              f"warm_s {values['warm_s']:.6g}")
        rep += 1
        if time.perf_counter() - started >= seconds \
                and rep >= workload.min_reps:
            break
    return {"cold_s": statistics.median(cold),
            "warm_s": statistics.median(warm)}


#: Counters read over the cold phase only: on long-trace the warm phase
#: replays the memo the cold phase recorded, which would mix replay hits
#: into a figure that ``exhibits`` (whose warm phase simulates nothing)
#: reports cold only.
COLD_PHASE_COUNTERS = ("pipeline.memo.hits", "pipeline.memo.misses",
                       "pipeline.memo.fallbacks", "pipeline.memo.splices",
                       "pipeline.sim_cycles", "pipeline.sim_insts")


def _timed(call, *args) -> float:
    started = time.perf_counter()
    call(*args)
    return time.perf_counter() - started


def traced(workload, run_id: str, trace_path: Path, checks: Checks) -> dict:
    """Per-layer metrics of one traced repetition.

    Repetition 0 pays the process's first-call costs and is not used.
    The traced repetition is bracketed by two untraced ones of the same
    phases; the overhead is its wall time minus their mean, so a steady
    drift of the host's speed cancels. The open-loop sweep, whose length
    depends on where the latency limit is crossed, runs after the traced
    phases and is kept out of the comparison.
    """
    from perfbench.tracing import Recorder, wrapper_cost

    workload.measure(0)
    untraced_walls = [_timed(workload.measure, 1)]

    recorder = Recorder(run_id, probe=workload.counters)
    workload.instrument(recorder)
    try:
        before = workload.counters()
        with recorder.span("other") as root:
            traced_wall = _timed(workload.measure, 2, recorder)
            if hasattr(workload, "sweep"):
                workload.sweep(recorder)
        after = workload.counters()
    finally:
        recorder.restore()
    recorder.write_chrome_trace(trace_path)

    wall = root["end"] - root["start"]
    layers = recorder.layers()
    metrics = {"trace.wall_s": wall, "trace.measured_s": traced_wall}
    other = sum(entry["self_s"] for name, entry in layers.items()
                if name == "other" or name.startswith("phase."))
    metrics["other.self_s"] = other
    attributed = other
    for name in LAYER_SPANS:
        entry = layers.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = entry["calls"]
        metrics[f"{name}.self_s"] = entry["self_s"]
        attributed += entry["self_s"]
    checks.expect(abs(attributed - wall) <= 1e-6 * max(1.0, wall),
                  f"layer self times sum to {attributed}, not {wall}")

    metrics.update(counter_delta(before, after))
    cold = recorder.phase_deltas.get("phase.cold", {})
    metrics.update({name: cold.get(name, 0) for name in COLD_PHASE_COUNTERS})
    warm = recorder.phase_deltas.get("phase.warm", {})
    metrics["pipeline.memo.warm_hit_ratio"] = ratio(
        warm.get("pipeline.memo.hits", 0),
        warm.get("pipeline.memo.hits", 0)
        + warm.get("pipeline.memo.misses", 0))
    metrics["pipeline.run.cold_self_s"] = recorder.self_times_within(
        "phase.cold").get("pipeline.run", 0.0)
    metrics.update(workload.layer_metrics(recorder))
    metrics.update({name: value for name, (value, _unit)
                    in workload.summary.items()})
    _derive(metrics, recorder)

    # Taken after the metrics above: this repetition adds to the
    # workload's own tallies.
    untraced_walls.append(_timed(workload.measure, 3))
    untraced_wall = statistics.fmean(untraced_walls)
    print(f"# untraced {untraced_walls[0]:.6g} s, traced {traced_wall:.6g} s, "
          f"untraced {untraced_walls[1]:.6g} s")
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.wrapper_cost_s"] = len(recorder.spans) * wrapper_cost()
    return metrics


def _derive(metrics: dict, recorder) -> None:
    """Ratios and shares computed from the counters and spans."""
    get = metrics.get
    metrics["pipeline.memo.hit_ratio"] = ratio(
        get("pipeline.memo.hits", 0),
        get("pipeline.memo.hits", 0) + get("pipeline.memo.misses", 0))
    metrics["memory.warm.hit_ratio"] = ratio(
        get("memory.warm.hits", 0),
        get("memory.warm.hits", 0) + get("memory.warm.misses", 0))
    metrics["faults.batch.vector_kill_ratio"] = ratio(
        get("faults.batch.vector_kills", 0), get("faults.batch.trials", 0))
    metrics["faults.oracle.reexec_ratio"] = ratio(
        get("faults.oracle.executions", 0), get("faults.campaign.trials", 0))
    metrics["pipeline.host_s_per_kinst"] = ratio(
        get("pipeline.run.cold_self_s", 0.0),
        get("pipeline.sim_insts", 0) / 1000)
    warm = recorder.self_times_within("phase.warm")
    metrics["runtime.cache.get.warm_share"] = ratio(
        warm.get("runtime.cache.get", 0.0), sum(warm.values()))


def emit(spec: dict, group: str, values: dict, checks: Checks) -> None:
    """Print one line per metric, then the result object as the last line."""
    declared = {m["name"]: m["unit"] for m in spec[group]}
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {}
    for name, unit in declared.items():
        value = float(values.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:40s} {value:14.6g} {unit}")
    for message in checks.messages:
        print(f"CHECK FAILED: {message}")
    print(json.dumps({"correct": checks.correct,
                      "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; known: {names}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)

    # End-to-end times are scaled to a reference host speed, and every
    # process of the run (this one, the import probes, campaign workers,
    # the server) shares one core, so that the clock's reference loop
    # times the core that does all of the work. Traced runs time plain
    # wall seconds on every core, with no reference loops among the spans.
    if args.trace:
        clock = WallClock()
    else:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        clock = HostClock()
    import_s = import_seconds(clock)
    checks = Checks()
    workload = workload_class(args.workload)(args.seed, scratch, checks,
                                             clock)
    try:
        setup_s = import_s + statistics.median(workload.setup())
        if args.trace:
            run_id = f"{args.workload}-{args.seed}-{time.time_ns()}"
            values = traced(workload, run_id, scratch / (
                f"trace-{args.workload}-{args.seed}.json"), checks)
            group = "per_layer"
        else:
            values = untraced(workload, args.seconds)
            values["setup_s"] = setup_s
            group = "end_to_end"
        if hasattr(workload, "finish"):
            workload.finish()
        if group == "end_to_end":
            values["peak_rss_mb"] = (workload.peak_rss_mb()
                                     if hasattr(workload, "peak_rss_mb")
                                     else peak_rss_mb())
            for name, (value, unit) in workload.summary.items():
                print(f"# {name} {value:.6g} {unit} (per-layer metric)")
    finally:
        workload.close()
    emit(spec, group, values, checks)
    return 0 if checks.correct else 1


if __name__ == "__main__":
    sys.exit(main())
