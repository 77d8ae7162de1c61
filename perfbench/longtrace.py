"""``long-trace``: timing runs on the tiled-trace catalogue entries.

The only input on which the chunk memo (``repro.pipeline.compose``) does
most of the work. The cold pass starts from an empty memo; the warm pass
repeats the runs against the memo the cold pass recorded.
"""

from __future__ import annotations

import hashlib
import statistics
from pathlib import Path
from typing import Dict, List

from perfbench.common import (
    Checks,
    load_expected,
    phase,
    program_counters,
    reset_program_state,
)

#: Catalogue entries timed. The 2M-instruction entries spread by more
#: than a quarter between runs on a shared host (and peak at 1.1 GB);
#: at 200k a cold pass still finds 86 % of its chunk lookups in the memo,
#: and a run has time for the repetitions a steady median needs.
WORKLOADS = ("mcf-200k", "equake-200k")
MIN_REPS = 3
SETUP_REPEATS = 3


def interval_digest(result) -> str:
    """sha256 over the columnar interval log of one timing run."""
    timeline = result.timeline
    digest = hashlib.sha256()
    for column in (timeline.seq, timeline.kind, timeline.alloc,
                   timeline.issue, timeline.dealloc):
        digest.update(column.tobytes())
    return digest.hexdigest()


class LongTrace:
    name = "long-trace"
    min_reps = MIN_REPS

    def __init__(self, seed: int, scratch: Path, checks: Checks,
                 clock) -> None:
        # The catalogue entries are fixed; the seed changes nothing here,
        # so the pinned cycles and digests are checked on every seed.
        self.seed = seed
        self.clock = clock
        self.checks = checks
        self.summary: Dict[str, tuple] = {}
        self.build_s = 0.0
        self.sim = {"cycles": 0, "insts": 0}

    def setup(self) -> List[float]:
        from repro.pipeline.config import MachineConfig, SquashConfig, Trigger
        from repro.pipeline.core import PipelineSimulator
        from repro.runtime.telemetry import Telemetry
        from repro.workloads import scaled

        self.simulator = PipelineSimulator
        self.telemetry = Telemetry()
        # The bubble-free machine of the chunk-memo head-to-head: the
        # memo's payoff case is draw-free chunk repetition. Its warmed
        # caches never miss in the L1 on these entries, so the squash
        # runs use the L0 trigger, which does squash (more cycles).
        self.machines = [
            (trigger.name, MachineConfig(
                fetch_bubble_prob=0.0, squash=SquashConfig(trigger=trigger)))
            for trigger in (Trigger.NONE, Trigger.L0_MISS)]
        times = []
        for _ in range(SETUP_REPEATS):
            self.traces = []
            self.clock.start()
            for name in WORKLOADS:
                self.traces.append(
                    (name, scaled.build_scaled(name, cache=False)))
            times.append(self.clock.stop())
        self.build_s = statistics.median(times)
        return times

    def _pass(self) -> tuple:
        from repro.runtime.context import use_runtime

        results = {}
        with use_runtime(telemetry=self.telemetry):
            self.clock.start()
            for name, (program, trace) in self.traces:
                for trigger, machine in self.machines:
                    results[f"{name}/{trigger}"] = self.simulator(
                        program, trace, machine).run()
            elapsed = self.clock.stop()
        outputs = {key: {"cycles": result.cycles,
                         "intervals_sha256": interval_digest(result)}
                   for key, result in results.items()}
        insts = sum(result.committed for result in results.values())
        return elapsed, outputs, insts

    def measure(self, rep: int, recorder=None) -> Dict[str, float]:
        # Each run has its own memo scope (machine, program), so one
        # reset makes every run of the first pass cold and every run of
        # the second pass replay the memo its twin recorded.
        reset_program_state()
        with phase(recorder, "phase.cold"):
            cold_s, cold, insts = self._pass()
        with phase(recorder, "phase.warm"):
            warm_s, warm, _ = self._pass()
        reset_program_state()
        expected = load_expected(self.name)["runs"]
        for key in cold:
            self.checks.op(cold[key] == expected[key],
                           f"{key}: cycles or intervals differ from the "
                           f"pinned values")
            self.checks.op(warm[key] == cold[key],
                           f"{key}: warm-memo run differs from the cold one")
        self.summary = {"pipeline.sim_ips": (insts / cold_s, "1/s"),
                        "pipeline.sim_ips_warm": (insts / warm_s, "1/s")}
        return {"cold_s": cold_s, "warm_s": warm_s}

    def instrument(self, recorder) -> None:
        from repro.pipeline.core import PipelineSimulator

        self.sim = {"cycles": 0, "insts": 0}

        def count_pipeline(result, *args, **kwargs):
            self.sim["cycles"] += result.cycles
            self.sim["insts"] += result.committed

        recorder.wrap(PipelineSimulator, "run", "pipeline.run",
                      count_pipeline)

    def counters(self):
        return dict(program_counters(self.telemetry),
                    **{"pipeline.sim_cycles": self.sim["cycles"],
                       "pipeline.sim_insts": self.sim["insts"]})

    def layer_metrics(self, recorder) -> Dict[str, float]:
        return {"workloads.scaled.build_s": self.build_s}

    def close(self) -> None:
        self.traces = []
