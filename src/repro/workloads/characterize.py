"""Workload characterization: what each synthetic benchmark looks like.

Real reproduction studies publish a characterization table next to their
results so readers can judge the workloads; this module computes one per
profile — dynamic instruction mix, cache-miss rates, branch behaviour and
the dead-code composition — from actual simulation, not from the knobs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.deadcode import DEAD_CLASSES, DynClass
from repro.experiments.common import ExperimentSettings, run_benchmark
from repro.isa.opcodes import InstrClass
from repro.pipeline.config import Trigger
from repro.util.tables import format_table
from repro.workloads.profile import BenchmarkProfile
from repro.workloads.spec2000 import ALL_PROFILES


@dataclass
class WorkloadCharacter:
    """Measured properties of one benchmark's dynamic behaviour."""

    name: str
    suite: str
    instructions: int
    ipc: float
    neutral_frac: float
    load_frac: float
    store_frac: float
    branch_frac: float
    pred_false_frac: float
    dead_frac: float
    l0_miss_per_kilo: float
    l1_miss_per_kilo: float
    mispredict_rate: float

    @classmethod
    def measure(cls, profile: BenchmarkProfile,
                settings: ExperimentSettings) -> "WorkloadCharacter":
        bench = run_benchmark(profile, settings, Trigger.NONE)
        trace = bench.execution.trace
        total = max(1, len(trace))
        classes = Counter(instruction.instr_class
                          for instruction in trace.row_instructions())
        stats = bench.pipeline.stats
        predictions = max(1, stats.get("branch_predictions", 0))
        kilo = total / 1000.0
        return cls(
            name=profile.name,
            suite=profile.suite,
            instructions=total,
            ipc=bench.pipeline.ipc,
            neutral_frac=classes[InstrClass.NEUTRAL] / total,
            load_frac=classes[InstrClass.LOAD] / total,
            store_frac=classes[InstrClass.STORE] / total,
            branch_frac=(classes[InstrClass.BRANCH] + classes[InstrClass.CALL]
                         + classes[InstrClass.RET]) / total,
            pred_false_frac=int((~trace.executed).sum()) / total,
            dead_frac=bench.deadness.dead_fraction(),
            l0_miss_per_kilo=stats.get("l0_misses", 0) / kilo,
            l1_miss_per_kilo=stats.get("l1_misses", 0) / kilo,
            mispredict_rate=stats.get("branch_mispredictions", 0)
            / predictions,
        )


def characterize(
    settings: Optional[ExperimentSettings] = None,
    profiles: Optional[Sequence[BenchmarkProfile]] = None,
) -> List[WorkloadCharacter]:
    settings = settings or ExperimentSettings()
    profiles = list(profiles or ALL_PROFILES)
    return [WorkloadCharacter.measure(profile, settings)
            for profile in profiles]


def format_characterization(rows: Sequence[WorkloadCharacter]) -> str:
    table = format_table(
        headers=["Benchmark", "IPC", "neutral", "loads", "stores",
                 "branches", "pred-false", "dead", "L0 m/Ki", "L1 m/Ki",
                 "mispredict"],
        rows=[[r.name, f"{r.ipc:.2f}", f"{r.neutral_frac:.1%}",
               f"{r.load_frac:.1%}", f"{r.store_frac:.1%}",
               f"{r.branch_frac:.1%}", f"{r.pred_false_frac:.1%}",
               f"{r.dead_frac:.1%}", f"{r.l0_miss_per_kilo:.1f}",
               f"{r.l1_miss_per_kilo:.1f}", f"{r.mispredict_rate:.1%}"]
              for r in rows],
        title="Workload characterization (measured, not configured)",
    )

    def mean(get, suite):
        values = [get(r) for r in rows if r.suite == suite]
        return sum(values) / len(values) if values else 0.0

    summary = (
        f"suite means: neutral int {mean(lambda r: r.neutral_frac, 'int'):.1%}"
        f" / fp {mean(lambda r: r.neutral_frac, 'fp'):.1%}; "
        f"mispredict int {mean(lambda r: r.mispredict_rate, 'int'):.1%}"
        f" / fp {mean(lambda r: r.mispredict_rate, 'fp'):.1%}; "
        f"dead overall "
        f"{sum(r.dead_frac for r in rows) / len(rows):.1%}"
    )
    return f"{table}\n\n{summary}"
