"""``exhibits``: regenerate Table 1 cold, then warm from the result cache.

The researcher's regenerate-the-paper path. The cold pass writes every
functional and timing result into an empty result cache; each warm pass
drops the in-process memos and answers the same exhibit from that cache.
"""

from __future__ import annotations

import random
import shutil
import statistics
from pathlib import Path
from typing import Dict, List

from perfbench.common import (
    DEFAULT_SEED,
    Checks,
    load_expected,
    phase,
    program_counters,
    reset_program_state,
    sha256_text,
)

INSTRUCTIONS = 20_000
#: Warm passes per cold pass: a warm pass takes about a seventh of a
#: cold one, so its median over three costs little and steadies
#: ``warm_s``.
WARM_REPEATS = 3

#: The 26 profiles in order of cold Table 1 cost at 20k instructions,
#: measured once (1.0 to 1.7 s each on a 2-core x86-64 host). Picking one
#: profile from each consecutive group of three keeps the cost of every
#: seed's third within a few percent of every other's.
COST_ORDER = (
    "eon-kajiya", "equake", "mgrid", "lucas", "apsi", "fma3d", "swim",
    "crafty", "bzip2-source", "cc-200", "perlbmk-makerand", "mcf",
    "applu", "mesa", "parser", "galgel", "gap", "vortex-lendian3",
    "facerec", "wupwise", "gzip-graphic", "ammp", "art-110", "sixtrack",
    "vpr-route", "twolf",
)

#: Table 1 of the paper: (SDC AVF, DUE AVF) per design point, in order.
PAPER_TABLE1 = ((0.29, 0.62), (0.22, 0.51), (0.19, 0.48))


def choose_profiles(seed: int) -> List[str]:
    """One profile from each cost stratum of three: a third of the 26."""
    rng = random.Random(seed)
    strata = [COST_ORDER[i:i + 3] for i in range(0, len(COST_ORDER), 3)]
    return [rng.choice(stratum) for stratum in strata]


def table1_error_pp(result) -> float:
    """Mean absolute error of the SDC/DUE AVFs against the paper, in pp."""
    errors = []
    for row, (sdc, due) in zip(result.rows, PAPER_TABLE1):
        errors.append(abs(row.sdc_avf - sdc) * 100)
        errors.append(abs(row.due_avf - due) * 100)
    return statistics.fmean(errors)


class Exhibits:
    name = "exhibits"
    min_reps = 1

    def __init__(self, seed: int, scratch: Path, checks: Checks,
                 clock) -> None:
        self.seed = seed
        self.clock = clock
        self.scratch = scratch
        self.checks = checks
        self.caches = []
        self.summary: Dict[str, tuple] = {}
        self.sim = {"cycles": 0, "insts": 0}

    def setup(self) -> List[float]:
        from repro.experiments import table1
        from repro.experiments.common import ExperimentSettings
        from repro.runtime.telemetry import Telemetry
        from repro.workloads.spec2000 import get_profile

        self.clock.start()
        self.table1 = table1
        self.settings = ExperimentSettings(target_instructions=INSTRUCTIONS)
        self.profiles = [get_profile(n) for n in choose_profiles(self.seed)]
        self.telemetry = Telemetry()
        return [self.clock.stop()]

    def _pass(self, cache) -> tuple:
        from repro.runtime.context import use_runtime

        with use_runtime(cache=cache, telemetry=self.telemetry):
            self.clock.start()
            result = self.table1.run(self.settings, self.profiles)
            text = self.table1.format_result(result)
            return self.clock.stop(), result, text

    def measure(self, rep: int, recorder=None) -> Dict[str, float]:
        from repro.runtime.cache import ResultCache

        store = self.scratch / f"exhibits-cache-{rep}"
        shutil.rmtree(store, ignore_errors=True)
        cache = ResultCache(store)
        self.caches.append(cache)
        try:
            reset_program_state()
            with phase(recorder, "phase.cold"):
                cold_s, result, cold_text = self._pass(cache)
            sims_before = self.telemetry.counters["pipeline_sims"]
            warm = []
            for _ in range(WARM_REPEATS):
                reset_program_state()
                with phase(recorder, "phase.warm"):
                    warm.append(self._pass(cache))
            warm_sims = self.telemetry.counters["pipeline_sims"] - sims_before
        finally:
            shutil.rmtree(store, ignore_errors=True)
        reset_program_state()
        self.checks.op(
            self.seed != DEFAULT_SEED or sha256_text(cold_text)
            == load_expected(self.name)["table1_sha256"],
            "cold Table 1 differs from the pinned default-seed digest")
        for _, _, warm_text in warm:
            self.checks.op(warm_text == cold_text and warm_sims == 0,
                           f"warm Table 1 differs from the cold pass or "
                           f"the warm passes ran {warm_sims} pipeline "
                           f"simulations")
        error = table1_error_pp(result)
        self.summary = {"table1_err_pp": (error, "pp")}
        return {"cold_s": cold_s,
                "warm_s": statistics.median(t for t, _, _ in warm)}

    def instrument(self, recorder) -> None:
        from repro.arch.executor import FunctionalSimulator
        from repro.experiments import common, table1
        from repro.pipeline.core import PipelineSimulator
        from repro.runtime.cache import ResultCache

        self.arch_insts = 0
        self.sim = {"cycles": 0, "insts": 0}
        self.cache_bytes = {"get": 0, "put": 0}

        def count_arch(result, *args, **kwargs):
            self.arch_insts += result.instruction_count

        def count_pipeline(result, *args, **kwargs):
            self.sim["cycles"] += result.cycles
            self.sim["insts"] += result.committed

        def count_bytes(op):
            def hook(result, cache, key, *rest, **kwargs):
                path = cache.path_for(key)
                if path.exists():
                    self.cache_bytes[op] += path.stat().st_size
            return hook

        recorder.wrap(table1, "run", "experiments")
        recorder.wrap(common, "synthesize", "workloads.synthesize")
        recorder.wrap(FunctionalSimulator, "run", "arch.run", count_arch)
        recorder.wrap(common, "analyze_deadness", "analysis.deadness")
        recorder.wrap(PipelineSimulator, "run", "pipeline.run",
                      count_pipeline)
        recorder.wrap(common, "compute_iq_avf", "avf.compute")
        recorder.wrap(ResultCache, "get", "runtime.cache.get",
                      count_bytes("get"))
        recorder.wrap(ResultCache, "put", "runtime.cache.put",
                      count_bytes("put"))

    def counters(self):
        return dict(program_counters(self.telemetry, self.caches),
                    **{"pipeline.sim_cycles": self.sim["cycles"],
                       "pipeline.sim_insts": self.sim["insts"]})

    def layer_metrics(self, recorder) -> Dict[str, float]:
        return {
            "arch.committed_insts": self.arch_insts,
            "runtime.cache.get.bytes": self.cache_bytes["get"],
            "runtime.cache.put.bytes": self.cache_bytes["put"],
        }

    def close(self) -> None:
        pass
