"""``campaign``: fault-injection campaigns fanned out over worker processes.

The Figure 1 / fitsweep validation path: strike draw, batch
classification, oracle re-execution and pi-bit tracking, with no
persistent cache, so every pass injects every trial.
"""

from __future__ import annotations

import os
import random
from pathlib import Path
from typing import Dict, List

from perfbench.common import (
    DEFAULT_SEED,
    Checks,
    load_expected,
    phase,
    program_counters,
    reset_program_state,
    worker_metrics,
)

INSTRUCTIONS = 10_000
#: Trials per campaign and pass: the cold and the repeated pass together
#: inject 2,000 trials per run (2 profiles x 4 configurations x 125 x 2).
TRIALS = 125
#: Profiles at the default seed.
DEFAULT_PROFILES = ("crafty", "mcf")
#: Pairs other seeds choose from. A campaign's cost follows its oracle
#: re-executions (a deterministic count), so each pair re-executes
#: 220-234 times per pass, like the default pair (231).
PAIRS = (
    ("equake", "sixtrack"), ("cc-200", "gzip-graphic"), ("apsi", "lucas"),
    ("twolf", "gap"), ("wupwise", "art-110"), ("parser", "applu"),
    ("mgrid", "vortex-lendian3"), ("galgel", "vpr-route"),
    ("eon-kajiya", "mesa"), ("fma3d", "swim"),
)
SETUP_REPEATS = 3


def choose_profiles(seed: int) -> List[str]:
    if seed == DEFAULT_SEED:
        return list(DEFAULT_PROFILES)
    return list(random.Random(seed).choice(PAIRS))


def campaign_configs():
    """The four protection points of one profile."""
    from repro.due.tracking import EccScheme, TrackingLevel
    from repro.faults.campaign import CampaignConfig

    return [
        ("unprotected", CampaignConfig(trials=TRIALS)),
        ("parity", CampaignConfig(trials=TRIALS, parity=True)),
        ("parity+store_pi", CampaignConfig(
            trials=TRIALS, parity=True, tracking=TrackingLevel.STORE_PI)),
        ("mbu-terrestrial+sec_ded", CampaignConfig(
            trials=TRIALS, mbu_preset="terrestrial",
            scheme=EccScheme.SEC_DED)),
    ]


def tally(result) -> Dict[str, object]:
    return {"counts": {outcome.value: count for outcome, count
                       in sorted(result.counts.items(),
                                 key=lambda kv: kv[0].value) if count},
            "tracker_misses": result.tracker_misses}


class Campaign:
    name = "campaign"
    min_reps = 1

    def __init__(self, seed: int, scratch: Path, checks: Checks,
                 clock) -> None:
        self.seed = seed
        self.clock = clock
        self.checks = checks
        self.jobs = min(2, os.cpu_count() or 1)
        self.summary: Dict[str, tuple] = {}
        self.fanouts: List[List[float]] = []
        self.tracker_misses = 0

    def setup(self) -> List[float]:
        from repro.experiments.common import ExperimentSettings, run_benchmark
        from repro.faults import campaign
        from repro.runtime.context import use_runtime
        from repro.runtime.telemetry import Telemetry
        from repro.workloads.spec2000 import get_profile

        self.campaign = campaign
        self.telemetry = Telemetry()
        self.configs = campaign_configs()
        settings = ExperimentSettings(target_instructions=INSTRUCTIONS)
        profiles = [get_profile(n) for n in choose_profiles(self.seed)]
        times = []
        for _ in range(SETUP_REPEATS):
            reset_program_state()
            self.clock.start()
            with use_runtime(telemetry=self.telemetry):
                self.baselines = [run_benchmark(p, settings)
                                  for p in profiles]
            times.append(self.clock.stop())
        return times

    def _pass(self) -> tuple:
        from repro.runtime.context import use_runtime

        tallies = {}
        trials = 0
        timings = self.telemetry.worker_timings
        reset_program_state()
        with use_runtime(jobs=self.jobs, telemetry=self.telemetry):
            self.clock.start()
            for run in self.baselines:
                for label, config in self.configs:
                    before = len(timings)
                    result = self.campaign.run_campaign(
                        run.program, run.execution, run.pipeline, config)
                    self.fanouts.append(
                        [t.seconds for t in timings[before:]])
                    tallies[f"{run.profile.name}/{label}"] = tally(result)
                    self.tracker_misses += result.tracker_misses
                    trials += result.trials
            return self.clock.stop(), tallies, trials

    def measure(self, rep: int, recorder=None) -> Dict[str, float]:
        with phase(recorder, "phase.cold"):
            cold_s, cold, trials = self._pass()
        with phase(recorder, "phase.warm"):
            warm_s, warm, _ = self._pass()
        expected = (load_expected(self.name)["tallies"]
                    if self.seed == DEFAULT_SEED else None)
        for key in cold:
            self.checks.op(expected is None or cold[key] == expected[key],
                           f"{key}: tallies differ from the pinned values")
            self.checks.op(warm[key] == cold[key],
                           f"{key}: repeated campaign tallies differ")
        self.checks.expect(trials == TRIALS * len(cold),
                           f"{trials} trials completed of "
                           f"{TRIALS * len(cold)}")
        self.summary = {"faults.trials_per_s": (trials / cold_s, "1/s")}
        return {"cold_s": cold_s, "warm_s": warm_s}

    def instrument(self, recorder) -> None:
        from repro.arch.executor import FunctionalSimulator

        self.fanouts = []
        self.tracker_misses = 0
        recorder.wrap(self.campaign, "run_campaign", "faults.campaign")
        recorder.wrap(FunctionalSimulator, "run", "arch.run")

    def counters(self):
        return program_counters(self.telemetry)

    def layer_metrics(self, recorder) -> Dict[str, float]:
        metrics = worker_metrics(self.fanouts)
        metrics["due.tracker_misses"] = self.tracker_misses
        return metrics

    def close(self) -> None:
        pass
