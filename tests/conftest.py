"""Shared fixtures.

The expensive artifacts (a synthesized program, its functional execution,
deadness analysis, and a baseline timing run) are built once per session
from a small custom profile, so the whole suite stays fast while still
exercising the real end-to-end pipeline.
"""

from __future__ import annotations

import pytest

from repro.analysis.deadcode import analyze_deadness
from repro.arch.executor import FunctionalSimulator
from repro.pipeline.config import MachineConfig, SquashConfig, Trigger
from repro.pipeline.core import PipelineSimulator
from repro.workloads.codegen import synthesize
from repro.workloads.profile import BenchmarkProfile

TEST_SEED = 1234


#: A compact mixed workload used across the suite.
SMALL_PROFILE = BenchmarkProfile(
    name="testload",
    suite="int",
    body_items=120,
    w_noop=30.0,
    w_branch_rand=2.0,
    w_cold_load=0.6,
    fetch_bubble_prob=0.25,
    seed_salt=99,
)
#: Committed-instruction target of the shared small program.
SMALL_INSTRUCTIONS = 8000


@pytest.fixture(scope="session")
def small_profile() -> BenchmarkProfile:
    return SMALL_PROFILE


@pytest.fixture(scope="session")
def small_program(small_profile):
    return synthesize(small_profile, target_instructions=SMALL_INSTRUCTIONS,
                      seed=TEST_SEED)


@pytest.fixture(scope="session")
def small_execution(small_program):
    result = FunctionalSimulator(small_program).run()
    assert result.clean
    return result


@pytest.fixture(scope="session")
def small_deadness(small_execution):
    return analyze_deadness(small_execution)


@pytest.fixture(scope="session")
def base_machine(small_profile) -> MachineConfig:
    return MachineConfig(fetch_bubble_prob=small_profile.fetch_bubble_prob)


@pytest.fixture(scope="session")
def small_pipeline(small_program, small_execution, base_machine):
    return PipelineSimulator(small_program, small_execution.trace,
                             base_machine, seed=TEST_SEED).run()


@pytest.fixture(scope="session")
def squash_machine(base_machine) -> MachineConfig:
    from dataclasses import replace

    return replace(base_machine,
                   squash=SquashConfig(trigger=Trigger.L1_MISS))


@pytest.fixture(scope="session")
def squash_pipeline(small_program, small_execution, squash_machine):
    return PipelineSimulator(small_program, small_execution.trace,
                             squash_machine, seed=TEST_SEED).run()
