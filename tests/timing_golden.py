"""Golden digests of the timing model.

Every IQ occupancy interval the AVF layer integrates comes from one
timing loop (:func:`repro.pipeline.compose.run_composed`). Its reference
is not a second, slower loop kept alive in ``src/`` but the committed
file ``tests/data/timing_golden.json``: per case, the cycle count and
sha256 digests of the sorted stats and of the interval log (the five
integer columns plus each occupant's instruction encoding).

The cases cover every benchmark profile x squash trigger, the machine
variants the ablations exercise, and the edge cases, each on the
profile's bubbled machine and on a bubble-free copy (where the chunk
memo engages), plus a tiled trace on which the memo replays most
chunks.

Regenerate the file (only for a deliberate change to the timing
semantics, and say so in the change log)::

    PYTHONPATH=src python -m tests.timing_golden
"""

from __future__ import annotations

import hashlib
import json
from array import array
from dataclasses import replace
from pathlib import Path

from repro.arch.executor import FunctionalSimulator
from repro.isa.opcodes import Opcode
from repro.pipeline.config import (
    IssuePolicy,
    MachineConfig,
    SquashAction,
    SquashConfig,
    Trigger,
)
from repro.pipeline.core import PipelineSimulator
from repro.workloads.codegen import synthesize
from repro.workloads.scaled import scale_trace
from repro.workloads.spec2000 import ALL_PROFILES

from .conftest import SMALL_INSTRUCTIONS, SMALL_PROFILE, TEST_SEED
from .helpers import I, program

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "timing_golden.json"

TRIGGERS = (Trigger.NONE, Trigger.L0_MISS, Trigger.L1_MISS)
#: Committed-instruction target of the per-profile cases.
PROFILE_INSTRUCTIONS = 3000
#: Tile factor of the tiled-trace cases.
TILE_FACTOR = 10

#: Machine variants, as edits of a base machine: those of the ablations,
#: plus a 1-wide machine and a 1-entry out-of-order queue that squash on
#: every L0 miss (queue rebuilds at their narrowest).
VARIANTS = {
    "baseline": lambda m: m,
    "throttle": lambda m: replace(m, squash=SquashConfig(
        trigger=Trigger.L1_MISS, action=SquashAction.THROTTLE)),
    "resume_at_miss_return": lambda m: replace(m, squash=SquashConfig(
        trigger=Trigger.L1_MISS, resume_at_miss_return=True)),
    "ooo_baseline": lambda m: replace(
        m, issue_policy=IssuePolicy.OOO_WINDOW),
    "ooo_l1": lambda m: replace(
        m, issue_policy=IssuePolicy.OOO_WINDOW,
        squash=SquashConfig(trigger=Trigger.L1_MISS)),
    "ooo_l0": lambda m: replace(
        m, issue_policy=IssuePolicy.OOO_WINDOW,
        squash=SquashConfig(trigger=Trigger.L0_MISS)),
    "tiny_queue": lambda m: replace(m, iq_entries=8),
    "wide_machine": lambda m: replace(m, fetch_width=8, issue_width=8,
                                      commit_width=8),
    "queue_never_fills": lambda m: replace(m, iq_entries=16384),
    "narrow_l0": lambda m: replace(
        m, fetch_width=1, issue_width=1, commit_width=1,
        squash=SquashConfig(trigger=Trigger.L0_MISS)),
    "one_entry_ooo_l0": lambda m: replace(
        m, iq_entries=1, issue_policy=IssuePolicy.OOO_WINDOW,
        squash=SquashConfig(trigger=Trigger.L0_MISS)),
}


def bubble_modes(bubble_prob: float):
    """(label, fetch_bubble_prob): the bubbled machine and its
    bubble-free copy, on which the chunk memo engages."""
    return (("bubbled", bubble_prob), ("draw-free", 0.0))


def execute(program_):
    execution = FunctionalSimulator(program_).run()
    assert execution.clean
    return execution


def _trigger_cases(prefix, bubble_prob):
    """(key, machine) over both bubble modes x squash triggers."""
    for label, bubble in bubble_modes(bubble_prob):
        for trigger in TRIGGERS:
            machine = MachineConfig(fetch_bubble_prob=bubble,
                                    squash=SquashConfig(trigger=trigger))
            yield f"{prefix}/{label}/{trigger.name}", machine


def profile_cases(profile):
    return _trigger_cases(f"profile/{profile.name}",
                          profile.fetch_bubble_prob)


def variant_cases(name):
    """(key, machine) for one variant of the small profile's machine."""
    for label, bubble in bubble_modes(SMALL_PROFILE.fetch_bubble_prob):
        machine = VARIANTS[name](MachineConfig(fetch_bubble_prob=bubble))
        yield f"variant/{name}/{label}", machine


def halt_program():
    """The smallest simulatable program: a lone HALT."""
    return program([I(Opcode.HALT)])


def last_squashed_program():
    """A trace whose final instruction is an exposure-squash victim."""
    body = [I(Opcode.MOVI, r1=1, imm=7)]
    for _ in range(24):
        body.append(I(Opcode.ADDI, r1=1, r2=1, imm=48))
        body.append(I(Opcode.LD, r1=2, r2=1, imm=0))
        body.append(I(Opcode.ADD, r1=3, r2=2, r3=2))
    return program(body)


#: Edge-case programs and the squash trigger each runs under.
EDGE_CASES = {
    "halt": (halt_program, Trigger.NONE),
    "last_squashed": (last_squashed_program, Trigger.L0_MISS),
}


def edge_cases(name):
    """(key, machine) for one edge-case program."""
    _, trigger = EDGE_CASES[name]
    for label, bubble in bubble_modes(MachineConfig().fetch_bubble_prob):
        machine = MachineConfig(fetch_bubble_prob=bubble,
                                squash=SquashConfig(trigger=trigger))
        yield f"edge/{name}/{label}", machine


def tiled_program(profile_name: str = "mcf"):
    profile = next(p for p in ALL_PROFILES if p.name == profile_name)
    program_ = synthesize(profile, target_instructions=PROFILE_INSTRUCTIONS,
                          seed=TEST_SEED)
    return profile, program_, scale_trace(execute(program_).trace,
                                          TILE_FACTOR)


def tiled_cases(profile):
    return _trigger_cases(f"tiled/{profile.name}-x{TILE_FACTOR}",
                          profile.fetch_bubble_prob)


def all_runs():
    """Every golden case as (key, program, trace, machine)."""
    for profile in ALL_PROFILES:
        program_ = synthesize(profile,
                              target_instructions=PROFILE_INSTRUCTIONS,
                              seed=TEST_SEED)
        trace = execute(program_).trace
        for key, machine in profile_cases(profile):
            yield key, program_, trace, machine
    small = synthesize(SMALL_PROFILE, target_instructions=SMALL_INSTRUCTIONS,
                       seed=TEST_SEED)
    small_trace = execute(small).trace
    for name in VARIANTS:
        for key, machine in variant_cases(name):
            yield key, small, small_trace, machine
    for name, (build, _) in EDGE_CASES.items():
        program_ = build()
        trace = execute(program_).trace
        for key, machine in edge_cases(name):
            yield key, program_, trace, machine
    profile, program_, trace = tiled_program()
    for key, machine in tiled_cases(profile):
        yield key, program_, trace, machine


def digest(result) -> dict:
    """Golden record of one timing run."""
    timeline = result.timeline
    intervals = hashlib.sha256()
    for column in (timeline.seq, timeline.kind, timeline.alloc,
                   timeline.issue, timeline.dealloc):
        intervals.update(array("q", column).tobytes())
    intervals.update(array("q", (i.encode() for i in timeline.instr))
                     .tobytes())
    stats = hashlib.sha256(repr(sorted(result.stats.items())).encode())
    return {"cycles": result.cycles, "committed": result.committed,
            "stats": stats.hexdigest(), "intervals": intervals.hexdigest()}


def simulate(program_, trace, machine):
    return PipelineSimulator(program_, trace, machine, seed=TEST_SEED).run()


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def write(records: dict) -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(records, indent=1, sort_keys=True)
                           + "\n")


def main() -> None:
    records = {key: digest(simulate(program_, trace, machine))
               for key, program_, trace, machine in all_runs()}
    write(records)
    print(f"{len(records)} cases -> {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
