"""Register-file AVF analysis.

The paper's conclusion: "Once these mechanisms are in place, they can also
reduce the AVF of other structures, such as the register file." This module
provides that analysis for REPRO-64's 128-entry general register file.

A register's bits are ACE from the cycle a *live* value is written into it
until that value's last read; values produced by dynamically dead
instructions (and the tails after a value's final read) are un-ACE. With
π bits on the register file (TrackingLevel.REG_PI and above), the dead
share of the un-ACE residency stops contributing false DUE.

Timing comes from the pipeline's committed occupancy intervals: a value is
produced when its writer issues and consumed when its readers issue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.deadcode import DEAD_CLASSES, DeadnessAnalysis, DynClass
from repro.arch.trace import Trace
from repro.isa.registers import NUM_GPRS
from repro.pipeline.iq import OccupantKind
from repro.pipeline.result import PipelineResult


@dataclass
class RegisterFileAvf:
    """Residency decomposition of the register file."""

    cycles: int
    registers: int = NUM_GPRS
    ace_reg_cycles: float = 0.0
    #: Residency of values that are dynamically dead (un-ACE, and the
    #: share register-file π bits can stop signalling).
    dead_reg_cycles: float = 0.0
    #: Post-last-read residency of live values (the RF's Ex-ACE analogue).
    stale_reg_cycles: float = 0.0

    @property
    def total_reg_cycles(self) -> float:
        return float(self.registers) * self.cycles

    @property
    def sdc_avf(self) -> float:
        if self.total_reg_cycles == 0:
            return 0.0
        return self.ace_reg_cycles / self.total_reg_cycles

    @property
    def dead_fraction(self) -> float:
        if self.total_reg_cycles == 0:
            return 0.0
        return self.dead_reg_cycles / self.total_reg_cycles

    @property
    def due_avf_with_parity(self) -> float:
        """Parity on the RF: true DUE (ACE) plus false DUE (dead values).

        Stale (post-last-read) residency is never read again, so it cannot
        trigger the parity check — same argument as the IQ's Ex-ACE time.
        """
        if self.total_reg_cycles == 0:
            return 0.0
        return (self.ace_reg_cycles + self.dead_reg_cycles) \
            / self.total_reg_cycles

    @property
    def due_avf_with_register_pi(self) -> float:
        """π bits on the registers remove the dead-value false DUE."""
        return self.sdc_avf


def compute_regfile_avf(
    result: PipelineResult,
    trace: Trace,
    deadness: DeadnessAnalysis,
) -> RegisterFileAvf:
    """Integrate register-value lifetimes over one timing run.

    Values are tracked at register granularity: a write opens a lifetime at
    the writer's issue cycle; reads extend the value's last-use point; the
    next write of the same register (or the end of simulation) closes it.
    """
    issue_cycle: Dict[int, int] = {}
    for interval in result.intervals:
        if interval.kind is OccupantKind.COMMITTED and interval.issued:
            issue_cycle[interval.seq] = interval.issue_cycle

    avf = RegisterFileAvf(cycles=result.cycles)

    # Open value per register: (written_cycle, last_read_cycle, dead?).
    open_values: Dict[int, List] = {}

    def close(reg: int, end_cycle: int) -> None:
        entry = open_values.pop(reg, None)
        if entry is None:
            return
        written, last_read, dead = entry
        last_read = max(last_read, written)
        end_cycle = max(end_cycle, last_read)
        if dead:
            avf.dead_reg_cycles += end_cycle - written
        else:
            avf.ace_reg_cycles += last_read - written
            avf.stale_reg_cycles += end_cycle - last_read

    first, second = trace.sources()
    rows = zip(first.tolist(), second.tolist(), trace.dest_gpr.tolist())
    for seq, (source_a, source_b, dest_gpr) in enumerate(rows):
        when = issue_cycle.get(seq)
        if when is None:
            continue
        for reg in (source_a, source_b):
            if reg in open_values:
                entry = open_values[reg]
                entry[1] = max(entry[1], when)
        if dest_gpr:
            close(dest_gpr, when)
            dead = deadness.class_of(seq) in DEAD_CLASSES
            open_values[dest_gpr] = [when, when, dead]

    for reg in list(open_values):
        close(reg, result.cycles)
    return avf
