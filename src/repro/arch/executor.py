"""The functional simulator: executes a program and records its trace.

The executor is deliberately strict about abnormal conditions because fault
injection routinely produces them: illegal opcodes trap, returns with an
empty call stack trap, jumps outside the code segment trap, and runaway
executions are cut off by an instruction budget (and classified as hangs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.arch.result import ExecutionResult, ExecutionStatus, InvocationRecord
from repro.arch.state import WORD_MASK, ArchState
from repro.arch.trace import CommittedOp
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program

_SIGN_BIT = 1 << 63

#: Checkpointed runs snapshot at least this many commits apart ...
_MIN_SNAPSHOT_INTERVAL = 64
#: ... and keep at most about this many snapshots of a run.
_MAX_SNAPSHOTS = 256


def _signed(value: int) -> int:
    """Interpret a 64-bit pattern as two's-complement."""
    return value - (1 << 64) if value & _SIGN_BIT else value


def snapshot_interval(instructions: int) -> int:
    """Commits between the snapshots of a run of ``instructions`` commits."""
    return max(_MIN_SNAPSHOT_INTERVAL,
               math.ceil(instructions / _MAX_SNAPSHOTS))


@dataclass(frozen=True)
class ExecutionLimits:
    """Budget for one functional run.

    ``max_instructions`` bounds corrupted executions that loop forever;
    exceeding it yields :data:`ExecutionStatus.LIMIT`, which the fault
    layer classifies as a hang (a detected failure, not SDC).
    """

    max_instructions: int = 2_000_000

    def __post_init__(self) -> None:
        if self.max_instructions <= 0:
            raise ValueError("max_instructions must be positive")


@dataclass(frozen=True)
class Snapshot:
    """Architectural state of a run just before one of its commits."""

    pc: int
    gprs: Tuple[int, ...]
    predicates: Tuple[bool, ...]
    memory: Dict[int, int]
    call_stack: Tuple[int, ...]
    #: Outputs emitted before this commit.
    output_count: int

    @classmethod
    def capture(cls, pc: int, state: ArchState,
                output_count: int) -> "Snapshot":
        return cls(pc, tuple(state.gprs), tuple(state.predicates),
                   dict(state.memory), tuple(state.call_stack), output_count)

    def matches(self, pc: int, state: ArchState, output_count: int) -> bool:
        """Whether ``state`` at ``pc`` equals this snapshot's state."""
        return (pc == self.pc and output_count == self.output_count
                and tuple(state.gprs) == self.gprs
                and tuple(state.predicates) == self.predicates
                and tuple(state.call_stack) == self.call_stack
                and state.memory == self.memory)

    def restore(self) -> ArchState:
        state = ArchState()
        state.gprs = list(self.gprs)
        state.predicates = list(self.predicates)
        state.memory = dict(self.memory)
        state.call_stack = list(self.call_stack)
        return state


@dataclass(frozen=True)
class SnapshotLog:
    """Snapshots of one unmodified run and how that run ended.

    ``snapshots[j]`` is the state before commit ``j * interval``; the log
    is valid only for runs under the same ``max_instructions``.
    """

    interval: int
    max_instructions: int
    snapshots: Tuple[Snapshot, ...]
    status: ExecutionStatus
    outputs: Tuple[int, ...]


class FunctionalSimulator:
    """Executes REPRO-64 programs architecturally.

    Parameters
    ----------
    program:
        The program to execute.
    limits:
        Execution budget; defaults are generous for normal runs.
    """

    def __init__(
        self, program: Program, limits: Optional[ExecutionLimits] = None
    ) -> None:
        self.program = program
        self.limits = limits or ExecutionLimits()

    def run(
        self,
        record_trace: bool = True,
        override_seq: Optional[int] = None,
        override_instruction: Optional[Instruction] = None,
        snapshot_every: int = 0,
        resume: Optional[SnapshotLog] = None,
    ) -> ExecutionResult:
        """Execute the program to completion.

        ``override_seq``/``override_instruction`` substitute one dynamic
        instruction (by commit sequence number) with a different — typically
        bit-flipped — instruction. This is how the fault injector re-executes
        a program "as if" the in-flight copy of instruction *n* had been
        struck: execution is deterministic up to that point, so the commit
        sequence numbers of the baseline and the corrupted run line up.

        ``snapshot_every`` > 0 records a :class:`Snapshot` before every
        ``snapshot_every``-th commit into ``result.snapshots``.

        ``resume`` takes such a log of the unmodified program and skips the
        prefix an override cannot change: the run starts from the last
        snapshot at or before ``override_seq``. At every later snapshot
        boundary it compares its state and its outputs so far with the
        log's; once both are equal the remainder is the logged run's
        remainder (the next state is a function of pc, registers,
        predicates, memory and call stack alone), so it stops and returns
        the logged status and outputs with ``converged`` set.
        """
        if (override_seq is None) != (override_instruction is None):
            raise ValueError("override_seq and override_instruction go together")
        if resume is not None:
            if override_seq is None or record_trace or snapshot_every:
                raise ValueError("a resumed run takes an override, no trace "
                                 "and no snapshots")
            if resume.max_instructions != self.limits.max_instructions:
                raise ValueError("the snapshot log was recorded under "
                                 "different limits")

        program = self.program
        trace = [] if record_trace else None
        outputs = []
        # Invocation records need the whole call history, so only runs
        # that record a trace (and so start at seq 0) keep them.
        invocations = {}
        if trace is not None:
            invocations[0] = InvocationRecord(invocation=0,
                                              entry_pc=program.entry,
                                              call_seq=-1)
        invocation_stack = [0]
        next_invocation = 1

        pc = program.entry
        seq = 0
        status = ExecutionStatus.LIMIT
        max_instructions = self.limits.max_instructions
        # Snapshot recording and convergence checks both happen at the
        # commit ``next_event``; -1 never matches.
        next_event = -1
        snapshots = []
        if snapshot_every > 0:
            next_event = 0
        if resume is not None:
            interval = resume.interval
            index = min(override_seq // interval, len(resume.snapshots) - 1)
            start = resume.snapshots[index]
            state = start.restore()
            pc = start.pc
            seq = index * interval
            outputs = list(resume.outputs[:start.output_count])
            index += 1
            if index < len(resume.snapshots):
                next_event = index * interval
        else:
            state = ArchState()
        first_seq = seq
        first_output = len(outputs)
        converged = False

        while seq < max_instructions:
            if seq == next_event:
                if resume is None:
                    snapshots.append(Snapshot.capture(pc, state, len(outputs)))
                    next_event += snapshot_every
                else:
                    snapshot = resume.snapshots[index]
                    if (snapshot.matches(pc, state, len(outputs))
                            and tuple(outputs[first_output:])
                            == resume.outputs[first_output:len(outputs)]):
                        converged = True
                        status = resume.status
                        outputs = resume.outputs
                        break
                    index += 1
                    next_event = (index * interval
                                  if index < len(resume.snapshots) else -1)

            if not program.in_range(pc):
                status = ExecutionStatus.TRAP_ILLEGAL
                break
            instruction = program.fetch(pc)
            if seq == override_seq:
                instruction = override_instruction

            opcode = instruction.opcode
            if opcode is Opcode.ILLEGAL:
                status = ExecutionStatus.TRAP_ILLEGAL
                break
            if opcode is Opcode.HALT:
                status = ExecutionStatus.HALTED
                if trace is not None:
                    trace.append(CommittedOp(
                        seq, pc, instruction, executed=True, next_pc=pc,
                        invocation=invocation_stack[-1]))
                seq += 1  # the HALT commits
                break

            executed = state.read_predicate(instruction.qp)
            current_invocation = invocation_stack[-1]
            next_pc = pc + 1
            dest_gpr = 0
            dest_pred = -1
            src_gprs: tuple = ()
            mem_addr = None
            branch_taken = False
            is_output = False

            if executed:
                if opcode is Opcode.ADD or opcode is Opcode.SUB \
                        or opcode is Opcode.AND or opcode is Opcode.OR \
                        or opcode is Opcode.XOR or opcode is Opcode.SHL \
                        or opcode is Opcode.SHR or opcode is Opcode.MUL:
                    a = state.read_gpr(instruction.r2)
                    b = state.read_gpr(instruction.r3)
                    value = _ALU_OPS[opcode](a, b)
                    state.write_gpr(instruction.r1, value)
                    dest_gpr = instruction.r1
                    src_gprs = instruction.source_gprs()
                elif opcode is Opcode.ADDI:
                    a = state.read_gpr(instruction.r2)
                    state.write_gpr(instruction.r1, a + instruction.imm)
                    dest_gpr = instruction.r1
                    src_gprs = instruction.source_gprs()
                elif opcode is Opcode.ANDI:
                    a = state.read_gpr(instruction.r2)
                    state.write_gpr(instruction.r1, a & (instruction.imm & WORD_MASK))
                    dest_gpr = instruction.r1
                    src_gprs = instruction.source_gprs()
                elif opcode is Opcode.MOVI:
                    state.write_gpr(instruction.r1, instruction.imm & WORD_MASK)
                    dest_gpr = instruction.r1
                elif opcode is Opcode.LD:
                    base = state.read_gpr(instruction.r2)
                    mem_addr = (base + instruction.imm) & WORD_MASK
                    state.write_gpr(instruction.r1, state.load(mem_addr))
                    dest_gpr = instruction.r1
                    src_gprs = instruction.source_gprs()
                elif opcode is Opcode.ST:
                    base = state.read_gpr(instruction.r2)
                    mem_addr = (base + instruction.imm) & WORD_MASK
                    state.store(mem_addr, state.read_gpr(instruction.r1))
                    src_gprs = instruction.source_gprs()
                elif opcode is Opcode.CMP_EQ or opcode is Opcode.CMP_LT \
                        or opcode is Opcode.CMP_NE:
                    a = state.read_gpr(instruction.r2)
                    b = state.read_gpr(instruction.r3)
                    result = _CMP_OPS[opcode](a, b)
                    pred_index = instruction.dest_predicate
                    state.write_predicate(pred_index, result)
                    dest_pred = pred_index
                    src_gprs = instruction.source_gprs()
                elif opcode is Opcode.BR:
                    branch_taken = True
                    next_pc = pc + instruction.imm
                elif opcode is Opcode.CALL:
                    branch_taken = True
                    state.call_stack.append(pc + 1)
                    next_pc = pc + instruction.imm
                    if trace is not None:
                        invocations[next_invocation] = InvocationRecord(
                            invocation=next_invocation, entry_pc=next_pc,
                            call_seq=seq)
                        invocation_stack.append(next_invocation)
                        next_invocation += 1
                elif opcode is Opcode.RET:
                    if not state.call_stack:
                        status = ExecutionStatus.RET_UNDERFLOW
                        break
                    branch_taken = True
                    next_pc = state.call_stack.pop()
                    if trace is not None:
                        invocations[invocation_stack.pop()].return_seq = seq
                elif opcode is Opcode.OUT:
                    outputs.append(state.read_gpr(instruction.r2))
                    src_gprs = instruction.source_gprs()
                    is_output = True
                # NOP / PREFETCH / HINT: architecturally invisible.

            if trace is not None:
                trace.append(CommittedOp(
                    seq=seq,
                    pc=pc,
                    instruction=instruction,
                    executed=executed,
                    dest_gpr=dest_gpr,
                    dest_pred=dest_pred,
                    src_gprs=src_gprs,
                    mem_addr=mem_addr,
                    is_store=executed and opcode is Opcode.ST,
                    is_load=executed and opcode is Opcode.LD,
                    branch_taken=branch_taken,
                    next_pc=next_pc,
                    invocation=current_invocation,
                    is_output=is_output,
                ))

            pc = next_pc
            seq += 1

        outputs = tuple(outputs)
        log = None
        if snapshot_every > 0:
            log = SnapshotLog(snapshot_every, max_instructions,
                              tuple(snapshots), status, outputs)
        return ExecutionResult(
            status=status,
            trace=trace if trace is not None else [],
            outputs=outputs,
            invocations=invocations,
            steps=seq - first_seq,
            converged=converged,
            snapshots=log,
        )


def _shift_left(a: int, b: int) -> int:
    return (a << (b % 64)) & WORD_MASK


def _shift_right(a: int, b: int) -> int:
    return a >> (b % 64)


_ALU_OPS = {
    Opcode.ADD: lambda a, b: (a + b) & WORD_MASK,
    Opcode.SUB: lambda a, b: (a - b) & WORD_MASK,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.SHL: _shift_left,
    Opcode.SHR: _shift_right,
    Opcode.MUL: lambda a, b: (a * b) & WORD_MASK,
}

_CMP_OPS = {
    Opcode.CMP_EQ: lambda a, b: a == b,
    Opcode.CMP_NE: lambda a, b: a != b,
    Opcode.CMP_LT: lambda a, b: _signed(a) < _signed(b),
}
