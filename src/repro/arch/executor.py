"""The functional simulator: executes a program and records its trace.

The executor is deliberately strict about abnormal conditions because fault
injection routinely produces them: illegal opcodes trap, returns with an
empty call stack trap, jumps outside the code segment trap, and runaway
executions are cut off by an instruction budget (and classified as hangs).

Every static instruction is decoded once per program into a flat tuple
(see :func:`decode`); the interpreter loop dispatches on its small-int
kind and keeps the architectural state in locals. A traced run appends
plain ints — the pc of each commit, the address of each memory access,
the seq of each nullified commit and of each call/return — and builds
the columnar :class:`~repro.arch.trace.Trace` from them once at the end
(see :func:`_build_trace`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from repro.arch.liveness import Liveness
from repro.arch.result import ExecutionResult, ExecutionStatus, InvocationRecord
from repro.arch.state import ADDRESS_MASK, WORD_MASK, ArchState
from repro.arch.trace import (
    BRANCH_TAKEN,
    EMPTY_TRACE,
    EXECUTED,
    IS_LOAD,
    IS_OUTPUT,
    IS_STORE,
    NO_VALUE,
    Trace,
)
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import NUM_PREDICATES

_SIGN_BIT = 1 << 63

#: Checkpointed runs snapshot at least this many commits apart ...
_MIN_SNAPSHOT_INTERVAL = 64
#: ... and keep at most about this many snapshots of a run.
_MAX_SNAPSHOTS = 256

# Decoded kinds, numbered in the order the loop tests them (most frequent
# first); HALT and ILLEGAL, which ignore their predicate, come last.
(_NOP, _ALU, _LD, _ADDI, _ST, _CMP, _ANDI, _BR, _OUT, _MOVI, _CALL, _RET,
 _HALT, _ILLEGAL) = range(14)
# ALU and compare sub-operations, likewise by frequency.
_ADD, _XOR, _AND, _MUL, _SUB, _OR, _SHR, _SHL = range(8)
_EQ, _NE, _LT = range(3)

_KIND_OF = {
    Opcode.NOP: (_NOP, 0), Opcode.PREFETCH: (_NOP, 0),
    Opcode.HINT: (_NOP, 0),
    Opcode.ADD: (_ALU, _ADD), Opcode.XOR: (_ALU, _XOR),
    Opcode.AND: (_ALU, _AND), Opcode.MUL: (_ALU, _MUL),
    Opcode.SUB: (_ALU, _SUB), Opcode.OR: (_ALU, _OR),
    Opcode.SHR: (_ALU, _SHR), Opcode.SHL: (_ALU, _SHL),
    Opcode.LD: (_LD, 0), Opcode.ADDI: (_ADDI, 0), Opcode.ST: (_ST, 0),
    Opcode.CMP_EQ: (_CMP, _EQ), Opcode.CMP_NE: (_CMP, _NE),
    Opcode.CMP_LT: (_CMP, _LT),
    Opcode.ANDI: (_ANDI, 0), Opcode.BR: (_BR, 0), Opcode.OUT: (_OUT, 0),
    Opcode.MOVI: (_MOVI, 0), Opcode.CALL: (_CALL, 0), Opcode.RET: (_RET, 0),
    Opcode.HALT: (_HALT, 0), Opcode.ILLEGAL: (_ILLEGAL, 0),
}

#: Decoded code of every live program, keyed by the program object and
#: never stored on it, so a pickled program (and its cache key) is the
#: same whether or not it has run.
_DECODED: "WeakKeyDictionary[Program, List[tuple]]" = WeakKeyDictionary()

def decode(instruction: Instruction) -> tuple:
    """The loop's form of one static instruction.

    ``(kind, qp, r1, r2, r3, x, instruction, traits)``: ``r1`` is the
    predicate index for compares; ``x`` is the sub-operation of ALU and
    compare forms, the immediate pre-masked to 64 bits for the
    register-immediate, load/store and MOVI forms and the signed
    displacement for BR/CALL; ``traits`` (dest GPR, dest predicate,
    flags) is what an executed instance records in the trace's
    ``dest_gpr``, ``dest_pred`` and ``flags`` columns.
    """
    opcode = instruction.opcode
    kind, sub = _KIND_OF[opcode]
    r1 = instruction.r1
    imm = instruction.imm
    dest_gpr, dest_pred = 0, -1
    if kind == _ALU:
        x = sub
        dest_gpr = r1
    elif kind == _CMP:
        x = sub
        r1 %= NUM_PREDICATES
        dest_pred = r1
    elif kind in (_BR, _CALL):
        x = imm
    else:
        x = imm & WORD_MASK
        if kind in (_LD, _ADDI, _ANDI, _MOVI):
            dest_gpr = r1
    flags = EXECUTED
    if kind == _ST:
        flags |= IS_STORE
    elif kind == _LD:
        flags |= IS_LOAD
    elif kind in (_BR, _CALL, _RET):
        flags |= BRANCH_TAKEN
    elif kind == _OUT:
        flags |= IS_OUTPUT
    return (kind, instruction.qp, r1, instruction.r2, instruction.r3, x,
            instruction, (dest_gpr, dest_pred, flags))


def decoded(program: Program) -> List[tuple]:
    """:func:`decode` of every instruction of ``program``, made once."""
    table = _DECODED.get(program)
    if table is None:
        table = [decode(instruction) for instruction in program.instructions]
        _DECODED[program] = table
    return table


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
    is valid only for runs under the same ``max_instructions``. A run
    resumes from it only when it carries the logged run's
    :class:`~repro.arch.liveness.Liveness` (:func:`resume_log`).
    """

    interval: int
    max_instructions: int
    snapshots: Tuple[Snapshot, ...]
    status: ExecutionStatus
    outputs: Tuple[int, ...]
    liveness: Optional[Liveness] = field(default=None, compare=False,
                                         repr=False)

    def rejoins(self, index: int, pc: int, state: ArchState) -> bool:
        """Whether a run at ``pc`` in ``state`` before commit ``index *
        interval`` has rejoined the logged run at ``snapshots[index]``.

        It has when its pc, its call stack and every GPR, predicate and
        memory word that the logged run reads before it writes it from
        that commit on equal the snapshot's; memory words compare as
        read, so an unmapped word equals a stored 0. The rest of the run
        is then the logged run's rest. Each later read is either of a
        location that was live at the snapshot, and so equal, or of a
        location written since from equal inputs (the same instruction
        at the same pc, by induction), so every instruction computes
        what the logged run's does and the run ends as it did, at the
        same commit: the instruction budget included. A location the
        logged run writes before it reads it cannot reach anything.
        The log's run must be the one its liveness was traced from;
        reads after that run's end never happen, so a run that ended in
        LIMIT or a trap is described exactly too.
        """
        snapshot = self.snapshots[index]
        if pc != snapshot.pc:
            return False
        live = self.liveness
        gprs, saved = state.gprs, snapshot.gprs
        for register in live.gprs[index]:
            if gprs[register] != saved[register]:
                return False
        predicates, saved = state.predicates, snapshot.predicates
        for register in live.predicates[index]:
            if predicates[register] != saved[register]:
                return False
        if tuple(state.call_stack) != snapshot.call_stack:
            return False
        memory, saved = state.memory, snapshot.memory
        if memory == saved:
            return True
        changed = {address for address, _ in memory.items() ^ saved.items()
                   if memory.get(address, 0) != saved.get(address, 0)}
        return not live.reads_memory(index, changed)


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

        ``resume`` takes such a log of the unmodified program, with its
        liveness (:func:`resume_log`), and skips the prefix an override
        cannot change: the run starts from the last snapshot at or
        before ``override_seq``. At every later snapshot it asks the log
        whether its live state has rejoined the logged run's
        (:meth:`SnapshotLog.rejoins`: pc, call stack, and the registers
        and memory words the logged run reads before it writes them).
        Once it has, the remainder is the logged run's remainder, so the
        run stops with ``converged`` set and returns the logged status;
        its outputs are its own so far plus the outputs the logged run
        emitted after that snapshot. Its outputs so far need not match:
        a corrupted ``OUT`` whose state rejoins later still shows.
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
            if resume.liveness is None:
                raise ValueError("a resumed run needs the log's liveness")

        program = self.program
        table = decoded(program)
        code_size = len(table)
        override = None
        if override_instruction is not None:
            override = decode(override_instruction)
        else:
            override_seq = -1  # never matches
        # Per-commit records of a traced run (see _build_trace).
        pcs: List[int] = []
        append = pcs.append
        addresses: List[int] = []
        nullified: List[int] = []
        switches: List[Tuple[int, int]] = []
        outputs = []
        # Invocation records need the whole call history, so only runs
        # that record a trace (and so start at seq 0) keep them.
        invocations = {}
        if record_trace:
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
        converged = False
        # The loop mutates the state's containers in place, so snapshots
        # capture and compare ``state`` itself. r0 and p0 are never
        # written, so they read 0 and True straight from the lists.
        gprs = state.gprs
        predicates = state.predicates
        memory = state.memory
        call_stack = state.call_stack

        while seq < max_instructions:
            if seq == next_event:
                if resume is None:
                    snapshots.append(
                        Snapshot.capture(pc, state, len(outputs)))
                    next_event += snapshot_every
                else:
                    if resume.rejoins(index, pc, state):
                        converged = True
                        status = resume.status
                        outputs.extend(resume.outputs[
                            resume.snapshots[index].output_count:])
                        break
                    index += 1
                    next_event = (index * interval
                                  if index < len(resume.snapshots) else -1)

            if 0 <= pc < code_size:
                entry = table[pc]
            else:
                status = ExecutionStatus.TRAP_ILLEGAL
                break
            if seq == override_seq:
                entry = override
            kind, qp, r1, r2, r3, x, _, _ = entry

            if not predicates[qp] and kind < _HALT:
                # Nullified: commits without effect. HALT and ILLEGAL
                # ignore their predicate and fall through.
                if record_trace:
                    append(pc)
                    nullified.append(seq)
                pc += 1
                seq += 1
                continue

            next_pc = pc + 1
            if kind == _NOP:
                pass  # NOP / PREFETCH / HINT: architecturally invisible.
            elif kind == _ALU:
                a = gprs[r2]
                b = gprs[r3]
                if x == _ADD:
                    value = (a + b) & WORD_MASK
                elif x == _XOR:
                    value = a ^ b
                elif x == _AND:
                    value = a & b
                elif x == _MUL:
                    value = (a * b) & WORD_MASK
                elif x == _SUB:
                    value = (a - b) & WORD_MASK
                elif x == _OR:
                    value = a | b
                elif x == _SHR:
                    value = a >> (b & 63)
                else:
                    value = (a << (b & 63)) & WORD_MASK
                if r1:
                    gprs[r1] = value
            elif kind == _LD:
                mem_addr = (gprs[r2] + x) & WORD_MASK
                if r1:
                    gprs[r1] = memory.get(mem_addr & ADDRESS_MASK, 0)
                if record_trace:
                    addresses.append(mem_addr)
            elif kind == _ADDI:
                if r1:
                    gprs[r1] = (gprs[r2] + x) & WORD_MASK
            elif kind == _ST:
                mem_addr = (gprs[r2] + x) & WORD_MASK
                memory[mem_addr & ADDRESS_MASK] = gprs[r1]
                if record_trace:
                    addresses.append(mem_addr)
            elif kind == _CMP:
                a = gprs[r2]
                b = gprs[r3]
                if x == _EQ:
                    result = a == b
                elif x == _NE:
                    result = a != b
                else:  # signed: flipping the sign bit orders as unsigned
                    result = (a ^ _SIGN_BIT) < (b ^ _SIGN_BIT)
                if r1:
                    predicates[r1] = result
            elif kind == _ANDI:
                if r1:
                    gprs[r1] = gprs[r2] & x
            elif kind == _BR:
                next_pc = pc + x
            elif kind == _OUT:
                outputs.append(gprs[r2])
            elif kind == _MOVI:
                if r1:
                    gprs[r1] = x
            elif kind == _CALL:
                call_stack.append(next_pc)
                next_pc = pc + x
            elif kind == _RET:
                if not call_stack:
                    status = ExecutionStatus.RET_UNDERFLOW
                    break
                next_pc = call_stack.pop()
            elif kind == _HALT:
                status = ExecutionStatus.HALTED
                if record_trace:
                    append(pc)
                seq += 1  # the HALT commits
                break
            else:
                status = ExecutionStatus.TRAP_ILLEGAL
                break

            if record_trace:
                append(pc)
                if kind == _CALL:
                    invocations[next_invocation] = InvocationRecord(
                        next_invocation, next_pc, seq)
                    invocation_stack.append(next_invocation)
                    switches.append((seq + 1, next_invocation))
                    next_invocation += 1
                elif kind == _RET:
                    invocations[invocation_stack.pop()].return_seq = seq
                    switches.append((seq + 1, invocation_stack[-1]))
            pc = next_pc
            seq += 1

        outputs = tuple(outputs)
        log = None
        if snapshot_every > 0:
            log = SnapshotLog(snapshot_every, max_instructions,
                              tuple(snapshots), status, outputs)
        trace = EMPTY_TRACE
        if record_trace:
            # ``pc`` is where the run stopped: the last commit's next pc.
            trace = _build_trace(table, pcs, pc, addresses, nullified,
                                 switches, override_seq, override)
        return ExecutionResult(
            status=status,
            trace=trace,
            outputs=outputs,
            invocations=invocations,
            steps=seq - first_seq,
            converged=converged,
            snapshots=log,
        )


def resume_log(program: Program, limits: ExecutionLimits,
               baseline: ExecutionResult) -> SnapshotLog:
    """The log a run of ``program`` under ``limits`` resumes from.

    Snapshots of an unmodified run, :func:`snapshot_interval` of the
    baseline's length commits apart, with the
    :class:`~repro.arch.liveness.Liveness` of that very run. The
    baseline's trace serves when the baseline is that run: the same
    code, status, outputs and length. Otherwise (a baseline cut short
    by a smaller budget, or of other code) the snapshot run is traced.
    """
    simulator = FunctionalSimulator(program, limits)
    every = snapshot_interval(len(baseline.trace))
    run = simulator.run(record_trace=False, snapshot_every=every)
    trace = baseline.trace
    if (run.status, run.outputs, run.steps) != (
            baseline.status, baseline.outputs, len(trace)) \
            or trace.instructions != program.instructions:
        run = simulator.run(snapshot_every=every)
        trace = run.trace
    log = run.snapshots
    return replace(log, liveness=Liveness(trace, every, len(log.snapshots)))


def _build_trace(table: List[tuple], pcs: List[int], stop_pc: int,
                 addresses: List[int], nullified: List[int],
                 switches: List[Tuple[int, int]], override_seq: int,
                 override: Optional[tuple]) -> Trace:
    """The columnar trace of a run from its per-commit records.

    ``pcs`` holds the pc of every commit, ``addresses`` the address of
    every executed load and store, ``nullified`` the seq of every
    predicated-false commit and ``switches`` ``(seq, invocation)`` for
    every commit after which the current invocation changed; the run
    stopped at ``stop_pc``. Everything else a row records is a function
    of its instruction and whether it executed.
    """
    n = len(pcs)
    pc = np.array(pcs, dtype=np.int32)
    instr = pc.copy()
    if 0 <= override_seq < n:
        instr[override_seq] = len(table)
        table = table + [override]
    dest_gpr, dest_pred, flags = (
        np.array(column, dtype=dtype)[instr] for column, dtype in zip(
            zip(*(entry[7] for entry in table)),
            (np.int8, np.int8, np.uint8)))
    if nullified:
        rows = np.array(nullified, dtype=np.int64)
        dest_gpr[rows] = 0
        dest_pred[rows] = -1
        flags[rows] = 0
    mem_addr = np.full(n, NO_VALUE, dtype=np.int64)
    mem_addr[(flags & (IS_LOAD | IS_STORE)) != 0] = np.array(
        addresses, dtype=np.uint64).view(np.int64)
    starts, values = zip((0, 0), *switches)
    invocation = np.repeat(np.array(values, dtype=np.int32),
                           np.diff(np.array(starts + (n,))))
    next_pc = np.append(pc[1:], np.int32(stop_pc)) if n else pc
    return Trace([entry[6] for entry in table], instr, pc, next_pc,
                 dest_gpr, dest_pred, mem_addr, flags, invocation)
