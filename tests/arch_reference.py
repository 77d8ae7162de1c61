"""Per-step reference semantics of the functional simulator.

Production runs execute a predecoded table
(:meth:`repro.arch.executor.FunctionalSimulator.run`). This module keeps
the plain statement of the same architecture — one ``Instruction`` at a
time, every register access through an accessor that hard-wires ``r0``
and ``p0``, the ALU and compare operations as lambda tables — so the
differential suite (``tests/test_arch_reference.py``) can require the
production interpreter to produce the same run field for field:

* :class:`ReferenceState` is the architectural state with its accessors;
* :func:`reference_run` is the interpreter loop, taking the same
  arguments as ``FunctionalSimulator.run`` and returning the same
  :class:`~repro.arch.result.ExecutionResult`; ``state_factory`` lets a
  test observe the state a run passes through;
* :func:`run_digest` is a sha256 over every field of a run, pinned for
  the 26 profiles in ``tests/data/arch_golden.json`` (a traced run and
  a snapshot-logging run of each), so that neither loop can drift.

Regenerate the file (only for a deliberate change to the architecture,
and say so in the change log)::

    PYTHONPATH=src python -m tests.arch_reference
"""

from __future__ import annotations

import hashlib
import json
from collections import namedtuple
from pathlib import Path
from typing import Optional

from repro.arch.executor import (
    ExecutionLimits,
    FunctionalSimulator,
    Snapshot,
    SnapshotLog,
    snapshot_interval,
)
from repro.arch.result import ExecutionResult, ExecutionStatus, InvocationRecord
from repro.arch.state import ADDRESS_MASK, WORD_MASK, ArchState
from repro.arch.trace import FIELDS, CommittedOp
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import GPR_ZERO, PRED_TRUE
from repro.workloads.codegen import synthesize
from repro.workloads.spec2000 import ALL_PROFILES

from .conftest import TEST_SEED

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "arch_golden.json"
#: Committed-instruction target of the pinned profile runs.
GOLDEN_INSTRUCTIONS = 3000

_SIGN_BIT = 1 << 63

#: Every field of a committed op, in declaration order.
OP_FIELDS = FIELDS

#: The reference loop's record of one commit; the defaults are those of
#: a commit that writes, reads and accesses nothing. The production
#: trace is compared with it through its row view (:func:`op_fields`).
ReferenceOp = namedtuple("ReferenceOp", OP_FIELDS,
                         defaults=(0, -1, (), None, False, False, False, 0,
                                   0, False))


def _signed(value: int) -> int:
    """Interpret a 64-bit pattern as two's-complement."""
    return value - (1 << 64) if value & _SIGN_BIT else value


class ReferenceState(ArchState):
    """Architectural state read and written through its accessors."""

    def read_gpr(self, index: int) -> int:
        if index == GPR_ZERO:
            return 0
        return self.gprs[index]

    def write_gpr(self, index: int, value: int) -> None:
        if index == GPR_ZERO:
            return  # r0 is hardwired to zero
        self.gprs[index] = value & WORD_MASK

    def read_predicate(self, index: int) -> bool:
        if index == PRED_TRUE:
            return True
        return self.predicates[index]

    def write_predicate(self, index: int, value: bool) -> None:
        if index == PRED_TRUE:
            return  # p0 is hardwired to true
        self.predicates[index] = value

    def load(self, address: int) -> int:
        """Word load; unmapped addresses read as zero."""
        return self.memory.get(address & ADDRESS_MASK, 0)

    def store(self, address: int, value: int) -> None:
        self.memory[address & ADDRESS_MASK] = value & WORD_MASK


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


def _restore(snapshot: Snapshot, state_factory) -> ReferenceState:
    state = state_factory()
    state.gprs = list(snapshot.gprs)
    state.predicates = list(snapshot.predicates)
    state.memory = dict(snapshot.memory)
    state.call_stack = list(snapshot.call_stack)
    return state


def reference_run(
    program: Program,
    limits: Optional[ExecutionLimits] = None,
    record_trace: bool = True,
    override_seq: Optional[int] = None,
    override_instruction: Optional[Instruction] = None,
    snapshot_every: int = 0,
    resume: Optional[SnapshotLog] = None,
    state_factory=ReferenceState,
) -> ExecutionResult:
    """``FunctionalSimulator(program, limits).run(...)``, one step at a time.

    ``state_factory`` builds the run's :class:`ReferenceState` (also the
    one a resumed run restores into).
    """
    limits = limits or ExecutionLimits()
    if (override_seq is None) != (override_instruction is None):
        raise ValueError("override_seq and override_instruction go together")
    if resume is not None:
        if override_seq is None or record_trace or snapshot_every:
            raise ValueError("a resumed run takes an override, no trace "
                             "and no snapshots")
        if resume.max_instructions != limits.max_instructions:
            raise ValueError("the snapshot log was recorded under "
                             "different limits")
        if resume.liveness is None:
            raise ValueError("a resumed run needs the log's liveness")

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
    max_instructions = limits.max_instructions
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
        state = _restore(start, state_factory)
        pc = start.pc
        seq = index * interval
        outputs = list(resume.outputs[:start.output_count])
        index += 1
        if index < len(resume.snapshots):
            next_event = index * interval
    else:
        state = state_factory()
    first_seq = seq
    converged = False

    while seq < max_instructions:
        if seq == next_event:
            if resume is None:
                snapshots.append(Snapshot.capture(pc, state, len(outputs)))
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
                trace.append(ReferenceOp(
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
            trace.append(ReferenceOp(
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


def op_fields(op: "CommittedOp | ReferenceOp") -> tuple:
    """Every field of ``op``, the instruction as itself."""
    return tuple(getattr(op, name) for name in OP_FIELDS)


def run_fields(result: ExecutionResult) -> tuple:
    """Every field of a run, comparable with ``==``."""
    return (
        result.status,
        result.outputs,
        tuple(op_fields(op) for op in result.trace),
        tuple(sorted((key, record.invocation, record.entry_pc,
                      record.call_seq, record.return_seq)
                     for key, record in result.invocations.items())),
        result.steps,
        result.converged,
        result.snapshots,
    )


def run_digest(result: ExecutionResult) -> str:
    """sha256 over every field of a run; instructions by their encoding.

    The digest is a hash of ``repr`` of plain ints, bools, strings,
    ``None`` and tuples, so it does not depend on object identity, and
    a snapshot log enters through its fields.
    """
    status, outputs, ops, invocations, steps, converged, log = \
        run_fields(result)
    slot = OP_FIELDS.index("instruction")
    ops = tuple(op[:slot] + (op[slot].encode(),) + op[slot + 1:]
                for op in ops)
    snapshots = None
    if log is not None:
        snapshots = (log.interval, log.max_instructions, log.status.value,
                     log.outputs,
                     tuple((s.pc, s.gprs, s.predicates,
                            tuple(sorted(s.memory.items())), s.call_stack,
                            s.output_count) for s in log.snapshots))
    payload = repr((status.value, outputs, ops, invocations, steps,
                    converged, snapshots))
    return hashlib.sha256(payload.encode()).hexdigest()


def golden_cases():
    """``(key, program, run kwargs)`` of every pinned run."""
    for profile in ALL_PROFILES:
        program = synthesize(profile, GOLDEN_INSTRUCTIONS, seed=TEST_SEED)
        yield f"{profile.name}/trace", program, {}
        yield f"{profile.name}/snapshots", program, dict(
            record_trace=False,
            snapshot_every=snapshot_interval(GOLDEN_INSTRUCTIONS))


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def main() -> None:
    record = {key: run_digest(FunctionalSimulator(program).run(**kwargs))
              for key, program, kwargs in golden_cases()}
    GOLDEN_PATH.write_text(json.dumps(record, indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {len(record)} digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
