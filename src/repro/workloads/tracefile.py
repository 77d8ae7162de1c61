"""Trace serialisation: export committed traces for offline analysis.

Traces serialise to a compact JSON-lines format (one committed instruction
per line) so AVF/deadness analyses can be run on stored traces, traces can
be diffed across tool versions, and external tooling can consume them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Union

from repro.arch.result import ExecutionResult, ExecutionStatus, InvocationRecord
from repro.arch.trace import (
    BRANCH_TAKEN,
    EXECUTED,
    IS_LOAD,
    IS_OUTPUT,
    IS_STORE,
    NO_VALUE,
    CommittedOp,
    Trace,
)
from repro.isa import encoding
from repro.isa.instruction import Instruction

FORMAT_VERSION = 1


def _op_to_record(op: CommittedOp) -> dict:
    record = {
        "seq": op.seq,
        "pc": op.pc,
        "enc": op.instruction.encode(),
        "x": int(op.executed),
        "inv": op.invocation,
    }
    if op.dest_gpr:
        record["d"] = op.dest_gpr
    if op.dest_pred >= 0:
        record["dp"] = op.dest_pred
    if op.src_gprs:
        record["s"] = list(op.src_gprs)
    if op.mem_addr is not None:
        record["a"] = op.mem_addr
        record["st"] = int(op.is_store)
    if op.branch_taken:
        record["bt"] = 1
    record["np"] = op.next_pc
    if op.is_output:
        record["o"] = 1
    return record


def _trace_from_records(records: Iterable[dict]) -> Trace:
    """The columnar trace of records in commit order.

    Rows share one :class:`~repro.isa.instruction.Instruction` per
    distinct encoding. Sources (``"s"``) are not read back: a row's
    sources follow from its instruction.
    """
    instructions: List[Instruction] = []
    index_of = {}
    columns: List[list] = [[] for _ in range(8)]
    instr, pc, next_pc, dest_gpr, dest_pred, mem_addr, flags, inv = columns
    for seq, record in enumerate(records):
        if record["seq"] != seq:
            raise ValueError(f"trace record {seq} has seq {record['seq']}")
        enc = record["enc"]
        k = index_of.get(enc)
        if k is None:
            k = index_of[enc] = len(instructions)
            instructions.append(encoding.decode(enc))
        address = record.get("a")
        bits = (EXECUTED if record["x"] else 0) | (
            BRANCH_TAKEN if record.get("bt", 0) else 0) | (
            IS_OUTPUT if record.get("o", 0) else 0)
        if address is not None:
            bits |= IS_STORE if record.get("st", 0) else IS_LOAD
        instr.append(k)
        pc.append(record["pc"])
        next_pc.append(record["np"])
        dest_gpr.append(record.get("d", 0))
        dest_pred.append(record.get("dp", -1))
        mem_addr.append(NO_VALUE if address is None
                        else address - (address >> 63 << 64))
        flags.append(bits)
        inv.append(record["inv"])
    return Trace(instructions, *columns)


def dump_execution(result: ExecutionResult,
                   path: Union[str, Path]) -> None:
    """Write an execution result (trace + outputs + invocations) to disk."""
    path = Path(path)
    with path.open("w") as handle:
        header = {
            "version": FORMAT_VERSION,
            "status": result.status.value,
            "outputs": list(result.outputs),
            "invocations": [
                {"id": inv.invocation, "entry": inv.entry_pc,
                 "call": inv.call_seq, "ret": inv.return_seq}
                for inv in result.invocations.values()
            ],
        }
        handle.write(json.dumps(header) + "\n")
        for op in result.trace:
            handle.write(json.dumps(_op_to_record(op)) + "\n")


def load_execution(path: Union[str, Path]) -> ExecutionResult:
    """Read an execution result previously written by :func:`dump_execution`."""
    path = Path(path)
    with path.open() as handle:
        header = json.loads(handle.readline())
        if header.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format version {header.get('version')}")
        trace = _trace_from_records(json.loads(line) for line in handle)
    invocations = {
        item["id"]: InvocationRecord(
            invocation=item["id"], entry_pc=item["entry"],
            call_seq=item["call"], return_seq=item["ret"])
        for item in header["invocations"]
    }
    return ExecutionResult(
        status=ExecutionStatus(header["status"]),
        trace=trace,
        outputs=tuple(header["outputs"]),
        invocations=invocations,
    )
