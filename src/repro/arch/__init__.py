"""Architectural (functional) simulation of REPRO-64 programs.

This layer executes programs exactly — register values, memory contents,
branch outcomes, call/return structure — and records the committed dynamic
trace. The timing pipeline replays that trace; the dead-code analysis and
the fault injector both consume it.
"""

from repro.arch.executor import ExecutionLimits, ExecutionStatus, FunctionalSimulator
from repro.arch.result import ExecutionResult, InvocationRecord
from repro.arch.state import ArchState, WORD_MASK
from repro.arch.trace import CommittedOp, Trace

__all__ = [
    "ExecutionLimits",
    "ExecutionStatus",
    "FunctionalSimulator",
    "ExecutionResult",
    "InvocationRecord",
    "ArchState",
    "WORD_MASK",
    "CommittedOp",
    "Trace",
]
