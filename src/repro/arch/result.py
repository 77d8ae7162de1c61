"""Execution results: trace, outputs, invocation records, termination status."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, unique
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.arch.trace import Trace

if TYPE_CHECKING:
    from repro.arch.executor import SnapshotLog


@unique
class ExecutionStatus(Enum):
    """How a functional execution ended."""

    HALTED = "halted"  # clean HALT
    TRAP_ILLEGAL = "trap_illegal"  # executed an illegal opcode
    RET_UNDERFLOW = "ret_underflow"  # RET with empty call stack
    LIMIT = "limit"  # dynamic instruction budget exhausted (hang)


@dataclass
class InvocationRecord:
    """One dynamic activation of a function (id 0 = main)."""

    invocation: int
    entry_pc: int
    call_seq: int
    #: Commit seq of the matching RET; None when the program ended inside.
    return_seq: Optional[int] = None

    @property
    def returned(self) -> bool:
        return self.return_seq is not None


@dataclass
class ExecutionResult:
    """Everything a downstream consumer needs from a functional run."""

    status: ExecutionStatus
    #: The committed trace; empty for a run that did not record one.
    trace: Trace
    outputs: Tuple[int, ...]
    #: Function activations; recorded only by runs that record a trace.
    invocations: Dict[int, InvocationRecord] = field(default_factory=dict)
    #: Instructions the run committed itself: all of them for a run from
    #: seq 0, those after its snapshot for a resumed run.
    steps: int = field(default=0, compare=False)
    #: True when a resumed run stopped early because it rejoined the run
    #: it resumed from (see :meth:`FunctionalSimulator.run`).
    converged: bool = field(default=False, compare=False)
    #: The snapshot log of a run that recorded one (``snapshot_every``).
    snapshots: Optional[SnapshotLog] = field(default=None, compare=False,
                                             repr=False)

    @property
    def instruction_count(self) -> int:
        return len(self.trace)

    @property
    def clean(self) -> bool:
        return self.status is ExecutionStatus.HALTED

    def output_signature(self) -> Tuple[object, ...]:
        """Comparable summary of observable behaviour.

        Two executions are architecturally equivalent (no silent data
        corruption) exactly when their signatures match: same output values
        in the same order, and the same termination condition.
        """
        return (self.status, self.outputs)
