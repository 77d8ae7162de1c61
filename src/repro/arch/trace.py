"""The committed trace: one row per architecturally committed instruction.

Predicated-false instructions commit too — they occupy pipeline
resources and are one of the paper's false-DUE categories — but have no
architectural effect.

A :class:`Trace` is columnar. Row ``i`` is commit sequence number ``i``
(``seq`` is the row index, never stored), and every per-row fact lives in
one NumPy column:

=============  ========  ==============================================
column         dtype     meaning
=============  ========  ==============================================
``instr``      int32     index into :attr:`Trace.instructions`
``pc``         int32     fetch pc
``next_pc``    int32     pc of the next commit (the HALT's own pc)
``dest_gpr``   int8      GPR written (0 = none; r0 writes record 0)
``dest_pred``  int8      predicate written (-1 = none)
``mem_addr``   int64     effective address, :data:`NO_VALUE` when none
``flags``      uint8     :data:`EXECUTED`, :data:`IS_STORE`,
                         :data:`IS_LOAD`, :data:`BRANCH_TAKEN`,
                         :data:`IS_OUTPUT` bits
``invocation`` int32     function activation (0 = main)
=============  ========  ==============================================

``mem_addr`` holds the 64-bit address as two's complement (read it
through ``mem_addr.view(np.uint64)``); a row accesses memory exactly
when its flags hold ``IS_LOAD`` or ``IS_STORE``, so an address whose
bits are all ones is still told apart from :data:`NO_VALUE`.

:attr:`Trace.instructions` is the small table of distinct
:class:`~repro.isa.instruction.Instruction` objects the rows point into:
the program's code (row ``i`` of an unmodified run points at its pc)
plus, for a run with an override, the substituted instruction. The
registers a row read are derived from its instruction
(:func:`recorded_sources`), so they are not stored.

Consumers read the columns: deadness, the timing loop, the strike
subject, the π-bit walks, trace tiling. Indexing, slicing and iterating
a trace yield :class:`CommittedOp` row views instead — read-only, built
on demand, one column read per attribute access — for tests, tools and
cold paths (trace files, the PET buffer, the oracle's static rules, the
injector). A trace pickles as its raw column buffers plus the
instruction table.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode

#: ``mem_addr`` of a row that accesses no memory.
NO_VALUE = -1

#: ``flags`` bits.
EXECUTED = 1
IS_STORE = 2
IS_LOAD = 4
BRANCH_TAKEN = 8
IS_OUTPUT = 16

#: Names this layout in cache keys of stored traces: bump it whenever
#: the columns change, so entries of an older layout become misses.
TRACE_FORMAT = "columnar-trace-1"

#: Every field of a row, in the order of :meth:`CommittedOp.fields`.
FIELDS = (
    "seq", "pc", "instruction", "executed", "dest_gpr", "dest_pred",
    "src_gprs", "mem_addr", "is_store", "is_load", "branch_taken",
    "next_pc", "invocation", "is_output",
)

_COLUMNS = (
    ("instr", np.int32), ("pc", np.int32), ("next_pc", np.int32),
    ("dest_gpr", np.int8), ("dest_pred", np.int8), ("mem_addr", np.int64),
    ("flags", np.uint8), ("invocation", np.int32),
)

_WORD = (1 << 64) - 1


def recorded_sources(instruction: Instruction) -> Tuple[int, ...]:
    """GPRs an executed commit of ``instruction`` records as read.

    Its ``source_gprs()``, except that a PREFETCH records none: its
    address read is architecturally invisible.
    """
    if instruction.opcode is Opcode.PREFETCH:
        return ()
    return instruction.source_gprs()


def _frozen(values, dtype) -> np.ndarray:
    column = np.ascontiguousarray(values, dtype=dtype)
    column.setflags(write=False)
    return column


class Trace:
    """The committed instruction stream of one run, column by column."""

    __slots__ = ("instructions",) + tuple(name for name, _ in _COLUMNS)

    def __init__(self, instructions: Sequence[Instruction], instr, pc,
                 next_pc, dest_gpr, dest_pred, mem_addr, flags,
                 invocation) -> None:
        self.instructions: Tuple[Instruction, ...] = tuple(instructions)
        values = (instr, pc, next_pc, dest_gpr, dest_pred, mem_addr, flags,
                  invocation)
        for (name, dtype), column in zip(_COLUMNS, values):
            setattr(self, name, _frozen(column, dtype))
        n = len(self.pc)
        if any(len(getattr(self, name)) != n for name, _ in _COLUMNS):
            raise ValueError("trace columns must have one length")

    # -- derived columns ------------------------------------------------------

    @property
    def executed(self) -> np.ndarray:
        return (self.flags & EXECUTED).astype(bool)

    @property
    def is_store(self) -> np.ndarray:
        return (self.flags & IS_STORE).astype(bool)

    @property
    def is_load(self) -> np.ndarray:
        return (self.flags & IS_LOAD).astype(bool)

    @property
    def branch_taken(self) -> np.ndarray:
        return (self.flags & BRANCH_TAKEN).astype(bool)

    @property
    def is_output(self) -> np.ndarray:
        return (self.flags & IS_OUTPUT).astype(bool)

    @property
    def accesses_memory(self) -> np.ndarray:
        return (self.flags & (IS_LOAD | IS_STORE)).astype(bool)

    def addresses(self) -> np.ndarray:
        """The unsigned addresses of the memory rows, in commit order."""
        return self.mem_addr.view(np.uint64)[self.accesses_memory]

    def table(self, attribute) -> list:
        """``attribute(instruction)`` for every table instruction."""
        return [attribute(instruction) for instruction in self.instructions]

    def sources(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(first, second)`` source-GPR columns, 0 where none.

        Row ``i`` read ``src_gprs`` = the non-zero entries of
        ``(first[i], second[i])``; nullified rows read none.
        """
        pairs = [(srcs + (0, 0))[:2]
                 for srcs in self.table(recorded_sources)]
        pairs = np.array(pairs, dtype=np.int8).reshape(-1, 2)
        executed = self.executed
        first = np.where(executed, pairs[self.instr, 0], 0)
        second = np.where(executed, pairs[self.instr, 1], 0)
        return first, second

    def tile(self, factor: int) -> "Trace":
        """This trace repeated ``factor`` times (rows renumbered)."""
        return Trace(self.instructions,
                     *(np.tile(getattr(self, name), factor)
                       for name, _ in _COLUMNS))

    # -- the row view ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.pc)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [CommittedOp(self, seq)
                    for seq in range(*index.indices(len(self)))]
        n = len(self)
        seq = index.__index__()
        if seq < 0:
            seq += n
        if not 0 <= seq < n:
            raise IndexError("trace row out of range")
        return CommittedOp(self, seq)

    def __iter__(self):
        for seq in range(len(self)):
            yield CommittedOp(self, seq)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Trace):
            if len(self) != len(other):
                return False
            return (all(np.array_equal(getattr(self, name),
                                       getattr(other, name))
                        for name, _ in _COLUMNS if name != "instr")
                    and self.row_instructions() == other.row_instructions())
        if isinstance(other, (list, tuple)):
            return (len(self) == len(other)
                    and all(a == b for a, b in zip(self, other)))
        return NotImplemented

    __hash__ = None  # mutable-sequence semantics, like the list it replaced

    def row_instructions(self) -> list:
        """The instruction of every row, in commit order."""
        table = np.empty(len(self.instructions), dtype=object)
        table[:] = self.instructions
        return table[self.instr].tolist()

    def __repr__(self) -> str:
        return f"Trace({len(self)} rows, {len(self.instructions)} instructions)"

    def __reduce__(self):
        return (_rebuild, (self.instructions,)
                + tuple(getattr(self, name).tobytes()
                        for name, _ in _COLUMNS))


def _rebuild(instructions, *buffers) -> Trace:
    """Unpickle a :class:`Trace` from its raw column buffers."""
    return Trace(instructions, *(np.frombuffer(buffer, dtype=dtype)
                                 for buffer, (_, dtype)
                                 in zip(buffers, _COLUMNS)))


EMPTY_TRACE = Trace((), *([()] * len(_COLUMNS)))


class CommittedOp:
    """Read-only view of one row of a :class:`Trace`."""

    __slots__ = ("_trace", "seq")

    def __init__(self, trace: Trace, seq: int) -> None:
        self._trace = trace
        #: Commit sequence number: the row index.
        self.seq = seq

    @property
    def pc(self) -> int:
        return int(self._trace.pc[self.seq])

    @property
    def instruction(self) -> Instruction:
        trace = self._trace
        return trace.instructions[trace.instr[self.seq]]

    def _flag(self, bit: int) -> bool:
        return bool(self._trace.flags[self.seq] & bit)

    @property
    def executed(self) -> bool:
        """False when the qualifying predicate was false (nullified)."""
        return self._flag(EXECUTED)

    @property
    def predicated_false(self) -> bool:
        """Committed but nullified by a false qualifying predicate."""
        return not self.executed

    @property
    def dest_gpr(self) -> int:
        """GPR written (0 = none; r0 writes are discarded and recorded as 0)."""
        return int(self._trace.dest_gpr[self.seq])

    @property
    def dest_pred(self) -> int:
        """Predicate register written (-1 = none)."""
        return int(self._trace.dest_pred[self.seq])

    @property
    def src_gprs(self) -> Tuple[int, ...]:
        return recorded_sources(self.instruction) if self.executed else ()

    @property
    def mem_addr(self) -> Optional[int]:
        if not self._flag(IS_LOAD | IS_STORE):
            return None
        return int(self._trace.mem_addr[self.seq]) & _WORD

    @property
    def is_store(self) -> bool:
        return self._flag(IS_STORE)

    @property
    def is_load(self) -> bool:
        return self._flag(IS_LOAD)

    @property
    def branch_taken(self) -> bool:
        return self._flag(BRANCH_TAKEN)

    @property
    def next_pc(self) -> int:
        return int(self._trace.next_pc[self.seq])

    @property
    def invocation(self) -> int:
        """Function-invocation id (0 = main), for return-scoped deadness."""
        return int(self._trace.invocation[self.seq])

    @property
    def is_output(self) -> bool:
        """True for OUT instructions: the value becomes program output."""
        return self._flag(IS_OUTPUT)

    def fields(self) -> tuple:
        """Every field of the row, in :data:`FIELDS` order."""
        return tuple(getattr(self, name) for name in FIELDS)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommittedOp):
            return NotImplemented
        return self.fields() == other.fields()

    __hash__ = None

    def __repr__(self) -> str:
        return f"CommittedOp(seq={self.seq}, pc={self.pc}, {self.instruction})"
