"""Instruction-queue occupancy records.

The AVF layer does not scan the queue cycle by cycle; instead the pipeline
emits one :class:`OccupancyInterval` per dynamic occupancy of an IQ entry —
when it was allocated, when it was last read (issued), when it left, and
why. The integral of classified bit-time over these intervals *is* the AVF
numerator (paper Section 2).
"""

from __future__ import annotations

from array import array
from enum import Enum, unique
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.isa.instruction import Instruction


@unique
class OccupantKind(Enum):
    """Why an occupancy interval ended / what the occupant was."""

    COMMITTED = "committed"  # correct-path, issued, retired
    WRONG_PATH = "wrong_path"  # fetched past a mispredicted branch
    SQUASHED = "squashed"  # correct-path victim of the exposure squash


#: Integer codes for the interval-record path (indices into KIND_BY_CODE).
KIND_COMMITTED, KIND_WRONG_PATH, KIND_SQUASHED = 0, 1, 2
KIND_BY_CODE: Tuple[OccupantKind, ...] = (
    OccupantKind.COMMITTED, OccupantKind.WRONG_PATH, OccupantKind.SQUASHED)
CODE_BY_KIND = {kind: code for code, kind in enumerate(KIND_BY_CODE)}

#: Sentinel in the integer columns for "no value" (never-issued intervals
#: and the seq of wrong-path occupants, which never commit).
NO_VALUE = -1


class OccupancyInterval:
    """One dynamic residency of one instruction in one IQ entry."""

    __slots__ = ("seq", "instruction", "kind", "alloc_cycle", "issue_cycle",
                 "dealloc_cycle")

    def __init__(
        self,
        seq: Optional[int],
        instruction: Instruction,
        kind: OccupantKind,
        alloc_cycle: int,
        issue_cycle: Optional[int],
        dealloc_cycle: int,
    ) -> None:
        #: Commit sequence number (None for wrong-path occupants).
        self.seq = seq
        self.instruction = instruction
        self.kind = kind
        self.alloc_cycle = alloc_cycle
        #: Cycle of the (last) read of this entry; None if never issued.
        self.issue_cycle = issue_cycle
        self.dealloc_cycle = dealloc_cycle

    @property
    def issued(self) -> bool:
        return self.issue_cycle is not None

    @property
    def resident_cycles(self) -> int:
        """Total cycles the entry held this occupant."""
        return self.dealloc_cycle - self.alloc_cycle

    @property
    def vulnerable_cycles(self) -> int:
        """Cycles from allocation to the last read (0 if never read).

        Only this window can turn a strike into an error: bits that are
        never read afterward (Ex-ACE tail, never-issued occupants) are
        harmless, per the paper's Section 4.1.
        """
        if self.issue_cycle is None:
            return 0
        return self.issue_cycle - self.alloc_cycle

    @property
    def ex_ace_cycles(self) -> int:
        """Cycles between the last read and deallocation."""
        if self.issue_cycle is None:
            return self.dealloc_cycle - self.alloc_cycle
        return self.dealloc_cycle - self.issue_cycle

    def __repr__(self) -> str:
        return (
            f"OccupancyInterval(seq={self.seq}, kind={self.kind.value}, "
            f"alloc={self.alloc_cycle}, issue={self.issue_cycle}, "
            f"dealloc={self.dealloc_cycle})"
        )


class IntervalTimeline(Sequence):
    """Columnar form of an occupancy-interval log.

    The timing loop emits one ``(seq, kind, alloc, issue, dealloc,
    instruction)`` record per residency instead of an
    :class:`OccupancyInterval` object; this class stores those records as
    parallel integer columns (``array('q')``, :data:`NO_VALUE` for "none")
    plus one object column for the instruction. The AVF layer integrates
    the columns directly by closed-form interval arithmetic; everything
    that still wants objects gets them through the sequence protocol —
    materialization happens once, lazily, and is cached.
    """

    __slots__ = ("seq", "kind", "alloc", "issue", "dealloc", "instr",
                 "_materialized")

    def __init__(self, records: Sequence[tuple]) -> None:
        if records:
            seq, kind, alloc, issue, dealloc, instr = zip(*records)
        else:
            seq = kind = alloc = issue = dealloc = instr = ()
        self.seq = array("q", seq)
        self.kind = array("b", kind)
        self.alloc = array("q", alloc)
        self.issue = array("q", issue)
        self.dealloc = array("q", dealloc)
        self.instr: Tuple[Instruction, ...] = tuple(instr)
        self._materialized: Optional[List[OccupancyInterval]] = None

    # -- sequence protocol (materializes on first object access) ----------

    def materialize(self) -> List[OccupancyInterval]:
        """The equivalent :class:`OccupancyInterval` list (cached)."""
        if self._materialized is None:
            kinds = KIND_BY_CODE
            self._materialized = [
                OccupancyInterval(
                    None if s == NO_VALUE else s, instr, kinds[k], a,
                    None if i == NO_VALUE else i, d)
                for s, k, a, i, d, instr in zip(
                    self.seq, self.kind, self.alloc, self.issue,
                    self.dealloc, self.instr)
            ]
        return self._materialized

    def __len__(self) -> int:
        return len(self.kind)

    def __getitem__(self, index):
        return self.materialize()[index]

    def __iter__(self) -> Iterator[OccupancyInterval]:
        return iter(self.materialize())

    def __repr__(self) -> str:
        return f"IntervalTimeline({len(self)} intervals)"

    # -- closed-form column arithmetic -------------------------------------

    def total_resident_cycles(self) -> int:
        """Sum of ``dealloc - alloc`` without touching objects."""
        return sum(self.dealloc) - sum(self.alloc)

    # -- relocatable column blocks (chunk-compositional fast path) ---------

    def block(self, start: int, stop: int) -> "IntervalBlock":
        """Column slice ``[start, stop)`` as a relocatable block."""
        return IntervalBlock(
            self.seq[start:stop], self.kind[start:stop],
            self.alloc[start:stop], self.issue[start:stop],
            self.dealloc[start:stop], self.instr[start:stop])

    @classmethod
    def from_blocks(
        cls, blocks: Sequence["IntervalBlock"]) -> "IntervalTimeline":
        """Concatenate blocks (already shifted) into one timeline."""
        timeline = cls(())
        seq = array("q")
        kind = array("b")
        alloc = array("q")
        issue = array("q")
        dealloc = array("q")
        instr: List[Instruction] = []
        for b in blocks:
            seq.extend(b.seq)
            kind.extend(b.kind)
            alloc.extend(b.alloc)
            issue.extend(b.issue)
            dealloc.extend(b.dealloc)
            instr.extend(b.instr)
        timeline.seq, timeline.kind = seq, kind
        timeline.alloc, timeline.issue, timeline.dealloc = \
            alloc, issue, dealloc
        timeline.instr = tuple(instr)
        return timeline


class IntervalBlock:
    """A contiguous run of timeline rows with relocatable cycle columns.

    The chunk-compositional fast path memoizes a chunk's interval rows
    with entry-relative cycles; on replay :meth:`shifted` rebases them to
    the live entry cycle (and seq base) and the rows are spliced back
    onto the flat log. ``NO_VALUE`` survives both shifts untouched —
    "never issued" and "no seq" are positions, not offsets.
    """

    __slots__ = ("seq", "kind", "alloc", "issue", "dealloc", "instr")

    def __init__(self, seq: array, kind: array, alloc: array, issue: array,
                 dealloc: array, instr: Tuple[Instruction, ...]) -> None:
        self.seq = seq
        self.kind = kind
        self.alloc = alloc
        self.issue = issue
        self.dealloc = dealloc
        self.instr = instr

    def __len__(self) -> int:
        return len(self.kind)

    def shifted(self, cycle_delta: int, seq_delta: int = 0) -> \
            "IntervalBlock":
        """A copy rebased by ``cycle_delta`` cycles / ``seq_delta`` seqs.

        ``NO_VALUE`` is an in-band sentinel, so a shift that would land
        a *real* coordinate exactly on it cannot be represented (the row
        would silently read back as anonymous/never-issued and the shift
        would no longer be invertible); such shifts raise ``ValueError``.
        Store columns with legitimately-negative relative coordinates
        under a far sentinel instead (see ``pipeline/compose.py``).
        """
        if seq_delta and (NO_VALUE - seq_delta) in self.seq:
            raise ValueError(
                f"seq shift by {seq_delta} would land a real row on the "
                f"NO_VALUE sentinel")
        if cycle_delta and (NO_VALUE - cycle_delta) in self.issue:
            raise ValueError(
                f"issue shift by {cycle_delta} would land a real row on "
                f"the NO_VALUE sentinel")
        seq = array("q", (s if s == NO_VALUE else s + seq_delta
                          for s in self.seq))
        issue = array("q", (i if i == NO_VALUE else i + cycle_delta
                            for i in self.issue))
        alloc = array("q", (a + cycle_delta for a in self.alloc))
        dealloc = array("q", (d + cycle_delta for d in self.dealloc))
        return IntervalBlock(seq, array("b", self.kind), alloc, issue,
                             dealloc, self.instr)

    def rows(self) -> Iterator[tuple]:
        """The flat ``(seq, kind, alloc, issue, dealloc, instr)`` records."""
        return zip(self.seq, self.kind, self.alloc, self.issue,
                   self.dealloc, self.instr)

    def __repr__(self) -> str:
        return f"IntervalBlock({len(self)} rows)"

    # -- pickling (the persistent timeline store ships these) --------------

    def __getstate__(self) -> tuple:
        return (self.seq, self.kind, self.alloc, self.issue, self.dealloc,
                self.instr)

    def __setstate__(self, state: tuple) -> None:
        (self.seq, self.kind, self.alloc, self.issue, self.dealloc,
         self.instr) = state
