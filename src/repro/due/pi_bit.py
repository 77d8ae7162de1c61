"""Mechanistic π-bit propagation (paper Sections 4.2-4.3).

Given a *concrete* detected error — "parity fired when the instruction
queue entry holding committed instruction ``seq`` was read" — this engine
decides whether hardware at a given :class:`TrackingLevel` would signal a
machine check, and where. It implements the actual mechanisms:

* at ``PI_COMMIT``, the retire unit ignores π on uncommitted-result
  instructions (predicated-false here; wrong-path occupants never reach
  this engine because they never commit);
* at ``ANTI_PI``, decode-time anti-π suppresses non-opcode faults on
  neutral instructions;
* at ``PET``, the evicted π rides the Post-commit Error Tracking scan;
* at ``REG_PI``, π transfers to the destination register and signals on
  the first read (overwrite-before-read proves the error false);
* at ``STORE_PI``, readers OR source π into their own π and carry it on;
  the error signals only when a poisoned value reaches a store, an OUT,
  or a control decision ("interacts with the memory system or I/O");
* at ``MEM_PI``, stores transfer π onto memory words and loads pick it
  back up; only an OUT (I/O) with poisoned data signals.

The engine is deliberately independent of the dead-code *analysis*: tests
cross-validate the two (e.g. a fault on a TDD-via-registers instruction
must signal at ``REG_PI`` but stay silent at ``STORE_PI``).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.arch.trace import (
    EXECUTED,
    IS_LOAD,
    IS_OUTPUT,
    IS_STORE,
    Trace,
    recorded_sources,
)
from repro.due.anti_pi import anti_pi_suppresses
from repro.due.tracking import DEFAULT_PET_ENTRIES, TrackingLevel
from repro.isa.encoding import Field, field_at_bit, field_bits
from repro.isa.opcodes import InstrClass

_CONTROL = (InstrClass.BRANCH, InstrClass.CALL, InstrClass.RET)

#: A representative non-opcode bit, used when the caller does not care
#: which physical bit was struck.
_DEFAULT_STRUCK_BIT = next(iter(field_bits(Field.R3)))


@dataclass(frozen=True)
class SignalDecision:
    """Whether (and where) the hardware raises a machine check."""

    signaled: bool
    at_seq: Optional[int]
    reason: str


#: First window of a forward scan; each next window is this many times
#: longer, so near hits cost one short slice and far ones few slices.
_SCAN_FIRST = 32
_SCAN_GROWTH = 8


class PiBitTracker:
    """Decides the fate of one detected error under one tracking level.

    The walks read the trace by row index: the register and PET scans as
    windowed column searches, the propagating walk over plain-int copies
    of the columns it needs, made on its first use.
    """

    def __init__(
        self,
        trace: Trace,
        level: TrackingLevel,
        pet_entries: int = DEFAULT_PET_ENTRIES,
    ) -> None:
        self.trace = trace
        self.level = level
        self.pet_entries = pet_entries
        # The decision is a pure function of (seq, opcode-bit?): the
        # struck bit enters only through the anti-π opcode-field test, so
        # a campaign-shared tracker answers each strike point once.
        self._memo: Dict[Tuple[int, bool], SignalDecision] = {}
        self._scan_columns: Optional[tuple] = None
        self._walk_columns: Optional[tuple] = None

    def process_fault(
        self, seq: int, struck_bit: Optional[int] = None
    ) -> SignalDecision:
        """Trace the π bit of a parity error on committed instruction ``seq``."""
        if not 0 <= seq < len(self.trace):
            raise ValueError(f"seq {seq} outside trace")
        if struck_bit is None:
            struck_bit = _DEFAULT_STRUCK_BIT
        key = (seq, field_at_bit(struck_bit) is Field.OPCODE)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        decision = self._process_fault(seq, struck_bit)
        self._memo[key] = decision
        return decision

    def _process_fault(self, seq: int, struck_bit: int) -> SignalDecision:
        level = self.level

        if level is TrackingLevel.PARITY_ONLY:
            return SignalDecision(True, seq, "parity error signalled at read")

        # π set instead of signalling; decisions defer to the commit point.
        trace = self.trace
        if not trace.flags[seq] & EXECUTED:
            return SignalDecision(
                False, None, "retire unit ignores π: predicated false")
        instruction = trace.instructions[trace.instr[seq]]
        if (level >= TrackingLevel.ANTI_PI
                and anti_pi_suppresses(instruction, struck_bit)):
            return SignalDecision(
                False, None, "anti-π: neutral instruction, non-opcode bit")
        if level <= TrackingLevel.ANTI_PI:
            return SignalDecision(True, seq, "π set at commit point")
        if level is TrackingLevel.PET:
            return self._pet(seq)
        if level is TrackingLevel.REG_PI:
            return self._register_pi(seq)
        return self._propagating_pi(seq, through_memory=(
            level is TrackingLevel.MEM_PI))

    # -- the forward scan of one register --------------------------------------

    def _first_touch(self, start: int, stop: int, gpr: int,
                     pred: int) -> Optional[Tuple[int, str]]:
        """The first row of ``[start, stop)`` that reads or writes GPR
        ``gpr`` (0: none) or predicate ``pred`` (-1: none), and what it
        does first: ``"read gpr"``, ``"read pred"``, ``"write gpr"`` or
        ``"write pred"``, in that order of precedence. A row reads a
        predicate through its qualifying predicate, executed or not, and
        writes only when executed."""
        if self._scan_columns is None:
            trace = self.trace
            qp = np.array(trace.table(attrgetter("qp")), dtype=np.int8)
            self._scan_columns = trace.sources() + (
                qp[trace.instr], trace.dest_gpr, trace.dest_pred)
        first, second, qp, dest_gpr, dest_pred = self._scan_columns
        lo, width = start, _SCAN_FIRST
        while lo < stop:
            hi = min(stop, lo + width)
            hit = np.zeros(hi - lo, dtype=bool)
            if gpr:
                hit |= ((first[lo:hi] == gpr) | (second[lo:hi] == gpr)
                        | (dest_gpr[lo:hi] == gpr))
            if pred >= 0:
                hit |= (qp[lo:hi] == pred) | (dest_pred[lo:hi] == pred)
            rows = np.flatnonzero(hit)
            if len(rows):
                row = lo + int(rows[0])
                if gpr and gpr in (first[row], second[row]):
                    return row, "read gpr"
                if pred >= 0 and qp[row] == pred:
                    return row, "read pred"
                if gpr and dest_gpr[row] == gpr:
                    return row, "write gpr"
                return row, "write pred"
            lo = hi
            width *= _SCAN_GROWTH
        return None

    # -- PET ---------------------------------------------------------------

    def _pet(self, seq: int) -> SignalDecision:
        """:class:`~repro.due.pet.PetBuffer`'s eviction scan for ``seq``.

        The buffer evicts ``seq`` once ``pet_entries`` younger commits
        retired, then scans them; a trace that ends first drains the
        buffer and scans what remains.
        """
        trace = self.trace
        stop = seq + self.pet_entries + 1
        prefix = "PET"
        if stop > len(trace):
            stop = len(trace)
            prefix = "PET drain"
        gpr = int(trace.dest_gpr[seq])
        pred = -1 if gpr else int(trace.dest_pred[seq])
        if not gpr and pred < 0:
            return SignalDecision(True, seq,
                                  f"{prefix}: no trackable result")
        touch = self._first_touch(seq + 1, stop, gpr, pred)
        if touch is None:
            return SignalDecision(True, seq,
                                  f"{prefix}: no overwrite in buffer")
        if touch[1].startswith("read"):
            return SignalDecision(True, seq, f"{prefix}: result was read")
        return SignalDecision(False, seq, f"{prefix}: overwritten before "
                              "any read (FDD)")

    # -- register-file π ------------------------------------------------------

    def _register_pi(self, seq: int) -> SignalDecision:
        trace = self.trace
        dest_gpr = int(trace.dest_gpr[seq])
        dest_pred = int(trace.dest_pred[seq])
        if not (dest_gpr or dest_pred >= 0):
            return SignalDecision(
                True, seq, "π out of scope: no destination register")
        touch = self._first_touch(seq + 1, len(trace), dest_gpr, dest_pred)
        if touch is None:
            return SignalDecision(False, None, "never read again before exit")
        row, what = touch
        if what == "read gpr":
            return SignalDecision(True, row, "poisoned register read")
        if what == "read pred":
            return SignalDecision(True, row, "poisoned predicate read")
        if what == "write gpr":
            return SignalDecision(False, None,
                                  "register overwritten before read (FDD)")
        return SignalDecision(False, None,
                              "predicate overwritten before read (FDD)")

    # -- pipeline-wide / memory-wide π -----------------------------------------

    def _propagating_pi(self, seq: int, through_memory: bool) -> SignalDecision:
        poisoned_gprs: Set[int] = set()
        poisoned_preds: Set[int] = set()
        poisoned_mem: Set[int] = set()

        first = self._absorb(seq, poisoned_gprs, poisoned_preds,
                             poisoned_mem, through_memory, initial=True)
        if first is not None:
            return first
        if not (poisoned_gprs or poisoned_preds or poisoned_mem):
            return SignalDecision(False, None, "π vanished at the source")

        for row in range(seq + 1, len(self.trace)):
            decision = self._absorb(row, poisoned_gprs, poisoned_preds,
                                    poisoned_mem, through_memory,
                                    initial=False)
            if decision is not None:
                return decision
            if not (poisoned_gprs or poisoned_preds or poisoned_mem):
                return SignalDecision(False, None,
                                      "all poisoned state overwritten clean")
        return SignalDecision(False, None,
                              "poison never reached memory or I/O")

    def _absorb(
        self,
        seq: int,
        gprs: Set[int],
        preds: Set[int],
        mem: Set[int],
        through_memory: bool,
        initial: bool,
    ) -> Optional[SignalDecision]:
        """Process committed op ``seq`` against the poison sets.

        Returns a decision when the op forces a signal; mutates the poison
        sets otherwise. ``initial=True`` seeds the poison from the faulted
        instruction itself. Addresses are compared as the trace stores
        them.
        """
        if self._walk_columns is None:
            trace = self.trace
            self._walk_columns = (
                trace.instr.tolist(),
                trace.table(lambda i: (i.qp, i.is_neutral,
                                       i.instr_class in _CONTROL,
                                       recorded_sources(i))),
                trace.flags.tolist(), trace.dest_gpr.tolist(),
                trace.dest_pred.tolist(), trace.mem_addr.tolist())
        instr, static, flags, dest_gprs, dest_preds, addresses = \
            self._walk_columns
        qp, neutral, control, sources = static[instr[seq]]
        flag = flags[seq]
        executed = flag & EXECUTED
        if initial:
            reads_poison = True  # the faulted instruction *is* the poison
        else:
            if qp in preds and not neutral:
                # A qp read is a nullification decision: a poisoned
                # predicate may have silently changed control behaviour,
                # and nothing downstream carries that — signal now.
                return SignalDecision(True, seq,
                                      "poisoned predication decision")
            reads_poison = (
                (executed and any(r in gprs for r in sources))
                or (flag & IS_LOAD and addresses[seq] in mem)
            )

        dest_gpr = dest_gprs[seq]
        dest_pred = dest_preds[seq]
        if reads_poison:
            if control:
                return SignalDecision(True, seq,
                                      "poisoned control decision")
            if flag & IS_OUTPUT:
                return SignalDecision(True, seq, "poisoned I/O output")
            if flag & IS_STORE:
                if through_memory:
                    mem.add(addresses[seq])
                    return None
                return SignalDecision(True, seq,
                                      "poisoned store commits to memory")
            # A predicated-false faulted op (handled by the retire unit
            # before this engine) has no destination: nothing to poison.
            if executed and dest_gpr:
                gprs.add(dest_gpr)
            elif executed and dest_pred >= 0:
                preds.add(dest_pred)
            return None

        # Clean op: overwrites scrub poison.
        if executed:
            if dest_gpr:
                gprs.discard(dest_gpr)
            if dest_pred >= 0:
                preds.discard(dest_pred)
            if flag & IS_STORE and addresses[seq] in mem:
                mem.discard(addresses[seq])
        return None
