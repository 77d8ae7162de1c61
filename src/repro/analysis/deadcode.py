"""Dynamic dead-code analysis (paper Section 4.1).

Classifies every committed instruction by whether a fault in its IQ entry
could have reached the program's observable output:

* **LIVE** — the instruction's effect reaches an ``OUT`` (I/O), or it is a
  control instruction. (Like the paper, we conservatively treat all control
  decisions as mattering: Y-branch effects are grouped under true DUE.)
* **NEUTRAL** — no-ops, prefetches, branch hints: by construction they can
  never affect architectural state.
* **PRED_FALSE** — committed but nullified by a false qualifying predicate.
* **FDD_REG / FDD_REG_RETURN** — wrote a register that no instruction read
  before it was overwritten (or before the program ended). The ``_RETURN``
  variant died because its function returned first — the paper's
  "FDD via procedure return" category of Figure 3.
* **TDD_REG** — its register result was read, but only by dynamically dead
  instructions (transitively dead via registers).
* **FDD_MEM / TDD_MEM** — same two notions for store values in memory.

The analysis is a forward def-use-chain construction followed by a backward
liveness sweep; it discovers deadness from real dataflow, independent of
how the workload generator arranged the code.
"""

from __future__ import annotations

from enum import Enum, unique
from typing import Dict, List, Optional

import numpy as np

from repro.arch.result import ExecutionResult
from repro.isa.opcodes import InstrClass


@unique
class DynClass(Enum):
    """ACE classification of one committed dynamic instruction."""

    LIVE = "live"
    NEUTRAL = "neutral"
    PRED_FALSE = "pred_false"
    FDD_REG = "fdd_reg"
    FDD_REG_RETURN = "fdd_reg_return"
    TDD_REG = "tdd_reg"
    FDD_MEM = "fdd_mem"
    TDD_MEM = "tdd_mem"


#: Classes the paper calls "dynamically dead".
DEAD_CLASSES = frozenset({
    DynClass.FDD_REG, DynClass.FDD_REG_RETURN, DynClass.TDD_REG,
    DynClass.FDD_MEM, DynClass.TDD_MEM,
})

_CONTROL_CLASSES = frozenset({
    InstrClass.BRANCH, InstrClass.CALL, InstrClass.RET, InstrClass.HALT,
})

#: Small-int codes of the classes, for the array pass.
_BY_CODE = tuple(DynClass)
(_LIVE, _NEUTRAL, _PRED_FALSE, _FDD_REG, _FDD_REG_RETURN, _TDD_REG,
 _FDD_MEM, _TDD_MEM) = range(len(_BY_CODE))


class DeadnessAnalysis:
    """Per-instruction classification plus dead-value overwrite distances."""

    def __init__(
        self,
        classes: List[DynClass],
        overwrite_distance: Dict[int, Optional[int]],
    ) -> None:
        #: ``classes[seq]`` is the classification of trace entry ``seq``.
        self.classes = classes
        #: For dead register/memory writers: commits until the overwrite
        #: (None when the value was still unread at program end).
        self.overwrite_distance = overwrite_distance

    def class_of(self, seq: int) -> DynClass:
        return self.classes[seq]

    def count(self, cls: DynClass) -> int:
        return sum(1 for c in self.classes if c is cls)

    def dead_fraction(self) -> float:
        """Fraction of committed instructions that are dynamically dead."""
        if not self.classes:
            return 0.0
        dead = sum(1 for c in self.classes if c in DEAD_CLASSES)
        return dead / len(self.classes)

    def summary(self) -> Dict[str, float]:
        total = max(1, len(self.classes))
        return {cls.value: self.count(cls) / total for cls in DynClass}


def _last_before(keys: np.ndarray, rows: np.ndarray,
                 probe_keys: np.ndarray, probe_rows: np.ndarray,
                 span: int) -> np.ndarray:
    """For each probe ``(key, row)``, the last of ``rows`` with the same
    key strictly before ``row`` (``-1`` when none); rows are below
    ``span``."""
    if not len(keys):
        return np.full(len(probe_rows), -1, dtype=np.int64)
    _, dense = np.unique(np.concatenate((keys, probe_keys)),
                         return_inverse=True)
    dense = dense.reshape(-1)  # NumPy 2.0.0 shaped it like the input
    packed = dense[:len(keys)] * span + rows
    order = np.argsort(packed, kind="stable")
    packed, rows = packed[order], rows[order]
    probes = dense[len(keys):] * span + probe_rows
    at = np.maximum(np.searchsorted(packed, probes, side="left") - 1, 0)
    found = packed[at] // span == probes // span
    found &= packed[at] < probes
    return np.where(found, rows[at], -1)


def _next_same(keys: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """For each ``rows`` entry, the next entry with the same key
    (``-1`` when none), in the input order."""
    order = np.lexsort((rows, keys))
    sorted_keys, sorted_rows = keys[order], rows[order]
    following = np.full(len(rows), -1, dtype=np.int64)
    same = sorted_keys[1:] == sorted_keys[:-1]
    following[:-1] = np.where(same, sorted_rows[1:], -1)
    result = np.empty(len(rows), dtype=np.int64)
    result[order] = following
    return result


def analyze_deadness(result: ExecutionResult) -> DeadnessAnalysis:
    """Run the liveness analysis over one functional execution."""
    trace = result.trace
    n = len(trace)
    seqs = np.arange(n, dtype=np.int64)
    instr = trace.instr
    neutral = np.array(trace.table(lambda i: i.is_neutral),
                       dtype=bool)[instr]
    control = np.array(trace.table(lambda i: i.instr_class
                                   in _CONTROL_CLASSES), dtype=bool)[instr]
    qp = np.array(trace.table(lambda i: i.qp), dtype=np.int64)[instr]
    executed = trace.executed
    is_store = trace.is_store
    is_load = trace.is_load
    dest_gpr = trace.dest_gpr.astype(np.int64)
    dest_pred = trace.dest_pred.astype(np.int64)
    mem_addr = trace.mem_addr

    # Forward pass: def-use chains for registers, predicates, and memory,
    # as (writer, reader) edges. A row reads before it writes, so its
    # reads see the last write strictly before it.
    #
    # Reads: qualifying predicate (read even when false — the value
    # decides nullification), register sources, memory loads. Neutral
    # instructions contribute no liveness edges: their "reads" are
    # architecturally inconsequential. Writes: predicated-false
    # instructions write nothing (their dest columns hold 0 / -1).
    gpr_rows = np.flatnonzero(dest_gpr)
    pred_rows = np.flatnonzero(dest_pred >= 0)
    store_rows = np.flatnonzero(is_store)
    writers, readers = [], []

    def link(keys, rows, probe_keys, probe_rows):
        found = _last_before(keys, rows, probe_keys, probe_rows, n + 1)
        hit = found >= 0
        writers.append(found[hit])
        readers.append(probe_rows[hit])
        return found[hit]

    qp_rows = np.flatnonzero(~neutral & (qp != 0))
    #: Producers whose predicate was consumed as a qualifying predicate.
    #: A qp read is a nullification decision: flipping the predicate makes
    #: a nullified instruction execute (or vice versa), so the producing
    #: compare is ACE no matter what the consumer itself does.
    predicate_consumed = np.zeros(n, dtype=bool)
    predicate_consumed[link(dest_pred[pred_rows], pred_rows,
                            qp[qp_rows], qp_rows)] = True
    for source in trace.sources():
        source = source.astype(np.int64)
        rows = np.flatnonzero((source != 0) & ~neutral)
        link(dest_gpr[gpr_rows], gpr_rows, source[rows], rows)
    load_rows = np.flatnonzero(is_load & ~neutral)
    link(mem_addr[store_rows], store_rows, mem_addr[load_rows], load_rows)
    writer = np.concatenate(writers)
    reader = np.concatenate(readers)

    overwrite_seq = np.full(n, -1, dtype=np.int64)
    for keys, rows in ((dest_gpr[gpr_rows], gpr_rows),
                       (dest_pred[pred_rows], pred_rows),
                       (mem_addr[store_rows], store_rows)):
        if len(rows):
            overwrite_seq[rows] = _next_same(keys, rows)

    # Backward pass: liveness, plus whether a (dead) value's consumer chain
    # passes through memory. The latter decides the paper's "tracked via
    # register" vs "tracked via memory" split: a register write whose dead
    # chain ends in a store can only be proven false once π bits extend to
    # the memory system (Section 4.3.3 option 4), so it must be classified
    # as memory-tracked even though the instruction itself wrote a register.
    # Every reader follows its writer, so walking the edges by writer,
    # last first, sees each reader's final value.
    live = (trace.is_output | (executed & control)
            | predicate_consumed).tolist()
    reaches_memory = is_store.tolist()
    order = np.argsort(-writer, kind="stable")
    for w, r in zip(writer[order].tolist(), reader[order].tolist()):
        if live[r]:
            live[w] = True
        if reaches_memory[r]:
            reaches_memory[w] = True
    live = np.array(live, dtype=bool)
    reaches_memory = np.array(reaches_memory, dtype=bool)

    # Classification.
    was_read = np.bincount(writer, minlength=n)[:n] > 0
    dead = ~neutral & executed & ~live
    writes_reg = (dest_gpr != 0) | (dest_pred >= 0)
    invocation = trace.invocation.astype(np.int64)
    return_seq = np.full(int(invocation.max(initial=0)) + 1, -1,
                         dtype=np.int64)
    for key, record in result.invocations.items():
        if 0 <= key < len(return_seq) and record.returned:
            return_seq[key] = record.return_seq
    returned = return_seq[invocation]
    returned_first = ((returned >= 0)
                      & ((overwrite_seq < 0) | (returned < overwrite_seq))
                      & (invocation != 0))

    codes = np.full(n, _LIVE, dtype=np.int8)
    codes[~executed] = _PRED_FALSE
    codes[neutral] = _NEUTRAL
    store = dead & is_store
    codes[store & was_read] = _TDD_MEM
    codes[store & ~was_read] = _FDD_MEM
    reg = dead & ~is_store & writes_reg
    codes[reg & was_read] = np.where(reaches_memory, _TDD_MEM,
                                     _TDD_REG)[reg & was_read]
    codes[reg & ~was_read] = np.where(returned_first, _FDD_REG_RETURN,
                                      _FDD_REG)[reg & ~was_read]
    # Executed, wrote nothing (e.g. a store nullified elsewhere or a
    # write to r0), and nothing read it: first-level dead.
    codes[dead & ~is_store & ~writes_reg] = _FDD_REG
    classes = [_BY_CODE[code] for code in codes.tolist()]

    # For dead register/memory writers: commits until the overwrite.
    dead_rows = np.flatnonzero(dead)
    distance = np.where((overwrite_seq >= 0) & (is_store | writes_reg),
                        overwrite_seq - seqs, -1)[dead_rows]
    distances: Dict[int, Optional[int]] = {
        seq: (None if d < 0 else d)
        for seq, d in zip(dead_rows.tolist(), distance.tolist())}
    return DeadnessAnalysis(classes=classes, overwrite_distance=distances)
