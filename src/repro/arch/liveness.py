"""Which locations a run reads before it writes them, from each snapshot on.

A resumed run (:meth:`repro.arch.executor.FunctionalSimulator.run`) may
stop at a snapshot of the run it resumed from once its live state equals
that snapshot's: a location whose next access in the logged run is a
write cannot influence the rest of that run, whatever it holds. These
are the paper's "dynamically dead" values, found here per location and
per snapshot rather than per instruction (compare
:mod:`repro.analysis.deadcode`).

:class:`Liveness` is derived once from the committed trace of the logged
run itself, with NumPy: every access becomes a code ``2 * row`` for a
read and ``2 * row + 1`` for a write (a row reads before it writes), so
the first access at or after commit ``s`` is the first code at or after
``2 * s``, and the location is live there when that code is even.

What a row reads and writes, by location kind:

* a GPR is read as a source operand of an executed row (a PREFETCH's
  address read is architecturally invisible, so it reads none) and
  written as its destination (never r0);
* a predicate is read as the qualifying predicate of every row whose
  outcome depends on it: not a neutral row (NOP, PREFETCH and HINT do
  nothing either way) and not a HALT (which ignores its predicate), and
  never p0; it is written by an executed compare;
* a memory word is read by an executed load and written by an executed
  store, at the address masked to the 48-bit data space.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.arch.state import ADDRESS_MASK
from repro.arch.trace import Trace
from repro.isa.opcodes import Opcode
from repro.isa.registers import NUM_GPRS, NUM_PREDICATES


#: Ends every packed access array: above every probe, of no location.
_END = np.iinfo(np.int64).max


def _packed(keys: np.ndarray, codes: np.ndarray, span: int) -> np.ndarray:
    """Accesses sorted by location, then by commit order, then ``_END``."""
    return np.append(np.sort(keys.astype(np.int64) * span + codes), _END)


def _read_first(packed: np.ndarray, keys, start_codes, span: int):
    """Whether each location of ``keys`` is read before it is written
    from ``start_codes`` on (broadcast together)."""
    found = packed[np.searchsorted(packed, keys * span + start_codes)]
    return (found // span == keys) & (found % 2 == 0)


def _per_snapshot(live: np.ndarray) -> Tuple[Tuple[int, ...], ...]:
    """The live registers of each column of a (register, snapshot) table."""
    snapshots, registers = np.nonzero(live.T)
    registers = registers.tolist()
    bounds = np.searchsorted(snapshots, np.arange(live.shape[1] + 1)).tolist()
    return tuple(tuple(registers[start:stop])
                 for start, stop in zip(bounds, bounds[1:]))


class Liveness:
    """Live GPRs and predicates at each snapshot, and the memory words
    read before written from any commit on.

    ``gprs[j]`` and ``predicates[j]`` name the registers the run reads
    before it writes them from commit ``j * interval`` on; memory is
    asked for per address (:meth:`reads_memory`), since the words a run
    touches far outnumber its registers.
    """

    __slots__ = ("interval", "gprs", "predicates", "_span", "_addresses",
                 "_memory")

    def __init__(self, trace: Trace, interval: int, count: int) -> None:
        n = len(trace)
        span = 2 * n + 2
        starts = np.arange(count, dtype=np.int64) * (2 * interval)
        rows = np.arange(n, dtype=np.int64)
        reads = 2 * rows
        writes = reads + 1

        first, second = trace.sources()
        dest_gpr = trace.dest_gpr
        packed = _packed(
            np.concatenate((first[first != 0], second[second != 0],
                            dest_gpr[dest_gpr != 0])),
            np.concatenate((reads[first != 0], reads[second != 0],
                            writes[dest_gpr != 0])), span)
        gprs = _read_first(packed, np.arange(NUM_GPRS)[:, None],
                           starts[None, :], span)

        qp = np.array(trace.table(
            lambda i: 0 if i.is_neutral or i.opcode is Opcode.HALT
            else i.qp), dtype=np.int64)[trace.instr]
        dest_pred = trace.dest_pred
        packed = _packed(
            np.concatenate((qp[qp != 0], dest_pred[dest_pred > 0])),
            np.concatenate((reads[qp != 0], writes[dest_pred > 0])), span)
        predicates = _read_first(packed, np.arange(NUM_PREDICATES)[:, None],
                                 starts[None, :], span)

        self.interval = interval
        self.gprs = _per_snapshot(gprs)
        self.predicates = _per_snapshot(predicates)

        memory = np.flatnonzero(trace.accesses_memory)
        addresses = (trace.mem_addr[memory].view(np.uint64)
                     & np.uint64(ADDRESS_MASK)).astype(np.int64)
        self._addresses, dense = np.unique(addresses, return_inverse=True)
        self._span = span
        self._memory = _packed(dense.reshape(-1),
                               reads[memory] + trace.is_store[memory], span)

    def reads_memory(self, index: int, addresses: Iterable[int]) -> bool:
        """Whether the run reads any of ``addresses`` (masked to the data
        space) before writing it, from commit ``index * interval`` on.

        An address the run never touches is never read.
        """
        probes = np.fromiter(addresses, dtype=np.int64)
        known = self._addresses
        if not len(probes) or not len(known):
            return False
        at = np.minimum(np.searchsorted(known, probes), len(known) - 1)
        dense = at[known[at] == probes]
        return bool(_read_first(self._memory, dense,
                                2 * index * self.interval, self._span).any())
