"""Architectural state: registers, predicates, sparse memory, call stack."""

from __future__ import annotations

from typing import Dict, List

from repro.isa.registers import NUM_GPRS, NUM_PREDICATES, PRED_TRUE

#: All architectural integer values are 64-bit.
WORD_MASK = (1 << 64) - 1

#: Data addresses are confined to a 48-bit space, like a real virtual
#: address width; corrupted address arithmetic wraps instead of exploding
#: the sparse memory dictionary.
ADDRESS_MASK = (1 << 48) - 1


class ArchState:
    """Mutable architectural state for one program execution.

    The interpreter (:mod:`repro.arch.executor`) reads and writes these
    containers directly and keeps them canonical: ``gprs[0]`` is never
    written (r0 reads zero), ``predicates[0]`` is never written (p0
    reads true), every register and memory word is masked to 64 bits,
    and memory is keyed by addresses masked to :data:`ADDRESS_MASK`
    (unmapped words read as zero).
    """

    def __init__(self) -> None:
        self.gprs: List[int] = [0] * NUM_GPRS
        self.predicates: List[bool] = [False] * NUM_PREDICATES
        self.predicates[PRED_TRUE] = True
        self.memory: Dict[int, int] = {}
        self.call_stack: List[int] = []
