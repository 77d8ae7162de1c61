"""IQ-entry layout and instruction decode for the timing loop.

The timing loop (:func:`repro.pipeline.compose.run_composed`) keeps each
IQ entry as a plain list indexed by the ``E_*`` slots below (list
indexing beats attribute access in the hot loop), and classifies each
instruction once into a functional-unit code (``K_*``) plus the operand
registers the issue stage tests.
"""

from __future__ import annotations

from repro.isa.opcodes import InstrClass, Opcode

#: Functional-unit class codes (LOAD/STORE share the memory ports).
K_LOAD, K_STORE, K_MUL, K_COMPARE, K_BRANCH, K_OTHER = range(6)
_KMAP = {
    InstrClass.LOAD: K_LOAD, InstrClass.STORE: K_STORE,
    InstrClass.MUL: K_MUL, InstrClass.COMPARE: K_COMPARE,
    InstrClass.BRANCH: K_BRANCH, InstrClass.CALL: K_BRANCH,
    InstrClass.RET: K_BRANCH,
}

#: IQ-entry slots. ``E_PC`` is the fetch pc, so wrong-path entries can
#: be signatured and rebuilt by address.
(E_SEQ, E_KLASS, E_SRC, E_DEST, E_QP, E_WRONG, E_ALLOC, E_ISSUE, E_MISPRED,
 E_ADDR, E_EXEC, E_INSTR, E_DPRED, E_PC) = range(14)

_INF = float("inf")


def _decode(instruction):
    """The per-instruction facts the hot loop needs, computed once:
    (klass, source GPRs, dest GPR, qp, dest predicate, the instruction,
    whether it is a predicted ``BR``)."""
    return (_KMAP.get(instruction.instr_class, K_OTHER),
            instruction.source_gprs(), instruction.dest_gpr,
            instruction.qp, instruction.dest_predicate, instruction,
            instruction.opcode is Opcode.BR)
