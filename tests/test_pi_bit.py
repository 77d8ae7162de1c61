"""π-bit propagation engine tests, cross-validated against the taxonomy."""

import pytest

from repro.analysis.deadcode import DynClass, analyze_deadness
from repro.due.pet import PetBuffer
from repro.due.pi_bit import PiBitTracker
from repro.due.tracking import TrackingLevel
from repro.isa.encoding import Field, field_bits
from repro.isa.opcodes import Opcode
from tests.helpers import I, run

OPCODE_BIT = next(iter(field_bits(Field.OPCODE)))
DATA_BIT = next(iter(field_bits(Field.R3)))


def decide(instructions, seq, level, bit=None, pet=512):
    result = run(list(instructions))
    tracker = PiBitTracker(result.trace, level, pet_entries=pet)
    return tracker.process_fault(seq, struck_bit=bit)


LIVE_CHAIN = [
    I(Opcode.MOVI, r1=1, imm=5),
    I(Opcode.ADD, r1=2, r2=1, r3=1),
    I(Opcode.OUT, r2=2),
]


class TestParityOnly:
    def test_always_signals(self):
        for seq in range(3):
            decision = decide(LIVE_CHAIN, seq, TrackingLevel.PARITY_ONLY)
            assert decision.signaled and decision.at_seq == seq

    def test_even_neutral_signals(self):
        decision = decide([I(Opcode.NOP)], 0, TrackingLevel.PARITY_ONLY)
        assert decision.signaled


class TestPiCommit:
    def test_pred_false_suppressed(self):
        decision = decide([I(Opcode.ADD, qp=9, r1=2, r2=1, r3=1)], 0,
                          TrackingLevel.PI_COMMIT)
        assert not decision.signaled
        assert "predicated false" in decision.reason

    def test_live_signals_at_commit(self):
        decision = decide(LIVE_CHAIN, 0, TrackingLevel.PI_COMMIT)
        assert decision.signaled

    def test_neutral_still_signals_without_anti_pi(self):
        decision = decide([I(Opcode.NOP)], 0, TrackingLevel.PI_COMMIT,
                          bit=DATA_BIT)
        assert decision.signaled


class TestAntiPi:
    def test_neutral_non_opcode_suppressed(self):
        decision = decide([I(Opcode.NOP)], 0, TrackingLevel.ANTI_PI,
                          bit=DATA_BIT)
        assert not decision.signaled
        assert "anti" in decision.reason

    def test_neutral_opcode_bit_signals(self):
        decision = decide([I(Opcode.NOP)], 0, TrackingLevel.ANTI_PI,
                          bit=OPCODE_BIT)
        assert decision.signaled

    def test_non_neutral_unaffected(self):
        decision = decide(LIVE_CHAIN, 0, TrackingLevel.ANTI_PI, bit=DATA_BIT)
        assert decision.signaled


class TestPet:
    def test_fdd_within_window_suppressed(self):
        code = [
            I(Opcode.MOVI, r1=1, imm=5),
            I(Opcode.MOVI, r1=1, imm=6),
            I(Opcode.OUT, r2=1),
        ]
        decision = decide(code, 0, TrackingLevel.PET, pet=16)
        assert not decision.signaled

    def test_fdd_outside_window_signals(self):
        code = [
            I(Opcode.MOVI, r1=1, imm=5),
            *[I(Opcode.NOP)] * 30,
            I(Opcode.MOVI, r1=1, imm=6),
            I(Opcode.OUT, r2=1),
        ]
        decision = decide(code, 0, TrackingLevel.PET, pet=8)
        assert decision.signaled

    def test_live_signals(self):
        decision = decide(LIVE_CHAIN, 0, TrackingLevel.PET, pet=16)
        assert decision.signaled


class TestRegPi:
    def test_fdd_suppressed_regardless_of_distance(self):
        code = [
            I(Opcode.MOVI, r1=1, imm=5),
            *[I(Opcode.NOP)] * 40,
            I(Opcode.MOVI, r1=1, imm=6),
            I(Opcode.OUT, r2=1),
        ]
        decision = decide(code, 0, TrackingLevel.REG_PI)
        assert not decision.signaled

    def test_never_read_never_overwritten_suppressed(self):
        decision = decide([I(Opcode.MOVI, r1=9, imm=5)], 0,
                          TrackingLevel.REG_PI)
        assert not decision.signaled

    def test_tdd_still_signals(self):
        # The dead reader consumes the poisoned register: REG_PI cannot
        # tell it is transitively dead, so it must signal.
        code = [
            I(Opcode.MOVI, r1=1, imm=5),
            I(Opcode.ADD, r1=2, r2=1, r3=1),  # dead reader
        ]
        decision = decide(code, 0, TrackingLevel.REG_PI)
        assert decision.signaled
        assert "read" in decision.reason

    def test_store_pi_out_of_scope_signals(self):
        code = [
            I(Opcode.MOVI, r1=1, imm=0x40),
            I(Opcode.ST, r1=1, r2=1, imm=0),  # faulted store: no dest reg
        ]
        decision = decide(code, 1, TrackingLevel.REG_PI)
        assert decision.signaled

    def test_poisoned_predicate_read_signals(self):
        code = [
            I(Opcode.CMP_EQ, r1=5, r2=0, r3=0),
            I(Opcode.MOVI, qp=5, r1=1, imm=3),
            I(Opcode.OUT, r2=1),
        ]
        decision = decide(code, 0, TrackingLevel.REG_PI)
        assert decision.signaled


class TestStorePi:
    def test_tdd_reg_suppressed(self):
        code = [
            I(Opcode.MOVI, r1=1, imm=5),  # TDD via r1 -> r2 (dead)
            I(Opcode.ADD, r1=2, r2=1, r3=1),
            I(Opcode.MOVI, r1=1, imm=0),
            I(Opcode.MOVI, r1=2, imm=0),
        ]
        decision = decide(code, 0, TrackingLevel.STORE_PI)
        assert not decision.signaled

    def test_poison_reaching_store_signals(self):
        code = [
            I(Opcode.MOVI, r1=1, imm=5),
            I(Opcode.ADD, r1=2, r2=1, r3=1),
            I(Opcode.MOVI, r1=3, imm=0x40),
            I(Opcode.ST, r1=2, r2=3, imm=0),  # poisoned data stored
        ]
        decision = decide(code, 0, TrackingLevel.STORE_PI)
        assert decision.signaled
        assert "store" in decision.reason

    def test_poison_reaching_out_signals(self):
        decision = decide(LIVE_CHAIN, 0, TrackingLevel.STORE_PI)
        assert decision.signaled

    def test_poisoned_control_signals(self):
        code = [
            I(Opcode.MOVI, r1=1, imm=1),
            I(Opcode.CMP_NE, r1=5, r2=1, r3=0),
            I(Opcode.BR, qp=5, imm=2),
            I(Opcode.NOP),
        ]
        decision = decide(code, 0, TrackingLevel.STORE_PI)
        assert decision.signaled
        assert "predication" in decision.reason or "control" in decision.reason

    def test_clean_overwrite_scrubs(self):
        code = [
            I(Opcode.MOVI, r1=1, imm=5),
            I(Opcode.ADD, r1=2, r2=1, r3=1),
            I(Opcode.MOVI, r1=2, imm=7),  # clean overwrite of r2
            I(Opcode.MOVI, r1=1, imm=8),  # clean overwrite of r1
            I(Opcode.OUT, r2=2),
        ]
        decision = decide(code, 0, TrackingLevel.STORE_PI)
        assert not decision.signaled


class TestMemPi:
    def test_dead_store_suppressed(self):
        code = [
            I(Opcode.MOVI, r1=1, imm=0x40),
            I(Opcode.MOVI, r1=2, imm=9),
            I(Opcode.ST, r1=2, r2=1, imm=0),  # faulted, never loaded
        ]
        decision = decide(code, 2, TrackingLevel.MEM_PI)
        assert not decision.signaled

    def test_poison_through_memory_to_out_signals(self):
        code = [
            I(Opcode.MOVI, r1=1, imm=0x40),
            I(Opcode.MOVI, r1=2, imm=9),  # faulted
            I(Opcode.ST, r1=2, r2=1, imm=0),
            I(Opcode.LD, r1=3, r2=1, imm=0),
            I(Opcode.OUT, r2=3),
        ]
        decision = decide(code, 1, TrackingLevel.MEM_PI)
        assert decision.signaled
        assert "I/O" in decision.reason

    def test_poisoned_word_scrubbed_by_clean_store(self):
        code = [
            I(Opcode.MOVI, r1=1, imm=0x40),
            I(Opcode.MOVI, r1=2, imm=9),  # faulted
            I(Opcode.ST, r1=2, r2=1, imm=0),
            I(Opcode.ST, r1=0, r2=1, imm=0),  # clean overwrite
            I(Opcode.LD, r1=3, r2=1, imm=0),
            I(Opcode.OUT, r2=3),
        ]
        decision = decide(code, 1, TrackingLevel.MEM_PI)
        assert not decision.signaled


class TestCrossValidation:
    """Every dead-class fault must be silent at the level that claims to
    cover it, and every live fault must signal at every level."""

    LEVEL_COVERING = {
        DynClass.PRED_FALSE: TrackingLevel.PI_COMMIT,
        DynClass.NEUTRAL: TrackingLevel.ANTI_PI,
        DynClass.FDD_REG: TrackingLevel.REG_PI,
        DynClass.FDD_REG_RETURN: TrackingLevel.REG_PI,
        DynClass.TDD_REG: TrackingLevel.STORE_PI,
        DynClass.FDD_MEM: TrackingLevel.MEM_PI,
        DynClass.TDD_MEM: TrackingLevel.MEM_PI,
    }

    def test_on_generated_workload(self, small_execution, small_deadness):
        trace = small_execution.trace
        checked = {cls: 0 for cls in self.LEVEL_COVERING}
        for seq, cls in enumerate(small_deadness.classes):
            if cls not in self.LEVEL_COVERING or checked[cls] >= 10:
                continue
            checked[cls] += 1
            level = self.LEVEL_COVERING[cls]
            tracker = PiBitTracker(trace, level)
            decision = tracker.process_fault(seq)
            assert not decision.signaled, (
                f"{cls} fault at seq {seq} signalled at {level}: "
                f"{decision.reason}")
        assert all(count > 0 for cls, count in checked.items()
                   if small_deadness.count(cls) > 0)

    def test_live_always_signals(self, small_execution, small_deadness):
        trace = small_execution.trace
        checked = 0
        for seq, cls in enumerate(small_deadness.classes):
            if cls is not DynClass.LIVE or checked >= 10:
                continue
            op = trace[seq]
            if op.instruction.is_control or not op.executed:
                continue  # control ops are conservative roots
            checked += 1
            for level in (TrackingLevel.PARITY_ONLY, TrackingLevel.REG_PI,
                          TrackingLevel.STORE_PI, TrackingLevel.MEM_PI):
                decision = PiBitTracker(trace, level).process_fault(seq)
                assert decision.signaled, (
                    f"live fault at seq {seq} silent at {level}")
        assert checked > 0

    def test_seq_validation(self, small_execution):
        tracker = PiBitTracker(small_execution.trace,
                               TrackingLevel.PARITY_ONLY)
        with pytest.raises(ValueError):
            tracker.process_fault(-1)
        with pytest.raises(ValueError):
            tracker.process_fault(len(small_execution.trace))


class TestPetScanMatchesBuffer:
    """The tracker's column scan is :class:`PetBuffer`'s eviction scan:
    feeding the rows from the faulted one on through a buffer reaches
    the same decision for every committed instruction."""

    @staticmethod
    def buffer_decision(trace, seq, entries):
        buffer = PetBuffer(entries)
        for row in range(seq, min(len(trace), seq + entries + 1)):
            decision = buffer.retire(trace[row], pi_set=(row == seq))
            if decision is not None:
                return decision.signal, f"PET: {decision.reason}"
        decision = next(d for d in buffer.drain() if d.seq == seq)
        return decision.signal, f"PET drain: {decision.reason}"

    @pytest.mark.parametrize("entries", [4, 64])
    def test_every_executed_seq(self, small_execution, entries):
        trace = small_execution.trace
        tracker = PiBitTracker(trace, TrackingLevel.PET, entries)
        rows = [op.seq for op in trace
                if op.executed and not op.instruction.is_neutral]
        for seq in rows[::7] + rows[-entries:]:
            decision = tracker.process_fault(seq)
            assert (decision.signaled, decision.reason) == \
                self.buffer_decision(trace, seq, entries), seq
            assert decision.at_seq == seq
