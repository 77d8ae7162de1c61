"""Single-strike evaluation tests.

Corruption and re-execution are the production ground truth; the
one-strike classifications run through the per-trial reference
(``tests/strike_reference.py``) that the campaign classifier is
differentially checked against.
"""

import pytest

from repro.arch.executor import FunctionalSimulator
from repro.due.outcomes import FaultOutcome
from repro.due.tracking import TrackingLevel
from repro.faults.injector import architectural_effect, corrupt_instruction
from repro.isa.encoding import Field, field_bits
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.pipeline.iq import OccupancyInterval, OccupantKind
from tests.helpers import I, program
from tests.strike_reference import Strike, evaluate_strike

R3_BIT = next(iter(field_bits(Field.R3)))
IMM_BIT = next(iter(field_bits(Field.IMM7)))


class TestCorruptInstruction:
    def test_changes_instruction(self):
        original = I(Opcode.ADD, r1=1, r2=2, r3=3)
        for bit in range(41):
            assert corrupt_instruction(original, bit) != original

    def test_r3_flip_changes_source(self):
        original = I(Opcode.ADD, r1=1, r2=2, r3=3)
        corrupted = corrupt_instruction(original, R3_BIT)
        assert corrupted.r3 != 3


@pytest.fixture(scope="module")
def tiny_setup():
    prog = program([
        I(Opcode.MOVI, r1=1, imm=5),
        I(Opcode.MOVI, r1=9, imm=3),  # dead: r9 never read
        I(Opcode.OUT, r2=1),
    ])
    baseline = FunctionalSimulator(prog).run()
    return prog, baseline


class TestArchitecturalEffect:
    def test_dead_value_corruption_is_none(self, tiny_setup):
        prog, baseline = tiny_setup
        # Flip an immediate bit of the dead MOVI: output unchanged.
        assert architectural_effect(prog, baseline, 1, IMM_BIT) == "none"

    def test_live_value_corruption_is_sdc(self, tiny_setup):
        prog, baseline = tiny_setup
        assert architectural_effect(prog, baseline, 0, IMM_BIT) == "sdc"

    def test_opcode_corruption_can_trap(self, tiny_setup):
        prog, baseline = tiny_setup
        # HALT(23) with bit 40 flipped decodes as ILLEGAL (87).
        halt_seq = len(baseline.trace) - 1
        opcode_high_bit = 34 + 6
        assert architectural_effect(prog, baseline, halt_seq,
                                    opcode_high_bit) == "trap"

    def test_hang_detected(self):
        # Corrupting a high immediate bit of the loop counter makes the
        # loop run ~2^17 times longer than the baseline: classified "hang".
        prog = program([
            I(Opcode.MOVI, r1=1, imm=2),
            I(Opcode.ADDI, r1=1, r2=1, imm=-1),  # loop head
            I(Opcode.CMP_NE, r1=5, r2=1, r3=0),
            I(Opcode.BR, qp=5, imm=-2),
            I(Opcode.OUT, r2=1),
        ])
        baseline = FunctionalSimulator(prog).run()
        assert baseline.clean
        assert architectural_effect(prog, baseline, 0, bit=30) == "hang"


def strike_on(interval, cycle, bit=R3_BIT):
    return Strike(interval=interval, cycle=cycle, bit=bit)


def committed_interval(seq, alloc=0, issue=10, dealloc=12):
    return OccupancyInterval(seq, I(Opcode.MOVI, r1=1, imm=5),
                             OccupantKind.COMMITTED, alloc, issue, dealloc)


class TestEvaluateStrike:
    def test_idle_strike_benign(self, tiny_setup):
        prog, baseline = tiny_setup
        verdict = evaluate_strike(Strike(None, 0, 3), prog, baseline)
        assert verdict.outcome is FaultOutcome.BENIGN_UNREAD

    def test_ex_ace_strike_benign(self, tiny_setup):
        prog, baseline = tiny_setup
        verdict = evaluate_strike(
            strike_on(committed_interval(0), cycle=11), prog, baseline)
        assert verdict.outcome is FaultOutcome.BENIGN_UNREAD

    def test_never_issued_benign(self, tiny_setup):
        prog, baseline = tiny_setup
        interval = OccupancyInterval(0, I(Opcode.MOVI, r1=1, imm=5),
                                     OccupantKind.SQUASHED, 0, None, 9)
        verdict = evaluate_strike(strike_on(interval, 5), prog, baseline)
        assert verdict.outcome is FaultOutcome.BENIGN_UNREAD

    def test_live_corruption_unprotected_is_sdc(self, tiny_setup):
        prog, baseline = tiny_setup
        verdict = evaluate_strike(
            strike_on(committed_interval(0), 5, bit=IMM_BIT),
            prog, baseline, parity=False)
        assert verdict.outcome is FaultOutcome.SDC

    def test_dead_corruption_unprotected_is_benign(self, tiny_setup):
        prog, baseline = tiny_setup
        verdict = evaluate_strike(
            strike_on(committed_interval(1), 5, bit=IMM_BIT),
            prog, baseline, parity=False)
        assert verdict.outcome is FaultOutcome.BENIGN_UNACE

    def test_parity_turns_sdc_into_true_due(self, tiny_setup):
        prog, baseline = tiny_setup
        verdict = evaluate_strike(
            strike_on(committed_interval(0), 5, bit=IMM_BIT),
            prog, baseline, parity=True,
            tracking=TrackingLevel.PARITY_ONLY)
        assert verdict.outcome is FaultOutcome.TRUE_DUE

    def test_parity_dead_is_false_due(self, tiny_setup):
        prog, baseline = tiny_setup
        verdict = evaluate_strike(
            strike_on(committed_interval(1), 5, bit=IMM_BIT),
            prog, baseline, parity=True,
            tracking=TrackingLevel.PARITY_ONLY)
        assert verdict.outcome is FaultOutcome.FALSE_DUE

    def test_tracking_avoids_false_due(self, tiny_setup):
        prog, baseline = tiny_setup
        verdict = evaluate_strike(
            strike_on(committed_interval(1), 5, bit=IMM_BIT),
            prog, baseline, parity=True, tracking=TrackingLevel.REG_PI)
        assert verdict.outcome is FaultOutcome.BENIGN_UNACE

    def test_wrong_path_false_due_without_tracking(self, tiny_setup):
        prog, baseline = tiny_setup
        interval = OccupancyInterval(None, I(Opcode.ADD, r1=1),
                                     OccupantKind.WRONG_PATH, 0, 5, 8)
        untracked = evaluate_strike(strike_on(interval, 2), prog, baseline,
                                    parity=True,
                                    tracking=TrackingLevel.PARITY_ONLY)
        tracked = evaluate_strike(strike_on(interval, 2), prog, baseline,
                                  parity=True,
                                  tracking=TrackingLevel.PI_COMMIT)
        assert untracked.outcome is FaultOutcome.FALSE_DUE
        assert tracked.outcome is FaultOutcome.BENIGN_UNACE

    def test_wrong_path_unprotected_benign(self, tiny_setup):
        prog, baseline = tiny_setup
        interval = OccupancyInterval(None, I(Opcode.ADD, r1=1),
                                     OccupantKind.WRONG_PATH, 0, 5, 8)
        verdict = evaluate_strike(strike_on(interval, 2), prog, baseline)
        assert verdict.outcome is FaultOutcome.BENIGN_UNACE
