"""Tests for architectural state, observed through executed programs.

The interpreter reads and writes the state's containers directly, so the
hard-wired registers, 64-bit wrap-around and the 48-bit data address
space are checked on what a run outputs and records.
"""

from repro.arch.state import ADDRESS_MASK, WORD_MASK, ArchState
from repro.isa.opcodes import Opcode
from tests.helpers import I, run


def outputs_of(*instructions):
    result = run(list(instructions))
    assert result.clean
    return result.outputs


def big_constant(reg, shift):
    """Code leaving ``1 << shift`` in ``reg`` (r60 is scratch)."""
    return [I(Opcode.MOVI, r1=reg, imm=1), I(Opcode.MOVI, r1=60, imm=shift),
            I(Opcode.SHL, r1=reg, r2=reg, r3=60)]


class TestRegisters:
    def test_r0_reads_zero(self):
        for writer in (I(Opcode.MOVI, r1=0, imm=123),
                       I(Opcode.ADDI, r1=0, r2=1, imm=1),
                       I(Opcode.ANDI, r1=0, r2=1, imm=-1),
                       I(Opcode.XOR, r1=0, r2=1, r3=0),
                       I(Opcode.LD, r1=0, r2=0, imm=16)):
            assert outputs_of(
                I(Opcode.MOVI, r1=1, imm=3),
                I(Opcode.ST, r1=1, r2=0, imm=16),
                writer,
                I(Opcode.ADD, r1=2, r2=0, r3=0),
                I(Opcode.OUT, r2=0),
                I(Opcode.OUT, r2=2),
            ) == (0, 0), writer

    def test_write_read(self):
        assert outputs_of(I(Opcode.MOVI, r1=5, imm=42),
                          I(Opcode.OUT, r2=5)) == (42,)

    def test_64_bit_wrap(self):
        assert outputs_of(
            I(Opcode.MOVI, r1=5, imm=-1),           # WORD_MASK
            I(Opcode.ADDI, r1=5, r2=5, imm=3),
            I(Opcode.OUT, r2=5),
        ) == (2,)

    def test_negative_values_wrap(self):
        assert outputs_of(
            I(Opcode.ADDI, r1=5, r2=0, imm=-1),
            I(Opcode.OUT, r2=5),
        ) == (WORD_MASK,)


class TestPredicates:
    def test_p0_always_true(self):
        assert ArchState().predicates[0] is True
        # Each compare writes false to p0 (r1 = 64 names p0 too).
        for compare in (I(Opcode.CMP_NE, r1=0, r2=1, r3=1),
                        I(Opcode.CMP_EQ, r1=0, r2=1, r3=0),
                        I(Opcode.CMP_LT, r1=64, r2=1, r3=0)):
            assert outputs_of(
                I(Opcode.MOVI, r1=1, imm=1),
                compare,
                I(Opcode.MOVI, qp=0, r1=2, imm=5),
                I(Opcode.OUT, r2=2),
            ) == (5,), compare

    def test_default_false(self):
        result = run([I(Opcode.MOVI, qp=7, r1=1, imm=1), I(Opcode.OUT, r2=1)])
        assert result.outputs == (0,)
        assert result.trace[0].executed is False

    def test_write_read(self):
        assert outputs_of(
            I(Opcode.CMP_EQ, r1=7, r2=0, r3=0),     # p7 = true
            I(Opcode.MOVI, qp=7, r1=1, imm=1),
            I(Opcode.OUT, r2=1),
        ) == (1,)


class TestMemory:
    def test_unmapped_reads_zero(self):
        assert outputs_of(
            I(Opcode.MOVI, r1=1, imm=0x1234),
            I(Opcode.LD, r1=2, r2=1, imm=0),
            I(Opcode.OUT, r2=2),
        ) == (0,)

    def test_store_load(self):
        assert outputs_of(
            I(Opcode.MOVI, r1=1, imm=0x1234),
            I(Opcode.MOVI, r1=2, imm=99),
            I(Opcode.ST, r1=2, r2=1, imm=0),
            I(Opcode.LD, r1=3, r2=1, imm=0),
            I(Opcode.OUT, r2=3),
        ) == (99,)

    def test_address_masking(self):
        assert ADDRESS_MASK == (1 << 48) - 1
        result = run(big_constant(1, 48) + [       # r1 = ADDRESS_MASK + 1
            I(Opcode.MOVI, r1=2, imm=7),
            I(Opcode.ST, r1=2, r2=1, imm=0x10),     # wraps to 0x10
            I(Opcode.MOVI, r1=3, imm=0x10),
            I(Opcode.LD, r1=4, r2=3, imm=0),
            I(Opcode.OUT, r2=4),
        ])
        assert result.outputs == (7,)
        assert result.trace[4].mem_addr == ADDRESS_MASK + 1 + 0x10

    def test_value_masking(self):
        assert outputs_of(
            I(Opcode.MOVI, r1=2, imm=-1),           # WORD_MASK
            I(Opcode.ADDI, r1=2, r2=2, imm=5),      # wraps to 4
            I(Opcode.ST, r1=2, r2=0, imm=0x10),
            I(Opcode.LD, r1=3, r2=0, imm=0x10),
            I(Opcode.OUT, r2=3),
        ) == (4,)
