"""The columnar committed trace (`repro.arch.trace`)."""

import pickle

import numpy as np
import pytest

from repro.arch.state import WORD_MASK
from repro.arch.trace import (
    EMPTY_TRACE,
    EXECUTED,
    FIELDS,
    IS_LOAD,
    NO_VALUE,
    CommittedOp,
    Trace,
)
from repro.isa.opcodes import Opcode
from tests.helpers import I, run


def fields_of(trace):
    return [op.fields() for op in trace]


class TestColumns:
    def test_row_index_is_seq(self, small_execution):
        trace = small_execution.trace
        assert [op.seq for op in trace[:50]] == list(range(50))

    def test_next_pc_is_the_following_pc(self, small_execution):
        trace = small_execution.trace
        assert np.array_equal(trace.next_pc[:-1], trace.pc[1:])
        assert trace[-1].instruction.opcode is Opcode.HALT
        assert trace[-1].next_pc == trace[-1].pc

    def test_columns_are_read_only(self, small_execution):
        with pytest.raises(ValueError):
            small_execution.trace.pc[0] = 1

    def test_no_value_marks_rows_without_memory(self, small_execution):
        trace = small_execution.trace
        memory = trace.accesses_memory
        assert np.all(trace.mem_addr[~memory] == NO_VALUE)
        assert [op.mem_addr is None for op in trace[:200]] == \
            (~memory[:200]).tolist()

    def test_all_ones_address_is_not_no_value(self):
        # r0 + (-1): the address whose 64 bits are all ones.
        result = run([I(Opcode.LD, r1=1, r2=0, imm=-1)])
        assert result.trace.mem_addr[0] == NO_VALUE
        assert result.trace.flags[0] & IS_LOAD
        assert result.trace[0].mem_addr == WORD_MASK
        assert result.trace.addresses().tolist() == [WORD_MASK]

    def test_nullified_rows_record_nothing(self):
        result = run([I(Opcode.CMP_NE, r1=3, r2=0, r3=0),
                      I(Opcode.LD, qp=3, r1=1, r2=2)])
        op = result.trace[1]
        assert not op.executed
        assert (op.dest_gpr, op.dest_pred, op.mem_addr, op.src_gprs) == \
            (0, -1, None, ())

    def test_prefetch_records_no_sources(self):
        result = run([I(Opcode.PREFETCH, r2=4)])
        assert result.trace[0].src_gprs == ()
        assert result.trace[0].instruction.source_gprs() == (4,)

    def test_override_extends_the_instruction_table(self, small_program,
                                                    small_execution):
        from repro.arch.executor import FunctionalSimulator

        nop = I(Opcode.NOP)
        rerun = FunctionalSimulator(small_program).run(
            override_seq=5, override_instruction=nop)
        table = rerun.trace.instructions
        assert table[:-1] == small_program.instructions
        assert table[-1] is nop
        assert rerun.trace[5].instruction is nop
        assert rerun.trace[4].instruction is small_execution.trace[4] \
            .instruction


class TestRowView:
    def test_fields_are_plain_python(self, small_execution):
        op = small_execution.trace[3]
        assert isinstance(op, CommittedOp)
        for name, value in zip(FIELDS, op.fields()):
            assert type(value) in (int, bool, tuple, type(None)) \
                or name == "instruction", name

    def test_indexing(self, small_execution):
        trace = small_execution.trace
        assert trace[-1].seq == len(trace) - 1
        with pytest.raises(IndexError):
            trace[len(trace)]
        assert [op.seq for op in trace[10:13]] == [10, 11, 12]


class TestValueSemantics:
    def test_pickle_is_raw_buffers(self, small_execution):
        trace = small_execution.trace
        blob = pickle.dumps(trace, protocol=pickle.HIGHEST_PROTOCOL)
        loaded = pickle.loads(blob)
        assert loaded == trace
        assert fields_of(loaded) == fields_of(trace)
        assert not loaded.pc.flags.writeable
        # Columns and one table: no object per row.
        assert len(blob) < 30 * len(trace) + 200 * len(trace.instructions)

    def test_equality_with_rows(self, small_execution):
        trace = small_execution.trace
        assert trace == list(trace)
        assert trace != list(trace)[:-1]
        assert EMPTY_TRACE == []

    def test_tile(self, small_execution):
        trace = small_execution.trace
        tiled = trace.tile(2)
        assert len(tiled) == 2 * len(trace)
        assert tiled.instructions is trace.instructions
        assert fields_of(tiled[len(trace):])[5][1:] == \
            fields_of(trace)[5][1:]

    def test_columns_must_agree_in_length(self):
        with pytest.raises(ValueError):
            Trace((I(Opcode.HALT),), [0], [0], [0], [0], [-1], [NO_VALUE],
                  [EXECUTED], [0, 0])
