"""The predecoded interpreter against the per-step reference loop.

``FunctionalSimulator.run`` must produce the run that
:func:`tests.arch_reference.reference_run` produces, field for field:
all 14 ``CommittedOp`` fields, outputs, status, invocation records,
``steps``, ``converged`` and the snapshot log. Checked on

* the 26 profiles, whose digests are also pinned in
  ``tests/data/arch_golden.json`` (a traced run and a snapshot-logging
  run of each), so that neither loop can drift;
* hypothesis-drawn generated programs, traced, snapshot-logged, and
  with seeded ``corrupt_burst`` overrides run in full and resumed from
  the snapshot log;
* hand-written corners: r0 writes, compares into p0, a predicated-false
  HALT and ILLEGAL, an ILLEGAL override, jumps out of range, RET
  underflow, the LIMIT budget, PREFETCH, addresses past the 48-bit
  space, and ALU/compare operands at the sign bit and shifts past 64.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.executor import (
    ExecutionLimits,
    FunctionalSimulator,
    resume_log,
    snapshot_interval,
)
from repro.arch.result import ExecutionStatus
from repro.faults.injector import corrupt_burst
from repro.faults.oracle import default_limits
from repro.isa.encoding import ENCODING_BITS
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import FunctionInfo
from repro.workloads.codegen import synthesize
from repro.workloads.spec2000 import get_profile
from tests.arch_reference import (
    golden_cases,
    load_golden,
    reference_run,
    run_digest,
    run_fields,
)
from tests.helpers import I, program
from tests.test_property import profiles


def assert_same_run(prog, limits=None, **kwargs):
    """Both loops on the same arguments; returns the production run."""
    produced = FunctionalSimulator(prog, limits).run(**kwargs)
    expected = reference_run(prog, limits, **kwargs)
    assert run_fields(produced) == run_fields(expected)
    return produced


def assert_same_runs(prog, limits=None):
    """A traced, an untraced and a snapshot-logging run agree."""
    traced = assert_same_run(prog, limits)
    assert_same_run(prog, limits, record_trace=False)
    assert_same_run(prog, limits, record_trace=False, snapshot_every=2)
    return traced


def assert_same_strikes(prog, baseline, strikes):
    """Each ``(seq, mask)`` override agrees run in full and resumed."""
    limits = default_limits(baseline)
    assert_same_run(prog, limits, record_trace=False,
                    snapshot_every=snapshot_interval(len(baseline.trace)))
    log = resume_log(prog, limits, baseline)
    for seq, mask in strikes:
        corrupted = corrupt_burst(baseline.trace[seq].instruction, mask)
        kwargs = dict(override_seq=seq, override_instruction=corrupted)
        assert_same_run(prog, limits, **kwargs)
        assert_same_run(prog, limits, record_trace=False, **kwargs)
        assert_same_run(prog, limits, record_trace=False, resume=log,
                        **kwargs)


class TestProfiles:
    def test_every_profile_matches_the_reference_and_its_digest(self):
        golden = load_golden()
        keys = []
        for key, prog, kwargs in golden_cases():
            produced = assert_same_run(prog, **kwargs)
            assert run_digest(produced) == golden[key], key
            keys.append(key)
        assert sorted(keys) == sorted(golden)
        assert len(keys) == 2 * 26

    def test_seeded_strikes_resumed_from_the_snapshot_log(self):
        prog = synthesize(get_profile("crafty"), 3000, seed=7)
        baseline = FunctionalSimulator(prog).run()
        rng = random.Random(2004)
        strikes = []
        for _ in range(40):
            seq = rng.randrange(len(baseline.trace))
            mask = 1 << rng.randrange(ENCODING_BITS)
            if rng.random() < 0.3:
                mask |= mask << 1 if mask < 1 << (ENCODING_BITS - 1) else 1
            strikes.append((seq, mask))
        assert_same_strikes(prog, baseline, strikes)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(profiles(), st.integers(0, 10_000), st.randoms(use_true_random=False))
def test_generated_programs_match_the_reference(profile, seed, rng):
    prog = synthesize(profile, target_instructions=1500, seed=seed)
    baseline = assert_same_run(prog)
    assert_same_run(prog, record_trace=False,
                    snapshot_every=snapshot_interval(len(baseline.trace)))
    strikes = [(rng.randrange(len(baseline.trace)),
                1 << rng.randrange(ENCODING_BITS)) for _ in range(6)]
    assert_same_strikes(prog, baseline, strikes)


class TestCorners:
    def test_r0_writes_are_discarded_and_recorded(self):
        result = assert_same_runs(program([
            I(Opcode.MOVI, r1=0, imm=123),
            I(Opcode.ADDI, r1=0, r2=0, imm=5),
            I(Opcode.ANDI, r1=0, r2=0, imm=-1),
            I(Opcode.ADD, r1=0, r2=0, r3=0),
            I(Opcode.LD, r1=0, r2=0, imm=8),
            I(Opcode.ST, r1=0, r2=0, imm=8),
            I(Opcode.OUT, r2=0),
        ]))
        assert result.outputs == (0,)
        assert [op.dest_gpr for op in result.trace[:5]] == [0] * 5

    def test_compare_into_p0_is_discarded_and_recorded(self):
        result = assert_same_runs(program([
            I(Opcode.CMP_NE, r1=0, r2=0, r3=0),     # p0 = false
            I(Opcode.CMP_NE, r1=64, r2=0, r3=0),    # p(64 % 64) = false
            I(Opcode.MOVI, r1=1, imm=1),            # (p0) still runs
            I(Opcode.OUT, r2=1),
        ]))
        assert result.outputs == (1,)
        assert [op.dest_pred for op in result.trace[:2]] == [0, 0]

    def test_predicated_false_halt_still_halts(self):
        result = assert_same_runs(program([
            I(Opcode.HALT, qp=3),                   # p3 is false
            I(Opcode.OUT, r2=0),
        ]))
        assert result.status is ExecutionStatus.HALTED
        assert result.outputs == ()
        halt = result.trace[0]
        assert (halt.executed, halt.next_pc, halt.src_gprs) == (True, 0, ())

    def test_predicated_false_illegal_still_traps(self):
        result = assert_same_runs(program([
            I(Opcode.OUT, r2=0),
            I(Opcode.ILLEGAL, qp=3),
            I(Opcode.OUT, r2=0),
        ]))
        assert result.status is ExecutionStatus.TRAP_ILLEGAL
        assert (result.outputs, result.steps) == ((0,), 1)

    def test_illegal_override(self):
        prog = program([I(Opcode.MOVI, r1=1, imm=4), I(Opcode.OUT, r2=1),
                        I(Opcode.OUT, r2=1)])
        for seq in range(4):
            result = assert_same_run(
                prog, record_trace=False, override_seq=seq,
                override_instruction=Instruction(Opcode.ILLEGAL))
            assert result.status is ExecutionStatus.TRAP_ILLEGAL
            assert result.steps == seq

    @pytest.mark.parametrize("offset", [+100, -1, +2])
    def test_jump_out_of_range_traps(self, offset):
        result = assert_same_runs(program([I(Opcode.BR, imm=offset)]))
        assert result.status is ExecutionStatus.TRAP_ILLEGAL
        assert result.steps == 1

    def test_ret_underflow(self):
        result = assert_same_runs(program([
            I(Opcode.CALL, imm=3),
            I(Opcode.RET),
            I(Opcode.HALT),
            I(Opcode.RET),                          # f returns to 1
        ], functions=[FunctionInfo("f", 3, 4)]))
        assert result.status is ExecutionStatus.RET_UNDERFLOW
        assert result.steps == 2
        assert result.invocations[1].return_seq == 1

    def test_limit_budget(self):
        prog = program([I(Opcode.ADDI, r1=1, r2=1, imm=1),
                        I(Opcode.BR, imm=-1)])
        result = assert_same_runs(prog, ExecutionLimits(max_instructions=51))
        assert result.status is ExecutionStatus.LIMIT
        assert result.steps == 51

    def test_prefetch_records_no_sources(self):
        result = assert_same_runs(program([
            I(Opcode.MOVI, r1=5, imm=64),
            I(Opcode.PREFETCH, r2=5, imm=3),
            I(Opcode.HINT, r2=5),
        ]))
        assert [op.src_gprs for op in result.trace[1:3]] == [(), ()]
        assert result.trace[1].mem_addr is None

    def test_addresses_are_recorded_before_the_48_bit_mask(self):
        result = assert_same_runs(program([
            I(Opcode.MOVI, r1=1, imm=1),
            I(Opcode.MOVI, r1=2, imm=50),
            I(Opcode.SHL, r1=3, r2=1, r3=2),        # r3 = 2**50
            I(Opcode.MOVI, r1=4, imm=9),
            I(Opcode.ST, r1=4, r2=3, imm=0),        # stores to address 0
            I(Opcode.LD, r1=5, r2=0, imm=0),
            I(Opcode.LD, r1=6, r2=0, imm=-1),       # wraps to 2**64 - 1
            I(Opcode.OUT, r2=5),
            I(Opcode.OUT, r2=6),
        ]))
        assert result.outputs == (9, 0)
        assert [op.mem_addr for op in result.trace[4:7]] == [
            1 << 50, 0, (1 << 64) - 1]

    def test_nested_calls_and_predicated_calls(self):
        result = assert_same_runs(program([
            I(Opcode.CMP_EQ, r1=2, r2=0, r3=0),     # p2 = true
            I(Opcode.CALL, qp=3, imm=5),            # nullified
            I(Opcode.CALL, qp=2, imm=4),            # -> f
            I(Opcode.OUT, r2=9),
            I(Opcode.HALT),
            I(Opcode.NOP),
            I(Opcode.CALL, imm=2),                  # f: -> g
            I(Opcode.RET),
            I(Opcode.ADDI, r1=9, r2=9, imm=7),      # g
            I(Opcode.RET),
        ], functions=[FunctionInfo("f", 6, 8), FunctionInfo("g", 8, 10)]))
        assert result.outputs == (7,)
        assert sorted(result.invocations) == [0, 1, 2]
        assert [op.invocation for op in result.trace] == [
            0, 0, 0, 1, 2, 2, 1, 0, 0]


    def test_alu_and_compare_operand_corners(self):
        # r1 = 2**64 - 1, r2 = 2**63, r3 = 65 (a shift past 64), r4 = 1.
        code = [I(Opcode.ADDI, r1=1, r2=0, imm=-1),
                I(Opcode.MOVI, r1=2, imm=1), I(Opcode.MOVI, r1=9, imm=63),
                I(Opcode.SHL, r1=2, r2=2, r3=9),
                I(Opcode.MOVI, r1=3, imm=65), I(Opcode.MOVI, r1=4, imm=1)]
        operands = (0, 1, 2, 3, 4)
        for opcode in (Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR,
                       Opcode.XOR, Opcode.SHL, Opcode.SHR, Opcode.MUL):
            for a in operands:
                for b in operands:
                    code += [I(opcode, r1=10, r2=a, r3=b),
                             I(Opcode.OUT, r2=10)]
        for opcode in (Opcode.CMP_EQ, Opcode.CMP_NE, Opcode.CMP_LT):
            for a in operands:
                for b in operands:
                    code += [I(opcode, r1=5, r2=a, r3=b),
                             I(Opcode.MOVI, r1=10, imm=0),
                             I(Opcode.MOVI, qp=5, r1=10, imm=1),
                             I(Opcode.OUT, r2=10)]
        result = assert_same_runs(program(code))
        less = result.outputs[-25:]      # the CMP_LT block
        assert less[1 * 5 + 4] == 1      # -1 < 1 as signed
        assert less[4 * 5 + 1] == 0

