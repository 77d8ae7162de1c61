"""Dead-code analysis tests on hand-crafted dataflow."""

import pytest

from repro.analysis.deadcode import DEAD_CLASSES, DynClass, analyze_deadness
from repro.isa.opcodes import Opcode
from repro.workloads.spec2000 import ALL_PROFILES
from tests import deadness_golden
from tests.helpers import I, program, run


def classes_of(*instructions):
    result = run(list(instructions))
    assert result.clean
    return analyze_deadness(result), result


class TestLiveness:
    def test_output_chain_is_live(self):
        analysis, _ = classes_of(
            I(Opcode.MOVI, r1=1, imm=5),
            I(Opcode.ADD, r1=2, r2=1, r3=1),
            I(Opcode.OUT, r2=2),
        )
        assert analysis.class_of(0) is DynClass.LIVE
        assert analysis.class_of(1) is DynClass.LIVE
        assert analysis.class_of(2) is DynClass.LIVE

    def test_control_is_live(self):
        analysis, _ = classes_of(
            I(Opcode.MOVI, r1=1, imm=5),
            I(Opcode.CMP_NE, r1=5, r2=1, r3=0),
            I(Opcode.BR, qp=5, imm=2),
            I(Opcode.NOP),
        )
        # MOVI feeds the compare that steers a branch: conservative LIVE.
        assert analysis.class_of(0) is DynClass.LIVE
        assert analysis.class_of(1) is DynClass.LIVE
        assert analysis.class_of(2) is DynClass.LIVE

    def test_halt_is_live(self):
        analysis, _ = classes_of(I(Opcode.NOP))
        assert analysis.class_of(1) is DynClass.LIVE  # the implicit HALT


class TestNeutralAndPredFalse:
    def test_neutral_types(self):
        analysis, _ = classes_of(
            I(Opcode.NOP),
            I(Opcode.HINT),
            I(Opcode.PREFETCH, r2=1),
        )
        for seq in range(3):
            assert analysis.class_of(seq) is DynClass.NEUTRAL

    def test_prefetch_reads_do_not_keep_producers_alive(self):
        analysis, _ = classes_of(
            I(Opcode.MOVI, r1=1, imm=0x99),  # only read by the prefetch
            I(Opcode.PREFETCH, r2=1),
        )
        assert analysis.class_of(0) in DEAD_CLASSES

    def test_predicated_false(self):
        analysis, _ = classes_of(
            I(Opcode.ADD, qp=9, r1=2, r2=1, r3=1),  # p9 false
        )
        assert analysis.class_of(0) is DynClass.PRED_FALSE

    def test_predicated_false_out_is_pred_false(self):
        analysis, _ = classes_of(I(Opcode.OUT, qp=9, r2=1))
        assert analysis.class_of(0) is DynClass.PRED_FALSE


class TestFirstLevelDead:
    def test_unread_overwritten_register(self):
        analysis, _ = classes_of(
            I(Opcode.MOVI, r1=1, imm=5),  # dead: overwritten, never read
            I(Opcode.MOVI, r1=1, imm=6),
            I(Opcode.OUT, r2=1),
        )
        assert analysis.class_of(0) is DynClass.FDD_REG
        assert analysis.class_of(1) is DynClass.LIVE
        assert analysis.overwrite_distance[0] == 1

    def test_unread_until_program_end(self):
        analysis, _ = classes_of(
            I(Opcode.MOVI, r1=9, imm=5),
        )
        assert analysis.class_of(0) is DynClass.FDD_REG
        assert analysis.overwrite_distance[0] is None

    def test_dead_predicate_write(self):
        analysis, _ = classes_of(
            I(Opcode.CMP_EQ, r1=5, r2=0, r3=0),  # p5 written, never read
        )
        assert analysis.class_of(0) is DynClass.FDD_REG

    def test_read_predicate_write_is_live(self):
        analysis, _ = classes_of(
            I(Opcode.CMP_EQ, r1=5, r2=0, r3=0),
            I(Opcode.MOVI, qp=5, r1=1, imm=3),
            I(Opcode.OUT, r2=1),
        )
        assert analysis.class_of(0) is DynClass.LIVE


class TestTransitivelyDead:
    def test_tdd_chain(self):
        analysis, _ = classes_of(
            I(Opcode.MOVI, r1=1, imm=5),  # read only by a dead consumer
            I(Opcode.ADD, r1=2, r2=1, r3=1),  # never read at all
        )
        assert analysis.class_of(0) is DynClass.TDD_REG
        assert analysis.class_of(1) is DynClass.FDD_REG

    def test_three_level_chain(self):
        analysis, _ = classes_of(
            I(Opcode.MOVI, r1=1, imm=5),
            I(Opcode.ADD, r1=2, r2=1, r3=1),
            I(Opcode.ADD, r1=3, r2=2, r3=2),
        )
        assert analysis.class_of(0) is DynClass.TDD_REG
        assert analysis.class_of(1) is DynClass.TDD_REG
        assert analysis.class_of(2) is DynClass.FDD_REG

    def test_one_live_reader_makes_live(self):
        analysis, _ = classes_of(
            I(Opcode.MOVI, r1=1, imm=5),
            I(Opcode.ADD, r1=2, r2=1, r3=1),  # dead consumer
            I(Opcode.OUT, r2=1),  # live consumer
        )
        assert analysis.class_of(0) is DynClass.LIVE


class TestMemoryDeadness:
    def _with_base(self, *instructions):
        return classes_of(I(Opcode.MOVI, r1=10, imm=0x100), *instructions)

    def test_dead_store_never_loaded(self):
        analysis, _ = self._with_base(
            I(Opcode.ST, r1=10, r2=10, imm=0),
        )
        assert analysis.class_of(1) is DynClass.FDD_MEM

    def test_store_overwritten_before_load(self):
        analysis, _ = self._with_base(
            I(Opcode.ST, r1=10, r2=10, imm=0),
            I(Opcode.MOVI, r1=2, imm=7),
            I(Opcode.ST, r1=2, r2=10, imm=0),
            I(Opcode.LD, r1=3, r2=10, imm=0),
            I(Opcode.OUT, r2=3),
        )
        assert analysis.class_of(1) is DynClass.FDD_MEM
        assert analysis.overwrite_distance[1] == 2
        assert analysis.class_of(3) is DynClass.LIVE

    def test_tdd_via_memory(self):
        analysis, _ = self._with_base(
            I(Opcode.ST, r1=10, r2=10, imm=0),  # read only by a dead load
            I(Opcode.LD, r1=3, r2=10, imm=0),  # r3 never read
        )
        assert analysis.class_of(1) is DynClass.TDD_MEM
        assert analysis.class_of(2) is DynClass.FDD_REG

    def test_live_store_chain(self):
        analysis, _ = self._with_base(
            I(Opcode.ST, r1=10, r2=10, imm=0),
            I(Opcode.LD, r1=3, r2=10, imm=0),
            I(Opcode.OUT, r2=3),
        )
        assert analysis.class_of(1) is DynClass.LIVE
        assert analysis.class_of(2) is DynClass.LIVE


class TestReturnDeadness:
    def test_fdd_via_return(self):
        # main calls leaf twice; leaf writes r20 which nobody reads.
        from repro.isa.program import FunctionInfo, Program
        from repro.arch.executor import FunctionalSimulator

        code = [
            I(Opcode.CALL, imm=4),  # seq 0 -> leaf
            I(Opcode.CALL, imm=3),  # seq ~3 -> leaf again
            I(Opcode.OUT, r2=0),
            I(Opcode.HALT),
            I(Opcode.MOVI, r1=20, imm=9),  # leaf: return-dead write
            I(Opcode.RET),
        ]
        result = FunctionalSimulator(
            Program(code, [FunctionInfo("leaf", 4, 6)], entry=0)).run()
        analysis = analyze_deadness(result)
        # First leaf invocation's write: overwritten by the second call,
        # after its invocation returned.
        first_write = next(op.seq for op in result.trace
                           if op.dest_gpr == 20)
        assert analysis.class_of(first_write) is DynClass.FDD_REG_RETURN

    def test_main_writes_are_plain_fdd(self):
        analysis, _ = classes_of(
            I(Opcode.MOVI, r1=1, imm=5),
            I(Opcode.MOVI, r1=1, imm=6),
            I(Opcode.OUT, r2=1),
        )
        assert analysis.class_of(0) is DynClass.FDD_REG  # not _RETURN


class TestSummaries:
    def test_dead_fraction(self):
        analysis, _ = classes_of(
            I(Opcode.MOVI, r1=1, imm=5),  # dead
            I(Opcode.MOVI, r1=2, imm=6),
            I(Opcode.OUT, r2=2),
        )
        assert analysis.dead_fraction() == pytest.approx(1 / 4)  # incl. HALT

    def test_summary_sums_to_one(self):
        analysis, _ = classes_of(
            I(Opcode.NOP),
            I(Opcode.MOVI, r1=1, imm=5),
            I(Opcode.OUT, r2=1),
        )
        assert sum(analysis.summary().values()) == pytest.approx(1.0)

    def test_count(self):
        analysis, _ = classes_of(I(Opcode.NOP), I(Opcode.NOP))
        assert analysis.count(DynClass.NEUTRAL) == 2


class TestGeneratedWorkload:
    def test_discovered_dead_fraction_in_band(self, small_deadness):
        # The generator *aims* for ~20 % dynamically dead instructions; the
        # independent analysis should land in a loose band around that.
        assert 0.08 < small_deadness.dead_fraction() < 0.40

    def test_all_classes_present(self, small_deadness):
        present = {cls for cls in DynClass
                   if small_deadness.count(cls) > 0}
        assert DynClass.LIVE in present
        assert DynClass.NEUTRAL in present
        assert DynClass.PRED_FALSE in present
        assert DynClass.FDD_REG in present
        assert DynClass.TDD_REG in present
        assert DynClass.FDD_MEM in present

    def test_live_majority(self, small_deadness):
        assert small_deadness.count(DynClass.LIVE) > \
            len(small_deadness.classes) * 0.3


class TestGoldenFile:
    """``analyze_deadness`` reproduces ``tests/data/deadness_golden.json``
    on every benchmark profile (see ``tests/deadness_golden.py``)."""

    GOLDEN = deadness_golden.load()

    def test_covers_exactly_the_profiles(self):
        assert set(self.GOLDEN) == {p.name for p in ALL_PROFILES}

    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.name)
    def test_profile(self, profile):
        assert deadness_golden.case(profile) == self.GOLDEN[profile.name]
