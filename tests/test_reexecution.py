"""Checkpointed, early-exit re-execution.

The effect oracle re-executes a struck program from the baseline snapshot
at or before the strike and stops once the corrupted run's live state
rejoins the baseline's at a later snapshot. Its contract is the seed
slow path's verdict for every strike, so these tests compare it with
:func:`~repro.faults.injector.architectural_effect` (a full run from
instruction 0 to the end):

* exhaustively over every ``(seq, bit)`` of a hand-built loop program
  that spans more than three snapshot intervals and covers the corners
  (strikes either side of a snapshot, in the first and the last partial
  interval; early convergence; a corrupted ``OUT`` whose registers
  converge afterwards; dead and live registers and memory words that
  differ at a snapshot; calls nested across a snapshot; states that
  differ only in a predicate or in the call stack; traps and hangs
  after a snapshot);
* on sampled strikes and bursts of generated programs (hypothesis);
* at the executor level: the snapshot log holds the states a plain run
  passes through (as the per-step reference loop of
  ``tests/arch_reference.py`` observes them), and resuming from any
  snapshot reproduces the run.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.executor import (
    FunctionalSimulator,
    Snapshot,
    resume_log,
    snapshot_interval,
)
from repro.faults.batch import StrikeSubject
from repro.faults.campaign import CampaignConfig, run_campaign
from repro.faults.injector import architectural_effect, corrupt_burst
from repro.faults.oracle import EffectOracle, default_limits, effect_of
from repro.isa.encoding import ENCODING_BITS, Field, field_bits
from repro.isa.opcodes import Opcode
from repro.isa.program import FunctionInfo
from repro.runtime.context import use_runtime
from repro.runtime.telemetry import Telemetry
from repro.workloads.codegen import synthesize
from tests.arch_reference import ReferenceState, reference_run
from tests.helpers import I, program
from tests.strike_reference import reference_effect
from tests.test_property import profiles

IMM_BIT = next(iter(field_bits(Field.IMM7)))

#: Program counters of the loop program's instructions of interest.
PC_CALL_F = 7
PC_STORE_I = 6
PC_MOVI_OUT_VALUE = 10
PC_MOVI_CLEAR = 12
PC_STORE_ZERO = 13
PC_NOP_IN_F = 22
PC_COUNT_F = 23


def loop_program():
    """Twelve iterations of a loop body that calls ``f``, which calls ``g``.

    ``p2`` is set before the loop and read only after it, so a strike on
    its compare changes nothing but a predicate across every snapshot.
    """
    return program([
        I(Opcode.MOVI, r1=1, imm=0),              # 0: i
        I(Opcode.MOVI, r1=2, imm=12),             # 1: trip count
        I(Opcode.MOVI, r1=3, imm=100),            # 2: base address
        I(Opcode.MOVI, r1=7, imm=0),              # 3: zero to store
        I(Opcode.CMP_EQ, r1=2, r2=0, r3=0),       # 4: p2 = true
        I(Opcode.ADDI, r1=4, r2=1, imm=3),        # 5: loop head
        I(Opcode.ST, r1=4, r2=3, imm=0),          # 6
        I(Opcode.CALL, imm=15),                   # 7: -> f
        I(Opcode.LD, r1=5, r2=3, imm=0),          # 8
        I(Opcode.ADD, r1=6, r2=6, r3=5),          # 9: accumulate
        I(Opcode.MOVI, r1=8, imm=5),              # 10
        I(Opcode.OUT, r2=8),                      # 11
        I(Opcode.MOVI, r1=8, imm=0),              # 12: r8 is dead again
        I(Opcode.ST, r1=7, r2=3, imm=8),          # 13: store 0
        I(Opcode.ADDI, r1=1, r2=1, imm=1),        # 14
        I(Opcode.CMP_LT, r1=1, r2=1, r3=2),       # 15: p1 = i < n
        I(Opcode.BR, qp=1, imm=-11),              # 16: -> loop head
        I(Opcode.OUT, r2=6),                      # 17
        I(Opcode.OUT, r2=9),                      # 18
        I(Opcode.MOVI, qp=2, r1=11, imm=7),       # 19
        I(Opcode.OUT, r2=11),                     # 20
        I(Opcode.HALT),                           # 21
        I(Opcode.NOP),                            # 22: f
        I(Opcode.ADDI, r1=9, r2=9, imm=1),        # 23
        I(Opcode.CALL, imm=2),                    # 24: -> g
        I(Opcode.RET),                            # 25
        I(Opcode.ADDI, r1=10, r2=10, imm=2),      # 26: g
        I(Opcode.RET),                            # 27
    ], functions=[FunctionInfo("f", 22, 26), FunctionInfo("g", 26, 28)])


@pytest.fixture(scope="module")
def loop_setup():
    prog = loop_program()
    baseline = FunctionalSimulator(prog).run()
    assert baseline.clean
    interval = snapshot_interval(len(baseline.trace))
    # More than three snapshot intervals, the last of them partial.
    assert 3 * interval < len(baseline.trace) < 4 * interval
    return prog, baseline, interval


def seqs_at(baseline, pc):
    return [op.seq for op in baseline.trace if op.pc == pc]


def snapshot_log(prog, baseline, **run_kwargs):
    """The snapshots a (possibly struck) run passes through."""
    simulator = FunctionalSimulator(prog, default_limits(baseline))
    return simulator.run(
        record_trace=False,
        snapshot_every=snapshot_interval(len(baseline.trace)),
        **run_kwargs).snapshots


def rejoin_log(prog, baseline):
    """The log a re-execution resumes from, liveness included."""
    return resume_log(prog, default_limits(baseline), baseline)


@pytest.fixture(scope="module")
def exhaustive(loop_setup):
    """Oracle and ground-truth verdicts for every strike point."""
    prog, baseline, _ = loop_setup
    oracle = EffectOracle(StrikeSubject(prog, baseline))
    verdicts = {}
    for seq in range(len(baseline.trace)):
        for bit in range(ENCODING_BITS):
            verdicts[seq, bit] = (
                oracle.reexecute(seq, 1 << bit),
                architectural_effect(prog, baseline, seq, bit))
    return oracle, verdicts


class TestSnapshotLog:
    def test_interval_keeps_at_most_257_snapshots(self):
        assert snapshot_interval(1) == 64
        assert snapshot_interval(64 * 256) == 64
        assert snapshot_interval(64 * 256 + 1) == 65
        for n in (1, 1000, 16_385, 100_000, 2_000_000):
            assert -(-n // snapshot_interval(n)) <= 257

    def test_log_holds_the_states_of_a_plain_run(self, loop_setup):
        prog, baseline, interval = loop_setup
        states = []

        class Recording(ReferenceState):
            # The reference loop reads the qualifying predicate once per
            # step but the HALT, before the step changes any state.
            def read_predicate(self, index):
                states.append((tuple(self.gprs), tuple(self.predicates),
                               dict(self.memory), tuple(self.call_stack)))
                return super().read_predicate(index)

        plain = reference_run(prog, state_factory=Recording)
        assert plain.output_signature() == baseline.output_signature()
        log = snapshot_log(prog, baseline)
        trace = baseline.trace
        assert log.interval == interval
        assert len(log.snapshots) == (len(trace) - 1) // interval + 1
        for index, snapshot in enumerate(log.snapshots):
            seq = index * interval
            outputs = sum(op.is_output for op in trace[:seq])
            assert snapshot == Snapshot(trace[seq].pc, *states[seq], outputs)
        assert (log.status, log.outputs) == (baseline.status,
                                             baseline.outputs)

    def test_resume_from_every_snapshot_reproduces_the_run(self, loop_setup):
        prog, baseline, interval = loop_setup
        log = rejoin_log(prog, baseline)
        simulator = FunctionalSimulator(prog, default_limits(baseline))
        for index in range(len(log.snapshots)):
            for seq in (index * interval, index * interval + interval - 1):
                if seq >= len(baseline.trace):
                    continue
                # Overriding with the original instruction changes
                # nothing, so the run rejoins at the next snapshot.
                rerun = simulator.run(
                    record_trace=False, override_seq=seq,
                    override_instruction=baseline.trace[seq].instruction,
                    resume=log)
                assert rerun.output_signature() == \
                    baseline.output_signature()
                last = index == len(log.snapshots) - 1
                assert rerun.converged is not last
                if not last:
                    assert rerun.steps == interval

    def test_resumed_run_equals_a_full_run(self, loop_setup):
        prog, baseline, _ = loop_setup
        log = rejoin_log(prog, baseline)
        simulator = FunctionalSimulator(prog, default_limits(baseline))
        for seq in seqs_at(baseline, PC_CALL_F):
            for bit in range(ENCODING_BITS):
                corrupted = corrupt_burst(baseline.trace[seq].instruction,
                                          1 << bit)
                kwargs = dict(record_trace=False, override_seq=seq,
                              override_instruction=corrupted)
                full = simulator.run(**kwargs)
                resumed = simulator.run(resume=log, **kwargs)
                # A converged run reports the outputs a full run emits.
                assert resumed.output_signature() == full.output_signature()
                assert resumed.steps <= full.steps

    def test_resume_is_validated(self, loop_setup):
        prog, baseline, _ = loop_setup
        log = rejoin_log(prog, baseline)
        simulator = FunctionalSimulator(prog, default_limits(baseline))
        nop = I(Opcode.NOP)
        with pytest.raises(ValueError):
            simulator.run(record_trace=False, resume=log)
        with pytest.raises(ValueError):
            simulator.run(override_seq=3, override_instruction=nop,
                          resume=log)
        with pytest.raises(ValueError):
            simulator.run(record_trace=False, override_seq=3,
                          override_instruction=nop, resume=log,
                          snapshot_every=64)
        with pytest.raises(ValueError):
            FunctionalSimulator(prog).run(
                record_trace=False, override_seq=3,
                override_instruction=nop, resume=log)
        with pytest.raises(ValueError):
            simulator.run(record_trace=False, override_seq=3,
                          override_instruction=nop,
                          resume=snapshot_log(prog, baseline))

    def test_non_recording_runs_keep_no_invocations(self, loop_setup):
        prog, baseline, _ = loop_setup
        assert len(baseline.invocations) == 1 + 2 * 12
        plain = FunctionalSimulator(prog).run(record_trace=False)
        assert plain.invocations == {}
        assert plain.steps == baseline.steps == len(baseline.trace)

    def test_snapshot_inside_nested_calls(self, loop_setup):
        prog, baseline, _ = loop_setup
        log = snapshot_log(prog, baseline)
        assert max(len(s.call_stack) for s in log.snapshots) == 2


class TestExhaustiveDifferential:
    def test_every_strike_matches_full_reexecution(self, loop_setup,
                                                   exhaustive):
        _, baseline, _ = loop_setup
        oracle, verdicts = exhaustive
        mismatches = {point: pair for point, pair in verdicts.items()
                      if pair[0] != pair[1]}
        assert not mismatches
        assert oracle.executions == len(baseline.trace) * ENCODING_BITS
        assert 0 < oracle.converged < oracle.executions

    def test_reference_interpreter_agrees(self, loop_setup, exhaustive):
        """The seed-era re-execution of the strike reference, through the
        per-step reference loop, reaches the same verdicts."""
        prog, baseline, _ = loop_setup
        _, verdicts = exhaustive
        for seq in range(0, len(baseline.trace), 5):
            for bit in range(0, ENCODING_BITS, 5):
                assert reference_effect(prog, baseline, seq, 1 << bit) \
                    == verdicts[seq, bit][1], (seq, bit)

    def test_traps_and_hangs_after_a_snapshot(self, loop_setup, exhaustive):
        _, _, interval = loop_setup
        _, verdicts = exhaustive
        late = {truth for (seq, _), (_, truth) in verdicts.items()
                if seq > interval}
        assert {"none", "sdc", "trap", "hang"} <= late


class TestCorners:
    @pytest.fixture
    def oracle(self, loop_setup):
        prog, baseline, _ = loop_setup
        return EffectOracle(StrikeSubject(prog, baseline))

    def test_dead_value_flip_converges_early(self, loop_setup, oracle):
        prog, baseline, interval = loop_setup
        seq = seqs_at(baseline, PC_MOVI_CLEAR)[0]
        assert oracle.reexecute(seq, 1 << IMM_BIT) == "none"
        assert architectural_effect(prog, baseline, seq, IMM_BIT) == "none"
        assert oracle.converged == 1
        assert oracle.replayed_insts <= 2 * interval

    def test_corrupted_output_stays_sdc_after_state_converges(
            self, loop_setup, oracle):
        prog, baseline, interval = loop_setup
        seq = seqs_at(baseline, PC_MOVI_OUT_VALUE)[0]
        corrupted = corrupt_burst(baseline.trace[seq].instruction,
                                  1 << IMM_BIT)
        log = snapshot_log(prog, baseline)
        struck = snapshot_log(prog, baseline, override_seq=seq,
                              override_instruction=corrupted)
        # Registers, memory, calls and the output count all rejoin the
        # baseline at the next snapshot; only an output value differs.
        after = seq // interval + 1
        assert struck.snapshots[after:] == log.snapshots[after:]
        assert struck.outputs != log.outputs
        assert oracle.reexecute(seq, 1 << IMM_BIT) == "sdc"
        assert architectural_effect(prog, baseline, seq, IMM_BIT) == "sdc"
        # The run stops there and keeps its own corrupted output.
        assert oracle.converged == 1
        assert oracle.replayed_insts == interval

    def test_store_of_zero_to_fresh_address_converges_early(
            self, loop_setup, oracle):
        prog, baseline, interval = loop_setup
        seq = seqs_at(baseline, PC_STORE_ZERO)[0]
        struck = baseline.trace[seq]
        corrupted = corrupt_burst(struck.instruction, 1 << IMM_BIT)
        assert corrupted.opcode is Opcode.ST
        stored = {op.mem_addr for op in baseline.trace if op.is_store}
        assert 100 + corrupted.imm not in stored
        # Memory maps differ by a key holding 0: architecturally equal
        # (unmapped words read as 0), and never read anyway.
        assert oracle.reexecute(seq, 1 << IMM_BIT) == "none"
        assert architectural_effect(prog, baseline, seq, IMM_BIT) == "none"
        assert oracle.converged == 1
        # Replayed from the snapshot before the strike to the next one.
        assert oracle.replayed_insts == interval

    def test_dead_register_that_differs_converges(self, loop_setup, oracle):
        prog, baseline, interval = loop_setup
        # The clear of r8 just before a snapshot: r8 differs there, but
        # the baseline writes it (pc 10) before it reads it again.
        seq = next(s for s in seqs_at(baseline, PC_MOVI_CLEAR)
                   if s % interval > interval - 4)
        after = seq // interval + 1
        corrupted = corrupt_burst(baseline.trace[seq].instruction,
                                  1 << IMM_BIT)
        log = rejoin_log(prog, baseline)
        struck = snapshot_log(prog, baseline, override_seq=seq,
                              override_instruction=corrupted)
        assert struck.snapshots[after].gprs[8] != log.snapshots[after].gprs[8]
        assert 8 not in log.liveness.gprs[after]
        assert oracle.reexecute(seq, 1 << IMM_BIT) == "none"
        assert architectural_effect(prog, baseline, seq, IMM_BIT) == "none"
        assert oracle.converged == 1
        assert oracle.replayed_insts == interval

    def test_live_register_that_differs_does_not_converge(self, loop_setup,
                                                           oracle):
        prog, baseline, interval = loop_setup
        # f's count in r9 is read by every later call and by the OUT.
        seq = seqs_at(baseline, PC_COUNT_F)[0]
        log = rejoin_log(prog, baseline)
        assert all(9 in live for live in log.liveness.gprs[1:])
        assert oracle.reexecute(seq, 1 << IMM_BIT) == "sdc"
        assert architectural_effect(prog, baseline, seq, IMM_BIT) == "sdc"
        assert oracle.converged == 0
        resumed_at = seq // interval * interval
        assert oracle.replayed_insts == len(baseline.trace) - resumed_at

    def test_store_to_an_address_stored_next_converges(self, loop_setup,
                                                       oracle):
        prog, baseline, interval = loop_setup
        # The store of 0 to 108 retargeted to 100, just before a
        # snapshot: 100 differs there, but its next access is the loop
        # head's store.
        bit = IMM_BIT + 3
        seq = next(s for s in seqs_at(baseline, PC_STORE_ZERO)
                   if s % interval > interval - 4)
        after = seq // interval + 1
        corrupted = corrupt_burst(baseline.trace[seq].instruction, 1 << bit)
        assert corrupted.imm == 0
        log = rejoin_log(prog, baseline)
        struck = snapshot_log(prog, baseline, override_seq=seq,
                              override_instruction=corrupted)
        assert struck.snapshots[after].memory[100] != \
            log.snapshots[after].memory[100]
        assert oracle.reexecute(seq, 1 << bit) == "none"
        assert architectural_effect(prog, baseline, seq, bit) == "none"
        assert oracle.converged == 1
        assert oracle.replayed_insts == interval

    def test_load_first_address_blocks_early_exit(self, loop_setup, oracle):
        prog, baseline, interval = loop_setup
        # The loop head's store retargeted just before a snapshot: 100
        # keeps its old value there, and the baseline loads it next.
        seq = next(s for s in seqs_at(baseline, PC_STORE_I)
                   if s % interval > interval - 6)
        after = seq // interval + 1
        corrupted = corrupt_burst(baseline.trace[seq].instruction,
                                  1 << IMM_BIT)
        log = rejoin_log(prog, baseline)
        struck = snapshot_log(prog, baseline, override_seq=seq,
                              override_instruction=corrupted).snapshots[after]
        expected = log.snapshots[after]
        # Only memory differs: 100 (read next) and 101 (never touched).
        assert (struck.pc, struck.gprs, struck.predicates,
                struck.call_stack) == (expected.pc, expected.gprs,
                                       expected.predicates,
                                       expected.call_stack)
        assert set(struck.memory.items()) ^ set(expected.memory.items()) \
            == {(100, struck.memory[100]), (100, expected.memory[100]),
                (101, struck.memory[101])}
        assert not log.rejoins(after, struck.pc, struck.restore())
        assert log.liveness.reads_memory(after, [100])
        assert not log.liveness.reads_memory(after, [101])
        assert oracle.reexecute(seq, 1 << IMM_BIT) == "sdc"
        assert architectural_effect(prog, baseline, seq, IMM_BIT) == "sdc"
        assert oracle.converged == 0

    def test_extra_return_address_blocks_early_exit(self, loop_setup,
                                                    oracle):
        prog, baseline, interval = loop_setup
        # A burst turning f's NOP into "call the next instruction" pushes
        # a return address and falls through to the baseline's next pc:
        # only the call stack differs until f returns into itself.
        nop = I(Opcode.NOP)
        mask = nop.encode() ^ I(Opcode.CALL, imm=1).encode()
        seq = next(s for s in seqs_at(baseline, PC_NOP_IN_F)
                   if s % interval > interval - 4)
        assert corrupt_burst(nop, mask) == I(Opcode.CALL, imm=1)
        assert oracle.reexecute(seq, mask) == "sdc"
        assert oracle.converged == 0


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(profiles(), st.integers(0, 10_000), st.data())
def test_generated_programs_match_full_reexecution(profile, seed, data):
    prog = synthesize(profile, target_instructions=1000, seed=seed)
    baseline = FunctionalSimulator(prog).run()
    oracle = EffectOracle(StrikeSubject(prog, baseline))
    simulator = FunctionalSimulator(prog, default_limits(baseline))
    signature = baseline.output_signature()
    seqs = st.integers(0, len(baseline.trace) - 1)
    for seq, bit in data.draw(st.lists(
            st.tuples(seqs, st.integers(0, ENCODING_BITS - 1)),
            min_size=20, max_size=20)):
        assert oracle.reexecute(seq, 1 << bit) == architectural_effect(
            prog, baseline, seq, bit)
    for seq, mask in data.draw(st.lists(
            st.tuples(seqs, st.integers(1, (1 << ENCODING_BITS) - 1)),
            min_size=10, max_size=10)):
        corrupted = corrupt_burst(baseline.trace[seq].instruction, mask)
        full = simulator.run(record_trace=False, override_seq=seq,
                             override_instruction=corrupted)
        assert oracle.reexecute(seq, mask) == effect_of(full, signature)


class TestObservability:
    def test_counters_merge_across_workers(self, small_program,
                                           small_execution, small_pipeline):
        config = CampaignConfig(trials=60, seed=5)
        totals = {}
        for jobs in (1, 2):
            with use_runtime(jobs=jobs) as context:
                run_campaign(small_program, small_execution, small_pipeline,
                             config)
                totals[jobs] = dict(context.telemetry.counters)
                summary = context.telemetry.format_summary()
            executed = totals[jobs]["oracle_executions"]
            assert executed > 0
            assert 0 < totals[jobs]["oracle_replayed_insts"] <= (
                executed * default_limits(small_execution).max_instructions)
            assert f"{executed} re-executions (" in summary
            assert "converged early" in summary

    def test_oracle_line_renders_replay_account(self):
        telemetry = Telemetry()
        telemetry.merge_counters({"oracle_memo_hits": 0,
                                  "oracle_static_kills": 123,
                                  "oracle_executions": 231,
                                  "oracle_replayed_insts": 433_074,
                                  "oracle_converged": 114})
        assert ("oracle: 0 memo hits, 123 static kills, 231 re-executions "
                "(35% fast path; 114 converged early, 433k insts replayed)"
                ) in telemetry.format_summary()
