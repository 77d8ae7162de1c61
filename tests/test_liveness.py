"""The liveness tables a resumed run stops by, checked directly.

:class:`~repro.arch.liveness.Liveness` says which locations the logged
run reads before it writes them from each snapshot on. A location it
calls dead must not matter: perturbed in the restored snapshot state,
the run from that snapshot to its end (with no early exit) must end with
the logged status, at the logged commit, with the logged outputs. Checked
one location at a time on the loop program of ``tests/test_reexecution``,
on a run that ends in LIMIT, on a baseline that is not the snapshot run
(cut short by a smaller budget than the re-execution's), and on
hypothesis-generated programs.
"""

from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.executor import (
    ExecutionLimits,
    FunctionalSimulator,
    resume_log,
)
from repro.arch.result import ExecutionStatus
from repro.arch.state import ADDRESS_MASK, WORD_MASK
from repro.faults.oracle import default_limits
from repro.isa.opcodes import Opcode
from repro.isa.registers import NUM_GPRS, NUM_PREDICATES
from repro.workloads.codegen import synthesize
from tests.helpers import I, program
from tests.test_property import profiles
from tests.test_reexecution import loop_program

_NOP = I(Opcode.NOP)


def run_from(prog, limits, log, index, snapshot):
    """``(status, outputs, steps)`` of a run from ``snapshot`` in place of
    ``log.snapshots[index]``, to its end: the log is cut after it, so
    the run never checks for convergence."""
    cut = replace(log, snapshots=log.snapshots[:index] + (snapshot,))
    pc = snapshot.pc
    # An override that changes nothing: the instruction at the pc.
    instruction = prog.fetch(pc) if prog.in_range(pc) else _NOP
    run = FunctionalSimulator(prog, limits).run(
        record_trace=False, override_seq=index * log.interval,
        override_instruction=instruction, resume=cut)
    assert not run.converged
    return run.status, run.outputs, run.steps


def dead_perturbations(log, index, addresses):
    """One snapshot per location the tables call dead at ``index``, with
    that location changed."""
    snapshot = log.snapshots[index]
    live = log.liveness
    for register in range(1, NUM_GPRS):
        if register not in live.gprs[index]:
            gprs = list(snapshot.gprs)
            gprs[register] = (gprs[register] + 0x9E3779B97F4A7C15) \
                & WORD_MASK
            yield replace(snapshot, gprs=tuple(gprs))
    for register in range(1, NUM_PREDICATES):
        if register not in live.predicates[index]:
            predicates = list(snapshot.predicates)
            predicates[register] = not predicates[register]
            yield replace(snapshot, predicates=tuple(predicates))
    for address in sorted(addresses | set(snapshot.memory)):
        if not live.reads_memory(index, [address]):
            memory = dict(snapshot.memory)
            memory[address] = (memory.get(address, 0) + 1) & WORD_MASK
            yield replace(snapshot, memory=memory)


def touched_addresses(trace) -> set:
    """Every address the trace accesses, masked, plus one it never does."""
    addresses = {int(a) & ADDRESS_MASK for a in trace.addresses()}
    return addresses | {max(addresses, default=0) + 8}


def assert_dead_locations_do_not_matter(prog, limits, log, trace):
    """Every dead location of every snapshot, perturbed on its own,
    leaves the logged remainder; returns the perturbations tried."""
    addresses = touched_addresses(trace)
    tried = 0
    for index, snapshot in enumerate(log.snapshots):
        expected = run_from(prog, limits, log, index, snapshot)
        assert expected[:2] == (log.status, log.outputs)
        for perturbed in dead_perturbations(log, index, addresses):
            assert run_from(prog, limits, log, index, perturbed) == \
                expected, index
            tried += 1
    return tried


def endless_program():
    """A loop with a live counter in memory, a dead register, a dead
    memory word and a predicate set once and read every pass; it never
    halts."""
    return program([
        I(Opcode.MOVI, r1=1, imm=40),             # 0: address
        I(Opcode.CMP_EQ, r1=3, r2=0, r3=0),       # 1: p3 = true
        I(Opcode.LD, r1=2, r2=1, imm=0),          # 2: loop head
        I(Opcode.ADDI, r1=2, r2=2, imm=3),        # 3
        I(Opcode.ST, r1=2, r2=1, imm=0),          # 4
        I(Opcode.MOVI, r1=5, imm=9),              # 5: r5 never read
        I(Opcode.ST, r1=2, r2=1, imm=8),          # 6: 48 never loaded
        I(Opcode.OUT, qp=3, r2=2),                # 7
        I(Opcode.BR, imm=-6),                     # 8
    ])


class TestLoopProgram:
    def test_dead_locations_do_not_matter(self):
        prog = loop_program()
        baseline = FunctionalSimulator(prog).run()
        limits = default_limits(baseline)
        log = resume_log(prog, limits, baseline)
        assert len(log.snapshots) == 4
        assert assert_dead_locations_do_not_matter(
            prog, limits, log, baseline.trace) > 4 * 100

    def test_a_live_location_does_matter(self):
        """The check has teeth: r6, the loop's sum, is live at every
        snapshot, and changing it changes the outputs."""
        prog = loop_program()
        baseline = FunctionalSimulator(prog).run()
        limits = default_limits(baseline)
        log = resume_log(prog, limits, baseline)
        for index, snapshot in enumerate(log.snapshots):
            assert 6 in log.liveness.gprs[index]
            gprs = list(snapshot.gprs)
            gprs[6] += 1
            status, outputs, _ = run_from(prog, limits, log, index,
                                          replace(snapshot, gprs=tuple(gprs)))
            assert status is ExecutionStatus.HALTED
            assert outputs != log.outputs


class TestEndsAndBaselines:
    def test_a_run_that_ends_in_limit(self):
        prog = endless_program()
        limits = ExecutionLimits(max_instructions=700)
        baseline = FunctionalSimulator(prog, limits).run()
        assert baseline.status is ExecutionStatus.LIMIT
        log = resume_log(prog, limits, baseline)
        assert (log.status, log.outputs) == (baseline.status,
                                             baseline.outputs)
        live = log.liveness
        assert all(3 in predicates for predicates in live.predicates[1:])
        assert not any(5 in gprs for gprs in live.gprs)
        # The counter is dead between its load and its store.
        assert {live.reads_memory(index, [40])
                for index in range(len(log.snapshots))} == {False, True}
        assert not any(live.reads_memory(index, [48])
                       for index in range(len(log.snapshots)))
        assert assert_dead_locations_do_not_matter(
            prog, limits, log, baseline.trace) > 0

    def test_a_baseline_cut_short_is_not_the_snapshot_run(self):
        """A baseline cut short by a smaller budget: the re-execution
        budget runs further, so the tables come from the snapshot run,
        traced, not from the baseline's trace."""
        prog = endless_program()
        baseline = FunctionalSimulator(
            prog, ExecutionLimits(max_instructions=200)).run()
        limits = ExecutionLimits(max_instructions=700)
        full = FunctionalSimulator(prog, limits).run()
        assert len(full.trace) > len(baseline.trace)
        log = resume_log(prog, limits, baseline)
        assert (log.status, log.outputs) == (full.status, full.outputs)
        # The baseline's trace ends before the last snapshots: by it,
        # the counter would be dead at all of them; by the snapshot
        # run, it is live at some.
        late = range(len(baseline.trace) // log.interval + 1,
                     len(log.snapshots))
        assert len(late) > 4
        assert any(log.liveness.reads_memory(index, [40]) for index in late)
        assert assert_dead_locations_do_not_matter(
            prog, limits, log, full.trace) > 0


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(profiles(), st.integers(0, 10_000))
def test_generated_programs(profile, seed):
    prog = synthesize(profile, target_instructions=1000, seed=seed)
    baseline = FunctionalSimulator(prog).run()
    limits = default_limits(baseline)
    log = resume_log(prog, limits, baseline)
    assert_dead_locations_do_not_matter(prog, limits, log, baseline.trace)
