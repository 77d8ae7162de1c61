"""Differential proof for the chunk memo of the timing loop.

With the memo engaged, ``repro.pipeline.compose.run_composed`` must be
*bit-identical* to the same loop with the memo switched off (its
``_memo_pays`` predicate patched to refuse): same cycle counts, same
interval log (in order), same stats, same RNG stream, and identical
timing-store cache keys — whether a chunk was executed, recorded, or
replayed from the memo. The memo engages only on bubble-free machines,
so these tests run both over every benchmark profile x squash trigger,
over the ablation machine variants, over tiled/scaled traces, and over
hypothesis-generated workloads, all without fetch bubbles; they also pin
that a bubbled run never touches the memo, the memo's management
behaviour (LRU scopes, byte budget, telemetry counters) and the
relocatable column-block arithmetic the splice path is built on.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.deadcode import analyze_deadness
from repro.arch.executor import FunctionalSimulator
from repro.avf.avf_calc import compute_iq_avf
from repro.avf.occupancy import AccountingPolicy, compute_breakdown
from repro.faults.batch import _residency_columns
from repro.isa.opcodes import Opcode
from repro.pipeline import compose
from repro.pipeline.compose import (
    chunk_memo_footprint,
    clear_chunk_memos,
    run_composed,
)
from repro.pipeline.config import MachineConfig, SquashConfig, Trigger
from repro.pipeline.core import PipelineSimulator
from repro.pipeline.iq import NO_VALUE, IntervalTimeline
from repro.pipeline.result import PipelineResult
from repro.runtime.cache import cache_key
from repro.runtime.context import use_runtime
from repro.workloads.codegen import synthesize
from repro.workloads.profile import BenchmarkProfile
from repro.workloads.scaled import ScaledWorkload, build_scaled, scale_trace
from repro.workloads.spec2000 import ALL_PROFILES

from . import timing_golden as golden
from .conftest import TEST_SEED
from .helpers import I, program

TRIGGERS = (Trigger.NONE, Trigger.L0_MISS, Trigger.L1_MISS)


@pytest.fixture(autouse=True)
def _fresh_memo():
    """Every test starts and ends with an empty memo."""
    clear_chunk_memos()
    yield
    clear_chunk_memos()


@pytest.fixture(scope="session")
def draw_free_machine(base_machine):
    """The shared test machine without fetch bubbles: the memo engages."""
    return replace(base_machine, fetch_bubble_prob=0.0)


def _memo_off(program_, trace, machine, seed=TEST_SEED):
    """The same loop with the memo predicate patched to refuse."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compose, "_memo_pays", lambda config, trace: False)
        return run_composed(PipelineSimulator(program_, trace, machine,
                                              seed=seed))


def _run_both(program_, trace, machine, seed=TEST_SEED):
    """(memo-off result, memo-engaged result) for one configuration."""
    ref = _memo_off(program_, trace, machine, seed)
    fast = run_composed(PipelineSimulator(program_, trace, machine,
                                          seed=seed))
    return ref, fast


def _assert_identical(ref, fast, deadness=None):
    """Every observable of the two kernels must agree exactly."""
    assert isinstance(fast.intervals, IntervalTimeline)
    assert ref.cycles == fast.cycles
    assert ref.committed == fast.committed
    assert ref.iq_entries == fast.iq_entries
    assert ref.stats == fast.stats
    assert ref.ipc == fast.ipc
    ri, fi = ref.intervals, fast.intervals
    assert list(ri.seq) == list(fi.seq)
    assert list(ri.kind) == list(fi.kind)
    assert list(ri.alloc) == list(fi.alloc)
    assert list(ri.issue) == list(fi.issue)
    assert list(ri.dealloc) == list(fi.dealloc)
    assert tuple(i.encode() for i in ri.instr) == \
        tuple(i.encode() for i in fi.instr)
    # The persistent timeline store must key both identically: the memo
    # must never leak into what downstream caching observes.
    assert cache_key(ref) == cache_key(fast)
    if deadness is not None:
        for policy in AccountingPolicy:
            rb = compute_breakdown(ref, deadness, policy)
            fb = compute_breakdown(fast, deadness, policy)
            assert rb.ace_bit_cycles == fb.ace_bit_cycles
            assert rb.sdc_avf == fb.sdc_avf
            assert rb.due_avf == fb.due_avf
        rr = compute_iq_avf("x", ref, deadness)
        fr = compute_iq_avf("x", fast, deadness)
        assert rr.ipc_over_sdc_avf == fr.ipc_over_sdc_avf
        assert rr.ipc_over_due_avf == fr.ipc_over_due_avf


class TestDifferentialMatrix:
    """Memo on == memo off over profiles, triggers, and machine
    variants."""

    @pytest.mark.parametrize("profile", ALL_PROFILES,
                             ids=[p.name for p in ALL_PROFILES])
    def test_every_profile_every_trigger(self, profile):
        program_ = synthesize(profile, target_instructions=3000,
                              seed=TEST_SEED)
        execution = FunctionalSimulator(program_).run()
        assert execution.clean
        deadness = analyze_deadness(execution)
        base = MachineConfig(fetch_bubble_prob=0.0)
        for trigger in TRIGGERS:
            machine = replace(base,
                              squash=replace(base.squash, trigger=trigger))
            ref, fast = _run_both(program_, execution.trace, machine)
            _assert_identical(ref, fast, deadness)

    @pytest.mark.parametrize("variant", [
        name for name in golden.VARIANTS
        if name not in ("baseline", "queue_never_fills")])
    def test_machine_variants(self, variant, small_program, small_execution,
                              small_deadness, draw_free_machine):
        machine = golden.VARIANTS[variant](draw_free_machine)
        ref, fast = _run_both(small_program, small_execution.trace, machine)
        _assert_identical(ref, fast, small_deadness)

    def test_warm_memo_replay_identical(self, small_program,
                                        small_execution, draw_free_machine):
        """A second memo-engaged run — now replaying from a warm memo —
        must still match the memo-off loop bit for bit."""
        machine = replace(draw_free_machine,
                          squash=SquashConfig(trigger=Trigger.L1_MISS))
        ref, first = _run_both(small_program, small_execution.trace,
                               machine)
        _assert_identical(ref, first)
        again = run_composed(PipelineSimulator(
            small_program, small_execution.trace, machine, seed=TEST_SEED))
        _assert_identical(ref, again)

    def test_tiled_trace_engages_memo(self):
        """On a tiled trace the memo must actually replay chunks, and the
        result must stay exact."""
        profile = next(p for p in ALL_PROFILES if p.name == "mcf")
        program_ = synthesize(profile, target_instructions=3000,
                              seed=TEST_SEED)
        execution = FunctionalSimulator(program_).run()
        tiled = scale_trace(execution.trace, 10)
        machine = MachineConfig(
            fetch_bubble_prob=0.0,
            squash=SquashConfig(trigger=Trigger.L1_MISS))
        hits0 = compose.chunk_memo_hits
        splices0 = compose.chunk_memo_splices
        ref, fast = _run_both(program_, tiled, machine)
        _assert_identical(ref, fast)
        assert compose.chunk_memo_hits > hits0
        assert compose.chunk_memo_splices > splices0

    def test_scaled_workload_differential(self):
        """A catalogue-shaped scaled workload."""
        workload = ScaledWorkload(name="mcf-30k", base_profile="mcf",
                                  target_instructions=30_000)
        program_, trace = build_scaled(workload, cache=False)
        machine = MachineConfig(
            fetch_bubble_prob=0.0,
            squash=SquashConfig(trigger=Trigger.L1_MISS))
        ref, fast = _run_both(program_, trace, machine)
        _assert_identical(ref, fast)


class TestEdgeCases:
    def test_minimal_one_instruction_trace(self):
        prog = program([I(Opcode.HALT)])
        execution = FunctionalSimulator(prog).run()
        assert execution.clean
        ref, fast = _run_both(prog, execution.trace,
                              MachineConfig(fetch_bubble_prob=0.0))
        _assert_identical(ref, fast)

    def test_last_instruction_squashed(self):
        body = [I(Opcode.MOVI, r1=1, imm=7)]
        for _ in range(24):
            body.append(I(Opcode.ADDI, r1=1, r2=1, imm=48))
            body.append(I(Opcode.LD, r1=2, r2=1, imm=0))
            body.append(I(Opcode.ADD, r1=3, r2=2, r3=2))
        prog = program(body)
        execution = FunctionalSimulator(prog).run()
        machine = MachineConfig(fetch_bubble_prob=0.0,
                                squash=SquashConfig(trigger=Trigger.L0_MISS))
        ref, fast = _run_both(prog, execution.trace, machine)
        _assert_identical(ref, fast)
        assert fast.stats["squashed_instructions"] > 0

    def test_queue_never_fills(self, small_program, small_execution,
                               draw_free_machine):
        machine = replace(draw_free_machine, iq_entries=16384)
        ref, fast = _run_both(small_program, small_execution.trace, machine)
        _assert_identical(ref, fast)


class TestDispatchAndTelemetry:
    def test_bubbled_run_bypasses_memo(self, small_program,
                                       small_execution, base_machine):
        """A machine with fetch bubbles never consults or fills the memo."""
        assert base_machine.fetch_bubble_prob > 0
        hits0 = compose.chunk_memo_hits
        misses0 = compose.chunk_memo_misses
        with use_runtime() as context:
            PipelineSimulator(small_program, small_execution.trace,
                              base_machine, seed=TEST_SEED).run()
            assert context.telemetry.counters["chunk_memo_hits"] == 0
            assert context.telemetry.counters["chunk_memo_misses"] == 0
        assert compose.chunk_memo_hits == hits0
        assert compose.chunk_memo_misses == misses0
        assert chunk_memo_footprint()["bytes"] == 0

    def test_warm_bubble_free_replay_through_run(self, small_program,
                                                 small_execution,
                                                 draw_free_machine):
        """Through the public entry point, a bubble-free run records, a
        second one replays, and both equal the memo-off loop."""
        machine = replace(draw_free_machine,
                          squash=SquashConfig(trigger=Trigger.L1_MISS))
        ref = _memo_off(small_program, small_execution.trace, machine)
        with use_runtime() as context:
            cold = PipelineSimulator(small_program, small_execution.trace,
                                     machine, seed=TEST_SEED).run()
            counters = context.telemetry.counters
            assert counters["chunk_memo_misses"] > 0
            hits0 = counters["chunk_memo_hits"]
            warm = PipelineSimulator(small_program, small_execution.trace,
                                     machine, seed=TEST_SEED).run()
            assert counters["chunk_memo_hits"] > hits0
            summary = context.telemetry.format_summary(
                jobs=1, verbose=True)
            assert "chunk memo:" in summary
        _assert_identical(ref, cold)
        _assert_identical(ref, warm)

    def test_footprint_shape(self, small_program, small_execution,
                             draw_free_machine):
        empty = chunk_memo_footprint()
        assert empty == {"scopes": 0, "keys": 0, "segments": 0, "bytes": 0}
        run_composed(PipelineSimulator(small_program,
                                       small_execution.trace,
                                       draw_free_machine, seed=TEST_SEED))
        footprint = chunk_memo_footprint()
        assert footprint["scopes"] == 1
        assert footprint["segments"] >= footprint["keys"] > 0
        assert footprint["bytes"] > 0


class TestMemoManagement:
    def test_scope_lru(self, small_program, small_execution,
                       draw_free_machine, monkeypatch):
        monkeypatch.setattr(compose, "_MEMO_SCOPE_LIMIT", 2)
        for width in (2, 4, 8):
            machine = replace(draw_free_machine, fetch_width=width)
            run_composed(PipelineSimulator(small_program,
                                           small_execution.trace,
                                           machine, seed=TEST_SEED))
        assert len(compose._MEMOS) <= 2
        assert chunk_memo_footprint()["scopes"] <= 2

    def test_byte_budget_evicts(self, small_program, small_execution,
                                draw_free_machine, monkeypatch):
        monkeypatch.setattr(compose, "MEMO_BYTE_LIMIT", 200_000)
        evictions0 = compose.chunk_memo_evictions
        machine = replace(draw_free_machine,
                          squash=SquashConfig(trigger=Trigger.L1_MISS))
        run_composed(PipelineSimulator(small_program,
                                       small_execution.trace,
                                       machine, seed=TEST_SEED))
        assert compose.chunk_memo_evictions > evictions0
        assert chunk_memo_footprint()["bytes"] <= 200_000
        # ... and the starved memo still reproduces the exact result.
        ref = _memo_off(small_program, small_execution.trace, machine)
        again = run_composed(PipelineSimulator(small_program,
                                               small_execution.trace,
                                               machine, seed=TEST_SEED))
        _assert_identical(ref, again)

    def test_clear_resets_footprint(self, small_program, small_execution,
                                    draw_free_machine):
        run_composed(PipelineSimulator(small_program,
                                       small_execution.trace,
                                       draw_free_machine, seed=TEST_SEED))
        assert chunk_memo_footprint()["bytes"] > 0
        clear_chunk_memos()
        assert chunk_memo_footprint() == {
            "scopes": 0, "keys": 0, "segments": 0, "bytes": 0}


# ---------------------------------------------------------------------------
# Hypothesis: relocatable column-block arithmetic (the splice substrate).
# ---------------------------------------------------------------------------

_INSTR = I(Opcode.ADD, r1=1, r2=2, r3=3)


@st.composite
def _timelines(draw):
    n = draw(st.integers(0, 40))
    records = []
    for _ in range(n):
        kind = draw(st.integers(0, 2))
        seq = NO_VALUE if kind == 1 else draw(st.integers(0, 10_000))
        alloc = draw(st.integers(0, 100_000))
        dealloc = alloc + draw(st.integers(1, 500))
        never = draw(st.booleans())
        issue = NO_VALUE if never else draw(
            st.integers(alloc, dealloc))
        records.append((seq, kind, alloc, issue, dealloc, _INSTR))
    return IntervalTimeline(records)


@st.composite
def _cuts(draw):
    timeline = draw(_timelines())
    n = len(timeline)
    k = draw(st.integers(0, 4))
    points = sorted(draw(
        st.lists(st.integers(0, n), min_size=k, max_size=k)))
    return timeline, [0, *points, n]


class TestBlockRoundTrip:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_cuts())
    def test_slice_splice_identity(self, case):
        """Cutting a timeline into blocks and splicing them back must
        reproduce every column exactly."""
        timeline, cuts = case
        blocks = [timeline.block(a, b) for a, b in zip(cuts, cuts[1:])]
        rebuilt = IntervalTimeline.from_blocks(blocks)
        assert list(rebuilt.seq) == list(timeline.seq)
        assert list(rebuilt.kind) == list(timeline.kind)
        assert list(rebuilt.alloc) == list(timeline.alloc)
        assert list(rebuilt.issue) == list(timeline.issue)
        assert list(rebuilt.dealloc) == list(timeline.dealloc)
        assert rebuilt.instr == timeline.instr

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_timelines(), st.integers(-5_000, 5_000),
           st.integers(-5_000, 5_000))
    def test_shift_roundtrip(self, timeline, cycle_delta, seq_delta):
        """shifted(+d) then shifted(-d) is the identity, and NO_VALUE
        survives both directions untouched.

        The sentinel is in-band: a shift that would land a *real*
        coordinate exactly on NO_VALUE cannot be represented (the row
        would read back as anonymous/never-issued and the shift would
        stop being invertible), so it must refuse loudly instead of
        corrupting silently."""
        block = timeline.block(0, len(timeline))
        collides = (
            (seq_delta and (NO_VALUE - seq_delta) in block.seq)
            or (cycle_delta and (NO_VALUE - cycle_delta) in block.issue))
        if collides:
            with pytest.raises(ValueError, match="NO_VALUE sentinel"):
                block.shifted(cycle_delta, seq_delta)
            return
        shifted = block.shifted(cycle_delta, seq_delta)
        for orig, moved in zip(block.seq, shifted.seq):
            if orig == NO_VALUE:
                assert moved == NO_VALUE
            else:
                assert moved == orig + seq_delta
        for orig, moved in zip(block.issue, shifted.issue):
            if orig == NO_VALUE:
                assert moved == NO_VALUE
            else:
                assert moved == orig + cycle_delta
        back = shifted.shifted(-cycle_delta, -seq_delta)
        assert list(back.seq) == list(block.seq)
        assert list(back.alloc) == list(block.alloc)
        assert list(back.issue) == list(block.issue)
        assert list(back.dealloc) == list(block.dealloc)

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_cuts(), st.integers(0, 5_000))
    def test_relocated_residency_sums(self, case, cycle_delta):
        """Relocating every block by the same delta shifts alloc but
        leaves resident/cumulative residency columns identical — the
        columns the strike drawer samples uniform entry-cycle points
        in."""
        timeline, cuts = case
        blocks = [timeline.block(a, b).shifted(cycle_delta)
                  for a, b in zip(cuts, cuts[1:])]
        rebuilt = IntervalTimeline.from_blocks(blocks)

        def columns(intervals):
            return _residency_columns(PipelineResult(
                cycles=0, committed=0, intervals=intervals, iq_entries=1))

        alloc0, resident0, cumulative0 = columns(timeline)
        alloc1, resident1, cumulative1 = columns(rebuilt)
        assert resident0.tolist() == resident1.tolist()
        assert cumulative0.tolist() == cumulative1.tolist()
        assert (alloc0 + cycle_delta).tolist() == alloc1.tolist()


# ---------------------------------------------------------------------------
# Hypothesis: end-to-end signature soundness over random workloads.
# ---------------------------------------------------------------------------

@st.composite
def _profiles(draw):
    return BenchmarkProfile(
        name="hypo-compose",
        suite=draw(st.sampled_from(["int", "fp"])),
        body_items=draw(st.integers(40, 120)),
        w_noop=draw(st.floats(0.0, 60.0)),
        w_branch_rand=draw(st.floats(0.0, 4.0)),
        w_cold_load=draw(st.floats(0.0, 2.0)),
        w_call=draw(st.floats(0.0, 3.0)),
        pred_block_len=draw(st.integers(1, 5)),
        miss_burst=draw(st.integers(1, 4)),
        seed_salt=draw(st.integers(0, 1000)),
    )


class TestSignatureSoundness:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_profiles(), st.integers(0, 10_000),
           st.sampled_from(TRIGGERS))
    def test_random_workload_differential(self, profile, seed, trigger):
        """For any synthesizable workload and trigger, replayed chunks
        must be indistinguishable from executed ones."""
        clear_chunk_memos()
        program_ = synthesize(profile, target_instructions=2000, seed=seed)
        execution = FunctionalSimulator(program_).run()
        assert execution.clean
        machine = MachineConfig(
            fetch_bubble_prob=0.0,
            squash=SquashConfig(trigger=trigger))
        ref, fast = _run_both(program_, execution.trace, machine)
        _assert_identical(ref, fast)

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_profiles(), st.integers(0, 10_000), st.integers(2, 6))
    def test_tiled_random_workload_differential(self, profile, seed,
                                                factor):
        """Tiling multiplies chunk revisits; splice exactness must hold
        at every repetition count."""
        clear_chunk_memos()
        program_ = synthesize(profile, target_instructions=1500, seed=seed)
        execution = FunctionalSimulator(program_).run()
        tiled = scale_trace(execution.trace, factor)
        machine = MachineConfig(
            fetch_bubble_prob=0.0,
            squash=SquashConfig(trigger=Trigger.L1_MISS))
        ref, fast = _run_both(program_, tiled, machine)
        _assert_identical(ref, fast)
