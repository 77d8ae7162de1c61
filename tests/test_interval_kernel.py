"""The timing loop against its golden digests.

``PipelineSimulator.run`` must reproduce ``tests/data/timing_golden.json``
exactly — cycle counts, stats and interval log — over every benchmark
profile x squash trigger, over the machine-config variants the
ablations exercise, and over the edge cases (zero-committed programs, a
squashed last instruction, a queue that never fills), each on the
bubbled machine and on a bubble-free copy where the chunk memo engages.
The digests were generated where three independent loops (a per-cycle
loop, an event-skipping kernel and the memoized kernel) agreed on every
case. The same run integrated from its columns and from an object list
must give the same AVF/MITF numbers to the last bit.

They also cover the persistent timeline store: a second pass over the
same work must perform zero pipeline simulations.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.deadcode import analyze_deadness
from repro.avf.avf_calc import compute_iq_avf
from repro.avf.occupancy import AccountingPolicy, compute_breakdown
from repro.pipeline import core as core_mod
from repro.pipeline.config import IssuePolicy, Trigger
from repro.pipeline.core import PipelineSimulator
from repro.pipeline.iq import IntervalTimeline, OccupantKind
from repro.pipeline.result import PipelineResult
from repro.runtime.cache import cache_key
from repro.runtime.context import use_runtime
from repro.workloads.codegen import synthesize
from repro.workloads.spec2000 import ALL_PROFILES

from . import timing_golden as golden
from .conftest import TEST_SEED

GOLDEN = golden.load()
#: Variants with a dedicated edge-case test below.
_EDGE_VARIANTS = ("baseline", "queue_never_fills")


def _check(key, program_, trace, machine):
    """Run the one loop and compare it with the golden record."""
    result = golden.simulate(program_, trace, machine)
    assert isinstance(result.intervals, IntervalTimeline)
    assert golden.digest(result) == GOLDEN[key], key
    return result


def _assert_forms_agree(result, deadness):
    """Column and object-list integration of one run agree exactly."""
    listed = PipelineResult(cycles=result.cycles, committed=result.committed,
                            intervals=list(result.intervals),
                            iq_entries=result.iq_entries,
                            stats=dict(result.stats))
    assert listed.timeline is None
    assert listed.occupancy_fraction() == result.occupancy_fraction()
    for policy in AccountingPolicy:
        lb = compute_breakdown(listed, deadness, policy)
        fb = compute_breakdown(result, deadness, policy)
        assert lb.ace_bit_cycles == fb.ace_bit_cycles
        assert lb.unace_bit_cycles == fb.unace_bit_cycles
        assert lb.ex_ace_bit_cycles == fb.ex_ace_bit_cycles
        assert lb.unread_bit_cycles == fb.unread_bit_cycles
        assert lb.resident_bit_cycles == fb.resident_bit_cycles
        assert lb.fdd_distance_weights == fb.fdd_distance_weights
        assert lb.sdc_avf == fb.sdc_avf
        assert lb.due_avf == fb.due_avf
    lr = compute_iq_avf("x", listed, deadness)
    fr = compute_iq_avf("x", result, deadness)
    assert lr.ipc_over_sdc_avf == fr.ipc_over_sdc_avf
    assert lr.ipc_over_due_avf == fr.ipc_over_due_avf
    # The persistent store must key both forms identically.
    assert cache_key(listed) == cache_key(result)


class TestGoldenFile:
    def test_covers_exactly_the_cases(self):
        keys = set()
        for profile in ALL_PROFILES:
            keys.update(key for key, _ in golden.profile_cases(profile))
        for name in golden.VARIANTS:
            keys.update(key for key, _ in golden.variant_cases(name))
        for name in golden.EDGE_CASES:
            keys.update(key for key, _ in golden.edge_cases(name))
        keys.update(key for key, _ in golden.tiled_cases(
            golden.tiled_program()[0]))
        assert keys == set(GOLDEN)
        # The 1-wide and 1-entry queues that squash on every L0 miss.
        for name in ("narrow_l0", "one_entry_ooo_l0"):
            assert {key for key, _ in golden.variant_cases(name)} <= keys
        assert len(GOLDEN) == 188


class TestDifferentialMatrix:
    """The loop matches the golden file over profiles, triggers, and
    machine variants."""

    @pytest.mark.parametrize("profile", ALL_PROFILES,
                             ids=[p.name for p in ALL_PROFILES])
    def test_every_profile_every_trigger(self, profile):
        program_ = synthesize(profile,
                              target_instructions=golden.PROFILE_INSTRUCTIONS,
                              seed=TEST_SEED)
        execution = golden.execute(program_)
        deadness = analyze_deadness(execution)
        for key, machine in golden.profile_cases(profile):
            result = _check(key, program_, execution.trace, machine)
            if machine.fetch_bubble_prob:
                _assert_forms_agree(result, deadness)

    @pytest.mark.parametrize("variant", [
        name for name in golden.VARIANTS if name not in _EDGE_VARIANTS])
    def test_machine_variants(self, variant, small_program, small_execution,
                              small_deadness):
        for key, machine in golden.variant_cases(variant):
            result = _check(key, small_program, small_execution.trace,
                            machine)
            _assert_forms_agree(result, small_deadness)

    def test_tiled_trace(self):
        """A tiled trace, on which the draw-free memo replays most
        chunks."""
        profile, program_, trace = golden.tiled_program()
        for key, machine in golden.tiled_cases(profile):
            _check(key, program_, trace, machine)


class TestEdgeCases:
    """The corners of the timing model."""

    def test_zero_committed_breakdown(self):
        """A run that committed nothing produces an all-zero breakdown,
        with or without a DeadnessAnalysis, on both interval forms."""
        for intervals in ([], IntervalTimeline([])):
            result = PipelineResult(cycles=25, committed=0,
                                    intervals=intervals, iq_entries=64,
                                    stats={})
            for policy in AccountingPolicy:
                breakdown = compute_breakdown(result, None, policy)
                assert breakdown.ace_bit_cycles == 0.0
                assert breakdown.resident_bit_cycles == 0.0
                assert breakdown.unace_bit_cycles == {}
                assert breakdown.fdd_distance_weights == {}
                assert breakdown.sdc_avf == 0.0

    def test_minimal_one_instruction_trace(self):
        """The smallest simulatable program: a lone HALT."""
        prog = golden.halt_program()
        execution = golden.execute(prog)
        deadness = analyze_deadness(execution)
        for key, machine in golden.edge_cases("halt"):
            result = _check(key, prog, execution.trace, machine)
            _assert_forms_agree(result, deadness)
            assert result.committed == len(execution.trace)

    def test_last_instruction_squashed(self):
        """A trace whose final instruction is an exposure-squash victim."""
        prog = golden.last_squashed_program()
        execution = golden.execute(prog)
        deadness = analyze_deadness(execution)
        last_seq = max(op.seq for op in execution.trace)
        for key, machine in golden.edge_cases("last_squashed"):
            result = _check(key, prog, execution.trace, machine)
            _assert_forms_agree(result, deadness)
            assert result.stats["squashed_instructions"] > 0
            squashed = {iv.seq for iv in result.intervals
                        if iv.kind is OccupantKind.SQUASHED}
            assert last_seq in squashed  # the case this test exists for
            committed = {iv.seq for iv in result.intervals
                         if iv.kind is OccupantKind.COMMITTED}
            assert last_seq in committed  # ... and it was refetched

    def test_queue_never_fills(self, small_program, small_execution,
                               small_deadness):
        """An IQ larger than the whole trace never exerts backpressure."""
        for key, machine in golden.variant_cases("queue_never_fills"):
            result = _check(key, small_program, small_execution.trace,
                            machine)
            _assert_forms_agree(result, small_deadness)
            assert result.iq_entries == 16384
            assert len(result.intervals) >= len(small_execution.trace)

    def test_no_bubble_stream(self, small_program, small_execution,
                              small_deadness):
        """bubble_prob=0 exercises the pure-skip (draw-free) path."""
        for key, machine in golden.variant_cases("baseline"):
            result = _check(key, small_program, small_execution.trace,
                            machine)
            _assert_forms_agree(result, small_deadness)
            if not machine.fetch_bubble_prob:
                assert result.stats["fetch_bubbles"] == 0


class TestBreakdownPaths:
    """Breakdowns read the timeline columns without materialising
    interval objects."""

    @pytest.fixture(scope="class")
    def fast_result(self, small_program, small_execution, squash_machine):
        return PipelineSimulator(small_program, small_execution.trace,
                                 squash_machine, seed=TEST_SEED).run()

    def test_timeline_requires_deadness(self, fast_result):
        with pytest.raises(ValueError):
            compute_breakdown(fast_result, None)

    def test_timeline_materializes_lazily(self, fast_result):
        timeline = fast_result.timeline
        assert timeline is not None
        assert timeline._materialized is None
        interval = fast_result.intervals[0]
        assert interval.alloc_cycle == timeline.alloc[0]
        assert timeline._materialized is not None

    def test_occupancy_fraction_uses_columns(self, fast_result):
        column_total = fast_result.timeline.total_resident_cycles()
        object_total = sum(iv.resident_cycles
                           for iv in fast_result.intervals)
        assert column_total == object_total

    def test_list_results_have_no_timeline(self, small_pipeline):
        plain = PipelineResult(cycles=10, committed=0, intervals=[],
                               iq_entries=4, stats={})
        assert plain.timeline is None


class TestTimelineStore:
    """The persistent cross-exhibit timeline store (tentpole layer 2)."""

    def _settings(self):
        from repro.experiments.common import ExperimentSettings

        return ExperimentSettings(target_instructions=2500, seed=TEST_SEED)

    def test_second_pass_simulates_nothing(self, tmp_path):
        from repro.experiments.common import clear_caches, run_benchmark

        settings = self._settings()
        profiles = ALL_PROFILES[:3]
        with use_runtime(cache_dir=tmp_path) as runtime:
            for profile in profiles:
                for trigger in (Trigger.NONE, Trigger.L1_MISS):
                    run_benchmark(profile, settings, trigger)
            assert runtime.telemetry.counters["pipeline_sims"] == 6
        clear_caches()
        with use_runtime(cache_dir=tmp_path) as runtime:
            for profile in profiles:
                for trigger in (Trigger.NONE, Trigger.L1_MISS):
                    run = run_benchmark(profile, settings, trigger)
                    assert isinstance(run.pipeline.intervals,
                                      IntervalTimeline)
            assert runtime.telemetry.counters["pipeline_sims"] == 0
            assert runtime.telemetry.counters["timeline_store_hits"] == 6
        clear_caches()

    def test_store_round_trip_is_exact(self, tmp_path):
        from repro.experiments.common import clear_caches, run_benchmark

        settings = self._settings()
        profile = ALL_PROFILES[0]
        with use_runtime(cache_dir=tmp_path):
            first = run_benchmark(profile, settings, Trigger.L1_MISS)
        clear_caches()
        with use_runtime(cache_dir=tmp_path):
            second = run_benchmark(profile, settings, Trigger.L1_MISS)
        clear_caches()
        assert first.pipeline.cycles == second.pipeline.cycles
        assert first.pipeline.stats == second.pipeline.stats
        assert cache_key(first.pipeline) == cache_key(second.pipeline)
        for policy in AccountingPolicy:
            a = compute_breakdown(first.pipeline, first.deadness, policy)
            b = compute_breakdown(second.pipeline, second.deadness, policy)
            assert a.ace_bit_cycles == b.ace_bit_cycles
            assert a.unace_bit_cycles == b.unace_bit_cycles

    def test_ablations_share_the_store(self, tmp_path):
        """Ablation runs route through run_benchmark and hit the store."""
        from repro.experiments import ablations
        from repro.experiments.common import clear_caches

        settings = self._settings()
        profiles = ALL_PROFILES[:2]
        with use_runtime(cache_dir=tmp_path) as runtime:
            ablations.accounting_policy(settings, profiles)
            # Both policies integrate the same runs: 2 sims, not 4.
            assert runtime.telemetry.counters["pipeline_sims"] == 2
        clear_caches()
        with use_runtime(cache_dir=tmp_path) as runtime:
            ablations.accounting_policy(settings, profiles)
            assert runtime.telemetry.counters["pipeline_sims"] == 0
        clear_caches()

    def test_memo_keys_on_full_machine_config(self):
        """Satellite 2: runs differing in any machine knob never alias."""
        from repro.experiments.common import (
            ExperimentSettings,
            _run_key,
        )

        settings = ExperimentSettings()
        profile = ALL_PROFILES[0]
        a = settings.machine_for(profile, Trigger.NONE)
        b = replace(a, iq_entries=a.iq_entries * 2)
        c = replace(a, issue_policy=IssuePolicy.OOO_WINDOW)
        keys = {_run_key(profile, settings, m) for m in (a, b, c)}
        assert len(keys) == 3


class TestWarmSnapshotLru:
    """Satellite 1: the warm-hierarchy snapshot cache is LRU-bounded."""

    def test_eviction_when_over_limit(self, small_program, small_execution,
                                      base_machine, monkeypatch):
        core_mod.clear_warm_snapshots()
        monkeypatch.setattr(core_mod, "_WARM_SNAPSHOT_LIMIT", 2)
        before = core_mod.warm_snapshot_evictions
        for tail in (11, 12, 13, 14):
            machine = replace(base_machine, warmup_tail_accesses=tail)
            PipelineSimulator(small_program, small_execution.trace,
                              machine, seed=TEST_SEED).run()
        assert len(core_mod._WARM_SNAPSHOTS) <= 2
        assert core_mod.warm_snapshot_evictions >= before + 2
        core_mod.clear_warm_snapshots()

    def test_hit_refreshes_recency(self, small_program, small_execution,
                                   base_machine, monkeypatch):
        core_mod.clear_warm_snapshots()
        monkeypatch.setattr(core_mod, "_WARM_SNAPSHOT_LIMIT", 2)

        def simulate(machine):
            PipelineSimulator(small_program, small_execution.trace,
                              machine, seed=TEST_SEED).run()

        first = replace(base_machine, warmup_tail_accesses=21)
        second = replace(base_machine, warmup_tail_accesses=22)
        simulate(first)
        simulate(second)
        keys_before = list(core_mod._WARM_SNAPSHOTS)
        simulate(first)  # hit: must move first's key to MRU position
        assert list(core_mod._WARM_SNAPSHOTS) == [keys_before[1],
                                                  keys_before[0]]
        # A third distinct config now evicts ``second``, not ``first``.
        simulate(replace(base_machine, warmup_tail_accesses=23))
        assert keys_before[0] in core_mod._WARM_SNAPSHOTS
        assert keys_before[1] not in core_mod._WARM_SNAPSHOTS
        core_mod.clear_warm_snapshots()

    def test_eviction_counter_in_verbose_footer(self):
        from repro.runtime.telemetry import Telemetry

        telemetry = Telemetry()
        telemetry.increment("warm_hierarchy_hits", 3)
        telemetry.increment("warm_hierarchy_misses", 2)
        telemetry.increment("warm_snapshot_evictions", 1)
        summary = telemetry.format_summary(verbose=True)
        assert "1 snapshots evicted" in summary


class TestWarmSnapshotEvictionOrder:
    """Direct coverage for `_WARM_SNAPSHOTS` eviction *order* and the
    `warm_snapshot_evictions` telemetry counter.

    The LRU bound itself is proven above; here we pin down (a) that
    evictions proceed strictly least-recently-used-first across a long
    insertion sequence, and (b) that each real eviction ticks the runtime
    telemetry counter that the ``--verbose`` footer reports — previously
    only the footer formatting was tested, with hand-incremented
    counters.
    """

    def _simulate(self, program_, execution, machine, tail):
        PipelineSimulator(program_, execution.trace,
                          replace(machine, warmup_tail_accesses=tail),
                          seed=TEST_SEED).run()

    def test_evictions_are_oldest_first(self, small_program,
                                        small_execution, base_machine,
                                        monkeypatch):
        core_mod.clear_warm_snapshots()
        monkeypatch.setattr(core_mod, "_WARM_SNAPSHOT_LIMIT", 3)
        inserted = []
        for tail in (31, 32, 33):
            self._simulate(small_program, small_execution, base_machine,
                           tail)
            inserted.append(list(core_mod._WARM_SNAPSHOTS)[-1])
        # Each further insert evicts exactly the oldest surviving key, in
        # the original insertion order.
        for round_index, tail in enumerate((34, 35, 36)):
            self._simulate(small_program, small_execution, base_machine,
                           tail)
            surviving = list(core_mod._WARM_SNAPSHOTS)
            assert len(surviving) == 3
            for old_key in inserted[:round_index + 1]:
                assert old_key not in surviving
            for kept_key in inserted[round_index + 1:]:
                assert kept_key in surviving
        core_mod.clear_warm_snapshots()

    def test_real_evictions_tick_runtime_telemetry(self, small_program,
                                                   small_execution,
                                                   base_machine,
                                                   monkeypatch):
        core_mod.clear_warm_snapshots()
        monkeypatch.setattr(core_mod, "_WARM_SNAPSHOT_LIMIT", 2)
        with use_runtime() as runtime:
            for tail in (41, 42, 43, 44):
                self._simulate(small_program, small_execution,
                               base_machine, tail)
            counters = runtime.telemetry.counters
            assert counters["warm_snapshot_evictions"] == 2
            assert counters["warm_hierarchy_misses"] == 4
            summary = runtime.telemetry.format_summary(verbose=True)
            assert "2 snapshots evicted" in summary
            # A warm hit must refresh, not evict.
            evictions_before = counters["warm_snapshot_evictions"]
            self._simulate(small_program, small_execution, base_machine,
                           44)
            assert counters["warm_snapshot_evictions"] == evictions_before
            assert counters["warm_hierarchy_hits"] == 1
        core_mod.clear_warm_snapshots()
