"""Timing-simulator fast-path regression tests.

The commit-queue head-index rewrite (no ``pop(0)``) and the
warmed-hierarchy snapshot cache are pure wall-clock optimisations: cycle
counts, interval streams, and stats must not move at all. The pinned
numbers below were produced by the seed implementation; a change to any
of them means the hot-loop rewrite altered semantics, not just speed.
"""

import pytest

from repro.memory.cache import Cache, CacheConfig
from repro.memory.hierarchy import CacheHierarchy, HierarchyConfig
from repro.pipeline import core
from repro.pipeline.core import PipelineSimulator
from repro.runtime.context import use_runtime
from tests.conftest import TEST_SEED


def _interval_fields(result):
    """Field-wise view of the interval stream (no __eq__ on the class)."""
    return [(i.seq, i.instruction, i.kind, i.alloc_cycle, i.issue_cycle,
             i.dealloc_cycle) for i in result.intervals]


class TestCycleCountRegression:
    def test_baseline_pipeline_pinned(self, small_pipeline):
        # Seed-implementation golden numbers for the session fixture.
        assert small_pipeline.cycles == 7519
        assert small_pipeline.committed == 7764

    def test_squash_pipeline_pinned(self, squash_pipeline):
        assert squash_pipeline.cycles == 7939
        assert squash_pipeline.committed == 7764

    def test_rerun_is_bit_identical(self, small_program, small_execution,
                                    base_machine, small_pipeline):
        rerun = PipelineSimulator(small_program, small_execution.trace,
                                  base_machine, seed=TEST_SEED).run()
        assert rerun.cycles == small_pipeline.cycles
        assert rerun.committed == small_pipeline.committed
        assert rerun.stats == small_pipeline.stats
        assert _interval_fields(rerun) == _interval_fields(small_pipeline)


class TestWarmSnapshotCache:
    def test_cold_vs_warm_identical(self, small_program, small_execution,
                                    base_machine):
        core.clear_warm_snapshots()
        with use_runtime() as context:
            cold = PipelineSimulator(small_program, small_execution.trace,
                                     base_machine, seed=TEST_SEED).run()
            warm = PipelineSimulator(small_program, small_execution.trace,
                                     base_machine, seed=TEST_SEED).run()
            counters = context.telemetry.counters
        assert counters["warm_hierarchy_misses"] >= 1
        assert counters["warm_hierarchy_hits"] >= 1
        assert cold.cycles == warm.cycles
        assert cold.committed == warm.committed
        assert cold.stats == warm.stats
        assert _interval_fields(cold) == _interval_fields(warm)

    def test_stale_entry_degrades_to_recompute(self, small_program,
                                               small_execution,
                                               base_machine):
        """A key collision with a different address stream must be
        detected and recomputed, never restored."""
        core.clear_warm_snapshots()
        reference = PipelineSimulator(small_program, small_execution.trace,
                                      base_machine, seed=TEST_SEED).run()
        assert len(core._WARM_SNAPSHOTS) == 1
        key, (addresses, snap) = next(iter(core._WARM_SNAPSHOTS.items()))
        # The stream is the address column's bytes: flip the last bit.
        poisoned = addresses[:-1] + bytes([addresses[-1] ^ 1])
        core._WARM_SNAPSHOTS[key] = (poisoned, snap)

        again = PipelineSimulator(small_program, small_execution.trace,
                                  base_machine, seed=TEST_SEED).run()
        assert again.cycles == reference.cycles
        assert again.stats == reference.stats
        # The recompute overwrote the poisoned entry with the true stream.
        assert core._WARM_SNAPSHOTS[key][0] == addresses

    def test_snapshot_store_is_bounded(self):
        core.clear_warm_snapshots()
        for index in range(core._WARM_SNAPSHOT_LIMIT + 5):
            key = ("prog", None, 0, index, index)
            if len(core._WARM_SNAPSHOTS) >= core._WARM_SNAPSHOT_LIMIT:
                core._WARM_SNAPSHOTS.pop(next(iter(core._WARM_SNAPSHOTS)))
            core._WARM_SNAPSHOTS[key] = ((), ())
        assert len(core._WARM_SNAPSHOTS) <= core._WARM_SNAPSHOT_LIMIT
        core.clear_warm_snapshots()
        assert not core._WARM_SNAPSHOTS


GEOMETRY = CacheConfig(size_words=64, line_words=4, ways=2, name="unit")


class TestSnapshotRestore:
    def test_cache_roundtrip_preserves_future_behaviour(self):
        original = Cache(GEOMETRY)
        for address in range(0, 1024, 4):
            original.access(address)
        saved = original.snapshot()

        replica = Cache(GEOMETRY)
        replica.restore(saved)
        probe = [7, 1020, 64, 68, 7, 512, 1020]
        assert [original.access(a) for a in probe] == \
            [replica.access(a) for a in probe]

    def test_snapshot_is_a_deep_copy(self):
        cache = Cache(GEOMETRY)
        cache.access(0)
        saved = cache.snapshot()
        cache.access(1024)  # evolves the live state
        restored = Cache(GEOMETRY)
        restored.restore(saved)
        assert restored.snapshot() == saved

    def test_restore_rejects_wrong_geometry(self):
        bigger = Cache(CacheConfig(size_words=128, line_words=4, ways=2,
                                   name="bigger"))
        with pytest.raises(ValueError):
            bigger.restore(Cache(GEOMETRY).snapshot())

    def test_hierarchy_roundtrip(self):
        config = HierarchyConfig()
        original = CacheHierarchy(config)
        for address in range(0, 8192, 16):
            original.access(address)
        replica = CacheHierarchy(config)
        replica.restore(original.snapshot())
        probe = [0, 16, 8176, 4096, 12345, 0]
        assert [original.access(a) for a in probe] == \
            [replica.access(a) for a in probe]
